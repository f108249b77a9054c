"""Bounded double complexes over the rationals.

A complex lives on the rectangle ``0 <= p <= p_max``, ``0 <= q <= q_max``.
Bidegrees are plain ``(p, q)`` tuples.  Each spot carries a dimension, the
horizontal differential ``d_h(p, q)`` maps spot ``(p, q)`` to ``(p+1, q)``
and the vertical one ``d_v(p, q)`` to ``(p, q+1)``; matrices act on column
vectors and are stored as target-dim x source-dim.  The two differentials
square to zero and anticommute, so the total differential is d_h + d_v with
no auxiliary signs.

A complex stores both differentials in one arrow table that maps
``(source, target)`` to a matrix; an arrow missing from the table is the
zero map.  The axiom check, duals, conjugates, direct sums, the total
differential and serialization walk the stored arrows, so no zero matrix is
built for an absent map.

A complex is checked once, as it is built, and keeps the report: first
the misfits that the constructor noted, then the broken d^2 = 0 axioms, from
one total differential D_k per degree, assembled from the arrows that fit,
and one product D_{k+1} D_k per degree.  A valid complex also keeps the D_k
and the :func:`layout` of each degree, and hands them to the pages and to
the cohomology: each is made once.

Values are immutable once built; every operation here is a pure function.
"""

from types import MappingProxyType

from . import linalg

# Only the constructor writes.
_set = object.__setattr__


class Violation(linalg.Record):
    """One broken axiom, located at the bidegree where it was detected."""
    __slots__ = ("p", "q", "axiom", "detail")

    def __str__(self):
        return f"({self.p},{self.q}) {self.axiom}: {self.detail}"


class InvalidComplexError(ValueError):
    """Raised when an operation is handed a complex that fails validation."""

    def __init__(self, report):
        self.report = list(report)
        lines = "; ".join(str(v) for v in self.report[:5])
        more = "" if len(self.report) <= 5 else f" (+{len(self.report) - 5} more)"
        super().__init__(f"invalid double complex: {lines}{more}")


class DoubleComplex(linalg._Immutable):
    """A double complex, checked once as it is built.

    ``dims`` is any iterable of rows ``dims[p]`` of ints, stored as a
    :class:`.linalg.Grid`; ``d_horiz`` / ``d_vert`` map ``(p, q)`` to the
    matrices of int/Fraction out of ``(p, q)``, each a
    :class:`.linalg.Matrix` or any iterable of rows of entries.  The
    constructor files them, as immutable matrices, in a read-only arrow
    table keyed by ``(source, target)`` and sorted, and decides each fit as
    it files it: an arrow fits when both ends are on the grid and its matrix
    is target-dim x source-dim.  A misfit is stored all the same, and its
    detail is noted in arrow order.  A zero matrix that fits (every map
    touching a zero-dimensional spot is one) is the absent arrow and is not
    stored.  The constructor ends by checking the axioms once: the complex
    keeps the report, whose first entries are the misfit notes, and, when
    it is empty, the total differentials and their :func:`layout`.
    """

    __slots__ = ("p_max", "q_max", "dims", "_arrows", "_report", "_totals",
                 "_layout")

    def __init__(self, p_max, q_max, dims, d_horiz=None, d_vert=None):
        if p_max < 0 or q_max < 0:
            raise ValueError("grid bounds must be non-negative")
        grid = linalg.Grid(dims)
        if grid.shape != (p_max + 1, q_max + 1):
            raise ValueError(f"dims grid has shape {grid.shape}, "
                             f"expected {(p_max + 1, q_max + 1)}")
        if any(x < 0 for row in grid for x in row):
            raise ValueError("spot dimensions must be non-negative")
        _set(self, "p_max", int(p_max))
        _set(self, "q_max", int(q_max))
        _set(self, "dims", grid)
        cells = list(grid)
        arrows, misfits = {}, {}
        for kind, (dp, dq), maps in (("horiz", (1, 0), d_horiz or {}),
                                     ("vert", (0, 1), d_vert or {})):
            for (p, q), m in maps.items():
                m = linalg.as_matrix(m)
                s, t = (int(p), int(q)), (int(p) + dp, int(q) + dq)
                if min(s) < 0 or t[0] > p_max or t[1] > q_max:
                    misfits[s, t] = f"d_{kind} leaves the grid"
                elif m.shape != (cells[t[0]][t[1]], cells[s[0]][s[1]]):
                    misfits[s, t] = (f"d_{kind} is {m.shape[0]}x{m.shape[1]}, "
                                     f"expected {grid[t]}x{grid[s]}")
                elif not m.any():
                    continue
                arrows[s, t] = m
        _set(self, "_arrows", MappingProxyType(dict(sorted(arrows.items()))))
        report, degrees, totals = _check(self, dict(sorted(misfits.items())))
        _set(self, "_report", tuple(report))
        _set(self, "_totals", None if report else tuple(totals))
        _set(self, "_layout", None if report else tuple(degrees))

    def dim(self, p, q):
        """Dimension at ``(p, q)``; spots outside the grid are zero."""
        if 0 <= p <= self.p_max and 0 <= q <= self.q_max:
            return self.dims[p, q]
        return 0

    def arrow(self, source, target):
        """The stored matrix of the arrow ``source -> target``, or ``None``.

        ``None`` means the map is zero, and nothing is allocated for it.
        """
        return self._arrows.get((source, target))

    def stored_maps(self):
        """The arrow table's ``((source, target), matrix)`` items, sorted.

        Absent maps are zero and are not listed, so nothing is allocated
        for them.
        """
        return self._arrows.items()

    def total_dim(self):
        return sum(map(sum, self.dims))

    def __eq__(self, other):
        if not isinstance(other, DoubleComplex):
            return NotImplemented
        return ((self.p_max, self.q_max) == (other.p_max, other.q_max)
                and self.dims == other.dims
                and self._arrows == other._arrows)

    __hash__ = None

    def __repr__(self):
        return (f"DoubleComplex(p_max={self.p_max}, q_max={self.q_max}, "
                f"total_dim={self.total_dim()})")


def _from_arrows(p_max, q_max, dims, arrows):
    """The complex whose arrow table is ``arrows`` (zero maps dropped)."""
    horiz = {s: m for (s, t), m in arrows.items() if t[0] != s[0]}
    vert = {s: m for (s, t), m in arrows.items() if t[0] == s[0]}
    return DoubleComplex(p_max, q_max, dims, horiz, vert)


def empty_complex(p_max, q_max):
    return DoubleComplex(p_max, q_max, [[0] * (q_max + 1)] * (p_max + 1))


# The axiom broken by a nonzero block of D_{k+1} D_k, by the step from its
# source spot to its target spot, with the middle spots of the unit-step
# paths that compose to it.  Dict order is the order of the reports at a spot.
_AXIOMS = {
    (2, 0): ("dd_horiz", "horizontal differential squared is nonzero",
             ((1, 0),)),
    (0, 2): ("dd_vert", "vertical differential squared is nonzero",
             ((0, 1),)),
    (1, 1): ("anticommute", "d_h d_v + d_v d_h is nonzero",
             ((1, 0), (0, 1))),
}
_RANK = {step: i for i, step in enumerate(_AXIOMS)}


def _assemble(K, misfits):
    """Each degree's spot blocks (p descending) and the D_k they block.

    All degrees are laid out once, and each stored entry of an arrow that
    fits is written once, straight into its row of D_k: an arrow that fits
    has the shape of its block, which the constructor checked, so no block
    is built or checked here."""
    dims = list(K.dims)
    degrees, rows, offset = [], [], {}
    for k in range(K.p_max + K.q_max + 2):
        spots, start = [], 0
        for p in range(min(K.p_max, k), max(0, k - K.q_max) - 1, -1):
            stop = start + dims[p][k - p]
            spots.append(((p, k - p), start, stop))
            offset[p, k - p] = start
            start = stop
        degrees.append(tuple(spots))
        # Every row starts as one shared empty dict, never written: a row
        # gets its own dict when an arrow first writes to it.
        rows.append([{}] * start)
    for (s, t), m in K.stored_maps():
        if (s, t) not in misfits:
            c, tgt = offset[s], rows[t[0] + t[1]]
            for i, row in enumerate(m.rows, offset[t]):
                if row:
                    out = tgt[i]
                    if not out:
                        out = tgt[i] = {}
                    for j, x in row.items():
                        out[c + j] = x
    return degrees, [linalg.Matrix((len(tgt), len(src)), tgt)
                     for src, tgt in zip(rows, rows[1:])]


def _check(K, misfits):
    """The axiom report of ``K``, the spot blocks of each degree and the D_k.

    ``misfits`` maps each misfit arrow, in arrow order, to the constructor's
    note; no fit is decided here.  d^2 = 0 is one product D_{k+1} D_k per
    degree whose factors have a stored entry.  A nonzero block of it from
    spot s to spot u names its axiom by u - s and is reported at s, unless a
    unit-step path s -> t -> u runs through a misfit, where the composite is
    meaningless.  Each stored entry of a product is read once.
    """
    out = [Violation(*s, "shape", note) for (s, _), note in misfits.items()]
    degrees, totals = _assemble(K, misfits)
    broken = set()
    for k in range(len(totals) - 1):
        if not (totals[k].any() and totals[k + 1].any()):
            continue
        square = linalg.mat_mul(totals[k + 1], totals[k])
        if square.any():
            src, tgt = _spots(degrees[k]), _spots(degrees[k + 2])
            broken.update((src[j], tgt[i])
                          for i, row in enumerate(square.rows) for j in row)
    blocks = []
    for s, u in broken:
        step = (u[0] - s[0], u[1] - s[1])
        axiom, detail, steps = _AXIOMS[step]
        middles = [(s[0] + a, s[1] + b) for a, b in steps]
        if not any(a in misfits for t in middles for a in ((s, t), (t, u))):
            blocks.append((s, _RANK[step], Violation(*s, axiom, detail)))
    out += [v for _, _, v in sorted(blocks, key=lambda b: b[:2])]
    return out, degrees, totals


def validate(K):
    """The report of the double complex axioms; empty iff all hold.

    Reported axioms: ``shape`` (stored matrix does not match the dims grid,
    or sits outside the grid), ``dd_horiz`` / ``dd_vert`` (a differential
    composed with itself is nonzero), ``anticommute`` (d_h d_v + d_v d_h is
    nonzero).  Reports list the shape violations in arrow order, then the
    rest by spot, ``dd_horiz`` before ``dd_vert`` before ``anticommute``.
    This is a fresh list of the report that ``K`` kept when it was built.
    """
    return list(K._report)


def require_valid(K):
    """Raise :class:`InvalidComplexError` on a non-empty kept report."""
    if K._report:
        raise InvalidComplexError(K._report)


def direct_sum(K1, K2):
    """Spotwise direct sum with block-diagonal differentials."""
    require_valid(K1)
    require_valid(K2)
    p_max = max(K1.p_max, K2.p_max)
    q_max = max(K1.q_max, K2.q_max)
    dims = [[K1.dim(p, q) + K2.dim(p, q) for q in range(q_max + 1)]
            for p in range(p_max + 1)]
    arrows = {}
    for s, t in K1._arrows.keys() | K2._arrows.keys():
        blocks = {(i, i): K._arrows[s, t]
                  for i, K in enumerate((K1, K2)) if (s, t) in K._arrows}
        arrows[s, t] = linalg.assemble([K1.dim(*t), K2.dim(*t)],
                                       [K1.dim(*s), K2.dim(*s)], blocks)
    return _from_arrows(p_max, q_max, dims, arrows)


def dual(K):
    """Reflect through ``(p, q) -> (p_max - p, q_max - q)`` and transpose.

    Transposition preserves ranks, so every cohomology dimension of the dual
    equals the reflected dimension of the original; applying ``dual`` twice
    gives back the original complex.
    """
    require_valid(K)
    P, Q = K.p_max, K.q_max
    return _from_arrows(P, Q, [row[::-1] for row in K.dims][::-1],
                        {((P - t[0], Q - t[1]), (P - s[0], Q - s[1])): m.T
                         for (s, t), m in K.stored_maps()})


def conjugate(K):
    """Swap the two gradings and the two differentials."""
    require_valid(K)
    return _from_arrows(K.q_max, K.p_max, list(zip(*K.dims)),
                        {(s[::-1], t[::-1]): m
                         for (s, t), m in K.stored_maps()})


def _kept(K, slot, k):
    kept = getattr(K, slot)
    if kept is None:
        require_valid(K)
    if not 0 <= k < len(kept):
        raise ValueError(f"degree {k} is outside 0 .. {len(kept) - 1}")
    return kept[k]


def layout(K, k):
    """The spot blocks ``(spot, start, stop)`` of degree ``k`` in decreasing
    ``p``, so F^p is a prefix: where each spot's coordinates sit among the
    columns of D_k and the rows of D_{k-1}.  An invalid ``K`` raises
    :class:`InvalidComplexError`; ``k`` runs over ``0 .. p_max + q_max + 1``,
    and the last degree has no spot."""
    return _kept(K, "_layout", k)


def _spots(degree):
    """The spot of each basis vector of one degree's layout."""
    return [s for s, a, b in degree for _ in range(b - a)]


def basis_spots(K, k):
    """The spot of each basis vector of degree ``k``, in decreasing ``p``."""
    return _spots(layout(K, k))


def total_differential(K, k):
    """The total differential from degree ``k`` to ``k + 1``.

    Rows and columns are blocked by :func:`layout` (decreasing ``p``), so
    F^p is a prefix of either degree's coordinates and D_k is the filtered
    boundary matrix.  An invalid ``K`` raises :class:`InvalidComplexError`,
    and otherwise this is the matrix that the constructor's check kept;
    ``k`` runs over ``0 .. p_max + q_max``.
    """
    return _kept(K, "_totals", k)


def _kept_degrees(K):
    """``(layouts, totals)``: the :func:`layout` of every degree and every
    :func:`total_differential`, read once each from what the constructor
    kept.  An invalid ``K`` raises :class:`InvalidComplexError`."""
    require_valid(K)
    return K._layout, K._totals
