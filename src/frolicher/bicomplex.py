"""Bounded double complexes over the rationals.

A complex lives on the rectangle ``0 <= p <= p_max``, ``0 <= q <= q_max``.
Bidegrees are plain ``(p, q)`` tuples.  Each spot carries a dimension, the
horizontal differential ``d_h(p, q)`` maps spot ``(p, q)`` to ``(p+1, q)``
and the vertical one ``d_v(p, q)`` to ``(p, q+1)``; matrices act on column
vectors and are stored as target-dim x source-dim.  The two differentials
square to zero and anticommute, so the total differential is d_h + d_v with
no auxiliary signs.

Values are immutable once built; every operation here is a pure function.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg


@dataclass(frozen=True)
class Violation:
    """One broken axiom, located at the bidegree where it was detected."""
    p: int
    q: int
    axiom: str
    detail: str

    def __str__(self):
        return f"({self.p},{self.q}) {self.axiom}: {self.detail}"


class InvalidComplexError(ValueError):
    """Raised when an operation is handed a complex that fails validation."""

    def __init__(self, report):
        self.report = list(report)
        lines = "; ".join(str(v) for v in self.report[:5])
        more = "" if len(self.report) <= 5 else f" (+{len(self.report) - 5} more)"
        super().__init__(f"invalid double complex: {lines}{more}")


class DoubleComplex:
    """Candidate double complex; run :func:`validate` to check the axioms.

    ``dims`` is indexable as ``dims[p, q]``; ``d_horiz`` / ``d_vert`` map
    ``(p, q)`` to matrices of int/Fraction, each stored as a frozen copy.
    Construction accepts matrices of any shape so that validation can report
    problems instead of refusing to represent them; redundant matrices (all
    zero, or of the correct shape touching a zero-dimensional spot) are
    normalized away.
    """

    __slots__ = ("p_max", "q_max", "dims", "_dh", "_dv", "_report")

    def __init__(self, p_max, q_max, dims, d_horiz=None, d_vert=None):
        if p_max < 0 or q_max < 0:
            raise ValueError("grid bounds must be non-negative")
        grid = np.asarray(dims, dtype=np.int64)
        if grid.shape != (p_max + 1, q_max + 1):
            raise ValueError(f"dims grid has shape {grid.shape}, "
                             f"expected {(p_max + 1, q_max + 1)}")
        if (grid < 0).any():
            raise ValueError("spot dimensions must be non-negative")
        grid = grid.copy()
        grid.flags.writeable = False
        self.p_max = int(p_max)
        self.q_max = int(q_max)
        self.dims = grid
        self._dh = self._normalize(d_horiz or {}, horiz=True)
        self._dv = self._normalize(d_vert or {}, horiz=False)
        self._report = None

    def _normalize(self, maps, horiz):
        kept = {}
        for (p, q), m in maps.items():
            m = np.asarray(m)
            if m.ndim != 2:
                raise ValueError(f"map at ({p},{q}) is not a matrix")
            # A frozen copy: the caller's array must not reach the value.
            m = linalg.from_rows(*m.shape, m.tolist())
            m.flags.writeable = False
            tgt = (p + 1, q) if horiz else (p, q + 1)
            expected = (self.dim(*tgt), self.dim(p, q))
            in_range = (0 <= p <= self.p_max and 0 <= q <= self.q_max
                        and tgt[0] <= self.p_max and tgt[1] <= self.q_max)
            if in_range and m.shape == expected and linalg.is_zero(m):
                continue
            kept[(int(p), int(q))] = m
        return kept

    def dim(self, p, q):
        """Dimension at ``(p, q)``; spots outside the grid are zero."""
        if 0 <= p <= self.p_max and 0 <= q <= self.q_max:
            return int(self.dims[p, q])
        return 0

    def dh(self, p, q):
        """Horizontal differential out of ``(p, q)`` (canonical zero if absent)."""
        m = self._dh.get((p, q))
        if m is None:
            return linalg.zeros(self.dim(p + 1, q), self.dim(p, q))
        return m

    def dv(self, p, q):
        """Vertical differential out of ``(p, q)`` (canonical zero if absent)."""
        m = self._dv.get((p, q))
        if m is None:
            return linalg.zeros(self.dim(p, q + 1), self.dim(p, q))
        return m

    def stored_maps(self):
        """``(source, target, matrix)`` for every map the complex stores.

        Absent maps are zero and are not listed, so nothing is allocated
        for them.
        """
        for (p, q), m in self._dh.items():
            yield (p, q), (p + 1, q), m
        for (p, q), m in self._dv.items():
            yield (p, q), (p, q + 1), m

    def spots(self):
        for p in range(self.p_max + 1):
            for q in range(self.q_max + 1):
                yield p, q

    def total_dim(self):
        return int(self.dims.sum())

    def __eq__(self, other):
        if not isinstance(other, DoubleComplex):
            return NotImplemented
        if (self.p_max, self.q_max) != (other.p_max, other.q_max):
            return False
        if not np.array_equal(self.dims, other.dims):
            return False
        for mine, theirs in ((self._dh, other._dh), (self._dv, other._dv)):
            for key in set(mine) | set(theirs):
                a = mine.get(key)
                b = theirs.get(key)
                if a is None or b is None:
                    # one side normalized the matrix away: equal iff the
                    # survivor is itself a redundant zero (it never is).
                    return False
                if not linalg.mat_eq(a, b):
                    return False
        return True

    __hash__ = None

    def __repr__(self):
        return (f"DoubleComplex(p_max={self.p_max}, q_max={self.q_max}, "
                f"total_dim={self.total_dim()})")


def empty_complex(p_max, q_max):
    return DoubleComplex(p_max, q_max,
                         np.zeros((p_max + 1, q_max + 1), dtype=np.int64))


def validate(K):
    """Check the double complex axioms; empty report iff all hold.

    Reported axioms: ``shape`` (stored matrix does not match the dims grid,
    or sits outside the grid), ``dd_horiz`` / ``dd_vert`` (a differential
    composed with itself is nonzero), ``anticommute`` (d_h d_v + d_v d_h is
    nonzero).  Composite checks are skipped where a shape violation already
    makes the composite meaningless.
    """
    out = []
    bad = set()

    for kind, maps in (("horiz", K._dh), ("vert", K._dv)):
        for (p, q), m in sorted(maps.items()):
            tgt = (p + 1, q) if kind == "horiz" else (p, q + 1)
            if not (0 <= p <= K.p_max and 0 <= q <= K.q_max
                    and tgt[0] <= K.p_max and tgt[1] <= K.q_max):
                out.append(Violation(p, q, "shape",
                                     f"d_{kind} leaves the grid"))
                bad.add((kind, p, q))
                continue
            expected = (K.dim(*tgt), K.dim(p, q))
            if m.shape != expected:
                out.append(Violation(p, q, "shape",
                                     f"d_{kind} is {m.shape[0]}x{m.shape[1]}, "
                                     f"expected {expected[0]}x{expected[1]}"))
                bad.add((kind, p, q))

    def ok(kind, p, q):
        return (kind, p, q) not in bad

    for p, q in K.spots():
        if p + 2 <= K.p_max and ok("horiz", p, q) and ok("horiz", p + 1, q):
            comp = linalg.mat_mul(K.dh(p + 1, q), K.dh(p, q))
            if not linalg.is_zero(comp):
                out.append(Violation(p, q, "dd_horiz",
                                     "horizontal differential squared is nonzero"))
        if q + 2 <= K.q_max and ok("vert", p, q) and ok("vert", p, q + 1):
            comp = linalg.mat_mul(K.dv(p, q + 1), K.dv(p, q))
            if not linalg.is_zero(comp):
                out.append(Violation(p, q, "dd_vert",
                                     "vertical differential squared is nonzero"))
        if (p + 1 <= K.p_max and q + 1 <= K.q_max
                and ok("horiz", p, q) and ok("vert", p + 1, q)
                and ok("vert", p, q) and ok("horiz", p, q + 1)):
            anti = (linalg.mat_mul(K.dv(p + 1, q), K.dh(p, q))
                    + linalg.mat_mul(K.dh(p, q + 1), K.dv(p, q)))
            if not linalg.is_zero(anti):
                out.append(Violation(p, q, "anticommute",
                                     "d_h d_v + d_v d_h is nonzero"))
    return out


def require_valid(K):
    """Raise :class:`InvalidComplexError` unless ``K`` passes validation."""
    if K._report is None:
        K._report = validate(K)
    if K._report:
        raise InvalidComplexError(K._report)


def direct_sum(K1, K2):
    """Spotwise direct sum with block-diagonal differentials."""
    require_valid(K1)
    require_valid(K2)
    p_max = max(K1.p_max, K2.p_max)
    q_max = max(K1.q_max, K2.q_max)
    dims = np.zeros((p_max + 1, q_max + 1), dtype=np.int64)
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            dims[p, q] = K1.dim(p, q) + K2.dim(p, q)
    dh = {}
    dv = {}
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            if p < p_max:
                dh[(p, q)] = linalg.assemble(
                    [K1.dim(p + 1, q), K2.dim(p + 1, q)],
                    [K1.dim(p, q), K2.dim(p, q)],
                    {(0, 0): K1.dh(p, q), (1, 1): K2.dh(p, q)})
            if q < q_max:
                dv[(p, q)] = linalg.assemble(
                    [K1.dim(p, q + 1), K2.dim(p, q + 1)],
                    [K1.dim(p, q), K2.dim(p, q)],
                    {(0, 0): K1.dv(p, q), (1, 1): K2.dv(p, q)})
    return DoubleComplex(p_max, q_max, dims, dh, dv)


def dual(K):
    """Reflect through ``(p, q) -> (p_max - p, q_max - q)`` and transpose.

    Transposition preserves ranks, so every cohomology dimension of the dual
    equals the reflected dimension of the original; applying ``dual`` twice
    gives back the original complex.
    """
    require_valid(K)
    P, Q = K.p_max, K.q_max
    dims = np.zeros((P + 1, Q + 1), dtype=np.int64)
    for p in range(P + 1):
        for q in range(Q + 1):
            dims[p, q] = K.dim(P - p, Q - q)
    dh = {}
    dv = {}
    for p in range(P + 1):
        for q in range(Q + 1):
            if p < P:
                dh[(p, q)] = linalg.transpose(K.dh(P - p - 1, Q - q))
            if q < Q:
                dv[(p, q)] = linalg.transpose(K.dv(P - p, Q - q - 1))
    return DoubleComplex(P, Q, dims, dh, dv)


def conjugate(K):
    """Swap the two gradings and the two differentials."""
    require_valid(K)
    P, Q = K.q_max, K.p_max
    dims = np.zeros((P + 1, Q + 1), dtype=np.int64)
    for p in range(P + 1):
        for q in range(Q + 1):
            dims[p, q] = K.dim(q, p)
    dh = {}
    dv = {}
    for p in range(P + 1):
        for q in range(Q + 1):
            if p < P:
                dh[(p, q)] = K.dv(q, p)
            if q < Q:
                dv[(p, q)] = K.dh(q, p)
    return DoubleComplex(P, Q, dims, dh, dv)


def degree_spots(K, k):
    """Bidegrees of total degree ``k``, ordered by increasing ``p``."""
    return [(p, k - p)
            for p in range(max(0, k - K.q_max), min(K.p_max, k) + 1)]


def total_differential(K, k):
    """The total differential from degree ``k`` to ``k + 1``.

    Rows and columns are blocked by :func:`degree_spots` order (increasing
    ``p``), so the column filtration by ``p`` corresponds to suffixes of the
    coordinate blocks.
    """
    src = degree_spots(K, k)
    tgt = degree_spots(K, k + 1)
    src_index = {spot: j for j, spot in enumerate(src)}
    tgt_index = {spot: i for i, spot in enumerate(tgt)}
    blocks = {(tgt_index[t], src_index[s]): m
              for s, t, m in K.stored_maps()
              if s in src_index and t in tgt_index}
    return linalg.assemble([K.dim(*s) for s in tgt], [K.dim(*s) for s in src],
                           blocks)
