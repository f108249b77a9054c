"""Cohomological dimension tables of a double complex.

Six theories: column (d_v) cohomology, row (d_h) cohomology, de Rham of the
total complex, Bott-Chern, Aeppli, and the arithmetic genus.  Everything is
a dimension count obtained from exact ranks; subspace intersections and sums
are computed on stacked and concatenated matrices, never via bases of
harmonic representatives.

The four grid theories share one rule, :meth:`.linalg.Grid.minus`: an entry
is the spot's dimension less the ranks the theory charges to it.  Each
entry is dim ker(out) - dim im(into) for a map ``out`` leaving the spot and
a map ``into`` arriving there, and on a valid complex im(into) is inside
ker(out), so the count is exact.  The maps are

* Dolbeault: each stored d_v, charged to both of its ends;
* row: each stored d_h, charged to both of its ends;
* Bott-Chern: the stored arrows out of a spot, charged to it: one arrow as
  stored, two stacked by :func:`.linalg.vstack`, which shares their rows;
  and each nonzero composite d_h d_v, charged to its target;
* Aeppli: the same composites, charged to their source, and the map
  [d_h | d_v] into a spot, charged to it: the spot's rows, placed by
  :func:`.bicomplex.layout`, of the total differential that the check
  kept, a row slice that shares its rows.  Its other columns are zero, so
  the rank is that of the two arrows side by side.

Each map is ranked once, however many spots it is charged to, and no
matrix is assembled to be ranked, here or by either method of
:mod:`.spectral`: only the composites are new.
"""

from . import linalg
from .bicomplex import layout, require_valid, total_differential

THEORIES = ("dolbeault", "row", "bott_chern", "aeppli")
_set = object.__setattr__


class Table(linalg.Record):
    """A frozen grid of dimensions, indexed as ``grid[p, q]``: page ``r``
    of the spectral sequence, or the table of one of the ``THEORIES``.
    The label that does not apply is ``None``.  A :class:`.linalg.Grid` is
    kept as given, so pages may share one; other rows are checked into one."""
    __slots__ = ("grid", "r", "theory")

    def __init__(self, grid, r=None, theory=None):
        if theory is not None and theory not in THEORIES:
            raise ValueError(f"unknown theory {theory!r}")
        if not isinstance(grid, linalg.Grid):
            grid = linalg.Grid(grid)
        _set(self, "grid", grid)
        _set(self, "r", r)
        _set(self, "theory", theory)


class BettiVector(linalg.Record):
    """Total-complex cohomology dimensions b_0 .. b_{p_max+q_max}."""
    __slots__ = ("b",)

    def __getitem__(self, k):
        return self.b[k]

    def __len__(self):
        return len(self.b)


def _table(theory, K, maps):
    """``K.dims.minus`` the rank of each nonzero ``(matrix, spots)`` pair of
    ``maps``, ranked once and charged to each of its spots."""
    return Table(K.dims.minus([(s, r) for m, spots in maps if m.any()
                               for r in [linalg.rank(m)] for s in spots]),
                 theory=theory)


def _composites(K):
    """``(d_h d_v, source, target)`` for each pair of stored arrows that
    compose through the spot above ``source``."""
    for (s, t), v in K.stored_maps():
        u = (t[0] + 1, t[1])
        h = K.arrow(t, u) if s[0] == t[0] else None
        if h is not None:
            yield linalg.mat_mul(h, v), s, u


def dolbeault(K):
    """Vertical-differential cohomology; its entries are the Hodge numbers."""
    require_valid(K)
    return _table("dolbeault", K, [(m, arrow) for arrow, m in K.stored_maps()
                                   if arrow[0][0] == arrow[1][0]])


def row_cohomology(K):
    """Horizontal-differential cohomology (the conjugate of dolbeault)."""
    require_valid(K)
    return _table("row", K, [(m, arrow) for arrow, m in K.stored_maps()
                             if arrow[0][0] != arrow[1][0]])


def de_rham(K):
    """Betti numbers of the total complex with differential d_h + d_v: the
    size of each degree is read off the kept D_k, and each D_k is ranked."""
    maps = [total_differential(K, k) for k in range(K.p_max + K.q_max + 1)]
    ranks = [linalg.rank(d) if d.any() else 0 for d in maps]
    return BettiVector(tuple([d.shape[1] - r - into for d, r, into
                              in zip(maps, ranks, [0] + ranks)]))


def bott_chern(K):
    """dim(ker d_h ∩ ker d_v) minus rank of d_h d_v into each spot."""
    require_valid(K)
    outs = {}
    for (s, _), m in K.stored_maps():
        outs.setdefault(s, []).append(m)
    out = [(ms[0] if len(ms) == 1 else linalg.vstack(ms), [s])
           for s, ms in outs.items()]
    into = [(m, [u]) for m, _, u in _composites(K)]
    return _table("bott_chern", K, out + into)


def aeppli(K):
    """dim ker(d_h d_v) minus dim(im d_h + im d_v) at each spot."""
    require_valid(K)
    out = [(m, [s]) for m, s, _ in _composites(K)]
    into = [(d[a:b], [t]) for k in range(K.p_max + K.q_max)
            for d in [total_differential(K, k)]
            for t, a, b in layout(K, k + 1)]
    return _table("aeppli", K, out + into)


def arithmetic_genus(K):
    """Alternating sum of the first column of the dolbeault table.

    This is the Euler characteristic of column ``p = 0`` under d_v, so the
    ranks cancel and it is the alternating sum of the column's dims: no map
    is ranked, and the "genus = 0" check of :func:`.s6.verify_model` tests
    the column-0 dims.
    """
    require_valid(K)
    return sum((-1) ** q * K.dims[0, q] for q in range(K.q_max + 1))
