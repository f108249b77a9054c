"""Cohomological dimension tables of a double complex.

Six theories: column (d_v) cohomology, row (d_h) cohomology, de Rham of the
total complex, Bott-Chern, Aeppli, and the arithmetic genus.  Each is a
dimension count from exact ranks of stored, stacked and sliced matrices and
of composites, never via bases of harmonic representatives.

The four grid theories share one rule, :func:`_tables`: an entry is the
spot's dimension less the ranks the theory charges to it.  Each entry is
dim ker(out) - dim im(into) for a map ``out`` leaving the spot and a map
``into`` arriving there, and on a valid complex im(into) is inside
ker(out), so the count is exact.  The maps are

* Dolbeault: each stored d_v, charged to both of its ends;
* row: each stored d_h, charged to both of its ends;
* Bott-Chern and Aeppli, one pass for the pair: the stored arrows out of a
  spot, charged to it in Bott-Chern: one arrow as stored, two stacked by
  :func:`.linalg.vstack`, which shares their rows; each nonzero composite
  d_h d_v, charged to its target in Bott-Chern and its source in Aeppli;
  and the map [d_h | d_v] into a spot, charged to it in Aeppli: the spot's
  rows, placed by :func:`.bicomplex.layout`, of the total differential that
  the check kept, a row slice that shares its rows.  Its other columns are
  zero, so the rank is that of the two arrows side by side.

Each map is ranked once for all the spots and theories it is charged to.
No matrix is assembled to be ranked, here or by either method of
:mod:`.spectral`: only the composites are new, each formed once per pair.
"""

from . import linalg
from .bicomplex import _kept_degrees, require_valid

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


def _tables(K, theories, maps):
    """``{theory: Table}``: ``K.dims.minus`` the ranks charged to each theory.
    A map is ``(matrix, spots, ...)``, one set of spots per theory; a nonzero
    matrix is ranked once and charged to every spot of every set."""
    charges = {t: [] for t in theories}
    for m, *spot_sets in maps:
        if m.any():
            r = linalg.rank(m)
            for charged, spots in zip(charges.values(), spot_sets):
                for s in spots:
                    charged.append((s, r))
    return {t: Table(K.dims.minus(c), theory=t) for t, c in charges.items()}


def dolbeault(K):
    """Vertical-differential cohomology; its entries are the Hodge numbers."""
    require_valid(K)
    return _tables(K, ["dolbeault"], [(m, a) for a, m in K.stored_maps()
                                      if a[0][0] == a[1][0]])["dolbeault"]


def row_cohomology(K):
    """Horizontal-differential cohomology (the conjugate of dolbeault)."""
    require_valid(K)
    return _tables(K, ["row"], [(m, a) for a, m in K.stored_maps()
                                if a[0][0] != a[1][0]])["row"]


def de_rham(K):
    """Betti numbers of the total complex with differential d_h + d_v: the
    size of each degree is read off the kept D_k, and each D_k is ranked."""
    maps = _kept_degrees(K)[1]
    ranks = [linalg.rank(d) if d.any() else 0 for d in maps]
    return BettiVector(tuple([d.shape[1] - r - into for d, r, into
                              in zip(maps, ranks, [0] + ranks)]))


def _bott_chern_aeppli(K):
    """Both tables, by name, from one walk of the arrow table, which forms
    each composite d_h d_v once; the maps are the module docstring's."""
    layouts, totals = _kept_degrees(K)
    outs, composites = {}, []
    for (s, t), m in K.stored_maps():
        outs.setdefault(s, []).append(m)
        u = (t[0] + 1, t[1])
        h = K.arrow(t, u) if s[0] == t[0] else None
        if h is not None:
            composites.append((linalg.mat_mul(h, m), [u], [s]))
    out = [(ms[0] if len(ms) == 1 else linalg.vstack(ms), [s], ())
           for s, ms in outs.items()]
    into = [(d[a:b], (), [t]) for d, degree in zip(totals, layouts[1:])
            for t, a, b in degree if a < b]
    return _tables(K, ["bott_chern", "aeppli"], out + composites + into)


def bott_chern(K):
    """dim(ker d_h ∩ ker d_v) minus rank of d_h d_v into each spot."""
    return _bott_chern_aeppli(K)["bott_chern"]


def aeppli(K):
    """dim ker(d_h d_v) minus dim(im d_h + im d_v) at each spot."""
    return _bott_chern_aeppli(K)["aeppli"]


def arithmetic_genus(K):
    """Alternating sum of the first column of the dolbeault table.

    This is the Euler characteristic of column ``p = 0`` under d_v, so the
    ranks cancel and it is the alternating sum of the column's dims: no map
    is ranked, and the "genus = 0" check of :func:`.s6.verify_model` tests
    the column-0 dims.
    """
    require_valid(K)
    return sum((-1) ** q * K.dims[0, q] for q in range(K.q_max + 1))
