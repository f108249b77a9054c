"""Cohomological dimension tables of a double complex.

Six theories: column (d_v) cohomology, row (d_h) cohomology, de Rham of the
total complex, Bott-Chern, Aeppli, and the arithmetic genus.  Everything is
a dimension count obtained from exact ranks; subspace intersections and sums
are computed on stacked and concatenated matrices, never via bases of
harmonic representatives.
"""

from dataclasses import dataclass

from . import linalg
from .bicomplex import degree_spots, require_valid, total_differential

THEORIES = ("dolbeault", "row", "bott_chern", "aeppli")


@dataclass(frozen=True)
class CohomologyTable:
    """Frozen grid of dimensions for one theory, indexed as ``grid[p, q]``."""
    theory: str
    grid: linalg.Grid

    def __post_init__(self):
        if self.theory not in THEORIES:
            raise ValueError(f"unknown theory {self.theory!r}")
        if not isinstance(self.grid, linalg.Grid):
            object.__setattr__(self, "grid", linalg.Grid(self.grid))

    def entry(self, p, q):
        return self.grid[p, q]

    __hash__ = None


@dataclass(frozen=True)
class BettiVector:
    """Total-complex cohomology dimensions b_0 .. b_{p_max+q_max}."""
    b: tuple

    def __getitem__(self, k):
        return self.b[k]

    def __len__(self):
        return len(self.b)


def _grid(K):
    return [[0] * (K.q_max + 1) for _ in range(K.p_max + 1)]


def _h(p, q):
    return (p, q), (p + 1, q)


def _v(p, q):
    return (p, q), (p, q + 1)


def _maps(K, *arrows):
    """The stored matrices of ``arrows``; absent (zero) maps are left out."""
    return [m for m in (K.arrow(*a) for a in arrows) if m is not None]


def _rank(K, arrow):
    """Rank of one map; zero when it is absent."""
    m = K.arrow(*arrow)
    return 0 if m is None else linalg.rank(m)


def _composite_rank(K, first, then):
    """Rank of ``then`` after ``first``; zero unless both maps are stored."""
    maps = _maps(K, first, then)
    if len(maps) < 2:
        return 0
    product = linalg.mat_mul(maps[1], maps[0])
    return linalg.rank(product) if product.any() else 0


def dolbeault(K):
    """Vertical-differential cohomology; its entries are the Hodge numbers."""
    require_valid(K)
    g = _grid(K)
    for p, q in K.spots():
        g[p][q] = K.dim(p, q) - _rank(K, _v(p, q)) - _rank(K, _v(p, q - 1))
    return CohomologyTable("dolbeault", g)


def row_cohomology(K):
    """Horizontal-differential cohomology (the conjugate of dolbeault)."""
    require_valid(K)
    g = _grid(K)
    for p, q in K.spots():
        g[p][q] = K.dim(p, q) - _rank(K, _h(p, q)) - _rank(K, _h(p - 1, q))
    return CohomologyTable("row", g)


def de_rham(K):
    """Betti numbers of the total complex with differential d_h + d_v."""
    require_valid(K)
    n = K.p_max + K.q_max
    maps = [total_differential(K, k) for k in range(n + 1)]
    ranks = [linalg.rank(d) if d.any() else 0 for d in maps]
    b = []
    for k in range(n + 1):
        total = sum(K.dim(p, q) for p, q in degree_spots(K, k))
        into = ranks[k - 1] if k > 0 else 0
        b.append(total - ranks[k] - into)
    return BettiVector(tuple(b))


def bott_chern(K):
    """dim(ker d_h ∩ ker d_v) minus rank of d_h d_v into each spot."""
    require_valid(K)
    g = _grid(K)
    for p, q in K.spots():
        out = _maps(K, _h(p, q), _v(p, q))
        closed = K.dim(p, q) - (linalg.rank(linalg.vstack(out)) if out else 0)
        g[p][q] = closed - _composite_rank(K, _v(p - 1, q - 1), _h(p - 1, q))
    return CohomologyTable("bott_chern", g)


def aeppli(K):
    """dim ker(d_h d_v) minus dim(im d_h + im d_v) at each spot."""
    require_valid(K)
    g = _grid(K)
    for p, q in K.spots():
        ker = K.dim(p, q) - _composite_rank(K, _v(p, q), _h(p, q + 1))
        into = _maps(K, _h(p - 1, q), _v(p, q - 1))
        image = linalg.rank_of_columns(into) if into else 0
        g[p][q] = ker - image
    return CohomologyTable("aeppli", g)


def arithmetic_genus(K):
    """Alternating sum of the first column of the dolbeault table.

    Only the vertical maps of column ``p = 0`` are ranked; the rest of the
    table is not built.
    """
    require_valid(K)
    # ranks[q] is the rank of d_v into (0, q), ranks[q + 1] of d_v out of it.
    ranks = [0] + [_rank(K, _v(0, q)) for q in range(K.q_max + 1)]
    return sum((-1) ** q * (K.dim(0, q) - ranks[q] - ranks[q + 1])
               for q in range(K.q_max + 1))
