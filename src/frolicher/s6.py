"""Hodge-diamond parameter space for a hypothetical complex structure on S^6.

Five free non-negative integers parameterize every admissible diamond:
h10 = h^{1,0}, h02 = h^{0,2}, h11 = h^{1,1}, alpha = h_2^{0,1} and
beta = h_2^{0,2}.  The remaining Hodge numbers are derived:

    h01 = h02 + 1        h20 = h10 + alpha      h12 = h11 + alpha - 1

together with the reflection h^{p,q} = h^{3-p,3-q}.  With this choice all the
equalities of the catalog become identities, and three inequalities stay
independent: the model complex's zigzag family counts are non-negative;
Ugarte's h^{1,1} >= h^{1,2} - h^{0,2} is the first of them restated.  The
counts alone decide admissibility; :func:`check_constraints` only reports.

Each admissible tuple is realized as an explicit double complex on the 3x3
grid, built from seven zigzag families closed up under the duality and
conjugation mirrors; the engine-computed tables of the realization must
reproduce the closed-form predictions entry for entry.
"""

from collections import Counter
from itertools import product, starmap

from .cohomology import (BettiVector, Table, _bott_chern_aeppli,
                         arithmetic_genus, de_rham)
from .linalg import Grid, Record
from .spectral import pages_filtration, stable_page_index
from .zigzag import canonicalize_shape, mirror_shape, synthesize

GRID = (3, 3)


class DiamondParams(Record):
    __slots__ = ("h10", "h02", "h11", "alpha", "beta")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name, v in zip(self.__slots__, self.as_tuple()):
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"{name} must be a non-negative integer")

    # Derived Hodge numbers.
    @property
    def h00(self):
        return 1

    @property
    def h01(self):
        return self.h02 + 1

    @property
    def h20(self):
        return self.h10 + self.alpha

    @property
    def h12(self):
        return self.h11 + self.alpha - 1

    @property
    def h30(self):
        return 0

    def as_tuple(self):
        return (self.h10, self.h02, self.h11, self.alpha, self.beta)

    def __str__(self):
        return (f"h10={self.h10} h02={self.h02} h11={self.h11} "
                f"alpha={self.alpha} beta={self.beta}")


class ConstraintCheck(Record):
    __slots__ = ("cid", "relation", "holds", "witness")

    def __str__(self):
        word = "holds" if self.holds else "violated"
        return f"[{word:8s}] {self.cid}: {self.relation} ({self.witness})"


class ConstraintReport(Record):
    __slots__ = ("params", "checks")

    @property
    def all_hold(self):
        return all(c.holds for c in self.checks)

    def violated(self):
        return [c for c in self.checks if not c.holds]

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


class InadmissibleParamsError(ValueError):
    def __init__(self, report):
        self.report = report
        bad = ", ".join(c.cid for c in report.violated())
        super().__init__(f"inadmissible parameters ({report.params}): "
                         f"violated {bad}")


class InferenceMismatchError(ValueError):
    """Computed tables that no admissible diamond predicts."""


def check_constraints(d, assume_a0=False):
    """Report the full constraint catalog on one parameter tuple.

    The equalities and ``h10-h20`` hold by construction of the derived
    quantities.  The rows that can fail are the three family-count
    inequalities, read off :func:`family_counts`, ``h11-ugarte``, which is
    ``count-c`` restated and fails with it, and ``h10 <= 1`` under the
    zero-algebraic-dimension assumption.  Every check holds iff
    ``_admissible`` does, which decides; this builds only the report.
    """
    checks = []

    def add(*fields):
        checks.append(ConstraintCheck(*fields))

    add("h00", "h^{0,0} = 1", d.h00 == 1, f"h00={d.h00}")
    add("h30", "h^{3,0} = 0", d.h30 == 0, f"h30={d.h30}")
    add("h01-h02", "h^{0,1} = h^{0,2} + 1",
        d.h01 == d.h02 + 1, f"h01={d.h01} h02={d.h02}")
    add("h20-h11-h10-h12", "h^{2,0} + h^{1,1} = h^{1,0} + h^{1,2} + 1",
        d.h20 + d.h11 == d.h10 + d.h12 + 1,
        f"h20={d.h20} h11={d.h11} h10={d.h10} h12={d.h12}")
    add("h10-h20", "h^{1,0} <= h^{2,0}",
        d.h10 <= d.h20, f"h10={d.h10} h20={d.h20}")
    add("h11-ugarte", "h^{1,1} >= h^{1,2} - h^{0,2}",
        d.h11 >= d.h12 - d.h02, f"h11={d.h11} h12={d.h12} h02={d.h02}")
    add("h2var", "h_2^{0,1} = h^{1,2} - h^{1,1} + 1",
        d.alpha == d.h12 - d.h11 + 1, f"alpha={d.alpha} h12={d.h12} h11={d.h11}")
    add("h2ug2", "h_2^{0,1} = h_2^{2,0} = h_2^{1,3} = h_2^{3,2}",
        True, f"all equal alpha={d.alpha}")
    add("h2ug3", "h_2^{2,1} = h_2^{0,2} = h_2^{1,2} = h_2^{3,1}",
        True, f"all equal beta={d.beta}")
    add("e2-serre", "h_2^{p,q} = h_2^{3-p,3-q}",
        True, "second page written reflection-symmetrically")
    n = family_counts(d)
    add("count-c", "h_2^{0,1} <= h^{0,1} (length-2 family at (0,1) counts "
        "h^{0,2}+1-alpha >= 0)", n["c"] >= 0, f"count={n['c']}")
    add("count-d", "h_2^{0,2} <= h^{0,2} (length-2 family at (0,2) counts "
        "h^{0,2}-beta >= 0)", n["d"] >= 0, f"count={n['d']}")
    add("count-h", "h^{1,2} >= h^{0,2} (length-2 family at (1,1) counts "
        "h^{1,1}-h^{0,2}+alpha-1 >= 0)", n["h"] >= 0, f"count={n['h']}")
    if assume_a0:
        add("h10-1", "h^{1,0} <= 1 (zero algebraic dimension)",
            d.h10 <= 1, f"h10={d.h10}")
    return ConstraintReport(d, tuple(checks))


def enumerate_diamonds(bound, assume_a0=False, h11_zero_only=False):
    """Admissible tuples in [0, bound]^5, lexicographic order; no reports."""
    if bound < 0:
        raise ValueError("bound must be non-negative")
    rng = range(bound + 1)
    box = product(rng, rng, range(1) if h11_zero_only else rng, rng, rng)
    return [d for d in starmap(DiamondParams, box)
            if _admissible(d, assume_a0)]


# The seven zigzag families of the model complex, with their counts.  The
# orbit of each base shape under {identity, dual, conj, conj_dual} restores
# the parts that the symmetric picture leaves implicit: the duality mirrors
# reproduce the reflected half of the first page, and the conjugation
# mirrors, invisible to the column filtration, double the (1,1) Bott-Chern
# entry without disturbing any page.
FAMILIES = (
    ("dot", ((0, 0),), lambda d: 1),
    ("z4a", ((0, 1), (1, 1), (1, 0), (2, 0)), lambda d: d.alpha),
    ("c", ((0, 1), (1, 1)), lambda d: d.h02 + 1 - d.alpha),
    ("d", ((0, 2), (1, 2)), lambda d: d.h02 - d.beta),
    ("e", ((1, 0), (2, 0)), lambda d: d.h10),
    ("h", ((1, 1), (2, 1)), lambda d: d.h11 - d.h02 + d.alpha - 1),
    ("z4b", ((1, 2), (2, 2), (2, 1), (3, 1)), lambda d: d.beta),
)


def family_counts(d):
    return {name: count(d) for name, _dots, count in FAMILIES}


def _orbit(dots):
    base = canonicalize_shape(dots)
    return sorted({base, *(mirror_shape(base, kind, GRID)
                           for kind in ("dual", "conj", "conj_dual"))})


# Each family's sorted orbit, in family order; it depends on GRID only.
_ORBITS = [_orbit(dots) for _name, dots, _count in FAMILIES]


def _admissible(d, assume_a0=False):
    """Every family count is >= 0 (and h10 <= 1 under ``assume_a0``)."""
    return (min(family_counts(d).values()) >= 0
            and (d.h10 <= 1 or not assume_a0))


def _require_admissible(d):
    """The :func:`family_counts` of ``d``; raises, with the catalog report,
    unless :func:`_admissible`."""
    counts = family_counts(d)
    if min(counts.values()) < 0:
        raise InadmissibleParamsError(check_constraints(d))
    return counts


def model_multiset(d):
    """Zigzag multiset of the model: family orbits at the family counts."""
    out = {}
    for orbit, mult in zip(_ORBITS, _require_admissible(d).values()):
        if mult:
            for shape in orbit:
                out[shape] = out.get(shape, 0) + mult
    return Counter(out)


def realize_model(d):
    """Synthesize the model double complex on the 3x3 grid."""
    return synthesize(model_multiset(d), GRID)


class PredictedTables(Record):
    """The closed-form tables: pages E1, E2 and E_r for r >= 3, and the
    Bott-Chern, Aeppli and de Rham tables."""
    __slots__ = ("e1", "e2", "e3plus", "bott_chern", "aeppli", "betti")


def predicted_tables(d):
    """Closed-form tables of the model, each a 4x4 grid whose row p holds
    the entries (p, 0) .. (p, 3).

    The (2,1) Bott-Chern entry is not pinned down by the general relations;
    the zigzag model attains h12 + beta there, and the (2,2) entry follows
    from 2*h^{2,1}_BC - 2*h^{0,1} + 2.
    """
    _require_admissible(d)
    a, b, h21bc = d.alpha, d.beta, d.h12 + d.beta
    e1 = Grid([[1, d.h01, d.h02, 0],
               [d.h10, d.h11, d.h12, d.h20],
               [d.h20, d.h12, d.h11, d.h10],
               [0, d.h02, d.h01, 1]])
    e2 = Grid([[1, a, b, 0],
               [0, 0, b, a],
               [a, b, 0, 0],
               [0, b, a, 1]])
    e3 = Grid([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]])
    bc = [[1, 0, d.h20, 0],
          [0, 2 * d.h01, h21bc, d.h02],
          [d.h20, h21bc, 2 * h21bc - 2 * d.h01 + 2, d.h02 + 1 + d.h20],
          [0, d.h02, d.h02 + 1 + d.h20, 1]]
    ae = [[bc[3 - q][3 - p] for q in range(4)] for p in range(4)]
    return PredictedTables(
        e1=Table(e1, r=1),
        e2=Table(e2, r=2),
        e3plus=Table(e3, r=3),
        bott_chern=Table(Grid(bc), theory="bott_chern"),
        aeppli=Table(Grid(ae), theory="aeppli"),
        betti=BettiVector((1, 0, 0, 0, 0, 0, 1)),
    )


class ModelTables(Record):
    """Engine-computed tables of a realized model."""
    __slots__ = ("pages", "bott_chern", "aeppli", "betti", "genus")


def compute_model_tables(K):
    """The engine's tables of ``K``, Bott-Chern and Aeppli in one pass."""
    return ModelTables(
        pages=tuple(pages_filtration(K, stable_page_index(K))),
        **_bott_chern_aeppli(K),
        betti=de_rham(K),
        genus=arithmetic_genus(K),
    )


def verify_model(d):
    """Realize, compute everything, diff against the predictions.

    Returns the list of mismatch descriptions; empty means every table of
    the realized complex equals its closed-form prediction entry for entry.
    """
    return model_mismatches(d, compute_model_tables(realize_model(d)))


def _diff(tables):
    """``(name, p, q, expected, actual)`` at each spot where the two 4x4
    grids of a ``(name, expected, actual)`` in ``tables`` differ: tables in
    order, spots in lexicographic ``(p, q)`` order.  Equal grids are
    compared whole, and only unequal ones spot by spot."""
    return ((name, p, q, e[p, q], a[p, q]) for name, e, a in tables if e != a
            for p in range(4) for q in range(4) if e[p, q] != a[p, q])


def model_mismatches(d, got):
    """Mismatch descriptions of computed :class:`ModelTables` ``got``.

    Each table is diffed entry for entry against :func:`predicted_tables`.
    """
    pred = predicted_tables(d)
    mismatches = [
        f"{name} at ({p},{q}): expected {e}, computed {a}"
        for name, p, q, e, a in _diff([
            ("E1", pred.e1.grid, got.pages[0].grid),
            ("E2", pred.e2.grid, got.pages[1].grid),
            *((f"E{t.r}", pred.e3plus.grid, t.grid) for t in got.pages[2:]),
            ("bott_chern", pred.bott_chern.grid, got.bott_chern.grid),
            ("aeppli", pred.aeppli.grid, got.aeppli.grid)])]
    if tuple(got.betti.b) != tuple(pred.betti.b):
        mismatches.append(f"betti: expected {pred.betti.b}, computed {got.betti.b}")
    if got.genus != 0:
        mismatches.append(f"arithmetic genus: expected 0, computed {got.genus}")
    return mismatches


def infer_params(e1, e2):
    """Read the five parameters off computed E1/E2 tables and verify.

    ``e1`` and ``e2`` may be page tables (:class:`.Table`) or 4x4 integer
    grids.  Every entry of both tables is checked against the predictions of
    the extracted tuple; the first inconsistent spot (tables scanned E1 then
    E2, spots in lexicographic (p, q) order) raises
    :class:`InferenceMismatchError`, as does an inadmissible tuple.
    """
    g1, g2 = (Grid(t.grid if isinstance(t, Table) else t) for t in (e1, e2))
    if g1.shape != (4, 4) or g2.shape != (4, 4):
        raise InferenceMismatchError(
            f"tables must be 4x4 grids, got {g1.shape} and {g2.shape}")
    values = (g1[1, 0], g1[0, 2], g1[1, 1], g2[0, 1], g2[0, 2])
    try:
        d = DiamondParams(*values)
        pred = predicted_tables(d)
    except InadmissibleParamsError as exc:
        bad = exc.report.violated()[0]
        raise InferenceMismatchError(
            f"extracted parameters ({d}) inadmissible: {bad.cid} "
            f"({bad.relation})") from None
    except ValueError as exc:
        raise InferenceMismatchError(f"extracted parameters invalid: {exc}")
    for name, p, q, e, a in _diff([("E1", pred.e1.grid, g1),
                                   ("E2", pred.e2.grid, g2)]):
        raise InferenceMismatchError(
            f"{name} at ({p},{q}): expected {e} for {d}, table has {a}")
    return d
