import random
from itertools import product

import pytest

from frolicher import s6
from frolicher.bicomplex import dual, validate
from frolicher.cohomology import BettiVector, Table, dolbeault
from frolicher.linalg import Grid
from frolicher.s6 import (DiamondParams, InadmissibleParamsError,
                          InferenceMismatchError, ModelTables,
                          check_constraints, compute_model_tables,
                          enumerate_diamonds, family_counts, infer_params,
                          model_mismatches, model_multiset, predicted_tables,
                          realize_model, verify_model)
from frolicher.spectral import degeneration_page, pages_filtration
from frolicher.zigzag import canonicalize_shape
from genutil import change_basis, spots

ETESI = DiamondParams(0, 0, 1, 0, 0)


def brute_force_admissible(bound, assume_a0=False):
    """Independent re-implementation of the constraint filter."""
    out = []
    for h10 in range(bound + 1):
        for h02 in range(bound + 1):
            for h11 in range(bound + 1):
                for alpha in range(bound + 1):
                    for beta in range(bound + 1):
                        if alpha > h02 + 1:
                            continue
                        if beta > h02:
                            continue
                        if h11 + alpha < h02 + 1:
                            continue
                        if assume_a0 and h10 > 1:
                            continue
                        out.append((h10, h02, h11, alpha, beta))
    return out


def test_derived_quantities():
    d = DiamondParams(1, 2, 3, 2, 1)
    assert d.h01 == 3 and d.h20 == 3 and d.h12 == 4
    assert d.h00 == 1 and d.h30 == 0


def test_params_reject_negative():
    with pytest.raises(ValueError):
        DiamondParams(-1, 0, 0, 0, 0)


def test_params_reject_bool():
    # bool is an int subclass: True would pass as 1 and print as h10=True.
    # The document parser refuses it the same way (serialize._is_int).
    for i in range(5):
        args = [0] * 5
        args[i] = True
        with pytest.raises(ValueError, match="non-negative integer"):
            DiamondParams(*args)
    with pytest.raises(ValueError):
        DiamondParams(h10=False, h02=0, h11=1, alpha=0, beta=0)


def test_etesi_admissible():
    report = check_constraints(ETESI)
    assert report.all_hold
    assert ETESI.h20 == 0 and ETESI.h12 == 0 and ETESI.h01 == 1


def test_all_zero_tuple_violates_family_count():
    report = check_constraints(DiamondParams(0, 0, 0, 0, 0))
    assert not report.all_hold
    assert [c.cid for c in report.violated()] == ["count-h"]


def test_assume_a0_caps_h10():
    d = DiamondParams(2, 0, 1, 0, 0)
    assert check_constraints(d).all_hold
    report = check_constraints(d, assume_a0=True)
    assert [c.cid for c in report.violated()] == ["h10-1"]


def test_constraint_ids_unique():
    report = check_constraints(ETESI, assume_a0=True)
    ids = [c.cid for c in report.checks]
    assert len(ids) == len(set(ids))


def test_enumerate_bound_zero_empty():
    assert enumerate_diamonds(0) == []
    with pytest.raises(ValueError) as err:
        enumerate_diamonds(-1)
    assert str(err.value) == "bound must be non-negative"


def test_enumerate_bound_one_h11_zero():
    got = enumerate_diamonds(1, h11_zero_only=True)
    assert [d.as_tuple() for d in got] == [(0, 0, 0, 1, 0), (1, 0, 0, 1, 0)]
    for d in got:
        assert d.alpha == d.h02 + 1
        assert d.h20 == d.h10 + d.h02 + 1


def test_enumerate_matches_brute_force():
    got = [d.as_tuple() for d in enumerate_diamonds(2)]
    assert got == brute_force_admissible(2)
    got_a0 = [d.as_tuple() for d in enumerate_diamonds(2, assume_a0=True)]
    assert got_a0 == brute_force_admissible(2, assume_a0=True)


def test_family_counts_etesi():
    counts = family_counts(ETESI)
    assert counts == {"dot": 1, "z4a": 0, "c": 1, "d": 0, "e": 0, "h": 0,
                      "z4b": 0}


def test_catalog_holds_iff_every_family_count_is_non_negative(bound=4):
    box = [DiamondParams(*t) for t in product(range(bound + 1), repeat=5)]
    for d in box:
        counts_hold = all(v >= 0 for v in family_counts(d).values())
        assert check_constraints(d).all_hold == counts_hold
        assert (check_constraints(d, assume_a0=True).all_hold
                == (counts_hold and d.h10 <= 1))
    # Only the counts, h10 <= 1 and h11-ugarte, which is count-c restated
    # (h^{0,2} + 1 - alpha >= 0), can fail; every other row is an identity.
    live = {"count-c", "count-d", "count-h", "h11-ugarte", "h10-1"}
    for d, assume_a0 in product(box, (False, True)):
        report = check_constraints(d, assume_a0)
        holds = {c.cid: c.holds for c in report.checks}
        assert holds["h11-ugarte"] == holds["count-c"], d
        assert all(v for cid, v in holds.items() if cid not in live), d
    # The enumeration is the box filtered by the catalog, under every flag.
    for assume_a0, h11_zero_only in product((False, True), repeat=2):
        expected = [d for d in box if not (h11_zero_only and d.h11)
                    and check_constraints(d, assume_a0).all_hold]
        assert enumerate_diamonds(bound, assume_a0, h11_zero_only) == expected


@pytest.mark.wide
def test_catalog_holds_iff_every_family_count_is_non_negative_wide():
    # All 16,807 tuples of [0,6]^5, of which 4,655 are admissible.
    assert len(enumerate_diamonds(6)) == 4655
    test_catalog_holds_iff_every_family_count_is_non_negative(6)


def test_model_multiset_etesi():
    m = model_multiset(ETESI)
    expected = {
        canonicalize_shape([(0, 0)]): 1,
        canonicalize_shape([(3, 3)]): 1,
        canonicalize_shape([(0, 1), (1, 1)]): 1,
        canonicalize_shape([(2, 2), (3, 2)]): 1,
        canonicalize_shape([(1, 0), (1, 1)]): 1,
        canonicalize_shape([(2, 2), (2, 3)]): 1,
    }
    assert dict(m) == expected


def test_realize_model_second_scenario_families():
    d = DiamondParams(1, 0, 0, 1, 0)
    counts = family_counts(d)
    assert counts == {"dot": 1, "z4a": 1, "c": 0, "d": 0, "e": 1, "h": 0,
                      "z4b": 0}
    K = realize_model(d)
    assert validate(K) == []


def test_realize_model_rejects_inadmissible():
    with pytest.raises(InadmissibleParamsError) as err:
        realize_model(DiamondParams(0, 0, 0, 0, 0))
    assert not err.value.report.all_hold


def test_admissible_diamonds_build_no_report(monkeypatch):
    # The family counts decide; the catalog report is built only for the
    # error an inadmissible tuple is raised with.
    def refuse(*args, **kwargs):
        raise AssertionError("check_constraints called")

    monkeypatch.setattr(s6, "check_constraints", refuse)
    for assume_a0, h11_zero_only in product((False, True), repeat=2):
        assert enumerate_diamonds(3, assume_a0, h11_zero_only)
    for d in enumerate_diamonds(2):
        assert verify_model(d) == []
        pages = pages_filtration(realize_model(d), 2)
        assert infer_params(pages[0], pages[1]) == d
    monkeypatch.undo()
    # One tuple for each live family count that can go negative.
    for d in (DiamondParams(0, 0, 0, 0, 0), DiamondParams(1, 1, 2, 3, 0),
              DiamondParams(0, 2, 4, 1, 3)):
        report = check_constraints(d)
        assert not report.all_hold
        for fn in (model_multiset, predicted_tables, verify_model):
            with pytest.raises(InadmissibleParamsError) as err:
                fn(d)
            assert err.value.report == report
    # An inadmissible extraction names the first check its report violates,
    # one kind each: count c < 0 (first violating h11-ugarte), d < 0, h < 0;
    # a negative extracted parameter is invalid before any check.
    for table, p, q, value, message in [
            ("e2", 0, 1, 2, "(h10=0 h02=0 h11=1 alpha=2 beta=0) inadmissible: "
             "h11-ugarte (h^{1,1} >= h^{1,2} - h^{0,2})"),
            ("e2", 0, 2, 1, "(h10=0 h02=0 h11=1 alpha=0 beta=1) inadmissible: "
             "count-d (h_2^{0,2} <= h^{0,2} (length-2 family at (0,2) counts "
             "h^{0,2}-beta >= 0))"),
            ("e1", 1, 1, 0, "(h10=0 h02=0 h11=0 alpha=0 beta=0) inadmissible: "
             "count-h (h^{1,2} >= h^{0,2} (length-2 family at (1,1) counts "
             "h^{1,1}-h^{0,2}+alpha-1 >= 0))"),
            ("e1", 1, 1, -1, "invalid: h11 must be a non-negative integer")]:
        pred = predicted_tables(ETESI)
        grids = {"e1": pred.e1.grid.tolist(), "e2": pred.e2.grid.tolist()}
        grids[table][p][q] = value
        with pytest.raises(InferenceMismatchError) as err:
            infer_params(grids["e1"], grids["e2"])
        assert str(err.value) == f"extracted parameters {message}"


def test_realized_model_dims_self_dual():
    rng = random.Random(31)
    pool = enumerate_diamonds(2)
    for d in rng.sample(pool, 10):
        K = realize_model(d)
        assert dual(K).dims == K.dims


def test_etesi_dolbeault_matches_expected_spots():
    K = realize_model(ETESI)
    t = dolbeault(K)
    nonzero = {(p, q): t.grid[p, q] for p, q in spots(K) if t.grid[p, q]}
    assert nonzero == {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 2): 1,
                       (3, 2): 1, (3, 3): 1}


def page_relation_faults(e1, e2, e3):
    """The relations of the notes that E1, E2 and E_{r>=3} break, none of
    them a symmetry: each page is at most the one before it, entry by
    entry; each has Euler characteristic 2; d_1 is horizontal, so the
    alternating sum of E1 - E2 along each row q vanishes; and d_2 maps (p,
    q) to (p + 2, q - 1), so that of E2 - E3 along each line p + 2q = c."""
    box = list(product(range(4), repeat=2))
    faults = []
    if any(e2[s] > e1[s] or e3[s] > e2[s] for s in box):
        faults.append("shrink")
    if any(sum((-1) ** (p + q) * g[p, q] for p, q in box) != 2
           for g in (e1, e2, e3)):
        faults.append("euler")
    if any(sum((-1) ** p * (e1[p, q] - e2[p, q]) for p in range(4))
           for q in range(4)):
        faults.append("d1")
    if any(sum((-1) ** q * (e2[p, q] - e3[p, q])
               for p, q in box if p + 2 * q == c) for c in range(10)):
        faults.append("d2")
    return faults


def test_predicted_e1_serre_symmetric():
    # E1, E2 and E_{r>=3} are Serre-symmetric, h^{p,q} = h^{3-p,3-q}, and
    # Bott-Chern is conjugation-symmetric, (p, q) <-> (q, p): a row of a
    # literal grid written in the wrong place breaks one of them.  A swap
    # of the mirror rows p and 3 - p keeps both, so the pages must also
    # keep the relations of page_relation_faults; a swap of E2's rows 1 and
    # 2 breaks each of them on some diamond of the bound-3 box.
    caught = set()
    for d in enumerate_diamonds(3):
        pred = predicted_tables(d)
        for p in range(4):
            for q in range(4):
                for t in (pred.e1, pred.e2, pred.e3plus):
                    assert t.grid[p, q] == t.grid[3 - p, 3 - q], (d, t)
                assert pred.bott_chern.grid[p, q] == pred.bott_chern.grid[q, p]
        e1, e2, e3 = pred.e1.grid, pred.e2.grid, pred.e3plus.grid
        assert page_relation_faults(e1, e2, e3) == [], d
        rows = list(e2)
        rows[1], rows[2] = rows[2], rows[1]
        caught.update(page_relation_faults(e1, Grid(rows), e3))
    assert caught == {"shrink", "euler", "d1", "d2"}


def test_predicted_etesi_values():
    pred = predicted_tables(ETESI)
    assert sum(map(sum, pred.e2.grid)) == 2  # corners only
    assert pred.e2.grid[0, 0] == pred.e2.grid[3, 3] == 1
    assert pred.bott_chern.grid[1, 1] == 2
    assert pred.bott_chern.grid[3, 2] == 1
    assert pred.bott_chern.grid[2, 1] == 0
    assert pred.bott_chern.grid[2, 2] == 0
    assert pred.betti.b == (1, 0, 0, 0, 0, 0, 1)


def test_h11_zero_family_tables():
    for d in enumerate_diamonds(2, h11_zero_only=True):
        pred = predicted_tables(d)
        assert pred.e1.grid[1, 1] == 0
        assert pred.e1.grid[1, 2] == d.h02  # h12 = h02 when h11 = 0
        assert pred.e2.grid[0, 1] == d.h02 + 1  # alpha = h02 + 1
        assert d.h20 == d.h10 + d.h02 + 1


def test_verify_model_samples(diamonds=None):
    if diamonds is None:
        diamonds = random.Random(32).sample(enumerate_diamonds(2), 12)
    for d in diamonds:
        assert verify_model(d) == [], d


@pytest.mark.wide
def test_verify_model_samples_wide():
    # Every model of the bound-4 box: past the benchmark's pool and the
    # bound of 3 that the other s6 tests sweep.
    diamonds = enumerate_diamonds(4)
    assert len(diamonds) == 925
    test_verify_model_samples(diamonds)


def test_model_tables_do_not_depend_on_the_basis():
    # The model path runs on 0/±1 staircases; the tables are invariants, so
    # the same diamonds under integer and rational changes of basis at every
    # spot must still match the closed forms.
    rng = random.Random(33)
    for i, d in enumerate(rng.sample(enumerate_diamonds(3), 30)):
        K = change_basis(rng, realize_model(d), rational=i % 2 == 1)
        assert K != realize_model(d)
        assert model_mismatches(d, compute_model_tables(K)) == []


def test_degeneration_classification():
    for d in enumerate_diamonds(2)[:30]:
        K = realize_model(d)
        expected = 3 if (d.alpha or d.beta) else 2
        assert degeneration_page(K) == expected


def test_named_scenarios():
    K = realize_model(ETESI)
    assert degeneration_page(K) == 2
    from frolicher.cohomology import bott_chern
    assert bott_chern(K).grid[1, 1] == 2

    d = DiamondParams(1, 0, 0, 1, 0)
    K2 = realize_model(d)
    pages = pages_filtration(K2, 5)
    assert pages[0].grid != pages[1].grid
    assert pages[1].grid != pages[2].grid
    assert pages[2].grid == pages[3].grid
    assert degeneration_page(K2) == 3


def test_model_mismatches_name_table_and_spot():
    # The tables of h11 = 2 diffed against the predictions for h11 = 1.
    got = compute_model_tables(realize_model(DiamondParams(0, 0, 2, 0, 0)))
    assert model_mismatches(ETESI, got) == [
        "E1 at (1,1): expected 1, computed 2",
        "E1 at (1,2): expected 0, computed 1",
        "E1 at (2,1): expected 0, computed 1",
        "E1 at (2,2): expected 1, computed 2",
        "bott_chern at (1,2): expected 0, computed 1",
        "bott_chern at (2,1): expected 0, computed 1",
        "bott_chern at (2,2): expected 0, computed 2",
        "aeppli at (1,1): expected 0, computed 2",
        "aeppli at (1,2): expected 0, computed 1",
        "aeppli at (2,1): expected 0, computed 1",
    ]
    good = compute_model_tables(realize_model(ETESI))
    assert model_mismatches(ETESI, good) == []
    # E_1 in place of the stable E_4, and a wrong Betti vector and genus.
    e1 = good.pages[0].grid
    bad = ModelTables(pages=(*good.pages[:3], Table(e1, r=4)),
                      bott_chern=good.bott_chern, aeppli=good.aeppli,
                      betti=BettiVector((1, 0, 0, 0, 0, 0, 0)), genus=1)
    assert model_mismatches(ETESI, bad) == [
        "E4 at (0,1): expected 0, computed 1",
        "E4 at (1,1): expected 0, computed 1",
        "E4 at (2,2): expected 0, computed 1",
        "E4 at (3,2): expected 0, computed 1",
        "betti: expected (1, 0, 0, 0, 0, 0, 1), "
        "computed (1, 0, 0, 0, 0, 0, 0)",
        "arithmetic genus: expected 0, computed 1",
    ]


def test_infer_round_trip():
    rng = random.Random(33)
    for d in rng.sample(enumerate_diamonds(2), 10):
        got = compute_model_tables(realize_model(d))
        assert infer_params(got.pages[0], got.pages[1]) == d


def test_infer_flags_nonzero_h30_spot():
    got = compute_model_tables(realize_model(ETESI))
    e1 = got.pages[0].grid.tolist()
    e1[3][0] = 1
    with pytest.raises(InferenceMismatchError, match=r"E1 at \(3,0\)"):
        infer_params(e1, got.pages[1])


def test_infer_flags_inadmissible_extraction():
    e1 = predicted_tables(ETESI).e1.grid.tolist()
    e2 = predicted_tables(ETESI).e2.grid
    e1[1][1] = 0  # h11=0 with alpha=0 breaks the family count
    with pytest.raises(InferenceMismatchError, match="inadmissible"):
        infer_params(e1, e2)


def test_infer_rejects_wrong_shape():
    with pytest.raises(InferenceMismatchError, match="4x4"):
        infer_params([[0] * 3] * 3, [[0] * 4] * 4)
