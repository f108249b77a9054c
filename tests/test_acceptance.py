"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
Every comparison is exact integer equality; elapsed times are reported for
reference, never asserted.
"""

import time
from dataclasses import dataclass

import pytest

from frolicher.bicomplex import direct_sum
from frolicher.cohomology import (aeppli, arithmetic_genus, bott_chern,
                                  de_rham, dolbeault, row_cohomology)
from frolicher.s6 import (compute_model_tables, enumerate_diamonds,
                          infer_params, model_mismatches, predicted_tables,
                          realize_model)
from frolicher.serialize import complex_to_json, json_to_complex
from frolicher.spectral import (degeneration_page, euler_char_of_page,
                                pages_explicit, pages_filtration)
from frolicher.zigzag import enumerate_shapes, realize_shape
from genutil import random_complex_suite, shrinks, spots, square_complex

RANDOM_COUNT = 200
PARAM_BOUND = 3


def report(num, name, detail):
    print(f"ACCEPTANCE {num} {name}: PASS ({detail})")


@dataclass
class ComplexRecord:
    K: object
    pages_filt: list
    pages_expl: list
    betti: object


@pytest.fixture(scope="module")
def random_suite():
    t0 = time.perf_counter()
    records = []
    for K in random_complex_suite(20250808, RANDOM_COUNT):
        r_max = max(K.p_max, K.q_max) + 2
        records.append(ComplexRecord(
            K=K,
            pages_filt=pages_filtration(K, r_max),
            pages_expl=pages_explicit(K, r_max),
            betti=de_rham(K),
        ))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def shape_suite():
    t0 = time.perf_counter()
    records = []
    for shape in enumerate_shapes((3, 3), 6):
        K = realize_shape(shape, (3, 3))
        records.append(ComplexRecord(
            K=K,
            pages_filt=pages_filtration(K, 5),
            pages_expl=pages_explicit(K, 5),
            betti=de_rham(K),
        ))
    return records, time.perf_counter() - t0


@dataclass
class ModelRecord:
    d: object
    K: object
    tables: object
    predicted: object


@pytest.fixture(scope="module")
def model_suite():
    t0 = time.perf_counter()
    records = []
    for d in enumerate_diamonds(PARAM_BOUND):
        K = realize_model(d)
        records.append(ModelRecord(
            d=d,
            K=K,
            tables=compute_model_tables(K),
            predicted=predicted_tables(d),
        ))
    return records, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence(random_suite, shape_suite):
    randoms, t_rand = random_suite
    shapes, t_shape = shape_suite
    assert len(randoms) >= 200
    for rec in randoms + shapes:
        assert max(map(max, rec.K.dims)) <= 4
        for a, b in zip(rec.pages_filt, rec.pages_expl):
            assert a.grid == b.grid, \
                f"methods disagree on page {a.r} of {rec.K}"
    report(1, "oracle equivalence",
           f"{len(randoms)} random complexes and {len(shapes)} shapes of "
           f"length <= 6, all pages, {t_rand + t_shape:.1f}s")


def test_criterion_2_figure_reproduction(model_suite):
    records, t_models = model_suite
    t0 = time.perf_counter()
    assert len(records) > 200  # several hundred admissible tuples
    for rec in records:
        got = rec.tables
        pred = rec.predicted
        assert got.pages[0] == pred.e1
        assert got.pages[1] == pred.e2
        for t in got.pages[2:]:
            assert t.grid == pred.e3plus.grid, f"page {t.r}"
        assert got.bott_chern == pred.bott_chern
        assert got.aeppli == pred.aeppli
        assert tuple(got.betti.b) == (1, 0, 0, 0, 0, 0, 1)
        assert model_mismatches(rec.d, rec.tables) == []
    report(2, "figure reproduction",
           f"{len(records)} admissible tuples with parameters <= "
           f"{PARAM_BOUND}, {t_models + time.perf_counter() - t0:.1f}s")


def test_criterion_3_relation_audit(model_suite):
    records, _ = model_suite
    for rec in records:
        e1 = rec.tables.pages[0].grid
        e2 = rec.tables.pages[1].grid
        bc = rec.tables.bott_chern.grid
        ae = rec.tables.aeppli.grid
        assert e1[0, 1] == e1[0, 2] + 1
        assert e1[2, 0] + e1[1, 1] == e1[1, 0] + e1[2, 1] + 1
        assert e1[1, 0] <= e1[2, 0]
        assert e1[1, 1] >= e1[1, 2] - e1[0, 2]
        assert e2[0, 1] == e1[1, 2] - e1[1, 1] + 1
        assert e2[0, 1] == e2[2, 0] == e2[1, 3] == e2[3, 2]
        assert e2[2, 1] == e2[0, 2] == e2[1, 2] == e2[3, 1]
        for p in range(4):
            for q in range(4):
                assert e2[p, q] == e2[3 - p, 3 - q]
                assert ae[p, q] == bc[3 - q, 3 - p]
        assert bc[2, 2] == 2 * bc[2, 1] - 2 * e1[0, 1] + 2
    report(3, "relation audit",
           f"10 relations on computed tables of {len(records)} tuples")


def test_criterion_4_named_scenarios():
    from frolicher.s6 import DiamondParams
    etesi = realize_model(DiamondParams(0, 0, 1, 0, 0))
    assert degeneration_page(etesi) == 2
    assert bott_chern(etesi).grid[1, 1] == 2
    K = realize_model(DiamondParams(1, 0, 0, 1, 0))
    pages = pages_filtration(K, 5)
    assert pages[0].grid != pages[1].grid
    assert pages[1].grid != pages[2].grid
    assert pages[2].grid == pages[3].grid
    assert pages[3].grid == pages[4].grid
    assert degeneration_page(K) == 3
    report(4, "named scenarios",
           "first tuple degenerates at page 2 with 2-dimensional (1,1) "
           "Bott-Chern entry; second exhibits E1 != E2 != E3 = E_inf")


def _check_invariants(K, pages, betti):
    chi_dim = sum((-1) ** (p + q) * K.dim(p, q) for p, q in spots(K))
    for earlier, later in zip(pages, pages[1:]):
        assert shrinks(later.grid, earlier.grid)
    for t in pages:
        assert euler_char_of_page(t) == chi_dim
    last = pages[-1]
    for k in range(len(betti.b)):
        total = sum(last.grid[p, k - p]
                    for p in range(max(0, k - K.q_max), min(K.p_max, k) + 1))
        assert total == betti[k]


def _all_tables(K):
    return (dolbeault(K), row_cohomology(K), bott_chern(K), aeppli(K),
            de_rham(K).b)


def test_criterion_5_invariant_suite(random_suite, model_suite):
    randoms, _ = random_suite
    models, _ = model_suite
    t0 = time.perf_counter()
    for rec in randoms:
        _check_invariants(rec.K, rec.pages_filt, rec.betti)
    for rec in models:
        _check_invariants(rec.K, rec.tables.pages, rec.tables.betti)
        chi = sum((-1) ** k * rec.tables.betti[k] for k in range(7))
        assert chi == 2
        assert rec.tables.genus == 0
        assert arithmetic_genus(rec.K) == 0
    # Adding a square of isomorphisms changes no table.
    squares = 0
    for rec in randoms + models:
        K = rec.K
        sq = square_complex((squares % K.p_max if K.p_max else 0),
                            (squares % K.q_max if K.q_max else 0),
                            (K.p_max, K.q_max))
        Ksq = direct_sum(K, sq)
        pages = (rec.pages_filt if isinstance(rec, ComplexRecord)
                 else rec.tables.pages)
        for a, b in zip(pages, pages_filtration(Ksq, pages[-1].r)):
            assert a.grid == b.grid
        assert _all_tables(K) == _all_tables(Ksq)
        squares += 1
    report(5, "invariant suite",
           f"monotonicity, abutment, constant Euler characteristic, chi=2 "
           f"and genus 0 on models, square-summand invariance on "
           f"{len(randoms) + len(models)} complexes, "
           f"{time.perf_counter() - t0:.1f}s")


def test_criterion_6_enumerator():
    t0 = time.perf_counter()
    got = [d.as_tuple() for d in enumerate_diamonds(2)]
    brute = []
    for h10 in range(3):
        for h02 in range(3):
            for h11 in range(3):
                for alpha in range(3):
                    for beta in range(3):
                        if (alpha <= h02 + 1 and beta <= h02
                                and h11 + alpha >= h02 + 1):
                            brute.append((h10, h02, h11, alpha, beta))
    assert got == brute
    for d in enumerate_diamonds(2, h11_zero_only=True):
        assert d.h11 == 0
        assert d.alpha == d.h02 + 1
        assert d.h20 == d.h10 + d.h02 + 1
    elapsed = time.perf_counter() - t0
    report(6, "enumerator correctness",
           f"{len(got)} tuples match the brute-force filter of the 3^5 box, "
           f"{elapsed:.2f}s")


def test_criterion_7_round_trips(model_suite):
    records, _ = model_suite
    for rec in records:
        assert infer_params(rec.tables.pages[0], rec.tables.pages[1]) == rec.d
    t0 = time.perf_counter()
    suite = random_complex_suite(990817, 1000, max_spot_dim=6)
    for K in suite:
        assert json_to_complex(complex_to_json(K)) == K
    report(7, "round trips",
           f"parameter inference on {len(records)} tuples and serialization "
           f"on {len(suite)} random complexes, "
           f"{time.perf_counter() - t0:.1f}s")
