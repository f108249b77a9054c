import random

import pytest

from frolicher.bicomplex import InvalidComplexError, DoubleComplex, dual
from frolicher.cohomology import (aeppli, arithmetic_genus, bott_chern,
                                  de_rham, dolbeault, row_cohomology)
from frolicher.s6 import (DiamondParams, compute_model_tables,
                          enumerate_diamonds, predicted_tables, realize_model)
from frolicher.zigzag import canonicalize_shape, realize_shape
from genutil import random_complex, ref_mul, ref_tables, spots, total

from frolicher import linalg


def shape_complex(dots, grid=(3, 3)):
    return realize_shape(canonicalize_shape(dots), grid)


def test_dolbeault_dot():
    t = dolbeault(shape_complex([(0, 0)]))
    assert t.grid[0, 0] == 1
    assert total(t.grid) == 1


def test_dolbeault_vertical_arrow_vanishes():
    t = dolbeault(shape_complex([(1, 0), (1, 1)]))
    assert total(t.grid) == 0


def test_row_dot_and_arrow():
    assert row_cohomology(shape_complex([(0, 0)])).grid[0, 0] == 1
    assert total(row_cohomology(shape_complex([(0, 1), (1, 1)])).grid) == 0


def test_row_is_conjugated_dolbeault():
    from frolicher.bicomplex import conjugate
    rng = random.Random(1)
    for _ in range(10):
        K = random_complex(rng, 3, 2)
        row = row_cohomology(K).grid
        dob = dolbeault(conjugate(K)).grid
        for p in range(K.p_max + 1):
            for q in range(K.q_max + 1):
                assert row[p, q] == dob[q, p]


def test_de_rham_dot():
    b = de_rham(shape_complex([(0, 0)]))
    assert b.b == (1, 0, 0, 0, 0, 0, 0)


def test_de_rham_even_zigzags_vanish():
    rng = random.Random(2)
    from genutil import random_shape
    seen = 0
    while seen < 25:
        s = random_shape(rng, (3, 3), max_len=6)
        if len(s) % 2:
            continue
        assert sum(de_rham(realize_shape(s, (3, 3))).b) == 0
        seen += 1


def test_de_rham_odd_zigzags_contribute_once():
    rng = random.Random(3)
    from genutil import random_shape
    seen = 0
    while seen < 25:
        s = random_shape(rng, (3, 3), max_len=5)
        if len(s) % 2 == 0:
            continue
        b = de_rham(realize_shape(s, (3, 3))).b
        assert sum(b) == 1
        degree = b.index(1)
        assert degree in {p + q for p, q in s.dots}
        seen += 1


def test_bott_chern_dot():
    assert bott_chern(shape_complex([(0, 0)])).grid[0, 0] == 1


def test_bott_chern_c_zigzag():
    t = bott_chern(shape_complex([(0, 1), (1, 1)]))
    assert t.grid[1, 1] == 1
    assert total(t.grid) == 1


def test_aeppli_top_dot():
    t = aeppli(shape_complex([(3, 3)]))
    assert t.grid[3, 3] == 1
    assert total(t.grid) == 1


def test_aeppli_is_bott_chern_of_dual_reflected():
    rng = random.Random(4)
    for _ in range(12):
        K = random_complex(rng, 3, 2)
        ae = aeppli(K).grid
        bc = bott_chern(dual(K)).grid
        for p in range(K.p_max + 1):
            for q in range(K.q_max + 1):
                assert ae[p, q] == bc[K.p_max - p, K.q_max - q]


def test_bott_chern_conjugation_symmetry():
    from frolicher.bicomplex import conjugate
    rng = random.Random(5)
    for _ in range(10):
        K = random_complex(rng, 3, 3)
        a = bott_chern(conjugate(K)).grid
        b = bott_chern(K).grid
        for p in range(4):
            for q in range(4):
                assert a[p, q] == b[q, p]


def test_arithmetic_genus_examples():
    assert arithmetic_genus(shape_complex([(0, 0)])) == 1
    etesi = realize_model(DiamondParams(0, 0, 1, 0, 0))
    assert arithmetic_genus(etesi) == 0
    col = dolbeault(etesi)
    assert [col.grid[0, q] for q in range(4)] == [1, 1, 0, 0]


def test_arithmetic_genus_ranks_only_column_zero(monkeypatch):
    from frolicher import cohomology
    rng = random.Random(8)
    cases = []
    for i in range(12):
        K = random_complex(rng, 1 + i % 3, 1 + i % 4, rational=(i % 3 == 0))
        col = dolbeault(K)
        cases.append((K, sum((-1) ** q * col.grid[0, q]
                             for q in range(K.q_max + 1))))
    ranked = []
    rank = linalg.rank

    def recorded(a, profile=False):
        ranked.append(a)
        return rank(a, profile)

    monkeypatch.setattr(cohomology, "dolbeault", None)
    monkeypatch.setattr(linalg, "rank", recorded)
    for K, expected in cases:
        ranked.clear()
        assert arithmetic_genus(K) == expected
        column = [K.arrow((0, q), (0, q + 1)) for q in range(K.q_max)]
        assert all(any(a is m for m in column) for a in ranked)
        assert ranked == []


def test_dolbeault_and_row_rank_each_stored_arrow_once(monkeypatch):
    # An arrow's rank is charged to both of its ends, so it is taken once.
    rng = random.Random(9)
    cases = [random_complex(rng, 1 + i % 3, 1 + i % 4, rational=(i % 3 == 0))
             for i in range(12)]
    ranked = []
    rank = linalg.rank

    def recorded(a, profile=False):
        ranked.append(id(a))
        return rank(a, profile)

    monkeypatch.setattr(linalg, "rank", recorded)
    for K in cases:
        for theory, vertical in ((dolbeault, True), (row_cohomology, False)):
            ranked.clear()
            theory(K)
            stored = [id(m) for (s, t), m in K.stored_maps()
                      if (s[0] == t[0]) == vertical]
            assert sorted(ranked) == sorted(stored)


def composing_pairs(K):
    """The stored ``(d_v, d_h)`` pairs that compose through the spot above
    the d_v's source."""
    return [(v, h) for (s, t), v in K.stored_maps() if s[0] == t[0]
            for h in [K.arrow(t, (t[0] + 1, t[1]))] if h is not None]


def test_bott_chern_and_aeppli_assemble_nothing(monkeypatch):
    # Bott-Chern and Aeppli are one pass, whichever of them is asked for.
    # It ranks the stored arrows out of each spot, stacked, each nonzero
    # composite d_h d_v, and the row slice of a validated total differential
    # into each spot that an arrow enters: the only new matrices are the
    # composites, each formed once, also by the callers that want both.
    from frolicher import bicomplex, zigzag
    rng = random.Random(10)
    cases = [random_complex(rng, 1 + i % 3, 1 + i % 4, n_squares=2,
                            rational=(i % 3 == 0)) for i in range(12)]
    refs = [ref_tables(K) for K in cases]
    for d in enumerate_diamonds(3):
        pred = predicted_tables(d)
        cases.append(realize_model(d))
        refs.append({"bott_chern": pred.bott_chern.grid,
                     "aeppli": pred.aeppli.grid})
    expected = []
    for K in cases:
        pairs = composing_pairs(K)
        nonzero = sum(any(map(any, ref_mul(h, v))) for v, h in pairs)
        sources = {s for (s, _), _ in K.stored_maps()}
        targets = {t for (_, t), _ in K.stored_maps()}
        expected.append((len(sources) + nonzero + len(targets), len(pairs)))
    assert sum(n for _, n in expected[:12]) > 0
    assert sum(n for _, n in expected[12:]) == 1654
    ranked, multiplied = [], []
    rank, mat_mul = linalg.rank, linalg.mat_mul

    def recorded(a, profile=False):
        ranked.append(a)
        return rank(a, profile)

    def counted(a, b):
        multiplied.append((a, b))
        return mat_mul(a, b)

    def refuse(*args, **kwargs):
        raise AssertionError("assembled a matrix to rank it")

    monkeypatch.setattr(linalg, "assemble", refuse)
    monkeypatch.setattr(bicomplex, "_assemble", refuse)
    monkeypatch.setattr(linalg, "rank", recorded)
    monkeypatch.setattr(linalg, "mat_mul", counted)
    for K, ref, (maps, products) in zip(cases, refs, expected):
        for theory in (bott_chern, aeppli):
            ranked.clear()
            multiplied.clear()
            assert theory(K).grid == ref[theory.__name__]
            assert (len(ranked), len(multiplied)) == (maps, products)
        multiplied.clear()
        got = compute_model_tables(K)
        assert len(multiplied) == products
        assert (got.bott_chern.grid, got.aeppli.grid) == (
            ref["bott_chern"], ref["aeppli"])
        monkeypatch.setattr(zigzag, "realize_shape", lambda shape, grid: K)
        multiplied.clear()
        prof = zigzag.contribution_profile(None, None)
        assert len(multiplied) == products
        assert (prof.bott_chern, prof.aeppli) == (got.bott_chern, got.aeppli)


def test_euler_characteristic_identity():
    rng = random.Random(6)
    for _ in range(10):
        K = random_complex(rng, 3, 3, rational=True)
        b = de_rham(K)
        chi_b = sum((-1) ** k * b[k] for k in range(len(b)))
        t = dolbeault(K)
        chi_h = sum((-1) ** (p + q) * t.grid[p, q] for p, q in spots(K))
        chi_dim = sum((-1) ** (p + q) * K.dim(p, q) for p, q in spots(K))
        assert chi_b == chi_h == chi_dim


def test_tables_bounded_by_dims():
    rng = random.Random(7)
    for _ in range(8):
        K = random_complex(rng, 3, 2)
        for table in (dolbeault(K), row_cohomology(K), bott_chern(K),
                      aeppli(K)):
            for p, q in spots(K):
                assert 0 <= table.grid[p, q] <= K.dim(p, q)


def test_theories_never_touch_absent_maps(monkeypatch):
    # Absent maps are zero; multiplying them as dense zero matrices made
    # Bott-Chern and Aeppli cubic in the spot dimensions, and ranking them
    # was wasted work.
    rank = linalg.rank

    def refuse(a, b):
        raise AssertionError("multiplied an absent map")

    def rank_stored(a, profile=False):
        assert a.any(), "ranked an absent map"
        return rank(a, profile)

    monkeypatch.setattr(linalg, "mat_mul", refuse)
    monkeypatch.setattr(linalg, "rank", rank_stored)
    big = DoubleComplex(1, 1, [[1000, 1000], [1000, 1000]])
    for theory in (dolbeault, row_cohomology, bott_chern, aeppli):
        assert theory(big).grid.tolist() == [[1000, 1000], [1000, 1000]]
    # One stored arrow: ranked, but it composes with nothing.
    K = shape_complex([(0, 1), (1, 1)])
    assert total(bott_chern(K).grid) == 1 and total(aeppli(K).grid) == 1
    assert total(dolbeault(K).grid) == 2 and total(row_cohomology(K).grid) == 0


def test_invalid_complex_rejected():
    bad = DoubleComplex(1, 0, [[2], [2]],
                        d_horiz={(0, 0): [[1]]})
    for op in (dolbeault, row_cohomology, de_rham, bott_chern, aeppli,
               arithmetic_genus):
        with pytest.raises(InvalidComplexError):
            op(bad)
