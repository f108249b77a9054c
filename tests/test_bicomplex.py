import random
import sys

import pytest

from frolicher import bicomplex, linalg
from frolicher.bicomplex import (DoubleComplex, InvalidComplexError,
                                 Violation, _from_arrows, basis_spots,
                                 conjugate, direct_sum, dual, empty_complex,
                                 layout, require_valid, total_differential,
                                 validate)
from frolicher.cohomology import (aeppli, arithmetic_genus, bott_chern,
                                  de_rham, dolbeault, row_cohomology)
from frolicher.s6 import (DiamondParams, check_constraints,
                          enumerate_diamonds, realize_model, verify_model)
from frolicher.serialize import complex_to_json
from frolicher.spectral import (degeneration_page, pages_explicit,
                                pages_filtration, stable_page_index)
from frolicher.zigzag import canonicalize_shape, realize_shape
from genutil import (dh, dv, random_complex, ref_total, ref_validate,
                     square_complex)

ONE = linalg.from_rows(1, 1, [[1]])


def dot(p, q, grid=(3, 3)):
    return realize_shape(canonicalize_shape([(p, q)]), grid)


def test_double_complex_repr_names_the_grid_and_total_dimension():
    K = DoubleComplex(1, 2, [[1, 0, 2], [0, 3, 0]])
    assert repr(K) == "DoubleComplex(p_max=1, q_max=2, total_dim=6)"
    assert repr(empty_complex(0, 0)) == (
        "DoubleComplex(p_max=0, q_max=0, total_dim=0)")


def test_validate_zero_complex():
    assert validate(empty_complex(3, 3)) == []


def test_validate_single_dot():
    assert validate(dot(0, 0)) == []


def test_validate_flags_nonzero_dd():
    # 1-dim spots at (0,0), (1,0), (2,0) with both horizontal maps [1]:
    # the composite is [1] != 0.
    K = DoubleComplex(2, 0, [[1], [1], [1]],
                      d_horiz={(0, 0): ONE, (1, 0): ONE})
    report = validate(K)
    assert len(report) == 1
    v = report[0]
    assert (v.p, v.q, v.axiom) == (0, 0, "dd_horiz")


def test_validate_flags_shape_mismatch():
    K = DoubleComplex(1, 0, [[1], [2]], d_horiz={(0, 0): ONE})
    report = validate(K)
    assert len(report) == 1
    assert report[0].axiom == "shape"


def test_validate_flags_map_leaving_grid():
    K = DoubleComplex(0, 0, [[1]], d_horiz={(0, 0): ONE})
    assert [v.axiom for v in validate(K)] == ["shape"]


def test_validate_flags_broken_anticommute():
    sq = square_complex(0, 0, (1, 1))
    bad = DoubleComplex(1, 1, sq.dims,
                        d_horiz={(0, 0): ONE, (0, 1): ONE},
                        d_vert={(0, 0): ONE, (1, 0): ONE})  # +1, not -1
    assert [v.axiom for v in validate(bad)] == ["anticommute"]


def test_validate_never_multiplies_absent_maps(monkeypatch):
    # Absent maps are zero; multiplying them as dense zero matrices made
    # validation cubic in the spot dimensions, even with no map stored.
    def refuse(a, b):
        raise AssertionError("multiplied an absent map")

    monkeypatch.setattr(linalg, "mat_mul", refuse)
    assert validate(empty_complex(2, 2)) == []
    assert validate(dot(1, 1)) == []


def test_dd_vert_is_reported_beside_a_wrong_shape_horizontal_arrow():
    # d_h out of (0, 0) has the wrong shape, but it lies on no path of the
    # vertical square at (0, 0), so that square is still checked.
    K = DoubleComplex(1, 2, [[1, 1, 1], [1, 0, 0]],
                      d_horiz={(0, 0): [[1], [1]]},
                      d_vert={(0, 0): [[1]], (0, 1): [[1]]})
    assert [(v.p, v.q, v.axiom) for v in validate(K)] == [
        (0, 0, "shape"), (0, 0, "dd_vert")]
    assert validate(K) == ref_validate(K)


def test_the_constructor_notes_each_misfit_in_arrow_order():
    # A misfit is stored, a zero one too, and its detail is noted once, as
    # the complex files it; the report lists the notes first.  Every d^2
    # path here runs through a misfit, so nothing else is reported.
    K = DoubleComplex(1, 1, [[1, 1], [1, 0]],
                      d_horiz={(1, 0): [[0]], (0, 0): [[1, 1]]},
                      d_vert={(0, 1): ONE, (0, 0): ONE})
    misfits = {((0, 0), (1, 0)): "d_horiz is 1x2, expected 1x1",
               ((0, 1), (0, 2)): "d_vert leaves the grid",
               ((1, 0), (2, 0)): "d_horiz leaves the grid"}
    assert list(misfits) == sorted(misfits)
    assert set(misfits) < {a for a, _ in K.stored_maps()}
    expected = [Violation(*s, "shape", detail)
                for (s, _), detail in misfits.items()]
    report = validate(K)
    assert [v for v in report if v.axiom == "shape"] == report == expected
    assert report == ref_validate(K)
    # The report is kept: a caller's list is a copy, and changing it
    # changes no later report.
    report.append(Violation(0, 0, "dd_vert", "added"))
    report[0] = Violation(0, 0, "shape", "changed")
    assert validate(K) == expected
    assert validate(K) is not validate(K)
    assert validate(dot(1, 1)) == []


def test_validate_reads_dims_only_to_lay_out_the_totals(monkeypatch):
    # Validation lays each degree out once from K.dims, and every later
    # reader (the barcode's labels, Aeppli's slices, the genus) reads that
    # layout or K.dims: the s6 path calls DoubleComplex.dim nowhere, where
    # it made 20,856 calls over the 316 bound-3 verifies.
    diamonds = enumerate_diamonds(3)
    reads = []
    dim = DoubleComplex.dim

    def counted(K, p, q):
        reads.append((p, q))
        return dim(K, p, q)

    monkeypatch.setattr(DoubleComplex, "dim", counted)
    for d in diamonds:
        assert verify_model(d) == []
    assert len(diamonds) == 316
    assert reads == []


def test_validate_multiplies_once_per_degree(monkeypatch):
    rng = random.Random(48)
    complexes = [random_complex(rng, 3, 3, n_squares=3) for _ in range(10)]
    calls = []
    mat_mul = linalg.mat_mul

    def counted(a, b):
        calls.append((a.shape, b.shape))
        return mat_mul(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counted)
    for K in complexes:
        maps = [total_differential(K, k) for k in range(K.p_max + K.q_max)]
        calls.clear()
        built = _from_arrows(K.p_max, K.q_max, K.dims, dict(K.stored_maps()))
        # one product D_{k+1} D_k per degree k where both have an entry,
        # made as the complex is built
        assert calls == [(b.shape, a.shape) for a, b in zip(maps, maps[1:])
                         if a.any() and b.any()]
        calls.clear()
        assert validate(built) == []
        require_valid(built)
        assert calls == []


def test_total_differentials_match_the_dense_reference(complexes=None):
    # Each D_k against genutil.ref_total, which lays the stored arrows out
    # densely, on seeded random complexes and the 316 bound-3 models.  The
    # layout it reads is checked first: consecutive blocks, p descending,
    # each as wide as K.dim says.
    if complexes is None:
        rng = random.Random(53)
        complexes = [*(random_complex(rng, *grid, n_squares=2,
                                      rational=(i % 3 == 0))
                       for i, grid in enumerate([(3, 3), (2, 4), (4, 2)] * 20)),
                     *map(realize_model, enumerate_diamonds(3))]
    for K in complexes:
        for k in range(K.p_max + K.q_max + 2):
            spots = [(p, k - p) for p in range(K.p_max, -1, -1)
                     if 0 <= k - p <= K.q_max]
            ends = [0, *(b for _, _, b in layout(K, k))]
            assert [(s, a) for s, a, _ in layout(K, k)] == list(
                zip(spots, ends))
            assert [b - a for a, b in zip(ends, ends[1:])] == [
                K.dim(*s) for s in spots]
        for k in range(K.p_max + K.q_max + 1):
            assert total_differential(K, k).tolist() == ref_total(K, k)


@pytest.mark.wide
def test_total_differentials_match_the_dense_reference_wide(
        wide_suite, dense_bound3_models):
    assert len(wide_suite) == 2000 and len(dense_bound3_models) == 316
    test_total_differentials_match_the_dense_reference(
        wide_suite + dense_bound3_models)


def test_validated_total_differentials_are_reused():
    rng = random.Random(49)
    K = random_complex(rng, 3, 2)
    fresh = [total_differential(K, k) for k in range(6)]
    require_valid(K)
    kept = [total_differential(K, k) for k in range(6)]
    assert kept == fresh
    assert all(a is b for a, b in zip(kept, (total_differential(K, k)
                                             for k in range(6))))
    # A complex with a misfit keeps nothing, and an invalid complex has no
    # total differential.
    bad = DoubleComplex(0, 0, [[1]], d_horiz={(0, 0): [[1]]})
    assert [v.axiom for v in validate(bad)] == ["shape"]
    with pytest.raises(InvalidComplexError):
        total_differential(bad, 0)


def test_an_invalid_complex_keeps_nothing(monkeypatch):
    # Every arrow has the right shape, but d_v squares to a nonzero map.
    checks = counted_checks(monkeypatch)
    K = DoubleComplex(0, 2, [[1, 1, 1]], d_vert={(0, 0): [[1]], (0, 1): [[1]]})
    assert checks == [K]
    assert [v.axiom for v in validate(K)] == ["dd_vert"]
    assert K._totals is None and K._layout is None
    for _ in range(2):
        with pytest.raises(InvalidComplexError, match="dd_vert"):
            require_valid(K)
        with pytest.raises(InvalidComplexError, match="dd_vert"):
            total_differential(K, 0)
        with pytest.raises(InvalidComplexError, match="dd_vert"):
            layout(K, 0)
    assert K._totals is None and K._layout is None
    assert checks == [K]


def test_total_differential_degrees_are_bounded():
    K = random_complex(random.Random(50), 2, 3)
    n = K.p_max + K.q_max
    assert total_differential(K, n).shape == (0, len(basis_spots(K, n)))
    for k in (-1, n + 1):
        with pytest.raises(ValueError, match=f"degree {k} is outside"):
            total_differential(K, k)


def counted_checks(monkeypatch):
    """The complexes that the axiom checker is called on, from now on; each
    call must come from the constructor."""
    checks = []
    check, init = bicomplex._check, DoubleComplex.__init__.__code__

    def counted(K, misfits):
        assert sys._getframe(1).f_code is init
        checks.append(K)
        return check(K, misfits)

    monkeypatch.setattr(bicomplex, "_check", counted)
    return checks


def test_a_valid_complex_is_validated_once(monkeypatch):
    checks = counted_checks(monkeypatch)
    built = []
    init = DoubleComplex.__init__

    def counted_init(K, *args, **kwargs):
        built.append(K)
        init(K, *args, **kwargs)

    monkeypatch.setattr(DoubleComplex, "__init__", counted_init)
    K = random_complex(random.Random(51), 3, 2)
    assert checks == built and built[-1] is K
    assert len(set(map(id, checks))) == len(checks) > 1
    checks.clear()
    first = total_differential(K, 1)
    for _ in range(3):
        require_valid(K)
        assert total_differential(K, 1) is first
    de_rham(K)
    pages_filtration(K, stable_page_index(K))
    assert checks == []


def test_nothing_is_written_after_construction():
    # Every slot of a complex, valid or invalid, is the same object after
    # every public operation as it was when the constructor returned.
    valid = random_complex(random.Random(52), 2, 3)
    invalid = DoubleComplex(1, 2, [[1, 1, 1], [1, 1, 0]],
                            d_horiz={(0, 2): ONE},
                            d_vert={(0, 0): ONE, (0, 1): ONE})
    names = [n for cls in DoubleComplex.__mro__
             for n in getattr(cls, "__slots__", ())]
    kept = {id(K): [getattr(K, n) for n in names] for K in (valid, invalid)}
    operations = [
        validate, require_valid, degeneration_page,
        lambda K: pages_filtration(K, 3), lambda K: pages_explicit(K, 3),
        dolbeault, row_cohomology, de_rham, bott_chern, aeppli,
        arithmetic_genus, lambda K: layout(K, 1),
        lambda K: total_differential(K, 1), lambda K: basis_spots(K, 1),
        dual, conjugate, lambda K: direct_sum(K, K), complex_to_json]
    for K in (valid, invalid):
        for op in operations:
            try:
                op(K)
            except InvalidComplexError:
                assert K is invalid
            assert all(getattr(K, n) is x for n, x in zip(names, kept[id(K)]))
    assert [v.axiom for v in validate(invalid)] == ["shape", "dd_vert"]


def test_constructor_rejects_bad_grids():
    with pytest.raises(ValueError, match="grid bounds must be non-negative"):
        DoubleComplex(-1, 0, [])
    with pytest.raises(ValueError, match=r"dims grid has shape \(1, 2\), "
                                         r"expected \(2, 1\)"):
        DoubleComplex(1, 0, [[1, 1]])
    with pytest.raises(ValueError, match="spot dimensions must be non-neg"):
        DoubleComplex(1, 0, [[1], [-1]])
    # Any iterable of rows is a dims grid or a matrix.
    K = DoubleComplex(1, 0, ((1,), (1,)), {(0, 0): iter([(3,)])})
    assert K == DoubleComplex(1, 0, [[1], [1]], {(0, 0): [[3]]})


def test_maps_are_frozen_copies():
    m = [[1]]
    dims = [[1], [1]]
    K = DoubleComplex(1, 0, dims, {(0, 0): m})
    before = row_cohomology(K)
    assert before.grid.tolist() == [[0], [0]]
    m[0][0] = 0  # the caller's lists are not the complex's
    dims[1][0] = 5
    assert row_cohomology(K) == before
    assert K.dim(1, 0) == 1
    assert validate(K) == []
    with pytest.raises(TypeError):
        dh(K, 0, 0)[0, 0] = 0


def test_values_cannot_be_reopened_for_writing():
    K = DoubleComplex(1, 0, [[1], [1]], {(0, 0): [[3]]})
    m = K.arrow((0, 0), (1, 0))
    tables = [row_cohomology(K), *pages_filtration(K, 2)]
    for grid in [K.dims] + [t.grid for t in tables]:
        with pytest.raises(TypeError):
            grid[0, 0] = 7
    with pytest.raises(TypeError):
        m[0, 0] = 99
    with pytest.raises(TypeError):
        m.rows[0][0] = 99
    d = DiamondParams(0, 0, 1, 0, 0)
    records = ((tables[0], "grid"), (tables[1], "r"), (de_rham(K), "b"),
               (d, "h10"), (canonicalize_shape([(0, 0)]), "dots"),
               (Violation(0, 0, "shape", "x"), "axiom"),
               (check_constraints(d), "checks"))
    for value, name in ((m, "shape"), (m, "rows"), (m, "flags"),
                        (K.dims, "shape"), (K.dims, "_cells"), (K, "dims"),
                        *records):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert m.T.T == m and m[:1] == m
    assert m == linalg.from_rows(1, 1, [[3]])
    assert K.dims.tolist() == [[1], [1]] and K.dim(0, 0) == 1


def test_direct_sum_with_zero_is_identity():
    K = dot(1, 1)
    S = direct_sum(K, empty_complex(3, 3))
    assert S == K


def test_direct_sum_dims_add():
    S = direct_sum(dot(0, 0), dot(0, 0))
    assert S.dim(0, 0) == 2
    assert validate(S) == []


def test_direct_sum_c_zigzags_block_identity():
    C = realize_shape(canonicalize_shape([(0, 1), (1, 1)]), (3, 3))
    S = direct_sum(C, C)
    assert S.dim(0, 1) == S.dim(1, 1) == 2
    assert dh(S, 0, 1) == linalg.from_rows(2, 2, [[1, 0], [0, 1]])


def test_direct_sum_rejects_invalid():
    bad = DoubleComplex(1, 0, [[2], [2]],
                        d_horiz={(0, 0): ONE})
    with pytest.raises(InvalidComplexError) as err:
        direct_sum(bad, empty_complex(1, 0))
    assert err.value.report


def test_dual_of_dot_reflects():
    D = dual(dot(0, 0))
    assert D.dim(3, 3) == 1 and D.total_dim() == 1


def test_dual_of_c_zigzag():
    C = realize_shape(canonicalize_shape([(0, 1), (1, 1)]), (3, 3))
    D = dual(C)
    assert D.dim(2, 2) == D.dim(3, 2) == 1
    assert dh(D, 2, 2) == ONE
    assert validate(D) == []


def test_dual_is_involution():
    rng = random.Random(42)
    for _ in range(10):
        K = random_complex(rng, 3, 2)
        assert dual(dual(K)) == K


def test_conjugate_examples():
    assert conjugate(dot(0, 0)).dim(0, 0) == 1
    C = realize_shape(canonicalize_shape([(0, 1), (1, 1)]), (3, 3))
    J = conjugate(C)
    assert J.dim(1, 0) == J.dim(1, 1) == 1
    assert dv(J, 1, 0) == ONE
    rng = random.Random(43)
    for _ in range(10):
        K = random_complex(rng, 3, 3)
        assert conjugate(conjugate(K)).dims == K.dims


def test_conjugate_swaps_dolbeault_and_row():
    rng = random.Random(44)
    for _ in range(12):
        K = random_complex(rng, 3, 2)
        left = dolbeault(conjugate(K)).grid
        right = row_cohomology(K).grid
        for p in range(K.q_max + 1):
            for q in range(K.p_max + 1):
                assert left[p, q] == right[q, p]


def split_maps(K):
    """``(d_horiz, d_vert)`` keyed by source, read off the arrow table."""
    maps_h, maps_v = {}, {}
    for (s, t), m in K.stored_maps():
        (maps_h if t[0] != s[0] else maps_v)[s] = m
    return maps_h, maps_v


def test_corrupted_entry_detected():
    # A square has composable arrows, so flipping the signed entry must
    # break anticommutativity.
    sq = square_complex(1, 1, (3, 3))
    maps_h, maps_v = split_maps(sq)
    tampered = DoubleComplex(3, 3, sq.dims,
                             d_horiz=maps_h,
                             d_vert={**maps_v, (2, 1): ONE})
    assert any(v.axiom == "anticommute" for v in validate(tampered))


def test_corrupted_shape_detected_fuzz():
    rng = random.Random(45)
    hits = 0
    for _ in range(25):
        K = random_complex(rng, 3, 3)
        maps_h, maps_v = split_maps(K)
        stored = [(kind, key) for kind, maps in (("h", maps_h), ("v", maps_v))
                  for key in maps]
        if not stored:
            continue
        kind, key = rng.choice(stored)
        target = maps_h if kind == "h" else maps_v
        m = target[key]
        target[key] = linalg.vstack([m, linalg.Matrix((1, m.shape[1]), [{}])])
        broken = DoubleComplex(K.p_max, K.q_max, K.dims, maps_h, maps_v)
        assert validate(broken)
        hits += 1
    assert hits >= 20


def test_direct_sum_commutes_and_associates_on_tables():
    rng = random.Random(46)
    for _ in range(6):
        A = random_complex(rng, 2, 2, max_shapes=2)
        B = random_complex(rng, 2, 2, max_shapes=2)
        C = random_complex(rng, 2, 2, max_shapes=1)
        left = direct_sum(A, B)
        right = direct_sum(B, A)
        assert left.dims == right.dims
        assert dolbeault(left) == dolbeault(right)
        r = stable_page_index(left)
        for x, y in zip(pages_filtration(left, r), pages_filtration(right, r)):
            assert x.grid == y.grid
        assoc_l = direct_sum(direct_sum(A, B), C)
        assoc_r = direct_sum(A, direct_sum(B, C))
        assert assoc_l.dims == assoc_r.dims
        assert dolbeault(assoc_l) == dolbeault(assoc_r)


def test_pages_of_dual_reflect():
    # h_r of the dual at (p, q) equals h_r of the original at the reflected
    # spot, for every page.
    rng = random.Random(47)
    for i in range(100):
        K = random_complex(rng, 2 + i % 2, 2, max_shapes=2, n_squares=0)
        r = stable_page_index(K)
        orig = pages_filtration(K, r)
        refl = pages_filtration(dual(K), r)
        for t_orig, t_dual in zip(orig, refl):
            for p in range(K.p_max + 1):
                for q in range(K.q_max + 1):
                    assert t_dual.grid[p, q] == t_orig.grid[
                        K.p_max - p, K.q_max - q]


def test_a_complex_is_unequal_to_another_type():
    K = square_complex(0, 0, (1, 1))
    assert K != K.dims and K != complex_to_json(K) and K.dims != K
