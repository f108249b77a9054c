import random
from collections import Counter

import pytest

from frolicher import linalg
from frolicher.bicomplex import conjugate, direct_sum, dual, validate
from frolicher.cohomology import (aeppli, bott_chern, de_rham, dolbeault,
                                  row_cohomology)
from frolicher.serialize import complex_to_json
from frolicher.spectral import pages_filtration, stable_page_index
from frolicher.zigzag import (GridError, ShapeError, canonicalize_shape,
                              contribution_profile, enumerate_shapes,
                              mirror_shape, realize_shape, synthesize)
from genutil import (combination, dh, dv, fold_synthesize, random_multiset,
                     random_shape, total)


def test_canonicalize_reverses_to_smaller_end():
    s = canonicalize_shape([(1, 1), (0, 1)])
    assert s.dots == ((0, 1), (1, 1))


def test_canonicalize_keeps_z4a():
    s = canonicalize_shape([(0, 1), (1, 1), (1, 0), (2, 0)])
    assert s.dots == ((0, 1), (1, 1), (1, 0), (2, 0))


def test_canonicalize_rejects_staircase():
    with pytest.raises(ShapeError, match="ascending"):
        canonicalize_shape([(0, 0), (1, 0), (1, 1)])
    with pytest.raises(ShapeError, match="descending"):
        canonicalize_shape([(1, 1), (1, 0), (0, 0)])


def test_canonicalize_rejects_bad_input():
    with pytest.raises(ShapeError, match="empty"):
        canonicalize_shape([])
    with pytest.raises(ShapeError, match="non-unit"):
        canonicalize_shape([(0, 0), (1, 1)])
    with pytest.raises(ShapeError, match="repeated"):
        canonicalize_shape([(0, 0), (1, 0), (0, 0)])
    with pytest.raises(ShapeError, match="negative"):
        canonicalize_shape([(0, -1)])


def test_realize_dot_and_arrow():
    dot = realize_shape(canonicalize_shape([(0, 0)]), (3, 3))
    assert dot.dim(0, 0) == 1 and dot.total_dim() == 1
    c = realize_shape(canonicalize_shape([(0, 1), (1, 1)]), (3, 3))
    assert dh(c, 0, 1) == linalg.from_rows(1, 1, [[1]])


def test_realize_z4a_is_valid():
    K = realize_shape(canonicalize_shape([(0, 1), (1, 1), (1, 0), (2, 0)]),
                      (3, 3))
    assert validate(K) == []
    assert dh(K, 0, 1) == linalg.from_rows(1, 1, [[1]])
    assert dv(K, 1, 0) == linalg.from_rows(1, 1, [[1]])
    assert dh(K, 1, 0) == linalg.from_rows(1, 1, [[1]])


def test_realize_outside_grid():
    with pytest.raises(GridError):
        realize_shape(canonicalize_shape([(0, 4)]), (3, 3))


def test_synthesize_empty_and_double():
    assert synthesize(Counter(), (3, 3)).total_dim() == 0
    c = canonicalize_shape([(0, 1), (1, 1)])
    K = synthesize(Counter({c: 2}), (3, 3))
    assert K.dim(0, 1) == K.dim(1, 1) == 2
    assert dh(K, 0, 1) == linalg.from_rows(2, 2, [[1, 0], [0, 1]])


def test_synthesize_checks_every_multiplicity():
    # Every dot is checked against the grid, even of a shape that adds no
    # copy; a zero multiplicity otherwise adds nothing, and a negative one
    # is refused.
    far = canonicalize_shape([(9, 9)])
    with pytest.raises(GridError) as err:
        synthesize(Counter({far: 0}), (3, 3))
    assert str(err.value) == "dot (9,9) outside grid 3x3"
    c = canonicalize_shape([(0, 1), (1, 1)])
    e = canonicalize_shape([(1, 0), (2, 0)])
    zeros = Counter({c: 2, e: 0, canonicalize_shape([(3, 3)]): 0})
    K, plain = (synthesize(m, (3, 3)) for m in (zeros, Counter({c: 2})))
    assert K == plain and complex_to_json(K) == complex_to_json(plain)
    with pytest.raises(ValueError) as err:
        synthesize(Counter({c: 1, e: -1}), (3, 3))
    assert str(err.value) == "negative multiplicity"


def test_synthesize_matches_fold():
    rng = random.Random(21)
    for _ in range(8):
        m = random_multiset(rng, (3, 3), max_shapes=3, max_mult=2)
        assert synthesize(m, (3, 3)) == fold_synthesize(m, (3, 3))


def test_mirror_examples():
    c = canonicalize_shape([(0, 1), (1, 1)])
    assert mirror_shape(c, "dual", (3, 3)).dots == ((2, 2), (3, 2))
    assert mirror_shape(c, "conj", (3, 3)).dots == ((1, 0), (1, 1))
    dot = canonicalize_shape([(0, 0)])
    assert mirror_shape(dot, "conj", (3, 3)).dots == ((0, 0),)
    with pytest.raises(GridError):
        mirror_shape(canonicalize_shape([(0, 3)]), "conj", (2, 3))
    with pytest.raises(ValueError):
        mirror_shape(dot, "transpose", (3, 3))


def test_mirrors_commute_with_functors():
    rng = random.Random(22)
    for _ in range(15):
        s = random_shape(rng, (3, 3), max_len=5)
        K = realize_shape(s, (3, 3))
        d = realize_shape(mirror_shape(s, "dual", (3, 3)), (3, 3))
        assert d.dims == dual(K).dims
        c = realize_shape(mirror_shape(s, "conj", (3, 3)), (3, 3))
        assert c.dims == conjugate(K).dims


def test_profile_dot():
    prof = contribution_profile(canonicalize_shape([(0, 0)]), (3, 3))
    for t in prof.pages:
        assert t.grid[0, 0] == 1 and total(t.grid) == 1
    assert prof.de_rham.b[0] == 1 and sum(prof.de_rham.b) == 1


def test_profile_c_zigzag():
    prof = contribution_profile(canonicalize_shape([(0, 1), (1, 1)]), (3, 3))
    assert prof.pages[0].grid[0, 1] == prof.pages[0].grid[1, 1] == 1
    assert total(prof.pages[1].grid) == 0
    assert prof.bott_chern.grid[1, 1] == 1 and total(prof.bott_chern.grid) == 1
    assert sum(prof.de_rham.b) == 0


def test_profile_conjugated_c_zigzag():
    # Vertical arrow (1,0) -> (1,1): invisible to the column filtration but
    # visible to Bott-Chern at the sink and to Aeppli at the source.
    prof = contribution_profile(canonicalize_shape([(1, 0), (1, 1)]), (3, 3))
    assert total(prof.pages[0].grid) == 0
    assert prof.bott_chern.grid[1, 1] == 1 and total(prof.bott_chern.grid) == 1
    assert prof.aeppli.grid[1, 0] == 1 and total(prof.aeppli.grid) == 1


def test_staircase_death_page():
    # The double-staircase pattern (ascend h, descend v, ...) of length 2*l
    # survives exactly to page l.
    z4 = canonicalize_shape([(0, 1), (1, 1), (1, 0), (2, 0)])
    prof = contribution_profile(z4, (3, 3))
    assert total(prof.pages[1].grid) == 2
    assert total(prof.pages[2].grid) == 0
    z6 = canonicalize_shape([(0, 2), (1, 2), (1, 1), (2, 1), (2, 0), (3, 0)])
    prof6 = contribution_profile(z6, (3, 3))
    assert total(prof6.pages[0].grid) == 2
    assert total(prof6.pages[1].grid) == 2
    assert total(prof6.pages[2].grid) == 2
    assert total(prof6.pages[3].grid) == 0
    # The conjugated staircase starts with a vertical arrow and never shows
    # up on any page.
    conj6 = mirror_shape(z6, "conj", (3, 3))
    for t in contribution_profile(conj6, (3, 3)).pages:
        assert total(t.grid) == 0


def test_additivity_over_multisets():
    rng = random.Random(23)
    for _ in range(5):
        m = random_multiset(rng, (3, 3), max_shapes=3, max_mult=2)
        K = synthesize(m, (3, 3))
        profiles = {s: contribution_profile(s, (3, 3)) for s in m}
        r = stable_page_index(K)
        pages = pages_filtration(K, r)
        for idx in range(r):
            expected = combination([(mult, profiles[s].pages[idx].grid)
                                    for s, mult in m.items()], (4, 4))
            assert pages[idx].grid == expected
        for fn, attr in ((dolbeault, "dolbeault"), (row_cohomology, "row"),
                         (bott_chern, "bott_chern"), (aeppli, "aeppli")):
            expected = combination([(mult, getattr(profiles[s], attr).grid)
                                    for s, mult in m.items()], (4, 4))
            assert fn(K).grid == expected
        expected_b = tuple(
            sum(mult * profiles[s].de_rham.b[k] for s, mult in m.items())
            for k in range(7))
        assert de_rham(K).b == expected_b


def test_mirror_profile_compatibility():
    rng = random.Random(24)
    for _ in range(10):
        s = random_shape(rng, (3, 3), max_len=4)
        m = mirror_shape(s, "dual", (3, 3))
        prof_s = contribution_profile(s, (3, 3))
        prof_m = contribution_profile(m, (3, 3))
        for p in range(4):
            for q in range(4):
                assert (prof_m.aeppli.grid[p, q]
                        == prof_s.bott_chern.grid[3 - p, 3 - q])
                for t_m, t_s in zip(prof_m.pages, prof_s.pages):
                    assert t_m.grid[p, q] == t_s.grid[3 - p, 3 - q]


def test_enumerate_shapes_tiny_grid():
    shapes = enumerate_shapes((1, 1), 2)
    assert len(shapes) == 8  # 4 dots + 2 horizontal + 2 vertical arrows
    assert all(len(s) <= 2 for s in shapes)
    assert len(set(shapes)) == len(shapes)


def test_enumerate_shapes_all_canonical_and_fit():
    shapes = enumerate_shapes((2, 2), 4)
    for s in shapes:
        assert canonicalize_shape(list(s.dots)) == s
        assert all(p <= 2 and q <= 2 for p, q in s.dots)


def test_square_summand_changes_nothing():
    from genutil import square_complex
    rng = random.Random(25)
    m = random_multiset(rng, (3, 3))
    K = synthesize(m, (3, 3))
    Ksq = direct_sum(K, square_complex(1, 1, (3, 3)))
    assert dolbeault(K) == dolbeault(Ksq)
    assert bott_chern(K) == bott_chern(Ksq)
    assert aeppli(K) == aeppli(Ksq)
    assert de_rham(K).b == de_rham(Ksq).b
    r = stable_page_index(K)
    for a, b in zip(pages_filtration(K, r), pages_filtration(Ksq, r)):
        assert a.grid == b.grid


def test_shapes_order_only_among_shapes():
    shape = canonicalize_shape([(0, 1), (1, 1)])
    for mixed in ([1, shape], [shape, 1]):
        with pytest.raises(TypeError):
            sorted(mixed)
