import random
from fractions import Fraction
from functools import partial

import pytest

from frolicher import _kernels, linalg
from frolicher import s6
from frolicher.bicomplex import total_differential
from genutil import (random_fraction_matrix, random_int_matrix,
                     random_staircase, ref_nullspace, ref_profile, ref_rank)


def test_rank_small_known():
    m = linalg.from_rows(2, 2, [[1, 2], [2, 4]])
    assert linalg.rank(m) == 1
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    assert linalg.rank(linalg.from_rows(5, 5, identity)) == 5
    assert linalg.rank(linalg.Matrix((3, 4), [{}] * 3)) == 0


def test_rank_empty_shapes():
    assert linalg.rank(linalg.Matrix((0, 5), [])) == 0
    assert linalg.rank(linalg.Matrix((5, 0), [{}] * 5)) == 0
    assert linalg.nullspace(linalg.Matrix((0, 4), [])).shape == (4, 4)
    assert linalg.nullspace(linalg.Matrix((4, 0), [{}] * 4)).shape == (0, 0)


@pytest.mark.parametrize("seed", range(6))
def test_rank_matches_reference(seed):
    rng = random.Random(seed)
    for _ in range(80):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.5:
            m = random_int_matrix(rng, r, c, mag=6)
        else:
            m = random_fraction_matrix(rng, r, c)
        assert linalg.rank(m) == ref_rank(m)


@pytest.mark.parametrize("seed", range(4))
def test_nullspace_spans_kernel(seed):
    rng = random.Random(seed + 100)
    for _ in range(60):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        m = (random_int_matrix(rng, r, c, mag=5) if rng.random() < 0.5
             else random_fraction_matrix(rng, r, c))
        basis = linalg.nullspace(m)
        assert basis.shape[0] == c
        assert basis.shape[1] == c - ref_rank(m)
        assert not linalg.mat_mul(m, basis).any()
        if basis.shape[1]:
            assert linalg.rank(basis) == basis.shape[1]


@pytest.mark.parametrize("seed", range(3))
def test_rank_profile_counts_leading_ranks(seed):
    rng = random.Random(seed + 200)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        e = random_int_matrix(rng, r, c, mag=2).tolist()
        # Zero and repeated rows and columns make pivots skip rows.
        e[rng.randrange(r)] = [0] * c
        if r > 1:
            e[rng.randrange(r)] = list(e[rng.randrange(r)])
        if c > 1:
            j, k = rng.randrange(c), rng.randrange(c)
            for row in e:
                row[j] = row[k]
        m = linalg.from_rows(r, c, e)
        profile = linalg.rank(m, profile=True)
        assert len(profile) == linalg.rank(m)
        assert [col for _, col in profile] == sorted(col for _, col in profile)
        for i in range(1, r + 1):
            for j in range(1, c + 1):
                inside = sum(1 for row, col in profile if row < i and col < j)
                assert inside == ref_rank(
                    linalg.from_rows(i, j, [row[:j] for row in e[:i]]))


def small_kernel_suite(seed):
    """72 small matrices of six kinds: int, rational, int with a row made
    zero, with no rows, and int with a duplicate or a dependent row."""
    rng = random.Random(seed + 300)
    kinds = ("int", "fraction", "zero row", "no rows", "duplicate row",
             "dependent row")
    suite = []
    for kind in kinds * 12:
        r, c = rng.randint(1, 6), rng.randint(1, 7)
        if kind == "fraction":
            e = random_fraction_matrix(rng, r, c).tolist()
        else:
            e = random_int_matrix(rng, r, c, mag=3).tolist()
        if kind == "zero row":
            e[rng.randrange(r)] = [0] * c
        elif kind == "no rows":
            e = []
        elif kind == "duplicate row":
            e.insert(rng.randrange(r + 1), list(rng.choice(e)))
        elif kind == "dependent row":
            x, y = rng.choice(e), rng.choice(e)
            a, b = (Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                    for _ in range(2))
            e.insert(rng.randrange(r + 1),
                     [a * s + b * t for s, t in zip(x, y)])
        suite.append(linalg.from_rows(len(e), c, e))
    return suite


def wide_kernel_suite():
    """2,000 seeded matrices: int, rational and low-rank rational products,
    and int matrices and low-rank products with entries past 64 bits."""
    rng = random.Random(2017)
    big = 2 ** 70
    kinds = [
        lambda r, k, c: random_int_matrix(rng, r, c),
        lambda r, k, c: random_fraction_matrix(rng, r, c),
        lambda r, k, c: linalg.mat_mul(random_fraction_matrix(rng, r, k),
                                       random_int_matrix(rng, k, c)),
        lambda r, k, c: random_int_matrix(rng, r, c, mag=big),
        lambda r, k, c: linalg.mat_mul(random_int_matrix(rng, r, k, big),
                                       random_int_matrix(rng, k, c, big)),
    ]
    suite = []
    for i in range(2000):
        r, c = rng.randint(0, 10), rng.randint(1, 12)
        suite.append(kinds[i % 5](r, rng.randint(0, min(r, c)), c))
    return suite


@pytest.mark.parametrize("suite, size", [
    *(pytest.param(partial(small_kernel_suite, seed), 72, id=str(seed))
      for seed in range(3)),
    pytest.param(wide_kernel_suite, 2000, id="wide", marks=pytest.mark.wide),
])
def test_nullspace_is_the_documented_basis(suite, size):
    """Exactly the primitive free-column vectors, positive at their column.
    nullspace back-substitutes the eliminator's forward rows itself."""
    matrices = suite()
    assert len(matrices) == size
    for m in matrices:
        expected = ref_nullspace(m)
        basis = linalg.nullspace(m)
        assert basis.shape == (m.shape[1], len(expected))
        assert [list(col) for col in zip(*basis.tolist())] == expected


@pytest.mark.parametrize("seed", range(3))
def test_rank_profile_matches_prefix_ranks(seed):
    """On rational matrices with dependent rows and on 0/±1 staircases."""
    rng = random.Random(seed + 400)
    for _ in range(15):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        e = random_fraction_matrix(rng, r, c).tolist()
        if r > 2:
            i, j, k = rng.sample(range(r), 3)
            f = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            e[i] = [x + f * y for x, y in zip(e[j], e[k])]
        for m in (linalg.from_rows(r, c, e), random_staircase(rng, r, c)):
            assert linalg.rank(m, profile=True) == ref_profile(m)


def test_rank_profile_matches_prefix_ranks_on_s6_boundaries():
    """The boundary matrices the barcode of an s6 model reads, as fed."""
    for d in s6.enumerate_diamonds(1):
        K = s6.realize_model(d)
        for k in range(K.p_max + K.q_max):
            m = total_differential(K, k)[::-1]
            assert linalg.rank(m, profile=True) == ref_profile(m)


def rows_with_units(rng, r, c):
    """Stored rows of an r x c matrix, about a third of them with one
    entry, int or Fraction, positive or negative."""
    rows = []
    for _ in range(r):
        kind = rng.random()
        if kind < 0.35:
            x = rng.choice((rng.randint(1, 5), Fraction(rng.randint(1, 5), 3)))
            rows.append({rng.randrange(c): rng.choice((1, -1)) * x})
        elif kind < 0.45:
            rows.append({})
        else:
            make = random_fraction_matrix if kind < 0.6 else random_int_matrix
            rows.append(dict(make(rng, 1, c).rows[0]))
    return rows


@pytest.mark.parametrize("seed", range(4))
def test_eliminate_ignores_the_scale_of_each_row(seed):
    """One-entry rows enter as {col: 1}; scaling any row by a nonzero int
    or Fraction, negative ones included, changes no pivot, echelon row or
    origin, also where a one-entry row meets an existing pivot."""
    rng = random.Random(seed + 500)
    scales = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4))
    hits = 0
    for _ in range(60):
        r, c = rng.randint(1, 9), rng.randint(1, 6)
        rows = rows_with_units(rng, r, c)
        out = _kernels.eliminate(rows)
        for _ in range(3):
            scaled = [{j: f * x for j, x in row.items()}
                      for row in rows for f in [rng.choice(scales)]]
            assert _kernels.eliminate(scaled) == out
        m = linalg.Matrix((r, c), rows)
        assert linalg.rank(m, profile=True) == ref_profile(m)
        hits += sum(len(row) == 1
                    and min(row) in _kernels.eliminate(rows[:i])[0]
                    for i, row in enumerate(rows))
    assert hits >= 20


def test_big_entries_use_object_path():
    m = linalg.from_rows(2, 3, [[2 ** 40, 1, 2 ** 41], [3, 2 ** 45, 7]])
    assert m.dtype == object
    assert linalg.rank(m) == 2
    basis = linalg.nullspace(m)
    assert basis.shape == (3, 1)
    assert not linalg.mat_mul(m, basis).any()


def check_rank_and_kernel(m):
    c = m.shape[1]
    expected = ref_rank(m)
    assert linalg.rank(m) == expected
    basis = linalg.nullspace(m)
    assert basis.shape == (c, c - expected)
    assert not linalg.mat_mul(m, basis).any()


def test_big_integer_rank_and_kernel():
    # Minors of a dense random 25x25 matrix run far past 64 bits.
    rng = random.Random(99)
    check_rank_and_kernel(random_int_matrix(rng, 25, 25, mag=9))


@pytest.mark.parametrize("seed", (5, 6))
def test_small_rank_and_kernel_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        check_rank_and_kernel(random_int_matrix(rng, r, c, mag=3))


def test_denominator_clearing_preserves_rank_and_kernel():
    m = linalg.from_rows(2, 2, [[Fraction(1, 2), Fraction(1, 3)],
                                [Fraction(3, 2), Fraction(2, 1)]])
    assert linalg.rank(m) == ref_rank(m) == 2
    scaled = linalg.from_rows(2, 2, [[Fraction(1, 7), Fraction(2, 7)],
                                     [Fraction(2, 7), Fraction(4, 7)]])
    basis = linalg.nullspace(scaled)
    assert basis.shape[1] == 1
    assert not linalg.mat_mul(scaled, basis).any()


def test_mat_mul_exact_and_promotes():
    a = linalg.from_rows(1, 2, [[2 ** 30, 2 ** 30]])
    b = linalg.from_rows(2, 1, [[2 ** 30], [2 ** 30]])
    prod = linalg.mat_mul(a, b)
    assert prod[0, 0] == 2 ** 61
    f = linalg.from_rows(2, 2, [[Fraction(1, 2), 0], [0, 1]])
    g = linalg.from_rows(2, 2, [[2, 0], [0, 3]])
    assert linalg.mat_mul(f, g)[0, 0] == 1
    for x, y in ((a, a), (f, a)):
        with pytest.raises(ValueError) as err:
            linalg.mat_mul(x, y)
        assert str(err.value) == f"shape mismatch {x.shape} @ {y.shape}"


def test_assemble_blocks():
    a = linalg.from_rows(2, 2, [[1, 0], [0, 1]])
    b = linalg.from_rows(1, 1, [[7]])
    m = linalg.assemble([2, 1], [2, 1], {(0, 0): a, (1, 1): b})
    assert m.shape == (3, 3)
    assert m[2, 2] == 7 and m[0, 0] == 1 and m[0, 2] == 0
    with pytest.raises(ValueError):
        linalg.assemble([2], [2], {(0, 0): b})
    assert linalg.vstack([a, linalg.from_rows(1, 2, [[5, 6]])])[2, 1] == 6
    with pytest.raises(ValueError) as err:
        linalg.vstack([a, b])
    assert str(err.value) == "cannot stack column counts [1, 2]"


def test_from_rows_shape_check():
    with pytest.raises(ValueError):
        linalg.from_rows(2, 2, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(TypeError):
        linalg.from_rows(1, 1, [[0.5]])


def test_constructors_take_any_iterable_of_rows():
    rows = [[1, Fraction(1, 2)], [0, 3]]
    m = linalg.from_rows(2, 2, rows)
    assert linalg.from_rows(2, 2, (tuple(r) for r in rows)) == m
    assert linalg.as_matrix(iter(rows)) == m
    assert linalg.as_matrix(m) is m
    assert linalg.as_matrix([]).shape == (0, 0)
    assert linalg.as_matrix([[], []]).shape == (2, 0)
    g = linalg.Grid([[1, 2], [3, 4]])
    assert linalg.Grid(g) == g == linalg.Grid(map(tuple, g.tolist()))
    with pytest.raises(ValueError):
        linalg.Grid([[1, 2], [3]])


def test_minus_with_no_charge_is_the_grid_itself():
    g = linalg.Grid([[1, 2], [3, 4]])
    assert g.minus([]) is g
    assert g.minus(iter(())) is g


def test_minus_changes_only_the_charged_cells():
    g = linalg.Grid([[5, 6, 7], [8, 9, 10]])
    h = g.minus([((0, 1), 2), ((1, 2), -3), ((0, 1), 1), ((1, 0), True)])
    expected = linalg.Grid([[5, 3, 7], [7, 9, 13]])
    assert h == expected and h.shape == expected.shape == (2, 3)
    assert all(type(x) is int for row in h for x in row)
    assert g == linalg.Grid([[5, 6, 7], [8, 9, 10]])
    # A charge of 0 is still a charge: the result is a new, equal grid.
    zero = g.minus([((1, 1), 0)])
    assert zero == g and zero is not g


@pytest.mark.parametrize("charge, error", [
    (((-1, 0), 1), IndexError), (((0, -1), 1), IndexError),
    (((2, 0), 1), IndexError), (((0, 3), 1), IndexError),
    (((0, 0), 1.5), TypeError), (((0, 0), "1"), TypeError),
    (((0, 0), Fraction(1, 2)), TypeError)])
def test_minus_refuses_a_bad_charge_and_makes_no_grid(monkeypatch, charge,
                                                       error):
    g = linalg.Grid([[1, 2, 3], [4, 5, 6]])
    made = []

    def recording_set(obj, name, value):
        if isinstance(obj, linalg.Grid) and name == "_cells":
            made.append(value)
        object.__setattr__(obj, name, value)

    monkeypatch.setattr(linalg, "_set", recording_set)
    g.minus([((1, 1), 1)])
    assert len(made) == 1  # the hook sees the grids that minus makes
    made.clear()
    for charges in ([charge], [((1, 1), 1), charge]):
        with pytest.raises(error):
            g.minus(charges)
    assert made == []
    assert g.tolist() == [[1, 2, 3], [4, 5, 6]]


def test_constructors_read_numpy_arrays_by_their_rows():
    np = pytest.importorskip("numpy")
    a = np.arange(6).reshape(2, 3)
    m = linalg.as_matrix(a)
    assert m == linalg.from_rows(2, 3, a) == linalg.from_rows(2, 3, a.tolist())
    assert all(type(x) is int for row in m.rows for x in row.values())
    assert linalg.Grid(a) == linalg.Grid(a.tolist())
    assert linalg.as_matrix(np.zeros((3, 0), dtype=int)).shape == (3, 0)


def test_matrix_and_grid_reprs_show_their_dense_rows():
    m = linalg.from_rows(2, 3, [[1, 0, Fraction(-1, 2)], [0, 0, 0]])
    assert repr(m) == "Matrix([[1, 0, Fraction(-1, 2)], [0, 0, 0]])"
    assert repr(linalg.Matrix((0, 2), [])) == "Matrix([])"
    assert repr(linalg.Grid([[1, 2], [3, 4]])) == "Grid([[1, 2], [3, 4]])"
    assert repr(linalg.Grid([[5]]).minus([((0, 0), 2)])) == "Grid([[3]])"


class Pair(linalg.Record):
    __slots__ = ("a", "b")


def test_records_set_their_fields_in_slot_order():
    assert Pair(1, 2) == Pair(1, b=2) == Pair(b=2, a=1)
    assert Pair(1, 2).b == 2 and repr(Pair(1, 2)) == "Pair(a=1, b=2)"
    assert Pair(1, 2) != Pair(2, 1) and hash(Pair(1, 2)) == hash((1, 2))
    for args, kwargs in (((1,), {}), ((1, 2, 3), {}), ((1, 2), {"c": 3}),
                         ((1, 2), {"a": 3}), ((), {"a": 1})):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)
    with pytest.raises(TypeError):
        hash(Pair(linalg.Grid([[1]]), 2))


# A record keeps a list field as a tuple, so that it stays immutable,
# hashable and equal to the record built from a tuple.
def test_a_record_of_a_list_is_hashable():
    from frolicher.zigzag import ZigzagShape
    shape = ZigzagShape([(0, 1), (1, 1)])
    assert shape.dots == ((0, 1), (1, 1))
    assert hash(shape) == hash(ZigzagShape(((0, 1), (1, 1))))


def test_a_record_of_a_list_equals_the_canonical_one():
    from frolicher.zigzag import ZigzagShape, canonicalize_shape
    assert ZigzagShape([(0, 1), (1, 1)]) == canonicalize_shape(
        [(0, 1), (1, 1)])
    assert Pair([1], b=[2]) == Pair((1,), (2,))


def test_a_record_shares_no_list_with_its_caller():
    from frolicher.zigzag import ZigzagShape
    dots = [(0, 1), (1, 1)]
    shape = ZigzagShape(dots)
    dots.append((1, 0))
    with pytest.raises(AttributeError):
        shape.dots.append((1, 0))
    assert len(shape) == 2


def test_a_record_list_field_refuses_item_assignment():
    from frolicher.cohomology import BettiVector
    b = BettiVector([1, 0, 1])
    with pytest.raises(TypeError):
        b.b[0] = 7
    assert list(b.b) == [1, 0, 1] and b == BettiVector((1, 0, 1))


def test_values_of_another_type_are_unequal():
    # Each __eq__ answers NotImplemented for another type, so Python falls
    # back to identity: a matrix and a grid of the same rows are unequal,
    # and so are two record types with the same fields.
    m, g = linalg.from_rows(1, 2, [[1, 2]]), linalg.Grid([[1, 2]])
    assert m.tolist() == g.tolist()
    assert m != g and g != m and m != [[1, 2]] and g != ((1, 2),)

    class Other(linalg.Record):
        __slots__ = ("a", "b")

    assert Pair(1, 2) != Other(1, 2) and Pair(1, 2) != (1, 2)
