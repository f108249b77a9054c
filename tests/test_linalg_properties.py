"""Property tests of the exact eliminator against the rational reference."""

import pytest

from frolicher import linalg
from genutil import ref_nullspace, ref_profile, ref_rank

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FRACTIONS = st.fractions(-3, 3, max_denominator=4)
ENTRIES = st.one_of(st.just(0), st.integers(-3, 3), FRACTIONS)


@st.composite
def matrices(draw, max_side=6):
    """Sparse int and ``Fraction`` matrices, and products of two of them,
    whose rows and columns depend on each other."""
    def plain(r, c):
        rows = draw(st.lists(st.lists(ENTRIES, min_size=c, max_size=c),
                             min_size=r, max_size=r))
        return linalg.from_rows(r, c, rows)

    r, c = (draw(st.integers(0, max_side)) for _ in range(2))
    if draw(st.booleans()):
        return plain(r, c)
    k = draw(st.integers(0, 3))
    return linalg.mat_mul(plain(r, k), plain(k, c))


@settings(max_examples=150, deadline=None, database=None)
@given(matrices())
def test_rank_is_the_rank_of_the_transpose(m):
    assert linalg.rank(m) == linalg.rank(m.T) == ref_rank(m)


@settings(max_examples=60, deadline=None, database=None)
@given(matrices())
def test_rank_profile_matches_prefix_ranks_in_both_orientations(m):
    assert linalg.rank(m, profile=True) == ref_profile(m)
    assert linalg.rank(m.T, profile=True) == ref_profile(m.T)


@settings(max_examples=100, deadline=None, database=None)
@given(matrices(), st.data())
def test_nullspace_is_the_documented_basis_of_the_row_space(m, data):
    basis = linalg.nullspace(m)
    assert [list(col) for col in zip(*basis.tolist())] == ref_nullspace(m)
    r, c = m.shape
    rows = m.tolist()
    assert linalg.nullspace(linalg.from_rows(r, c, rows[::-1])) == basis
    if r:
        x, y = (rows[data.draw(st.integers(0, r - 1))] for _ in range(2))
        a, b = (data.draw(FRACTIONS) for _ in range(2))
        rows.append([a * s + b * t for s, t in zip(x, y)])
        assert linalg.nullspace(linalg.from_rows(r + 1, c, rows)) == basis
