"""Property tests of the pages on random valid complexes."""

import random

import pytest

from frolicher.cohomology import de_rham
from frolicher.spectral import (degeneration_page, euler_char_of_page,
                                pages_explicit, pages_filtration,
                                stable_page_index)
from genutil import random_complex, shrinks

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=60, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), p_max=st.integers(1, 4),
       q_max=st.integers(1, 4), rational=st.booleans())
def test_pages_shrink_keep_euler_and_abut(seed, p_max, q_max, rational):
    K = random_complex(random.Random(seed), p_max, q_max, max_shapes=5,
                       n_squares=2, rational=rational)
    tables = pages_filtration(K, stable_page_index(K) + 1)
    assert pages_explicit(K, len(tables)) == tables
    chi = euler_char_of_page(tables[0])
    for earlier, later in zip(tables, tables[1:]):
        assert shrinks(later.grid, earlier.grid)
    for t in tables:
        assert euler_char_of_page(t) == chi
    last = tables[-1]
    assert tables[-2].grid == last.grid
    betti = de_rham(K)
    for k in range(len(betti)):
        assert betti[k] == sum(last.grid[p, k - p] for p in range(p_max + 1)
                               if 0 <= k - p <= q_max)
    r = degeneration_page(K)
    assert r <= stable_page_index(K)
    assert tables[r - 1].grid == last.grid
    assert r == 1 or not tables[r - 2].grid == last.grid
