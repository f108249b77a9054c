"""Property tests of the bicomplex operations and of the document parsers."""

import random

import pytest

from frolicher.bicomplex import (InvalidComplexError, conjugate, direct_sum,
                                 dual, require_valid, validate)
from frolicher.cohomology import (aeppli, arithmetic_genus, bott_chern,
                                  dolbeault, row_cohomology)
from frolicher.serialize import (ParseError, complex_to_doc, complex_to_json,
                                 doc_to_complex, doc_to_multiset,
                                 json_to_complex, multiset_to_doc)
from frolicher.spectral import pages_filtration, stable_page_index
from frolicher.zigzag import GridError, ShapeError, synthesize
from genutil import (change_basis, combination, corrupted_complex,
                     random_complex, random_multiset, ref_tables, ref_validate,
                     reflected, transposed)

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SETTINGS = settings(max_examples=40, deadline=None, database=None)


@st.composite
def complexes(draw):
    """A random valid complex in a random basis, a third of them rational."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    K = random_complex(rng, draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                       max_shapes=3, scramble=False)
    return change_basis(rng, K, rational=draw(st.integers(0, 2)) == 0)


@SETTINGS
@given(complexes())
def test_dual_and_conjugate_are_involutions(K):
    assert dual(dual(K)) == K
    assert conjugate(conjugate(K)) == K


@SETTINGS
@given(complexes())
def test_dual_reflects_dolbeault_and_every_page(K):
    D = dual(K)
    assert dolbeault(D).grid == reflected(dolbeault(K).grid)
    r = stable_page_index(K)
    for mine, theirs in zip(pages_filtration(D, r), pages_filtration(K, r)):
        assert mine.grid == reflected(theirs.grid)


@SETTINGS
@given(complexes())
def test_conjugate_swaps_dolbeault_and_row(K):
    J = conjugate(K)
    assert dolbeault(J).grid == transposed(row_cohomology(K).grid)
    assert row_cohomology(J).grid == transposed(dolbeault(K).grid)


@SETTINGS
@given(complexes(), complexes())
def test_direct_sum_adds_dims_and_tables(A, B):
    S = direct_sum(A, B)
    shape = S.dims.shape
    assert S.dims == combination([(1, A.dims), (1, B.dims)], shape)
    for theory in (dolbeault, bott_chern, aeppli):
        assert theory(S).grid == combination(
            [(1, theory(A).grid), (1, theory(B).grid)], shape)


def checked_report(K):
    """validate(K), once it has equalled the per-spot reference, returned an
    equal new list when called again, and made require_valid raise exactly
    when it is non-empty.  The reference decides every arrow's fit itself,
    where the report is the one that the constructor's check kept."""
    report = validate(K)
    assert report == ref_validate(K)
    again = validate(K)
    assert again == report and again is not report
    if report:
        with pytest.raises(InvalidComplexError):
            require_valid(K)
    else:
        require_valid(K)
    return report


@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(1, 4))
def test_validate_matches_the_per_spot_reference(seed, p_max, q_max):
    checked_report(corrupted_complex(random.Random(seed), p_max, q_max))


@pytest.mark.wide
def test_validate_matches_the_per_spot_reference_wide():
    # 10,000 corrupted complexes on grids from 1 x 1 to 4 x 4: changed
    # entries, misfits of both kinds and new arrows.  At least 1,000 reports
    # must hold both a shape violation and a d^2 one.
    rng = random.Random(2017)
    suite = [corrupted_complex(rng, rng.randint(1, 4), rng.randint(1, 4))
             for _ in range(10000)]
    assert len(suite) == 10000
    both = 0
    for K in suite:
        axioms = {v.axiom for v in checked_report(K)}
        both += "shape" in axioms and len(axioms) > 1
    assert both >= 1000


@SETTINGS
@given(complexes())
def test_theories_match_the_per_spot_reference(K):
    ref = ref_tables(K)
    for theory in (dolbeault, row_cohomology, bott_chern, aeppli):
        table = theory(K)
        assert table.grid == ref[table.theory], table.theory
    assert arithmetic_genus(K) == ref["genus"]


@SETTINGS
@given(complexes())
def test_json_round_trip(K):
    assert json_to_complex(complex_to_json(K)) == K


# Any JSON value, biased towards the keys and strings the formats use.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.integers()
    | st.floats(allow_nan=False)
    | st.sampled_from(["1", "-1", "1/2", "2/4", "1/0", "x"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["p", "q", "m", "p_max", "q_max", "dims", "d_horiz",
                         "d_vert", "grid", "zigzags", "dots", "mult"]),
        inner, max_size=4),
    max_leaves=10)


def slots(node):
    """Every ``(container, key)`` pair of a JSON tree."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield node, key
        yield from slots(child)


def fuzzed(data, doc):
    """``doc`` with one to three nodes (the root included) replaced."""
    root = [doc]
    for _ in range(data.draw(st.integers(1, 3))):
        container, key = data.draw(st.sampled_from(list(slots(root))))
        container[key] = data.draw(JSON)
    return root[0]


@SETTINGS
@given(complexes(), st.data())
def test_fuzzed_complex_documents_fail_cleanly(K, data):
    doc = fuzzed(data, complex_to_doc(K))
    try:
        require_valid(doc_to_complex(doc))
    except (ParseError, InvalidComplexError):
        pass


@SETTINGS
@given(st.integers(0, 2 ** 32 - 1), st.data())
def test_fuzzed_multiset_documents_fail_cleanly(seed, data):
    # Shape and grid errors are the domain errors a multiset can carry.
    doc = fuzzed(data, multiset_to_doc(
        random_multiset(random.Random(seed), (3, 3)), (3, 3)))
    try:
        synthesize(*doc_to_multiset(doc))
    except (ParseError, ShapeError, GridError):
        pass
