"""Inputs shared by the wide test cases, which ``pytest -m wide`` runs.

Each is built once per session.  Complexes are immutable, and the lists are
handed out as tuples, so a test that shares one sees the same input as if it
had built its own.
"""

import pytest

from genutil import dense_models, random_complex_suite


@pytest.fixture(scope="session")
def wide_suite():
    """``random_complex_suite(2017, 2000)``.  Its first 200 and 400 are the
    suites of that seed and size, as each complex draws from one stream."""
    return tuple(random_complex_suite(2017, 2000))


@pytest.fixture(scope="session")
def dense_bound3_models():
    """The 316 bound-3 models under a 4n-step change of basis (seed 2026)."""
    return tuple(dense_models(3))
