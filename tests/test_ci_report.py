"""The pytest commands of CI, and the marker that splits them.

CI runs the suite under ``-W error``.  hypothesis's report hook touches a
deprecated ``mypy_extensions`` name, and under ``-W error`` alone that warning
ends the run in ``INTERNALERROR`` with no falsifying example.  The workflow's
``-W`` options, read from its tier-1 step, must let the failure be reported,
and its wide step must run the wide cases under the same options.
"""

import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
'''

# The wide case of each oracle test: what `pytest -m wide` must select, and
# the default configuration must deselect.
WIDE_CASES = {
    "tests/test_bicomplex_properties.py::"
    "test_validate_matches_the_per_spot_reference_wide",
    "tests/test_linalg.py::test_nullspace_is_the_documented_basis[wide]",
    "tests/test_s6.py::"
    "test_catalog_holds_iff_every_family_count_is_non_negative_wide",
    "tests/test_s6.py::test_verify_model_samples_wide",
    "tests/test_serialize_cli.py::test_round_trip_random_complexes_wide",
    "tests/test_spectral.py::test_bars_match_the_rank_count_reference_wide",
    "tests/test_spectral.py::"
    "test_explicit_entries_match_the_kernel_definition_wide",
    "tests/test_spectral.py::"
    "test_staircases_are_slices_of_the_kept_total_differential_wide",
    "tests/test_spectral.py::test_densely_scrambled_models_wide",
    "tests/test_spectral.py::"
    "test_a_page_shares_its_grid_exactly_when_nothing_changed_wide",
    "tests/test_spectral.py::"
    "test_every_table_is_a_checked_rectangle_of_ints_wide",
}


def ci_pytest_words(step):
    """The words of the run line of the workflow step named ``step``."""
    run = re.search(rf"name: {step}\n\s*run: (.*)",
                    WORKFLOW.read_text()).group(1)
    return shlex.split(run)


def warning_options(words):
    return [w for i, w in enumerate(words)
            if w == "-W" or i and words[i - 1] == "-W"]


def test_ci_flags_report_a_failing_property(tmp_path):
    options = warning_options(ci_pytest_words("tier-1 suite"))
    assert options[:2] == ["-W", "error"]
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *options], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = res.stdout + res.stderr
    assert res.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


def test_the_wide_step_selects_the_wide_cases_under_the_same_warnings():
    words = ci_pytest_words("wide oracles")
    assert warning_options(words) == warning_options(
        ci_pytest_words("tier-1 suite"))
    # pytest reads the last -m, after the configuration's -m 'not wide'.
    assert [w for i, w in enumerate(words)
            if i and words[i - 1] == "-m"][-1:] == ["wide"]


def collected(*options):
    """The node ids that pytest selects in this repository, and its
    output."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *options], cwd=ROOT, capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stdout + res.stderr
    ids = {line for line in res.stdout.splitlines() if "::" in line}
    return ids, res.stdout


def test_exactly_the_wide_cases_are_deselected_by_default():
    assert collected("-m", "wide")[0] == WIDE_CASES
    default, out = collected()
    assert default and not default & WIDE_CASES
    assert f"({len(WIDE_CASES)} deselected)" in out
