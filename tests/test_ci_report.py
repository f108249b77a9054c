"""The tier-1 command of CI reports a failing property test.

CI runs the suite under ``-W error``.  hypothesis's report hook touches a
deprecated ``mypy_extensions`` name, and under ``-W error`` alone that warning
ends the run in ``INTERNALERROR`` with no falsifying example.  The workflow's
``-W`` options, read from its tier-1 step, must let the failure be reported.
"""

import pathlib
import re
import shlex
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

WORKFLOW = (pathlib.Path(__file__).resolve().parents[1]
            / ".github" / "workflows" / "tests.yml")

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
'''


def ci_warning_options():
    """The ``-W`` options of the workflow's tier-1 pytest command."""
    run = re.search(r"name: tier-1 suite\n\s*run: (.*)",
                    WORKFLOW.read_text()).group(1)
    words = shlex.split(run)
    return [w for i, w in enumerate(words)
            if w == "-W" or i and words[i - 1] == "-W"]


def test_ci_flags_report_a_failing_property(tmp_path):
    options = ci_warning_options()
    assert options[:2] == ["-W", "error"]
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY)
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *options], cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = res.stdout + res.stderr
    assert res.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
