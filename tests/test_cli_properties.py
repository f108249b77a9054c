"""Property test of the command line: any arguments, any document.

``cli.main`` runs in-process on small random documents (valid complexes,
broken complexes, zigzag multisets, arbitrary JSON and hostile bytes) and
random argument lists.  It must end with exit code 0, 1 or 2, returned or
raised by argparse as ``SystemExit``, and never with another exception.
"""

import contextlib
import io
import json
import random

import pytest

from frolicher.cli import main
from frolicher.serialize import complex_to_json, multiset_to_doc
from genutil import corrupted_complex, random_complex, random_multiset

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

SMALL = st.integers(-2, 4).map(str)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5)
    | st.sampled_from(["1", "1/2", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["p_max", "q_max", "dims", "d_horiz",
                                       "grid", "zigzags", "dots", "mult"]),
                      inner, max_size=3),
    max_leaves=8)
# Bytes that no parser should choke on: an integer literal too long to
# convert, nesting too deep to decode, bytes that are not UTF-8, and
# rationals in a spelling the writer never uses.
HOSTILE = [b"1" * 5000, b"[" * 200000, b"\xff", b'{"p_max": \xff}',
           *(json.dumps({"p_max": 1, "q_max": 0, "dims": [[1], [1]],
                         "d_horiz": [{"p": 0, "q": 0, "m": [[x]]}]}).encode()
             for x in ("1e999999999", "1e1000000", "0x10", "1" * 5000))]


@st.composite
def documents(draw):
    """The bytes of a small random document of one of five kinds."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    p_max, q_max = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["valid", "broken", "multiset", "json",
                                 "hostile"]))
    if kind == "hostile":
        return draw(st.sampled_from(HOSTILE))
    if kind == "valid" and p_max and q_max:
        text = complex_to_json(random_complex(rng, p_max, q_max,
                                              max_shapes=2))
    elif kind == "broken" and p_max and q_max:
        text = complex_to_json(corrupted_complex(rng, p_max, q_max))
    elif kind == "multiset":
        grid = (p_max, q_max)
        text = json.dumps(multiset_to_doc(random_multiset(rng, grid), grid))
    else:
        text = json.dumps(draw(JSON))
    return text.encode()


@st.composite
def arguments(draw, path, out):
    """A random argument list naming ``path`` as its input document."""
    params = [x for name in ("h10", "h02", "h11", "alpha", "beta")
              for x in (f"--{name}", draw(SMALL))]
    argv = draw(st.sampled_from([
        ["validate", path],
        ["cohomology", path, "--theory",
         draw(st.sampled_from(["dolbeault", "row", "derham", "bc", "aeppli",
                               "genus", "x"]))],
        ["pages", path, "--max", draw(SMALL), "--method",
         draw(st.sampled_from(["filtration", "explicit", "both", "x"]))],
        ["degeneration", path],
        ["zigzag", "profile", "--dots",
         draw(st.sampled_from(["(0,0)", "(0,1),(1,1)", "(0,0),(2,2)", "x"])),
         "--grid", draw(st.sampled_from(["3,3", "1,1", "-1,2", "x"]))],
        ["zigzag", "synth", path, "-o", out],
        ["s6", "infer", path],
        ["s6", draw(st.sampled_from(["check", "predict", "verify"])),
         *params],
        ["s6", "realize", *params, "-o", out],
        ["s6", "enumerate", "--bound", draw(st.integers(-1, 1).map(str))],
    ]))
    # Sometimes drop or add a token, to reach argparse's own errors.
    cut = draw(st.integers(0, len(argv)))
    extra = draw(st.lists(st.sampled_from(["--max", "-o", "x", "0"]),
                          max_size=1))
    return argv[:cut] + extra + argv[cut:] if extra else argv


@settings(max_examples=60, deadline=None, database=None)
@given(documents(), st.data())
def test_cli_ends_with_exit_code_0_1_or_2(tmp_path_factory, document, data):
    folder = tmp_path_factory.mktemp("cli")
    path, out = str(folder / "doc.json"), str(folder / "out.json")
    (folder / "doc.json").write_bytes(document)
    argv = data.draw(arguments(path, out))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
