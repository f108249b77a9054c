import hashlib
import json
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from frolicher import cli, linalg, s6, serialize
from frolicher.bicomplex import DoubleComplex
from frolicher.cli import MAX_BOUND, main
from frolicher.s6 import (DiamondParams, compute_model_tables,
                          enumerate_diamonds, realize_model)
from frolicher.serialize import (MAX_SIZE, ParseError, complex_to_json,
                                 doc_to_complex, fraction_to_str,
                                 json_to_complex, json_to_multiset,
                                 multiset_to_json, parse_dot_list,
                                 str_to_fraction)
from frolicher.spectral import pages_filtration
from frolicher.zigzag import canonicalize_shape, contribution_profile
from genutil import change_basis, random_complex, random_multiset


def test_fraction_strings():
    assert fraction_to_str(Fraction(-3, 7)) == "-3/7"
    assert fraction_to_str(Fraction(4, 2)) == "2"
    assert str_to_fraction("-3/7") == Fraction(-3, 7)
    assert type(str_to_fraction("-3/7")) is Fraction
    with pytest.raises(ParseError):
        str_to_fraction("a/b")
    with pytest.raises(ParseError):
        str_to_fraction(None)
    # Only the grammar -?[0-9]+(/[0-9]+)? is read, with the denominator of
    # the value in lowest terms: "1e1000000" once built a 3.3-million-bit
    # integer, and "1e999999999" ran for over a minute.  The grammar is
    # wider than what the writer emits.
    for x in (Fraction(0), Fraction(-3, 7), Fraction(10 ** 40, 3)):
        assert str_to_fraction(fraction_to_str(x)) == x
    # An integer, however written, is read as the int that a Matrix holds.
    for text, x in ((5, 5), ("5", 5), ("01", 1), ("-0", 0), ("1/1", 1),
                    ("3/1", 3), ("1/01", 1)):
        value = str_to_fraction(text)
        assert value == x and type(value) is int
    for bad in ("1e1000000", "1e999999999", "1.5", "+1", " 1", "1_000",
                "\u0663", "1/-2", "-/2", "1/", "", True, 1.0, [1], "2/4",
                "0/5"):
        with pytest.raises(ParseError):
            str_to_fraction(bad)
    # The grammar list of the README's file-format paragraph, each refused
    # with its exact message.
    for bad, msg in REFUSED_RATIONALS.items():
        with pytest.raises(ParseError) as exc:
            str_to_fraction(bad)
        assert str(exc.value) == msg


REFUSED_RATIONALS = {
    "2/4": "rational '2/4' is not in lowest terms",
    "0/5": "rational '0/5' is not in lowest terms",
    "1/0": "bad rational '1/0': zero denominator",
    "0/0": "bad rational '0/0': zero denominator",
    **{text: f"not a rational: {text!r}"
       for text in ("+1", " 1", "1.5", "1e3", "", "1/", "/2", "\u0663")},
    # The one message that once repeated its whole input.
    "2" * 60 + "/4": f"rational '{'2' * 39} is not in lowest terms",
}


@pytest.fixture(scope="module")
def bound3_documents():
    """The 316 bound-3 models and a few rational complexes, with their
    documents."""
    rng = random.Random(62)
    complexes = [realize_model(d) for d in enumerate_diamonds(3)]
    complexes += [random_complex(rng, 3, 3, rational=True) for _ in range(6)]
    complexes += [change_basis(rng, K, rational=True) for K in complexes[:6]]
    return [(K, complex_to_json(K)) for K in complexes]


def test_reading_parses_no_string_twice(bound3_documents, monkeypatch):
    # A rational is built from the integers of its own match: Fraction is
    # never handed the string to parse again.
    def no_strings(*args):
        assert not any(isinstance(a, str) for a in args), args
        return Fraction(*args)

    monkeypatch.setattr(serialize, "Fraction", no_strings)
    assert any("/" in text for _, text in bound3_documents)
    for K, text in bound3_documents:
        assert json_to_complex(text) == K


def test_writing_builds_no_fraction(bound3_documents, monkeypatch):
    def refuse(*args):
        raise AssertionError(f"Fraction{args!r}")

    monkeypatch.setattr(serialize, "Fraction", refuse)
    for K, text in bound3_documents:
        assert complex_to_json(K) == text


def test_round_trip_with_rationals():
    dims = [[2, 0], [1, 0]]
    m = linalg.from_rows(1, 2, [[Fraction(1, 2), Fraction(-2, 6)]])
    K = DoubleComplex(1, 1, dims, d_horiz={(0, 0): m})
    text = complex_to_json(K)
    back = json_to_complex(text)
    assert back == K
    doc = json.loads(text)
    assert doc["d_horiz"][0]["m"] == [["1/2", "-1/3"]]


def test_round_trip_random_complexes():
    rng = random.Random(60)
    for i in range(30):
        K = random_complex(rng, 2 + i % 2, 2, rational=(i % 3 == 0))
        assert json_to_complex(complex_to_json(K)) == K


def test_serializer_omits_zero_and_degenerate_maps():
    K = realize_model(DiamondParams(0, 0, 1, 0, 0))
    doc = json.loads(complex_to_json(K))
    for key in ("d_horiz", "d_vert"):
        for item in doc[key]:
            assert any(x != "0" for row in item["m"] for x in row)
            assert doc["dims"][item["p"]][item["q"]] > 0


def test_parse_rejects_malformed_documents():
    good = json.loads(complex_to_json(realize_model(DiamondParams(0, 0, 1, 0, 0))))
    cases = []
    d = json.loads(json.dumps(good))
    d.pop("dims")
    cases.append(d)
    d = json.loads(json.dumps(good))
    d["dims"][0][0] = -1
    cases.append(d)
    d = json.loads(json.dumps(good))
    d["d_horiz"][0]["m"] = [["1"], ["1", "2"]]  # ragged
    cases.append(d)
    d = json.loads(json.dumps(good))
    d["d_horiz"][0]["p"] = 99  # leaves the grid
    cases.append(d)
    d = json.loads(json.dumps(good))
    d["d_horiz"].append(dict(d["d_horiz"][0]))  # duplicate key
    cases.append(d)
    d = json.loads(json.dumps(good))
    d["d_vert"].append({"p": 0, "q": 2, "m": [["1"]]})  # zero-dim spot
    cases.append(d)
    for doc in cases:
        with pytest.raises(ParseError):
            doc_to_complex(doc)
    with pytest.raises(ParseError):
        json_to_complex("{not json")


def test_multiset_round_trip():
    rng = random.Random(61)
    for _ in range(10):
        m = random_multiset(rng, (3, 3))
        text = multiset_to_json(m, (3, 3))
        back, grid = json_to_multiset(text)
        assert back == m and grid == (3, 3)


def test_parse_dot_list():
    assert parse_dot_list("(0,1),(1,1)") == [(0, 1), (1, 1)]
    assert parse_dot_list(" ( 2 , 0 ) ") == [(2, 0)]
    assert parse_dot_list("(0,0) ,( 1,0 ),(1,1)") == [(0, 0), (1, 0), (1, 1)]
    for bad in ("", "(1,2", "1,2", "(1,2)x", "(1,2),,(2,2)", "(1,2),",
                ",(1,2)", "(1,2)(2,2)", "(-1,2)", f"({'1' * 5000},0)",
                "(\u0660,\u0660)", "(\uff11,0)"):
        with pytest.raises(ParseError):
            parse_dot_list(bad)


# ---------------------------------------------------------------------------
# CLI


def write_etesi(tmp_path):
    path = tmp_path / "etesi.json"
    path.write_text(complex_to_json(realize_model(DiamondParams(0, 0, 1, 0, 0))))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    path = write_etesi(tmp_path)
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_cli_validate_reports_violations(tmp_path, capsys):
    doc = json.loads(complex_to_json(realize_model(DiamondParams(0, 0, 1, 0, 0))))
    doc["dims"][1][1] = 3  # break the shapes
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "shape" in err


def test_cli_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert main(["validate", str(path)]) == 2
    assert main(["validate", str(tmp_path / "missing.json")]) == 2


def one_error_line(err):
    """One ``error:`` line, short enough that it echoes no input unbounded."""
    lines = err.splitlines()
    return (len(lines) == 1 and lines[0].startswith("error: ")
            and len(lines[0]) <= 200)


# Documents that once ended in a traceback with exit 1: a JSON integer too
# long to convert, nesting too deep to decode, and bytes that are not UTF-8.
HOSTILE = {"long_integer": b"1" * 5000, "deep_nesting": b"[" * 200000,
           "invalid_utf8": b"\xff"}


@pytest.mark.parametrize("command", ["validate", "synth"])
@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_cli_hostile_documents_exit_2(name, command, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(HOSTILE[name])
    out = tmp_path / "out.json"
    argv = (["validate", str(path)] if command == "validate"
            else ["zigzag", "synth", str(path), "-o", str(out)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert one_error_line(err) and "sys." not in err
    assert not out.exists()


def test_cli_names_the_overlong_integer_literal(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(HOSTILE["long_integer"])
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: invalid JSON: an integer literal has more than "
        f"{sys.get_int_max_str_digits()} digits\n")


@pytest.mark.parametrize("entry", ["1" * 5000, "1/" + "3" * 5000],
                         ids=["numerator", "denominator"])
def test_cli_names_the_overlong_rational(entry, tmp_path, capsys):
    # A matrix entry longer than the interpreter converts once ended with
    # Python's advice to call sys.set_int_max_str_digits().
    doc = {"p_max": 1, "q_max": 0, "dims": [[1], [1]],
           "d_horiz": [{"p": 0, "q": 0, "m": [[entry]]}]}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert one_error_line(err) and err.startswith("error: bad rational ")
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "set_int_max_str_digits" not in err


# Shape and grid errors that once echoed whole 4,000-digit dots: a dot
# list for ``zigzag profile``, and the dots of a one-zigzag multiset for
# ``zigzag synth`` (outside the grid, and a non-unit step).
NINES = "9" * 4000
OVERLONG_DOTS = [("profile", f"({NINES},0),({NINES},1)"),
                 ("synth", f"[[{NINES},0],[{NINES},1]]"),
                 ("synth", f"[[0,0],[{NINES},5]]")]


@pytest.mark.parametrize("command, dots", OVERLONG_DOTS,
                         ids=["profile", "synth_outside", "synth_step"])
def test_cli_cuts_overlong_numbers_in_error_lines(command, dots, tmp_path,
                                                  capsys):
    src = tmp_path / "multiset.json"
    src.write_text('{"grid": {"p_max": 3, "q_max": 3}, '
                   f'"zigzags": [{{"dots": {dots}, "mult": 1}}]}}')
    argv = (["zigzag", "profile", "--dots", dots] if command == "profile"
            else ["zigzag", "synth", str(src), "-o", str(tmp_path / "o.json")])
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert one_error_line(err) and "9" * 40 + "..." in err


@pytest.mark.parametrize("entry", ["1e1000000", "1e999999999"])
def test_cli_rejects_exponent_rationals_at_once(entry, tmp_path):
    # A child process with a timeout: before the grammar check the second
    # entry ran for more than a minute.
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(arrow_doc(entry=entry)))
    res = subprocess.run([sys.executable, "-m", "frolicher.cli", "validate",
                          str(path)], capture_output=True, text=True,
                         timeout=20)
    assert res.returncode == 2
    assert res.stderr == f"error: not a rational: {entry!r}\n"


def test_cli_zigzag_profile_rejects_overlong_dot(capsys):
    # The coordinate is read as a document's numbers are: Python's advice
    # to call sys.set_int_max_str_digits() once ended this line.
    argv = ["zigzag", "profile", "--dots", f"({'9' * 5000},0)"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert one_error_line(err) and "bad dot list" in err
    assert f"more than {sys.get_int_max_str_digits()} digits" in err
    assert "sys." not in err


def test_cli_zigzag_profile_refuses_non_ascii_digits(capsys):
    # "\d" once read the Arabic-Indic zeros as the dot (0, 0).
    assert main(["zigzag", "profile", "--dots", "(\u0660,\u0660)"]) == 2
    err = capsys.readouterr().err
    assert one_error_line(err) and err.startswith("error: bad dot list ")


def validate_doc(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    return code, capsys.readouterr().err


def arrow_doc(p=0, entry="1", dim=1):
    return {"p_max": 1, "q_max": 0, "dims": [[dim], [1]],
            "d_horiz": [{"p": p, "q": 0, "m": [[entry]]}]}


def test_cli_rejects_huge_dims_entry(tmp_path, capsys):
    code, err = validate_doc(tmp_path, capsys, arrow_doc(dim=10 ** 30))
    assert code == 2
    assert "'dims' entries" in err


def test_cli_rejects_oversized_dims(tmp_path, capsys):
    doc = {"p_max": 0, "q_max": 0, "dims": [[2 ** 62]]}
    code, err = validate_doc(tmp_path, capsys, doc)
    assert code == 2
    assert f"sum to at most {MAX_SIZE}" in err


def test_cli_rejects_boolean_map_index(tmp_path, capsys):
    for flag in (False, True):
        code, err = validate_doc(tmp_path, capsys, arrow_doc(p=flag))
        assert code == 2
        assert "indices must be integers" in err


def test_cli_rejects_rational_not_in_lowest_terms(tmp_path, capsys):
    code, err = validate_doc(tmp_path, capsys, arrow_doc(entry="2/4"))
    assert code == 2
    assert "lowest terms" in err
    assert validate_doc(tmp_path, capsys, arrow_doc(entry="1/2")) == (0, "")


def test_cli_cohomology_theories(tmp_path, capsys):
    path = write_etesi(tmp_path)
    for theory in ("dolbeault", "row", "bc", "aeppli"):
        assert main(["cohomology", path, "--theory", theory]) == 0
    assert main(["cohomology", path, "--theory", "derham"]) == 0
    assert "b_k: 1 0 0 0 0 0 1" in capsys.readouterr().out
    assert main(["cohomology", path, "--theory", "genus"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_pages_and_degeneration(tmp_path, capsys):
    path = write_etesi(tmp_path)
    assert main(["pages", path, "--max", "4", "--method", "both"]) == 0
    out = capsys.readouterr().out
    assert "methods agree on pages 1..4" in out
    assert "E_1:" in out and "E_4:" in out
    assert main(["degeneration", path]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_pages_explicit_prints_the_filtration_tables(tmp_path, capsys):
    path = write_etesi(tmp_path)
    assert main(["pages", path, "--max", "3"]) == 0
    filtration = capsys.readouterr().out
    assert main(["pages", path, "--max", "3", "--method", "explicit"]) == 0
    assert capsys.readouterr().out == filtration
    assert filtration.count("E_") == 3


def test_cli_pages_methods_disagree_exit_1(tmp_path, capsys, monkeypatch):
    path = write_etesi(tmp_path)
    # Hand the comparison the stable page in place of E_1.
    monkeypatch.setattr(cli, "pages_explicit",
                        lambda K, r: pages_filtration(K, r)[::-1])
    assert main(["pages", path, "--max", "3", "--method", "both"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("page 1: filtration and explicit methods disagree")
    assert err.count("q=0 |") == 2


def usage_error(capsys, argv):
    """Exit code and stderr of an argument that argparse refuses."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


def test_cli_pages_rejects_bad_max(tmp_path, capsys):
    path = write_etesi(tmp_path)
    for bad in ("0", "-2"):
        code, err = usage_error(capsys, ["pages", path, "--max", bad])
        assert code == 2
        assert "--max: must be at least 1" in err
    # An argument error repeats at most 40 characters of the argument.
    code, err = usage_error(capsys, ["pages", path, "--max", "9" * 5000])
    assert code == 2
    assert f"invalid integer '{'9' * 39}\n" in err


def test_cli_pages_rejects_max_above_max_size(tmp_path, capsys):
    path = write_etesi(tmp_path)
    code, err = usage_error(capsys, ["pages", path, "--max", "1000000000"])
    assert code == 2
    assert f"at most {MAX_SIZE}" in err
    assert main(["pages", path, "--max", str(MAX_SIZE)]) == 0


def test_cli_zigzag_profile(capsys):
    assert main(["zigzag", "profile", "--dots", "(0,1),(1,1)"]) == 0
    out = capsys.readouterr().out
    assert "shape: (0,1),(1,1)" in out
    assert "E_1:" in out and "bott_chern:" in out
    assert main(["zigzag", "profile", "--dots", "(0,0),(1,0),(1,1)"]) == 1
    assert "ascending" in capsys.readouterr().err


def test_cli_zigzag_profile_output(capsys):
    # The whole stdout: the shape line, the pages, the four grid theories
    # and the Betti numbers of the length-4 zigzag, as sha256 of its text.
    argv = ["zigzag", "profile", "--dots", "(0,1),(1,1),(1,0),(2,0)"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("shape: (0,1),(1,1),(1,0),(2,0)\nE_1:\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e2bbd01af15238ea01c7fb9da65765d67c04745faa272f0cdf42ccb9e6d3f450")


def test_cli_zigzag_synth_round_trip(tmp_path, capsys):
    m = Counter({canonicalize_shape([(0, 1), (1, 1)]): 2})
    src = tmp_path / "multiset.json"
    src.write_text(multiset_to_json(m, (3, 3)))
    out = tmp_path / "complex.json"
    assert main(["zigzag", "synth", str(src), "-o", str(out)]) == 0
    K = json_to_complex(out.read_text())
    assert K.dim(0, 1) == 2


def test_cli_zigzag_synth_rejects_booleans(tmp_path, capsys):
    out = tmp_path / "complex.json"
    for item, field in (({"dots": [[True, 0], [1, 1]], "mult": True}, "dots"),
                        ({"dots": [[0, 1], [1, 1]], "mult": True}, "mult")):
        src = tmp_path / "multiset.json"
        src.write_text(json.dumps({"grid": {"p_max": 3, "q_max": 3},
                                   "zigzags": [item]}))
        assert main(["zigzag", "synth", str(src), "-o", str(out)]) == 2
        assert f"'{field}' must be" in capsys.readouterr().err
    assert not out.exists()


def synth_doc(tmp_path, capsys, doc):
    src = tmp_path / "multiset.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "complex.json"
    code = main(["zigzag", "synth", str(src), "-o", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


def test_cli_zigzag_synth_checks_dots_of_zero_multiplicity(tmp_path, capsys):
    doc = {"grid": {"p_max": 3, "q_max": 3},
           "zigzags": [{"dots": [[9, 9]], "mult": 0}]}
    code, err = synth_doc(tmp_path, capsys, doc)
    assert code == 1
    assert err == "error: dot (9,9) outside grid 3x3\n"


def test_cli_zigzag_synth_rejects_oversized_grid(tmp_path, capsys):
    doc = {"grid": {"p_max": 10 ** 9, "q_max": 10 ** 9}, "zigzags": []}
    code, err = synth_doc(tmp_path, capsys, doc)
    assert code == 2
    assert f"at most {MAX_SIZE} spots" in err


def test_cli_zigzag_synth_rejects_oversized_multiplicity(tmp_path, capsys):
    doc = {"grid": {"p_max": 3, "q_max": 3},
           "zigzags": [{"dots": [[0, 1], [1, 1]], "mult": 10 ** 15}]}
    code, err = synth_doc(tmp_path, capsys, doc)
    assert code == 2
    assert f"at most {MAX_SIZE} dots" in err


def test_cli_zigzag_profile_rejects_oversized_grid(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zigzag", "profile", "--dots", "(0,0)",
              "--grid", "1000000000,1000000000"])
    assert exc.value.code == 2
    assert f"at most {MAX_SIZE} spots" in capsys.readouterr().err


def test_cli_zigzag_profile_grid(capsys):
    # --grid P,Q sets the grid of the shape's complex: the whole stdout is
    # that of contribution_profile(shape, (4, 4)), on 5x5 grids.
    shape = canonicalize_shape([(0, 1), (1, 1), (1, 0), (2, 0)])
    assert main(["zigzag", "profile", "--dots", str(shape),
                 "--grid", "4,4"]) == 0
    prof = contribution_profile(shape, (4, 4))
    tables = [*((f"E_{t.r}", t) for t in prof.pages),
              ("dolbeault", prof.dolbeault), ("row", prof.row),
              ("bott_chern", prof.bott_chern), ("aeppli", prof.aeppli)]
    assert all(t.grid.shape == (5, 5) for _, t in tables)
    assert capsys.readouterr().out == (
        f"shape: {shape}\n"
        + "".join(f"{name}:\n{cli.render_grid(t.grid)}\n"
                  for name, t in tables)
        + f"b_k: {' '.join(map(str, prof.de_rham.b))}\n")


@pytest.mark.parametrize("grid", ["3", "1,2,3"])
def test_cli_zigzag_profile_rejects_a_grid_of_other_than_two_numbers(
        grid, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zigzag", "profile", "--dots", "(0,0)", "--grid", grid])
    assert exc.value.code == 2
    assert "argument --grid: grid must be P,Q" in capsys.readouterr().err


def test_cli_s6_check(capsys):
    argv = ["s6", "check", "--h10", "0", "--h02", "0", "--h11", "1",
            "--alpha", "0", "--beta", "0"]
    assert main(argv) == 0
    assert "admissible" in capsys.readouterr().out
    argv_bad = ["s6", "check", "--h10", "0", "--h02", "0", "--h11", "0",
                "--alpha", "0", "--beta", "0"]
    assert main(argv_bad) == 1
    assert "violated" in capsys.readouterr().err


def s6_argv(command, h10, h02, h11, alpha, beta):
    return ["s6", command, "--h10", str(h10), "--h02", str(h02),
            "--h11", str(h11), "--alpha", str(alpha), "--beta", str(beta)]


def test_cli_s6_check_output(capsys):
    assert main([*s6_argv("check", 1, 1, 2, 1, 1), "--assume-a0"]) == 0
    assert capsys.readouterr() == ("""\
[holds   ] h00: h^{0,0} = 1 (h00=1)
[holds   ] h30: h^{3,0} = 0 (h30=0)
[holds   ] h01-h02: h^{0,1} = h^{0,2} + 1 (h01=2 h02=1)
[holds   ] h20-h11-h10-h12: h^{2,0} + h^{1,1} = h^{1,0} + h^{1,2} + 1 \
(h20=2 h11=2 h10=1 h12=2)
[holds   ] h10-h20: h^{1,0} <= h^{2,0} (h10=1 h20=2)
[holds   ] h11-ugarte: h^{1,1} >= h^{1,2} - h^{0,2} (h11=2 h12=2 h02=1)
[holds   ] h2var: h_2^{0,1} = h^{1,2} - h^{1,1} + 1 (alpha=1 h12=2 h11=2)
[holds   ] h2ug2: h_2^{0,1} = h_2^{2,0} = h_2^{1,3} = h_2^{3,2} \
(all equal alpha=1)
[holds   ] h2ug3: h_2^{2,1} = h_2^{0,2} = h_2^{1,2} = h_2^{3,1} \
(all equal beta=1)
[holds   ] e2-serre: h_2^{p,q} = h_2^{3-p,3-q} \
(second page written reflection-symmetrically)
[holds   ] count-c: h_2^{0,1} <= h^{0,1} (length-2 family at (0,1) counts \
h^{0,2}+1-alpha >= 0) (count=1)
[holds   ] count-d: h_2^{0,2} <= h^{0,2} (length-2 family at (0,2) counts \
h^{0,2}-beta >= 0) (count=0)
[holds   ] count-h: h^{1,2} >= h^{0,2} (length-2 family at (1,1) counts \
h^{1,1}-h^{0,2}+alpha-1 >= 0) (count=1)
[holds   ] h10-1: h^{1,0} <= 1 (zero algebraic dimension) (h10=1)
admissible
""", "")
    assert main(s6_argv("check", 3, 0, 0, 2, 1)) == 1
    assert capsys.readouterr() == ("", """\
[holds   ] h00: h^{0,0} = 1 (h00=1)
[holds   ] h30: h^{3,0} = 0 (h30=0)
[holds   ] h01-h02: h^{0,1} = h^{0,2} + 1 (h01=1 h02=0)
[holds   ] h20-h11-h10-h12: h^{2,0} + h^{1,1} = h^{1,0} + h^{1,2} + 1 \
(h20=5 h11=0 h10=3 h12=1)
[holds   ] h10-h20: h^{1,0} <= h^{2,0} (h10=3 h20=5)
[violated] h11-ugarte: h^{1,1} >= h^{1,2} - h^{0,2} (h11=0 h12=1 h02=0)
[holds   ] h2var: h_2^{0,1} = h^{1,2} - h^{1,1} + 1 (alpha=2 h12=1 h11=0)
[holds   ] h2ug2: h_2^{0,1} = h_2^{2,0} = h_2^{1,3} = h_2^{3,2} \
(all equal alpha=2)
[holds   ] h2ug3: h_2^{2,1} = h_2^{0,2} = h_2^{1,2} = h_2^{3,1} \
(all equal beta=1)
[holds   ] e2-serre: h_2^{p,q} = h_2^{3-p,3-q} \
(second page written reflection-symmetrically)
[violated] count-c: h_2^{0,1} <= h^{0,1} (length-2 family at (0,1) counts \
h^{0,2}+1-alpha >= 0) (count=-1)
[violated] count-d: h_2^{0,2} <= h^{0,2} (length-2 family at (0,2) counts \
h^{0,2}-beta >= 0) (count=-1)
[holds   ] count-h: h^{1,2} >= h^{0,2} (length-2 family at (1,1) counts \
h^{1,1}-h^{0,2}+alpha-1 >= 0) (count=1)
""")


def test_cli_s6_enumerate(capsys):
    assert main(["s6", "enumerate", "--bound", "1", "--h11-zero"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["h10=0 h02=0 h11=0 alpha=1 beta=0",
                     "h10=1 h02=0 h11=0 alpha=1 beta=0"]
    assert main(["s6", "enumerate", "--bound", "1", "--format", "table"]) == 0
    assert "h10" in capsys.readouterr().out


def test_cli_s6_enumerate_caps_bound(capsys):
    for bound in (str(MAX_BOUND + 1), "1000000000", "-1"):
        code, err = usage_error(capsys, ["s6", "enumerate", "--bound", bound])
        assert code == 2
        assert "--bound: must be at" in err


def test_cli_s6_realize_and_verify_reject_oversized_models(tmp_path,
                                                           capsys):
    out = tmp_path / "model.json"
    # MAX_SIZE is the largest parameter the CLI takes; its model does not
    # fit in MAX_SIZE dimensions.
    for command, h11 in (("realize", MAX_SIZE), ("verify", 600)):
        argv = ["s6", command, "--h10", "0", "--h02", "0", "--h11", str(h11),
                "--alpha", "0", "--beta", "0"]
        if command == "realize":
            argv += ["-o", str(out)]
        code, err = usage_error(capsys, argv)
        assert code == 2
        assert f"at most {MAX_SIZE} is allowed" in err
    assert not out.exists()


def test_cli_s6_realize_pages_match_prediction(tmp_path, capsys):
    out = tmp_path / "etesi.json"
    argv = ["s6", "realize", "--h10", "0", "--h02", "0", "--h11", "1",
            "--alpha", "0", "--beta", "0", "-o", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["pages", str(out), "--max", "4"]) == 0
    capsys.readouterr()
    assert main(["degeneration", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_cli_s6_realize_builds_the_model_multiset_once(tmp_path, capsys,
                                                       monkeypatch):
    # The multiset that the size check built is the one synthesized, so the
    # family counts are computed once, and the document is the model.
    counted = []
    family_counts = s6.family_counts

    def counted_counts(d):
        counted.append(d)
        return family_counts(d)

    monkeypatch.setattr(s6, "family_counts", counted_counts)
    out = tmp_path / "model.json"
    d = DiamondParams(0, 1, 1, 1, 1)
    argv = ["s6", "realize", "--h10", "0", "--h02", "1", "--h11", "1",
            "--alpha", "1", "--beta", "1", "-o", str(out)]
    assert main(argv) == 0
    assert counted == [d]
    monkeypatch.undo()
    assert out.read_text() == complex_to_json(realize_model(d))


def test_cli_s6_verify_builds_the_model_multiset_once(capsys, monkeypatch):
    # The multiset that the size check built is the one synthesized and
    # verified, so model_multiset runs once, and the output is the same.
    argv = ["s6", "verify", "--h10", "0", "--h02", "1", "--h11", "1",
            "--alpha", "1", "--beta", "1"]
    counted = []
    model_multiset = s6.model_multiset

    def counted_multiset(d):
        counted.append(d)
        return model_multiset(d)

    for module in (s6, cli):
        monkeypatch.setattr(module, "model_multiset", counted_multiset)
    assert main(argv) == 0
    assert counted == [DiamondParams(0, 1, 1, 1, 1)]
    assert capsys.readouterr().out == (
        "verified h10=0 h02=1 h11=1 alpha=1 beta=1: all tables match "
        "predictions (14 zigzag summands)\n")


def test_cli_s6_realize_inadmissible(capsys):
    argv = ["s6", "realize", "--h10", "0", "--h02", "0", "--h11", "0",
            "--alpha", "0", "--beta", "0", "-o", "/tmp/unused.json"]
    assert main(argv) == 1
    assert "inadmissible" in capsys.readouterr().err


def test_cli_s6_predict_and_infer(tmp_path, capsys):
    path = write_etesi(tmp_path)
    argv = ["s6", "predict", "--h10", "0", "--h02", "0", "--h11", "1",
            "--alpha", "0", "--beta", "0"]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["s6", "infer", path]) == 0
    assert capsys.readouterr().out.strip() == \
        "h10=0 h02=0 h11=1 alpha=0 beta=0"


def test_cli_s6_infer_mismatch(tmp_path, capsys):
    # A complex that is valid but not of the model form: a lone dot at (1,1).
    from frolicher.zigzag import realize_shape
    K = realize_shape(canonicalize_shape([(1, 1)]), (3, 3))
    path = tmp_path / "odd.json"
    path.write_text(complex_to_json(K))
    assert main(["s6", "infer", str(path)]) == 1
    assert "E1 at (0,0)" in capsys.readouterr().err


def test_cli_s6_verify(capsys):
    argv = ["s6", "verify", "--h10", "1", "--h02", "0", "--h11", "0",
            "--alpha", "1", "--beta", "0"]
    assert main(argv) == 0
    assert "all tables match" in capsys.readouterr().out


def test_cli_s6_verify_mismatch_exit_1(capsys, monkeypatch):
    # Tables of another diamond stand in for the engine's, where s6 verify
    # computes them.
    other = compute_model_tables(realize_model(DiamondParams(1, 0, 0, 1, 0)))
    monkeypatch.setattr(cli, "compute_model_tables", lambda K: other)
    argv = ["s6", "verify", "--h10", "0", "--h02", "0", "--h11", "1",
            "--alpha", "0", "--beta", "0"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "E1 at (1,0): expected 0, computed 1" in err.splitlines()


def test_cli_output_deterministic(tmp_path, capsys):
    path = write_etesi(tmp_path)
    main(["cohomology", path, "--theory", "bc"])
    first = capsys.readouterr().out
    main(["cohomology", path, "--theory", "bc"])
    assert capsys.readouterr().out == first


def test_console_entry_point(tmp_path):
    res = subprocess.run(
        [sys.executable, "-m", "frolicher.cli", "s6", "enumerate",
         "--bound", "1", "--h11-zero"],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert "h10=0 h02=0 h11=0 alpha=1 beta=0" in res.stdout


@pytest.mark.parametrize("command", ["check", "predict", "realize", "verify"])
def test_cli_s6_rejects_negative_parameters(command, tmp_path, capsys):
    bounds = (("-1", "must be at least 0"),
              (str(MAX_SIZE + 1), f"must be at most {MAX_SIZE}"))
    for name in ("h10", "h02", "h11", "alpha", "beta"):
        for value, message in bounds:
            params = {"h10": "0", "h02": "0", "h11": "1", "alpha": "0",
                      "beta": "0", name: value}
            argv = ["s6", command, *(x for k, v in params.items()
                                     for x in (f"--{k}", v))]
            if command == "realize":
                argv += ["-o", str(tmp_path / "model.json")]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"--{name}: {message}" in capsys.readouterr().err


def test_cli_s6_huge_parameters_end_in_one_short_error(monkeypatch, capsys):
    # A 4,000-digit parameter once came back whole, in an error of 8 KB or
    # in a report of 25 KB or more.
    monkeypatch.setenv("COLUMNS", "80")
    nines = "9" * 4000
    for argv in (["check", "--h10", "0", "--h02", nines, "--h11", "0"],
                 ["verify", "--h10", nines, "--h02", "0", "--h11", "1"],
                 ["predict", "--h10", nines, "--h02", nines, "--h11", "1"]):
        code, err = usage_error(
            capsys, ["s6", *argv, "--alpha", "0", "--beta", "0"])
        assert code == 2
        assert len(err.encode()) < 200, err
        assert f"must be at most {MAX_SIZE}" in err


def test_cli_never_imports_numpy(tmp_path):
    # The engine is pure Python; a cold CLI call must not pay for numpy.
    model = str(tmp_path / "model.json")
    params = ["--h10", "1", "--h02", "1", "--h11", "2", "--alpha", "1",
              "--beta", "1"]
    script = "\n".join([
        "import sys",
        "from frolicher.cli import main",
        f"codes = [main({['s6', 'verify', *params]!r}),",
        f"         main({['s6', 'realize', *params, '-o', model]!r}),",
        f"         main({['pages', model, '--method', 'both']!r}),",
        f"         main({['cohomology', model, '--theory', 'bc']!r})]",
        "assert codes == [0, 0, 0, 0], codes",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
        "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'",
    ])
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert "methods agree" in res.stdout
