"""On-disk formats: JSON complex documents, zigzag multisets, dot lists.

One reader reads every number, in ASCII digits: JSON integers, rational
strings ``-?[0-9]+(/[0-9]+)?`` and dot-list coordinates; a number longer
than the interpreter converts is a ParseError that names the digit limit.
Rationals are written as their ``str`` (``"n"`` or ``"n/d"``, d > 1, lowest
terms) and read back as ``int`` or ``Fraction``.  Grids are ``dims[p][q]``.
Zero maps and maps touching a zero-dimensional spot are omitted; the parser
rejects the latter.  ``parse(serialize(K)) == K``, entries included.  The
parsers refuse documents larger than :data:`MAX_SIZE`, and raise
:class:`ParseError` on any text or bytes that JSON cannot decode.
"""

import json
import re
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

from .bicomplex import DoubleComplex
from .zigzag import canonicalize_shape


# Upper bound on a document's grid spots and on its total dimension (the
# sum of dims, or of mult x dots over a multiset), so that a small hostile
# file cannot ask for an unbounded allocation.  The largest s6 model with
# parameters <= 6 has total dimension 290.
MAX_SIZE = 4096


class ParseError(ValueError):
    """Malformed document (structure, not mathematics)."""


def _int(digits, what="invalid JSON: an integer literal", text=""):
    """``int(digits)``, or the ParseError that names the digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{what.format(text)} has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def fraction_to_str(x):
    """The written entry: ``x`` is an ``int`` or a lowest-terms ``Fraction``
    of denominator > 1, as :class:`~.linalg.Matrix` holds."""
    return str(x)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def str_to_fraction(s):
    """A JSON integer as it came, or the ``int`` or ``Fraction`` value of a
    ``_RATIONAL`` string whose denominator is the one in lowest terms."""
    if _is_int(s):
        return s
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise ParseError(f"not a rational: {s!r:.40}")
    what = "bad rational {!r:.40}: a numerator or denominator"
    n = _int(m[1], what, s)
    if m[2] is None:
        return n
    d = _int(m[2], what, s)
    if not d:
        raise ParseError(f"bad rational {s!r:.40}: zero denominator")
    if gcd(n, d) != 1:
        raise ParseError(f"rational {s!r:.40} is not in lowest terms")
    return n if d == 1 else Fraction(n, d)


def complex_to_doc(K):
    doc = {
        "p_max": K.p_max,
        "q_max": K.q_max,
        "dims": K.dims.tolist(),
        "d_horiz": [],
        "d_vert": [],
    }
    for (s, t), m in K.stored_maps():
        doc["d_horiz" if t[0] != s[0] else "d_vert"].append({
            "p": s[0],
            "q": s[1],
            "m": [list(map(fraction_to_str, row)) for row in m.tolist()],
        })
    return doc


def complex_to_json(K):
    return json.dumps(complex_to_doc(K), indent=2) + "\n"


def _require(cond, msg):
    if not cond:
        raise ParseError(msg)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _grid_fields(doc):
    for key in ("p_max", "q_max"):
        _require(_is_int(doc.get(key)) and doc[key] >= 0,
                 f"{key!r} must be an integer >= 0")
    p_max, q_max = doc["p_max"], doc["q_max"]
    _require((p_max + 1) * (q_max + 1) <= MAX_SIZE,
             f"the grid must have at most {MAX_SIZE} spots")
    return p_max, q_max


def doc_to_complex(doc):
    _require(isinstance(doc, dict), "complex document must be a JSON object")
    p_max, q_max = _grid_fields(doc)
    dims = doc.get("dims")
    _require(isinstance(dims, list) and len(dims) == p_max + 1,
             f"'dims' must be a list of {p_max + 1} columns")
    for col in dims:
        _require(isinstance(col, list) and len(col) == q_max + 1
                 and all(_is_int(x) and x >= 0 for x in col),
                 "'dims' entries must be non-negative integers, dims[p][q]")
    _require(sum(map(sum, dims)) <= MAX_SIZE,
             f"'dims' entries must sum to at most {MAX_SIZE}")

    def parse_maps(key, horiz):
        maps = {}
        raw = doc.get(key, [])
        _require(isinstance(raw, list), f"{key!r} must be a list")
        for item in raw:
            _require(isinstance(item, dict) and {"p", "q", "m"} <= set(item),
                     f"each {key} entry needs keys p, q, m")
            p = item["p"]
            q = item["q"]
            _require(_is_int(p) and _is_int(q),
                     f"{key} indices must be integers")
            tgt = (p + 1, q) if horiz else (p, q + 1)
            _require(0 <= p <= p_max and 0 <= q <= q_max
                     and tgt[0] <= p_max and tgt[1] <= q_max,
                     f"{key} map at ({p},{q}) leaves the grid")
            _require((p, q) not in maps, f"duplicate {key} map at ({p},{q})")
            _require(dims[p][q] > 0 and dims[tgt[0]][tgt[1]] > 0,
                     f"{key} map at ({p},{q}) touches a zero-dimensional spot "
                     "and must be omitted")
            m = item["m"]
            _require(isinstance(m, list) and m and all(
                isinstance(row, list) and len(row) == len(m[0]) and row
                for row in m), f"{key} matrix at ({p},{q}) must be a "
                "non-empty rectangular array")
            maps[(p, q)] = [[str_to_fraction(x) for x in row] for row in m]
        return maps

    return DoubleComplex(p_max, q_max, dims,
                         parse_maps("d_horiz", True),
                         parse_maps("d_vert", False))


def _read_json(data):
    """``json.loads`` of text or bytes; every way it fails is a ParseError."""
    try:
        return json.loads(data, parse_int=_int)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}")


def json_to_complex(data):
    return doc_to_complex(_read_json(data))


def multiset_to_doc(multiset, grid):
    p_max, q_max = grid
    return {
        "grid": {"p_max": p_max, "q_max": q_max},
        "zigzags": [{"dots": [[p, q] for p, q in shape.dots], "mult": mult}
                    for shape, mult in sorted(multiset.items()) if mult > 0],
    }


def multiset_to_json(multiset, grid):
    return json.dumps(multiset_to_doc(multiset, grid), indent=2) + "\n"


def doc_to_multiset(doc):
    """Returns ``(multiset, (p_max, q_max))``; dots are canonicalized."""
    _require(isinstance(doc, dict), "multiset document must be a JSON object")
    g = doc.get("grid")
    _require(isinstance(g, dict), "'grid' must be an object")
    p_max, q_max = _grid_fields(g)
    raw = doc.get("zigzags", [])
    _require(isinstance(raw, list), "'zigzags' must be a list")
    out = Counter()
    size = 0
    for item in raw:
        _require(isinstance(item, dict) and {"dots", "mult"} <= set(item),
                 "each zigzag entry needs keys dots, mult")
        dots = item["dots"]
        _require(isinstance(dots, list) and all(
            isinstance(d, list) and len(d) == 2
            and all(_is_int(x) for x in d) for d in dots),
            "'dots' must be a list of [p, q] pairs")
        mult = item["mult"]
        _require(_is_int(mult) and mult >= 0,
                 "'mult' must be a non-negative integer")
        size += mult * len(dots)
        _require(size <= MAX_SIZE,
                 f"the zigzags must have at most {MAX_SIZE} dots in all")
        shape = canonicalize_shape([tuple(d) for d in dots])
        out[shape] += mult
    return out, (p_max, q_max)


def json_to_multiset(data):
    return doc_to_multiset(_read_json(data))


_DOT = r"\s*\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)\s*"
_DOT_LIST = re.compile(rf"{_DOT}(?:,{_DOT})*")


def parse_dot_list(text):
    """Parse the textual shape encoding ``(p,q),(p,q),...`` of ASCII digits."""
    if not _DOT_LIST.fullmatch(text):
        raise ParseError(f"bad dot list {text!r:.40}: "
                         "expected (p,q),(p,q),...")
    what = "bad dot list {!r:.40}: a coordinate"
    return [(_int(p, what, text), _int(q, what, text))
            for p, q in re.findall(_DOT, text)]
