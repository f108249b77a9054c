"""On-disk formats: JSON complex documents, zigzag multisets, dot lists.

Rationals serialize as strings ``"n"`` or ``"n/d"``, d > 1, in lowest
terms.  The parser reads JSON integers and strings ``-?[0-9]+(/[0-9]+)?``
whose denominator is that of the value in lowest terms, so also ``"01"``,
``"-0"``, ``"1/1"`` and ``"1/01"``.  Dimension grids are ``dims[p][q]``.
Zero maps and maps touching a zero-dimensional spot are omitted from the
document; the parser rejects the latter if present.  Round trip is exact:
``parse(serialize(K))`` reproduces ``K`` including every matrix entry.
The parsers refuse documents larger than :data:`MAX_SIZE`, and raise
:class:`ParseError` on any text or bytes that JSON cannot decode.
"""

import json
import re
import sys
from collections import Counter
from fractions import Fraction

from .bicomplex import DoubleComplex
from .zigzag import canonicalize_shape


# Upper bound on a document's grid spots and on its total dimension (the
# sum of dims, or of mult x dots over a multiset), so that a small hostile
# file cannot ask for an unbounded allocation.  The largest s6 model with
# parameters <= 6 has total dimension 290.
MAX_SIZE = 4096


class ParseError(ValueError):
    """Malformed document (structure, not mathematics)."""


def fraction_to_str(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# The grammar of the rational strings read, wider than what is written.
_RATIONAL = re.compile(r"-?[0-9]+(?:/([0-9]+))?")


def str_to_fraction(s):
    if _is_int(s):
        return Fraction(s)
    m = _RATIONAL.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise ParseError(f"not a rational: {s!r:.40}")
    try:
        f = Fraction(s)
    except ZeroDivisionError:
        raise ParseError(f"bad rational {s!r:.40}: zero denominator")
    except ValueError:  # the interpreter's digit limit
        raise ParseError(f"bad rational {s!r:.40}: a numerator or denominator "
                         f"has more than {sys.get_int_max_str_digits()} digits")
    if m[1] and int(m[1]) != f.denominator:
        raise ParseError(f"rational {s!r} is not in lowest terms")
    return f


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
            "m": [[fraction_to_str(x) for x in row] for row in m.tolist()],
        })
    return doc


def complex_to_json(K):
    return json.dumps(complex_to_doc(K), indent=2) + "\n"


def _require(cond, msg):
    if not cond:
        raise ParseError(msg)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _int_field(doc, key, minimum=0):
    v = doc.get(key)
    _require(_is_int(v) and v >= minimum,
             f"{key!r} must be an integer >= {minimum}")
    return v


def _grid_fields(doc):
    p_max = _int_field(doc, "p_max")
    q_max = _int_field(doc, "q_max")
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
    """``json.loads`` of text or bytes; every way it fails is a ParseError.

    Bad syntax and bad UTF-8 raise a ``ValueError`` subclass, nesting too
    deep to decode ``RecursionError``, and an integer literal longer than
    the interpreter converts a plain ``ValueError``.
    """
    try:
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}")
    except ValueError:
        raise ParseError("invalid JSON: an integer literal has more than "
                         f"{sys.get_int_max_str_digits()} digits")


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


_DOT = r"\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*"
_DOT_LIST = re.compile(rf"{_DOT}(?:,{_DOT})*")


def parse_dot_list(text):
    """Parse the textual shape encoding ``(p,q),(p,q),...``."""
    if not _DOT_LIST.fullmatch(text):
        raise ParseError(f"bad dot list {text!r:.40}: "
                         "expected (p,q),(p,q),...")
    try:
        return [(int(p), int(q)) for p, q in re.findall(_DOT, text)]
    except ValueError as exc:
        raise ParseError(f"bad dot list: {exc}")
