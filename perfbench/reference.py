"""Expected tables, computed without any code of the program under test.

Two sources of truth:

* ``content_tables``: a complex that is a direct sum of zigzags and squares,
  scrambled by a change of basis, has tables fixed by its content (Stelzig's
  decomposition).  Squares contribute nothing.  A zigzag contributes to
  E_1 = H(d_v) one per dot without a vertical arrow, to Bott-Chern one per
  dot without an outgoing arrow, to Aeppli one per dot without an incoming
  arrow, and, when it has an odd number of dots, one Betti number in the
  total degree that holds more of its dots.
* ``model_tables``: the closed forms of the six-sphere model for a diamond
  ``(h10, h02, h11, alpha, beta)``, written out again from the paper's
  relations.

``digest`` fingerprints computed tables.  Digests pinned from the seed
commit live in ``pinned/``; tables are invariants, so every correct engine
reproduces them.
"""

import hashlib
import json
import os

from . import gen

PINNED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned")


def _grid(grid):
    p_max, q_max = grid
    return [[0] * (q_max + 1) for _ in range(p_max + 1)]


def content_tables(content):
    """E1, Bott-Chern, Aeppli grids and Betti numbers of a content."""
    p_max, q_max = content.grid
    e1, bc, ae = _grid(content.grid), _grid(content.grid), _grid(content.grid)
    betti = [0] * (p_max + q_max + 1)
    for shape, mult in content.multiset.items():
        steps = gen.arrows(shape)
        vertical = {d for s in steps if s[2] == "v" for d in s[:2]}
        has_out = {s[0] for s in steps}
        has_in = {s[1] for s in steps}
        for p, q in shape:
            e1[p][q] += mult * ((p, q) not in vertical)
            bc[p][q] += mult * ((p, q) not in has_out)
            ae[p][q] += mult * ((p, q) not in has_in)
        if len(shape) % 2:
            degrees = [p + q for p, q in shape]
            k = max(set(degrees), key=degrees.count)
            betti[k] += mult
    return {"E1": e1, "bott_chern": bc, "aeppli": ae, "betti": betti}


# The seven zigzag families of the model complex and their counts.
FAMILIES = (
    (((0, 0),), lambda d: 1),
    (((0, 1), (1, 1), (1, 0), (2, 0)), lambda d: d[3]),
    (((0, 1), (1, 1)), lambda d: d[1] + 1 - d[3]),
    (((0, 2), (1, 2)), lambda d: d[1] - d[4]),
    (((1, 0), (2, 0)), lambda d: d[0]),
    (((1, 1), (2, 1)), lambda d: d[2] - d[1] + d[3] - 1),
    (((1, 2), (2, 2), (2, 1), (3, 1)), lambda d: d[4]),
)


def admissible(d):
    _h10, h02, h11, alpha, beta = d
    return alpha <= h02 + 1 and beta <= h02 and h11 + alpha >= h02 + 1


def diamonds(bound):
    """Admissible tuples in the box [0, bound]^5, lexicographic order."""
    r = range(bound + 1)
    return [d for d in ((a, b, c, e, f) for a in r for b in r for c in r
                        for e in r for f in r) if admissible(d)]


def model_content(d):
    """Family orbits under the dual, conjugate and conjugate-dual mirrors."""
    multiset = {}
    for dots, count in FAMILIES:
        c = count(d)
        if c == 0:
            continue
        orbit = {gen.canonical(dots),
                 gen.canonical([(3 - p, 3 - q) for p, q in dots]),
                 gen.canonical([(q, p) for p, q in dots]),
                 gen.canonical([(3 - q, 3 - p) for p, q in dots])}
        for shape in orbit:
            multiset[shape] = multiset.get(shape, 0) + c
    return gen.Content((3, 3), multiset)


def model_tables(d):
    """Closed-form tables of the model for diamond ``d``."""
    h10, h02, h11, alpha, beta = d
    h01, h20, h12 = h02 + 1, h10 + alpha, h11 + alpha - 1
    e1 = [[1, h01, h02, 0], [h10, h11, h12, h20],
          [h20, h12, h11, h10], [0, h02, h01, 1]]
    e2 = _grid((3, 3))
    e2[0][0] = e2[3][3] = 1
    for p, q in ((0, 1), (2, 0), (1, 3), (3, 2)):
        e2[p][q] = alpha
    for p, q in ((0, 2), (2, 1), (1, 2), (3, 1)):
        e2[p][q] = beta
    e3 = _grid((3, 3))
    e3[0][0] = e3[3][3] = 1
    h21bc = h12 + beta
    bc = [[1, 0, h20, 0],
          [0, 2 * h01, h21bc, h02],
          [h20, h21bc, 2 * h21bc - 2 * h01 + 2, h02 + 1 + h20],
          [0, h02, h02 + 1 + h20, 1]]
    ae = [[bc[3 - q][3 - p] for q in range(4)] for p in range(4)]
    content = model_content(d)
    return {"E1": e1, "E2": e2, "E3+": e3, "bott_chern": bc, "aeppli": ae,
            "betti": [1, 0, 0, 0, 0, 0, 1], "genus": 0,
            "dims": content.dims(), "summands": sum(content.multiset.values())}


def as_lists(grid):
    """A numpy grid or nested sequence as nested lists of ints."""
    if hasattr(grid, "tolist"):
        grid = grid.tolist()
    return [[int(x) for x in row] for row in grid]


def digest(tables):
    """Short fingerprint of named tables (name -> grid or vector)."""
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_pinned(workload):
    """{key: [digest, *extra fields]} pinned at the seed commit."""
    out = {}
    with open(os.path.join(PINNED_DIR, f"{workload}.txt"),
              encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                key, *fields = line.split()
                out[key] = fields
    return out
