"""Shared test helpers: reference linear algebra and random valid complexes.

The reference rank/kernel here is a textbook Fraction-arithmetic reduction,
kept independent of the package's fraction-free kernels on purpose: the two
must agree on everything.

Random complexes are built the only way that guarantees validity: synthesize
a random zigzag multiset, throw in a few squares of isomorphisms, then
conjugate every spot by a random unimodular change of basis (optionally with
rational diagonal scaling).  Validity and every dimension-level invariant
are preserved exactly.
"""

import random
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from frolicher import linalg
from frolicher.linalg import Grid
from frolicher.bicomplex import (DoubleComplex, Violation, direct_sum,
                                 empty_complex, total_differential)
from frolicher.s6 import enumerate_diamonds, realize_model
from frolicher.zigzag import canonicalize_shape, realize_shape, synthesize


def ref_rref(mat):
    """Pivot columns and reduced row echelon form (rows of ``Fraction``s,
    1 at each pivot) by plain rational Gauss-Jordan elimination.  ``mat``
    is a matrix or a list of dense rows."""
    rows = [[Fraction(x) for x in row] for row in _dense(mat)]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    rank = 0
    for col in range(nc):
        piv = None
        for i in range(rank, nr):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(nr):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return pivots, rows[:rank]


def ref_rank(mat):
    """Rank by plain rational Gaussian elimination."""
    return len(ref_rref(mat)[0])


def _dense(mat):
    """``mat`` as a list of dense rows: a matrix's ``tolist()``, or ``mat``
    itself when it is a list already."""
    return mat if isinstance(mat, list) else mat.tolist()


def ref_mul(a, b):
    """The product of two matrices, each a matrix or a list of dense rows,
    as a list of dense rows, so it runs none of the package's products."""
    cols = list(zip(*_dense(b)))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in _dense(a)]


def ref_nullspace(mat):
    """The kernel basis ``linalg.nullspace`` documents, as a list of
    columns: for each free column ``f`` in increasing order, the vector that
    is 1 at ``f``, 0 at the other free columns and -R[i][f] at the i-th
    pivot column (R the reduced form), scaled to the primitive integer
    vector that is positive at ``f``."""
    n = mat.shape[1]
    pivots, rows = ref_rref(mat)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for c, row in zip(pivots, rows):
            v[c] = -row[f]
        scale = lcm(*[x.denominator for x in v])
        ints = [int(x * scale) for x in v]
        g = gcd(*ints)
        basis.append([x // g for x in ints])
    return basis


def ref_profile(mat):
    """The rank profile from prefix ranks, ordered by column: ``(i, j)`` is a
    pair when the leading rows of ``mat`` gain a pivot in column ``j`` at row
    ``i``, that is when r(i+1, j+1) - r(i, j+1) - r(i+1, j) + r(i, j) = 1,
    with r(i, j) the rank of the leading i x j block."""
    e = mat.tolist()
    nr, nc = mat.shape
    r = [[ref_rank(linalg.from_rows(i, j, [row[:j] for row in e[:i]]))
          for j in range(nc + 1)] for i in range(nr + 1)]
    return sorted(((i, j) for i in range(nr) for j in range(nc)
                   if r[i + 1][j + 1] - r[i][j + 1] - r[i + 1][j] + r[i][j]),
                  key=lambda pair: pair[1])


def _ref_system(K, rows, cols):
    """The arrows from the spots ``cols`` into the spots ``rows``, laid out
    from dense rows of ``K.arrow``; a pair of spots with no stored arrow
    between them is a zero block."""
    blocks = [[_map_or_zero(K, s, t).tolist() for s in cols] for t in rows]
    dense = [sum([b[i] for b in line], []) for line, t in zip(blocks, rows)
             for i in range(K.dim(*t))]
    return linalg.from_rows(len(dense), sum(K.dim(*s) for s in cols), dense)


def ref_cycles(K, p, q, r):
    """A spanning list of Z_r(p, q): the a_0 of a :func:`ref_nullspace`
    basis of the chains (a_0, .., a_{r-1}) at (p+i, q-i) with d_v a_0 = 0
    and d_h a_{i-1} + d_v a_i = 0.  Its :func:`ref_rank` is dim Z_r."""
    n = K.dim(p, q)
    chain = [(p + i, q - i) for i in range(r)]
    return [v[:n] for v in
            ref_nullspace(_ref_system(K, [(a, b + 1) for a, b in chain],
                                      chain))]


def chain_slice_faults(K, p, q, r, rows):
    """What is wrong with ``rows`` as the equations of Z_r(p, q) that
    ``spectral._cycles`` ranks, the rows of the kept D_{p+q} at (p+i,
    q-i+1) for i = r-1 down to 0; an empty list when nothing is.

    ``"rows"``: they are not that one range of the kept rows, in chain
    order and shared.  ``"columns"``: an entry lies left of the chain's
    columns, or right of (p, q)'s outside those of (p-1, q+1).
    ``"system"``: the chain's columns differ from :func:`_ref_system`.
    ``rows`` is ``None`` when nothing was ranked, and then the kept range
    must have no entry and is checked for columns and system in its place.
    The ranges are summed from ``K.dim`` in filtration order (p
    descending), not read off the kept layout.
    """
    def start(k, first):
        """The first coordinate of degree ``k`` at first grading <= first."""
        return sum(K.dim(s, k - s) for s in range(first + 1, K.p_max + 1))

    a, b = start(p + q + 1, p + r - 1), start(p + q + 1, p - 1)
    c, e, f = [start(p + q, x) for x in (p + r - 1, p - 1, p - 2)]
    kept = total_differential(K, p + q)
    if rows is None:
        faults = ["rows"] if any(kept.rows[a:b]) else []
        rows = kept.rows[a:b]
    else:
        faults = []
        if (rows.shape != (b - a, kept.shape[1])
                or any(x is not y for x, y in zip(rows.rows, kept.rows[a:b]))):
            faults.append("rows")
        rows = rows.rows
    if any(not c <= j < f for row in rows for j in row):
        faults.append("columns")
    chain = [(p + i, q - i) for i in range(r - 1, -1, -1)]
    system = _ref_system(K, [(x, y + 1) for x, y in chain], chain)
    if [[row.get(j, 0) for j in range(c, e)]
            for row in rows] != system.tolist():
        faults.append("system")
    return faults


def ref_bars(K):
    """The persistence pairs of the column filtration, counted from ranks:
    the sorted ``(birth, death)`` spot pairs, birth (a, k+1-a) in degree
    k + 1 and death (b, k-b) in degree k, each as often as it is paired.

    D_k is laid out from dense rows of ``K.arrow`` with both bases in
    filtration order (p descending), so F^p is a prefix of each.  With R(a,
    b) the rank of its lower-left block, the rows at p <= a and the columns
    at p >= b, the number of pairs from (a, k+1-a) to (b, k-b) is R(a, b) -
    R(a-1, b) - R(a, b+1) + R(a-1, b+1) (de Silva, Morozov &
    Vejdemo-Johansson, *Dualities in persistent (co)homology*, 2011).
    Nothing here reads the kept D_k, its layout or the package's
    eliminator.
    """
    bars = []
    ps = range(K.p_max, -1, -1)
    for k in range(K.p_max + K.q_max):
        tgt, src = ([(p, j - p) for p in ps if 0 <= j - p <= K.q_max]
                    for j in (k + 1, k))
        d = _ref_system(K, tgt, src).tolist()
        # The rows at p <= a start after those at p > a; the columns at
        # p >= b stop where those at p < b start.
        start = {a: sum(K.dim(*t) for t in tgt if t[0] > a)
                 for a in range(-1, K.p_max + 1)}
        stop = {b: sum(K.dim(*s) for s in src if s[0] >= b)
                for b in range(K.p_max + 2)}
        rank = {(a, b): ref_rank([row[:stop[b]] for row in d[start[a]:]])
                for a in start for b in stop}
        for a in range(K.p_max + 1):
            for b in range(a + 1):
                n = (rank[a, b] - rank[a - 1, b] - rank[a, b + 1]
                     + rank[a - 1, b + 1])
                bars += [((a, k + 1 - a), (b, k - b))] * n
    return sorted(bars)


def ref_explicit_entry(K, p, q, r):
    """E_r(p, q) by the kernel definition: dim(Z + B) - dim B.

    Z is spanned by :func:`ref_cycles`.  B is spanned by the values d_v b_0
    + d_h b_1, formed by :func:`ref_mul`, of a kernel basis of the chains
    (b_0, .., b_{r-1}) at (p, q-1), (p-1, q), .., (p-r+1, q+r-2) with d_v
    b_j + d_h b_{j+1} = 0 and d_v b_{r-1} = 0.  Every system is laid out
    here from dense rows of ``K.arrow``, so nothing reads the validated
    total differentials, their ``bicomplex.layout`` or the package's
    eliminator, and B is not assumed to lie in Z.
    """
    z = ref_cycles(K, p, q, r)
    arriving = [(p, q - 1)] + [(p - j, q + j - 1) for j in range(1, r)]
    closing = [(a, b + 1) for a, b in arriving[1:]]
    y = _ref_system(K, [(p, q)], arriving).tolist()
    b = ref_mul(ref_nullspace(_ref_system(K, closing, arriving)),
                [list(col) for col in zip(*y)])
    return ref_rank(z + b) - ref_rank(b)


def total(grid):
    """Sum of the entries of a grid."""
    return sum(map(sum, grid))


def reflected(grid):
    """``grid`` turned through (p, q) -> (p_max - p, q_max - q)."""
    return Grid([row[::-1] for row in grid][::-1])


def spots(K):
    """Every bidegree of ``K``'s grid, in lexicographic order."""
    return [(p, q) for p in range(K.p_max + 1) for q in range(K.q_max + 1)]


def dh(K, p, q):
    """The horizontal differential out of ``(p, q)``, zero if not stored."""
    return _map_or_zero(K, (p, q), (p + 1, q))


def dv(K, p, q):
    """The vertical differential out of ``(p, q)``, zero if not stored."""
    return _map_or_zero(K, (p, q), (p, q + 1))


def _map_or_zero(K, s, t):
    m = K.arrow(s, t)
    if m is None:
        rows = K.dim(*t)
        return linalg.Matrix((rows, K.dim(*s)), [{}] * rows)
    return m


def transposed(grid):
    return Grid(list(zip(*grid)))


def shrinks(later, earlier):
    """Whether every entry of ``later`` is at most that of ``earlier``."""
    return all(x <= y for a, b in zip(later, earlier) for x, y in zip(a, b))


def combination(terms, shape):
    """The grid sum of ``c * grid`` over ``(c, grid)`` in ``terms``.

    Each grid counts as zero outside its own shape.
    """
    def at(g, p, q):
        return g[p, q] if p < g.shape[0] and q < g.shape[1] else 0
    return Grid([[sum(c * at(g, p, q) for c, g in terms)
                  for q in range(shape[1])] for p in range(shape[0])])


def ref_validate(K):
    """Reference validation: the axioms checked spot by spot.

    The shape pass, then at each spot in (p, q) order the sum over the
    unit-step paths of each axiom of the composed stored maps, skipped when
    a path runs through an arrow that failed the shape pass.  Composites
    are :func:`ref_mul` products of dense rows.  It must report exactly what
    ``bicomplex.validate`` reports, in the same order.
    """
    out = []
    bad = set()
    for (s, t), m in K.stored_maps():
        kind = "horiz" if t[0] != s[0] else "vert"
        if not all(0 <= p <= K.p_max and 0 <= q <= K.q_max for p, q in (s, t)):
            out.append(Violation(*s, "shape", f"d_{kind} leaves the grid"))
            bad.add((s, t))
            continue
        expected = (K.dim(*t), K.dim(*s))
        if m.shape != expected:
            out.append(Violation(*s, "shape",
                                 f"d_{kind} is {m.shape[0]}x{m.shape[1]}, "
                                 f"expected {expected[0]}x{expected[1]}"))
            bad.add((s, t))

    def check(axiom, detail, *paths):
        arrows = [a for s, t, u in paths for a in ((s, t), (t, u))]
        if not bad.isdisjoint(arrows):
            return
        products = [ref_mul(K.arrow(t, u), K.arrow(s, t)) for s, t, u in paths
                    if K.arrow(s, t) is not None and K.arrow(t, u) is not None]
        flat = [[x for row in m for x in row] for m in products]
        if any(sum(entries) for entries in zip(*flat)):
            out.append(Violation(*paths[0][0], axiom, detail))

    for p, q in spots(K):
        right, up, diag = (p + 1, q), (p, q + 1), (p + 1, q + 1)
        check("dd_horiz", "horizontal differential squared is nonzero",
              ((p, q), right, (p + 2, q)))
        check("dd_vert", "vertical differential squared is nonzero",
              ((p, q), up, (p, q + 2)))
        check("anticommute", "d_h d_v + d_v d_h is nonzero",
              ((p, q), right, diag), ((p, q), up, diag))
    return out


def ref_fraction_to_str(x):
    """A document entry written from ``Fraction(x)``: its numerator, then
    ``/`` and its denominator unless that is 1."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def ref_str_to_fraction(s):
    """The value of a document entry by matching ``-?[0-9]+(/[0-9]+)?`` and
    then handing the string to ``Fraction``: a JSON integer, or a string
    whose written denominator is that of the value in lowest terms.
    Anything else raises ``ValueError`` or ``ZeroDivisionError``."""
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    m = isinstance(s, str) and re.fullmatch(r"-?[0-9]+(?:/([0-9]+))?", s)
    if not m:
        raise ValueError(f"not a rational: {s!r:.40}")
    f = Fraction(s)
    if m[1] and int(m[1]) != f.denominator:
        raise ValueError(f"{s!r:.40} is not in lowest terms")
    return f


def ref_tables(K):
    """Reference cohomology: each theory's formula, spot by spot.

    Every map is the zero-filled :func:`dh` / :func:`dv`, read as dense
    rows; stacks, side-by-side blocks and composites are built from those
    rows here and ranked by :func:`ref_rank`, so nothing here runs the
    package's eliminator, stacking or products.  Returns the four grids by
    theory name and the arithmetic genus.
    """
    def h(p, q):
        return dh(K, p, q).tolist()

    def v(p, q):
        return dv(K, p, q).tolist()

    def composite(p, q):
        return ref_mul(dh(K, p, q + 1), dv(K, p, q))

    r = ref_rank
    formulas = {
        "dolbeault": lambda p, q: r(v(p, q)) + r(v(p, q - 1)),
        "row": lambda p, q: r(h(p, q)) + r(h(p - 1, q)),
        "bott_chern": lambda p, q: (r(h(p, q) + v(p, q))
                                    + r(composite(p - 1, q - 1))),
        "aeppli": lambda p, q: (
            r(composite(p, q))
            + r([a + b for a, b in zip(h(p - 1, q), v(p, q - 1))])),
    }
    out = {theory: Grid([[K.dim(p, q) - ranks(p, q)
                          for q in range(K.q_max + 1)]
                         for p in range(K.p_max + 1)])
           for theory, ranks in formulas.items()}
    out["genus"] = sum((-1) ** q * out["dolbeault"][0, q]
                       for q in range(K.q_max + 1))
    return out


def corrupted_complex(rng, p_max=3, q_max=3):
    """A random complex with some of its arrows broken.

    Each stored arrow is left alone, has one entry changed, grows a row or a
    column (a shape violation), or is joined by a new random arrow, possibly
    one that leaves the grid.
    """
    K = random_complex(rng, p_max, q_max, max_shapes=3,
                       rational=rng.random() < 0.3)
    arrows = dict(K.stored_maps())
    for (s, t), m in list(arrows.items()):
        kind = rng.random()
        if kind < 0.15:
            rows = m.tolist()
            i, j = rng.randrange(m.shape[0]), rng.randrange(m.shape[1])
            rows[i][j] += rng.choice((-1, 1, Fraction(1, 2)))
            arrows[s, t] = linalg.from_rows(*m.shape, rows)
        elif kind < 0.25:
            grow = rng.random() < 0.5
            arrows[s, t] = random_int_matrix(rng, m.shape[0] + grow,
                                             m.shape[1] + (not grow))
    for _ in range(rng.randint(0, 3)):
        p, q = rng.randint(0, p_max), rng.randint(0, q_max)
        dp, dq = rng.choice(((1, 0), (0, 1)))
        t = (p + dp, q + dq)
        shape = (K.dim(*t) if t[0] <= p_max and t[1] <= q_max else 1,
                 K.dim(p, q))
        if rng.random() < 0.2:
            shape = (shape[0] + 1, shape[1])
        if 0 not in shape:
            arrows[(p, q), t] = random_int_matrix(rng, *shape, mag=2)
    horiz = {s: m for (s, t), m in arrows.items() if t[0] != s[0]}
    vert = {s: m for (s, t), m in arrows.items() if t[0] == s[0]}
    return DoubleComplex(p_max, q_max, K.dims, horiz, vert)


def random_fraction_matrix(rng, rows, cols, denom=4, mag=6):
    entries = [[Fraction(rng.randint(-mag, mag), rng.randint(1, denom))
                for _ in range(cols)] for _ in range(rows)]
    return linalg.from_rows(rows, cols, entries)


def random_int_matrix(rng, rows, cols, mag=4):
    entries = [[rng.randint(-mag, mag) for _ in range(cols)]
               for _ in range(rows)]
    return linalg.from_rows(rows, cols, entries)


def random_staircase(rng, rows, cols):
    """A sparse 0/±1 matrix shaped like the boundary matrices of the s6
    models: each row is a run of one to three ±1 entries, and some rows are
    zero, repeated or negated copies of earlier ones."""
    entries = []
    for _ in range(rows):
        kind = rng.random()
        if entries and kind < 0.2:
            entries.append([rng.choice((1, -1)) * x
                            for x in rng.choice(entries)])
        elif kind < 0.3 or not cols:
            entries.append([0] * cols)
        else:
            j = rng.randrange(cols)
            run = range(j, min(cols, j + rng.randint(1, 3)))
            entries.append([rng.choice((1, -1)) if k in run else 0
                            for k in range(cols)])
    return linalg.from_rows(rows, cols, entries)


def square_complex(p, q, grid):
    """A 2x2 block of isomorphisms anchored at (p, q).

    One vertical arrow carries -1 so the two differentials anticommute.
    """
    p_max, q_max = grid
    if p + 1 > p_max or q + 1 > q_max:
        raise ValueError("square does not fit the grid")
    dims = [[int(a - p in (0, 1) and b - q in (0, 1)) for b in range(q_max + 1)]
            for a in range(p_max + 1)]
    one = [[1]]
    return DoubleComplex(p_max, q_max, dims,
                         d_horiz={(p, q): one, (p, q + 1): one},
                         d_vert={(p, q): one, (p + 1, q): [[-1]]})


def fold_synthesize(multiset, grid):
    """Reference synthesis by repeated binary direct sums."""
    out = empty_complex(*grid)
    for shape in sorted(multiset):
        piece = realize_shape(shape, grid)
        for _ in range(multiset[shape]):
            out = direct_sum(out, piece)
    return out


def random_shape(rng, grid, max_len=6):
    p_max, q_max = grid
    path = [(rng.randint(0, p_max), rng.randint(0, q_max))]
    last_sign = 0
    target = rng.randint(1, max_len)
    while len(path) < target:
        p, q = path[-1]
        options = []
        for dp, dq in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if dp + dq == last_sign:
                continue
            nxt = (p + dp, q + dq)
            if 0 <= nxt[0] <= p_max and 0 <= nxt[1] <= q_max and nxt not in path:
                options.append((nxt, dp + dq))
        if not options:
            break
        nxt, last_sign = rng.choice(options)
        path.append(nxt)
    return canonicalize_shape(path)


def random_multiset(rng, grid, max_shapes=4, max_mult=2, max_len=6):
    out = Counter()
    for _ in range(rng.randint(1, max_shapes)):
        out[random_shape(rng, grid, max_len)] += rng.randint(1, max_mult)
    return out


def _random_unimodular(rng, n, ops=None):
    """(P, P_inverse) as exact integer matrices with small entries."""
    P = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    Pinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(0 if n == 0 else (ops if ops is not None else n + 1)):
        kind = rng.random()
        if n >= 2 and kind < 0.7:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
            # row_j += c * row_i on P; column_i -= c * column_j on P^{-1}
            for k in range(n):
                P[j][k] += c * P[i][k]
            for k in range(n):
                Pinv[k][i] -= c * Pinv[k][j]
        else:
            i = rng.randrange(n)
            for k in range(n):
                P[i][k] = -P[i][k]
            for k in range(n):
                Pinv[k][i] = -Pinv[k][i]
    return (linalg.from_rows(n, n, P), linalg.from_rows(n, n, Pinv))


def change_basis(rng, K, rational=False, ops=None):
    """Conjugate every spot by a random unimodular (optionally rational) map.

    ``ops(n)`` is the number of elementary steps of the map at a spot of
    dimension n (``n + 1`` when ``ops`` is None); ``lambda n: 4 * n`` makes
    every map dense."""
    basis = {}
    for p, q in spots(K):
        n = K.dim(p, q)
        P, Pinv = _random_unimodular(rng, n, None if ops is None else ops(n))
        if rational and n and rng.random() < 0.6:
            scale = [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
                     for _ in range(n)]
            P = linalg.from_rows(n, n, [[P[i, j] * scale[i] for j in range(n)]
                                        for i in range(n)])
            Pinv = linalg.from_rows(n, n,
                                    [[Fraction(Pinv[i, j]) / scale[j]
                                      for j in range(n)] for i in range(n)])
        basis[(p, q)] = (P, Pinv)
    horiz = {}
    vert = {}
    for p, q in spots(K):
        if p < K.p_max:
            horiz[(p, q)] = linalg.mat_mul(
                linalg.mat_mul(basis[(p + 1, q)][0], dh(K, p, q)),
                basis[(p, q)][1])
        if q < K.q_max:
            vert[(p, q)] = linalg.mat_mul(
                linalg.mat_mul(basis[(p, q + 1)][0], dv(K, p, q)),
                basis[(p, q)][1])
    return DoubleComplex(K.p_max, K.q_max, K.dims, horiz, vert)


def random_complex(rng, p_max=3, q_max=3, max_shapes=4, max_mult=2,
                   n_squares=1, rational=False, scramble=True):
    """Random valid double complex with known zigzag content."""
    grid = (p_max, q_max)
    K = synthesize(random_multiset(rng, grid, max_shapes, max_mult), grid)
    for _ in range(rng.randint(0, n_squares)):
        sp = rng.randint(0, p_max - 1)
        sq = rng.randint(0, q_max - 1)
        K = direct_sum(K, square_complex(sp, sq, grid))
    if scramble:
        K = change_basis(rng, K, rational=rational)
    return K


def random_complex_suite(seed, count, grids=((2, 2), (3, 3), (3, 2), (4, 4),
                                             (4, 3), (2, 4)), max_spot_dim=4):
    """Deterministic list of random complexes over a mix of grid sizes."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        p_max, q_max = grids[i % len(grids)]
        while True:
            K = random_complex(rng, p_max, q_max, rational=(i % 7 == 3))
            if max(map(max, K.dims)) <= max_spot_dim:
                break
        out.append(K)
    return out


def dense_models(bound):
    """The models of ``enumerate_diamonds(bound)``, in its order, each under
    a 4n-step change of basis drawn from one ``Random(2026)``, so every
    staircase is dense, not 0/1/-1."""
    rng = random.Random(2026)
    return [change_basis(rng, realize_model(d), ops=lambda n: 4 * n)
            for d in enumerate_diamonds(bound)]
