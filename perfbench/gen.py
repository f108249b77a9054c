"""Seeded input generators, owned by the benchmark.

The logic is a copy of the random-complex family of the test helpers, kept
here so that edits to the tests cannot silently change what the benchmark
measures.  Everything is built over plain Python ints and Fractions; the
program under test only sees the finished complex, handed to it through the
public constructors ``linalg.from_rows`` and ``DoubleComplex``.

A complex is described by its *content*: the zigzag shapes and squares it is
the direct sum of, before a random change of basis scrambles every spot.
The content fixes every dimension table, so ``reference.content_tables``
can check the engine's answers without running any of its code.
"""

from fractions import Fraction


def canonical(dots):
    """Orient a zigzag dot list so that it starts at the smaller end."""
    dots = tuple(dots)
    return tuple(reversed(dots)) if dots[-1] < dots[0] else dots


def arrows(dots):
    """(src, dst, kind) for each step; arrows point to the higher degree."""
    out = []
    for a, b in zip(dots, dots[1:]):
        src, dst = (a, b) if sum(b) > sum(a) else (b, a)
        out.append((src, dst, "h" if dst[0] == src[0] + 1 else "v", 1))
    return out


def square_arrows(p, q):
    """A 2x2 block of isomorphisms; one vertical arrow carries -1."""
    return [((p, q), (p + 1, q), "h", 1), ((p, q + 1), (p + 1, q + 1), "h", 1),
            ((p, q), (p, q + 1), "v", 1), ((p + 1, q), (p + 1, q + 1), "v", -1)]


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
    return canonical(path)


def all_shapes(grid, max_length):
    """Every canonical shape of length <= max_length, by (length, dots)."""
    p_max, q_max = grid
    found = set()

    def extend(path, last_sign):
        found.add(canonical(path))
        if len(path) == max_length:
            return
        p, q = path[-1]
        for dp, dq in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (p + dp, q + dq)
            if (dp + dq != last_sign and 0 <= nxt[0] <= p_max
                    and 0 <= nxt[1] <= q_max and nxt not in path):
                extend(path + [nxt], dp + dq)

    for p in range(p_max + 1):
        for q in range(q_max + 1):
            extend([(p, q)], 0)
    return sorted(found, key=lambda s: (len(s), s))


class Content:
    """Zigzags (with multiplicity) and squares of one complex, in layout order.

    Zigzag copies come first in sorted shape order, then the squares in the
    order they were added, which is the coordinate layout that synthesis
    followed by direct sums produces.
    """

    def __init__(self, grid, multiset, squares=()):
        self.grid = grid
        self.multiset = dict(multiset)
        self.squares = list(squares)

    def pieces(self):
        """(dots, arrows) of every summand in layout order."""
        for shape in sorted(self.multiset):
            for _ in range(self.multiset[shape]):
                yield shape, arrows(shape)
        for p, q in self.squares:
            yield ((p, q), (p, q + 1), (p + 1, q), (p + 1, q + 1)), \
                square_arrows(p, q)

    def dims(self):
        p_max, q_max = self.grid
        d = [[0] * (q_max + 1) for _ in range(p_max + 1)]
        for shape, mult in self.multiset.items():
            for p, q in shape:
                d[p][q] += mult
        for p, q in self.squares:
            for dp in (0, 1):
                for dq in (0, 1):
                    d[p + dp][q + dq] += 1
        return d

    def total_dim(self):
        return sum(map(sum, self.dims()))


def random_content(rng, grid, max_shapes, max_mult, n_squares, max_spot_dim,
                   max_len=6):
    """Random zigzag multiset plus squares, redrawn until spot dims fit."""
    p_max, q_max = grid
    while True:
        multiset = {}
        for _ in range(rng.randint(1, max_shapes)):
            shape = random_shape(rng, grid, max_len)
            multiset[shape] = multiset.get(shape, 0) + rng.randint(1, max_mult)
        squares = [(rng.randint(0, p_max - 1), rng.randint(0, q_max - 1))
                   for _ in range(rng.randint(0, n_squares))]
        content = Content(grid, multiset, squares)
        if max(map(max, content.dims())) <= max_spot_dim:
            return content


def _matmul(a, b, inner):
    return [[sum(row[t] * b[t][j] for t in range(inner))
             for j in range(len(b[0]))] for row in a]


def _random_unimodular(rng, n):
    """(P, P^-1) as exact integer matrices with small entries."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(0 if n == 0 else n + 1):
        kind = rng.random()
        if n >= 2 and kind < 0.7:
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-2, -1, 1, 2))
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
    return P, Pinv


def build(content, rng=None, rational=False):
    """The complex of ``content``, scrambled by ``rng`` when one is given.

    Returns the maps as ``{(p, q): rows}`` dictionaries of Python numbers;
    :func:`to_complex` turns them into the program's objects.
    """
    p_max, q_max = content.grid
    dims = content.dims()
    index = [[0] * (q_max + 1) for _ in range(p_max + 1)]
    maps = {"h": {}, "v": {}}
    for dots, piece_arrows in content.pieces():
        coord = {}
        for p, q in dots:
            coord[(p, q)] = index[p][q]
            index[p][q] += 1
        for src, dst, kind, sign in piece_arrows:
            m = maps[kind].get(src)
            if m is None:
                m = [[0] * dims[src[0]][src[1]]
                     for _ in range(dims[dst[0]][dst[1]])]
                maps[kind][src] = m
            m[coord[dst]][coord[src]] = sign
    if rng is None:
        return dims, maps["h"], maps["v"]
    basis = {}
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            n = dims[p][q]
            P, Pinv = _random_unimodular(rng, n)
            if rational and n and rng.random() < 0.6:
                scale = [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
                         for _ in range(n)]
                P = [[P[i][j] * scale[i] for j in range(n)] for i in range(n)]
                Pinv = [[Fraction(Pinv[i][j]) / scale[j] for j in range(n)]
                        for i in range(n)]
            basis[(p, q)] = (P, Pinv)
    out = {}
    for kind, step in (("h", (1, 0)), ("v", (0, 1))):
        out[kind] = {}
        for (p, q), m in maps[kind].items():
            tgt = (p + step[0], q + step[1])
            n_src = dims[p][q]
            left = _matmul(basis[tgt][0], m, dims[tgt[0]][tgt[1]])
            out[kind][(p, q)] = _matmul(left, basis[(p, q)][1], n_src)
    return dims, out["h"], out["v"]


def to_complex(content, rng=None, rational=False):
    """Hand the built complex to the program's public constructors."""
    from frolicher import linalg
    from frolicher.bicomplex import DoubleComplex

    dims, dh, dv = build(content, rng, rational)
    p_max, q_max = content.grid

    def convert(maps):
        return {spot: linalg.from_rows(len(m), len(m[0]), m)
                for spot, m in maps.items()}

    return DoubleComplex(p_max, q_max, dims, convert(dh), convert(dv))
