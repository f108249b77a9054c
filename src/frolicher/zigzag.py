"""Zigzag shapes: the synthesis language for model double complexes.

A shape is an ordered list of bidegree dots in which consecutive dots differ
by a unit step in exactly one coordinate, steps alternate between ascending
and descending (so every dot is a pure source or a pure sink, which is what
makes the realized complex anticommute for free), and no dot repeats.  Of
the two end-to-end orderings the canonical one starts at the
lexicographically smaller end.

Each step is one arrow, from its lower dot to its higher one, named as a
complex names its arrows: by the ``(source, target)`` pair.  Multisets of
shapes synthesize to direct sums of one-dimensional realizations.
Squares (2x2 blocks of isomorphisms) are deliberately not part of the
language: they contribute nothing to any cohomology table.
"""

from functools import total_ordering

from . import linalg
from .bicomplex import DoubleComplex
from .cohomology import _bott_chern_aeppli, de_rham, dolbeault, row_cohomology
from .spectral import pages_filtration, stable_page_index


class ShapeError(ValueError):
    """A candidate dot list violates one of the shape invariants."""


class GridError(ValueError):
    """A shape or dot does not fit inside the requested grid."""


@total_ordering
class ZigzagShape(linalg.Record):
    """A canonical dot tuple; shapes order and hash by their dots."""
    __slots__ = ("dots",)

    def __hash__(self):
        return hash(self.dots)

    def __lt__(self, other):
        if type(other) is not ZigzagShape:
            return NotImplemented
        return self.dots < other.dots

    def __len__(self):
        return len(self.dots)

    def __str__(self):
        return ",".join(f"({p},{q})" for p, q in self.dots)


def canonicalize_shape(dots):
    """Validate a dot list and return the canonically oriented shape."""
    dots = [(int(p), int(q)) for p, q in dots]
    if not dots:
        raise ShapeError("empty dot list")
    for p, q in dots:
        if p < 0 or q < 0:
            raise ShapeError(f"negative bidegree ({p},{q})")
    if len(set(dots)) != len(dots):
        raise ShapeError("repeated dot")
    last_sign = 0
    for (p0, q0), (p1, q1) in zip(dots, dots[1:]):
        dp, dq = p1 - p0, q1 - q0
        if (abs(dp), abs(dq)) not in ((1, 0), (0, 1)):
            raise ShapeError(f"non-unit step from ({p0},{q0}) to ({p1},{q1})")
        sign = dp + dq
        if sign == last_sign:
            word = "ascending" if sign > 0 else "descending"
            raise ShapeError(f"two consecutive {word} steps at ({p0},{q0})")
        last_sign = sign
    if dots[-1] < dots[0]:
        dots.reverse()
    return ZigzagShape(tuple(dots))


def realize_shape(shape, grid):
    """One-dimensional spot per dot, identity matrices on the arrows.

    Source/sink alternation means no two arrows compose, so the axioms hold
    with no signs.
    """
    return synthesize({shape: 1}, grid)


def synthesize(multiset, grid):
    """Direct sum of every shape, repeated by multiplicity.

    Summands are laid out in canonical shape order, copies consecutively, so
    the synthesized complex is identical across runs; the result equals the
    fold of :func:`.bicomplex.direct_sum` over the same sequence.  Every
    dot is checked against the grid, even of a shape of multiplicity 0.

    The copies of a shape take the next free coordinates at each of its
    dots, one consecutive range per dot, so each arrow maps the range at its
    source onto the range at its target.  Each arrow keeps these as runs
    ``(target start, source start, count)``, and each row of its matrix is
    written once, ``{source: 1}``, straight from its run.
    """
    p_max, q_max = grid
    if min(multiset.values(), default=0) < 0:
        raise ValueError("negative multiplicity")
    used = {}
    runs = {}
    for shape, mult in sorted(multiset.items(), key=lambda kv: kv[0].dots):
        starts = []
        for dot in shape.dots:
            if dot[0] > p_max or dot[1] > q_max:
                raise GridError(f"dot ({dot[0]},{dot[1]}) outside grid "
                                f"{p_max}x{q_max}")
            start = used.get(dot, 0)
            starts.append((dot, start))
            used[dot] = start + mult
        if not mult:
            continue
        # Each step of a shape is one arrow, from its lower dot to its
        # higher one.
        for (a, i), (b, j) in zip(starts, starts[1:]):
            if sum(b) < sum(a):
                a, i, b, j = b, j, a, i
            runs.setdefault((a, b), []).append((j, i, mult))
    dims = [[used.get((p, q), 0) for q in range(q_max + 1)]
            for p in range(p_max + 1)]
    horiz, vert = {}, {}
    for (src, dst), arrow_runs in runs.items():
        rows = [{}] * used[dst]
        for t, s, n in arrow_runs:
            for i in range(n):
                rows[t + i] = {s + i: 1}
        maps = vert if src[0] == dst[0] else horiz
        maps[src] = linalg.Matrix((used[dst], used[src]), rows)
    return DoubleComplex(p_max, q_max, dims, horiz, vert)


def mirror_shape(shape, kind, grid):
    """Image of a shape under dual / conj / conj_dual, canonicalized."""
    p_max, q_max = grid
    if kind == "dual":
        dots = [(p_max - p, q_max - q) for p, q in shape.dots]
    elif kind == "conj":
        dots = [(q, p) for p, q in shape.dots]
    elif kind == "conj_dual":
        dots = [(q_max - q, p_max - p) for p, q in shape.dots]
    else:
        raise ValueError(f"unknown mirror kind {kind!r}")
    for p, q in dots:
        if p < 0 or q < 0 or p > p_max or q > q_max:
            raise GridError(f"mirrored dot ({p},{q}) outside grid")
    return canonicalize_shape(dots)


class ContributionProfile(linalg.Record):
    """Exact contribution of one shape to every table the engine computes."""
    __slots__ = ("shape", "pages", "dolbeault", "row", "de_rham",
                 "bott_chern", "aeppli")


def contribution_profile(shape, grid):
    """Run the whole engine on the one-shape complex.

    All six theories are additive under direct sums, so these profiles are
    the exact per-shape contribution vectors of any synthesized complex.
    """
    K = realize_shape(shape, grid)
    return ContributionProfile(
        shape=shape,
        pages=tuple(pages_filtration(K, stable_page_index(K))),
        dolbeault=dolbeault(K),
        row=row_cohomology(K),
        de_rham=de_rham(K),
        **_bott_chern_aeppli(K),
    )


def enumerate_shapes(grid, max_length):
    """All canonical shapes of length <= max_length inside the grid."""
    p_max, q_max = grid
    found = set()

    def extend(path, last_sign):
        found.add(canonicalize_shape(path))
        if len(path) == max_length:
            return
        p, q = path[-1]
        for dp, dq in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            sign = dp + dq
            if sign == last_sign:
                continue
            nxt = (p + dp, q + dq)
            if not (0 <= nxt[0] <= p_max and 0 <= nxt[1] <= q_max):
                continue
            if nxt in path:
                continue
            extend(path + [nxt], sign)

    for p in range(p_max + 1):
        for q in range(q_max + 1):
            extend([(p, q)], 0)
    return sorted(found, key=lambda s: (len(s), s.dots))
