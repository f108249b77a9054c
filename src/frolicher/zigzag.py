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
from .bicomplex import _from_arrows
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

    def arrows(self):
        """Implied arrows as ``(source, target)`` pairs of dots.

        Each arrow points from the lower dot to the higher dot of its step.
        """
        return [(a, b) if sum(b) > sum(a) else (b, a)
                for a, b in zip(self.dots, self.dots[1:])]


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
    """
    p_max, q_max = grid
    if any(mult < 0 for mult in multiset.values()):
        raise ValueError("negative multiplicity")
    # The copies of a shape take the next free coordinates at each of its
    # dots, one consecutive range per dot, so each arrow maps the range at
    # its source onto the range at its target: a 1 at (target coordinate,
    # source coordinate) per copy.
    used = {}
    ones = {}
    for shape in sorted(multiset):
        mult = multiset[shape]
        start = {}
        for p, q in shape.dots:
            if p > p_max or q > q_max:
                raise GridError(f"dot ({p},{q}) outside grid {p_max}x{q_max}")
            start[p, q] = used.get((p, q), 0)
            used[p, q] = start[p, q] + mult
        for src, dst in shape.arrows():
            col = ones.setdefault((src, dst), {})
            for i in range(mult):
                col[start[dst] + i] = start[src] + i
    dims = [[used.get((p, q), 0) for q in range(q_max + 1)]
            for p in range(p_max + 1)]
    return _from_arrows(p_max, q_max, dims, {
        (src, dst): linalg.Matrix((used[dst], used[src]),
                                  [{col[i]: 1} if i in col else {}
                                   for i in range(used[dst])])
        for (src, dst), col in ones.items()})


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
