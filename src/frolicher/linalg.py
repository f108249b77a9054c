"""Exact linear algebra over the rationals, in pure Python.

A :class:`Matrix` is an immutable shape plus one read-only ``{column:
nonzero}`` mapping per row, of Python ints and ``fractions.Fraction``;
products, assembly, stacking, transposes and row slices visit stored entries
only; only this module calls ``Matrix._of``, which shares frozen rows.  No
:class:`Grid`, an immutable rectangle of ints (dims and tables), is made
unchecked: :meth:`Grid.minus`, which derives each table, checks each charge.
One fraction-free reduction loop (:func:`._kernels.reduce_rows`) reads
the stored rows, so results are exact and nothing overflows.  It reduces
forward only, and the pivots of that echelon form are those of every
echelon form, so ranks need nothing more; every command reads ranks only.
:func:`nullspace`, kept as library API, back-substitutes the forward rows
that :func:`._kernels.eliminate` lists.  The input row behind each pivot
is the rank profile, ``rank(a, profile=True)``, the filtration pages'
persistence pairing.  Reports, parameters and tables are each a
:class:`Record`, immutable in the same way.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from numbers import Integral
from operator import index
from types import MappingProxyType

from ._kernels import _clear, eliminate, reduce_rows

_EMPTY = MappingProxyType({})
_set = object.__setattr__
# Tuples are built from lists, not generators: a tuple grown from a generator
# is resized from a guessed length, and dies onto the interpreter's free list
# of another length, which then fills up with megabytes of dead tuples.


class _Immutable:
    """A value whose attributes only the constructor sets; ``size`` and the
    ``repr`` read the ``shape`` and ``tolist()`` of the subclasses that have
    them."""
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def size(self):
        return self.shape[0] * self.shape[1]

    def __repr__(self):
        return f"{type(self).__name__}({self.tolist()!r})"


class Matrix(_Immutable):
    """``Matrix(shape, rows)`` owns ``rows``: one dict per row from column
    to nonzero int or ``Fraction`` (:func:`from_rows` takes dense entries).

    ``m[i, j]`` is an entry and ``m[a:b]`` the matrix of those rows; ``ndim``,
    ``size``, ``dtype`` (``object``, as the entries are Python objects),
    ``any()`` and ``tolist()`` read as on a 2-D array.
    """

    __slots__ = ("shape", "rows")
    ndim = 2
    dtype = object

    def __init__(self, shape, rows):
        _set(self, "shape", tuple(shape))
        _set(self, "rows", tuple([MappingProxyType(r) if r else _EMPTY
                                  for r in rows]))

    @classmethod
    def _of(cls, shape, rows):
        """A matrix sharing already frozen ``rows``."""
        m = object.__new__(cls)
        _set(m, "shape", shape)
        _set(m, "rows", rows)
        return m

    def any(self):
        """Whether some entry is nonzero."""
        return any(self.rows)

    def tolist(self):
        cols = range(self.shape[1])
        return [[row.get(j, 0) for j in cols] for row in self.rows]

    @property
    def T(self):
        """The transpose."""
        cols = [{} for _ in range(self.shape[1])]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix(self.shape[::-1], cols)

    def __getitem__(self, key):
        if isinstance(key, slice):
            rows = self.rows[key]
            return Matrix._of((len(rows), self.shape[1]), rows)
        i, j = key
        return self.rows[i].get(range(self.shape[1])[j], 0)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows


class Grid(_Immutable):
    """An immutable rectangle of ints, indexed as ``grid[p, q]``.

    Built from any iterable of rows of ints, every cell and width checked,
    or by :meth:`minus`; iterating it yields the rows ``grid[p, :]`` as tuples.
    """

    __slots__ = ("shape", "_cells")

    def __init__(self, cells):
        cells = tuple([tuple(map(index, row)) for row in cells])
        widths = set(map(len, cells))
        if len(widths) > 1:
            raise ValueError("grid rows differ in length")
        _set(self, "_cells", cells)
        _set(self, "shape", (len(cells), widths.pop() if widths else 0))

    def minus(self, charges):
        """This grid less ``n`` at ``(p, q)`` for each ``((p, q), n)`` of
        ``charges``, or the grid itself when there is none.  Each charge is
        checked, not each cell: an int (else ``TypeError``) on the grid
        (else ``IndexError``); the cells are copied once."""
        cells = None
        for (p, q), n in charges:
            if not (0 <= p < self.shape[0] and 0 <= q < self.shape[1]):
                raise IndexError(f"charge at {(p, q)} is off the grid")
            cells = cells or [list(row) for row in self._cells]
            cells[p][q] -= index(n)
        if cells is None:
            return self
        g = object.__new__(Grid)
        _set(g, "_cells", tuple([tuple(row) for row in cells]))
        _set(g, "shape", self.shape)
        return g

    def tolist(self):
        return [list(row) for row in self._cells]

    def __iter__(self):
        return iter(self._cells)

    def __getitem__(self, key):
        p, q = key
        return self._cells[p][q]

    def __eq__(self, other):
        if not isinstance(other, Grid):
            return NotImplemented
        return self._cells == other._cells


class Record(_Immutable):
    """An immutable record whose ``__slots__`` name its fields in order.

    The constructor takes the fields by position or by name, a list as a
    tuple, and a missing or unknown field is a ``TypeError``.  Two records
    are equal when they are of one type with equal fields, and the hash is
    that of the fields, so a record holding a :class:`Grid` is unhashable.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = type(self).__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields, got {len(args)}")
        values = list(args)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} is missing {name!r}")
            values.append(kwargs.pop(name))
        for name, value in zip(names, values):
            _set(self, name, tuple(value) if isinstance(value, list) else value)
        if kwargs:
            raise TypeError(f"{type(self).__name__} got an unexpected or "
                            f"repeated field {next(iter(kwargs))!r}")

    def _fields(self):
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{n}={getattr(self, n)!r}"
                            for n in self.__slots__])
        return f"{type(self).__name__}({fields})"


def from_rows(rows, cols, entries):
    """Build a matrix from an iterable of rows of int/Fraction entries."""
    entries = [list(row) for row in entries]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError("entry grid does not match the declared shape")
    return Matrix((rows, cols), [{j: x for j, x in enumerate(map(_coerce, r))
                                  if x} for r in entries])


def as_matrix(m):
    """``m`` if it is a :class:`Matrix`, else the matrix of its rows: ``m``
    is any iterable of rows of entries.  No rows read as the 0 x 0 matrix."""
    if isinstance(m, Matrix):
        return m
    rows = [list(r) for r in m]
    return from_rows(len(rows), len(rows and rows[0]), rows)


def _coerce(x):
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, Integral):
        return int(x)
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x)!r}")


def mat_mul(a, b):
    """Exact product."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    brows = b.rows
    out = []
    for row in a.rows:
        if not row:
            out.append(row)
            continue
        acc = {}
        for k, x in row.items():
            for j, y in brows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        # Only a cancelled entry is copied out: most rows are kept as built.
        out.append({j: v for j, v in acc.items() if v}
                   if 0 in acc.values() else acc)
    return Matrix((a.shape[0], b.shape[1]), out)


def hstack(mats):
    return assemble([mats[0].shape[0]], [m.shape[1] for m in mats],
                    {(0, j): m for j, m in enumerate(mats)})


def vstack(mats):
    cols = {m.shape[1] for m in mats}
    if len(cols) != 1:
        raise ValueError(f"cannot stack column counts {sorted(cols)}")
    rows = tuple([r for m in mats for r in m.rows])
    return Matrix._of((len(rows), cols.pop()), rows)


def assemble(row_dims, col_dims, blocks):
    """Block matrix from ``blocks[(i, j)]``; missing blocks are zero.

    ``row_dims`` / ``col_dims`` are the block partition sizes.
    """
    roff = [0, *accumulate(row_dims)]
    coff = [0, *accumulate(col_dims)]
    rows = [{} for _ in range(roff[-1])]
    for (i, j), blk in blocks.items():
        if blk.shape != (row_dims[i], col_dims[j]):
            raise ValueError(f"block {(i, j)} has shape {blk.shape}, "
                             f"expected {(row_dims[i], col_dims[j])}")
        c = coff[j]
        for out, row in zip(rows[roff[i]:roff[i + 1]], blk.rows):
            for k, x in row.items():
                out[c + k] = x
    return Matrix((roff[-1], coff[-1]), rows)


def rank(a, profile=False):
    """Exact rank: the number of pivots of an echelon form of ``a``.

    The rows are reduced forward only: each is cleared at its leading
    column until it leads in a new column or is zero.  With
    ``profile=True`` it returns the rank profile instead: one ``(row,
    column)`` pair per pivot, ordered by column, where ``row`` is the first
    row at which the leading rows of ``a`` gain a pivot in ``column``.
    ``rank(a[:i, :j])`` is the number of pairs with ``row < i`` and
    ``column < j``.  The rank counts the pivots that
    :func:`._kernels.reduce_rows` found, and the profile lists their
    origins by column: no echelon list is built, and a plain rank sorts
    nothing.
    """
    origin = reduce_rows(a.rows)[1]
    if profile:
        return [(origin[c], c) for c in sorted(origin)]
    return len(origin)


def nullspace(a):
    """Matrix whose columns are a basis of ker(a); exact, deterministic.

    One column per free (non-pivot) column ``f`` of the reduced echelon
    form, ordered by increasing ``f``: the kernel vector that is 1 at ``f``
    and 0 at every other free column, scaled to the primitive integer
    vector with a positive entry at ``f``.  The basis depends only on the
    row space of ``a``: the forward echelon rows are back-substituted, each
    pivot column, last to first, cleared from the earlier rows, and as each
    row stays primitive with a positive pivot entry, the result is the
    unique reduced echelon form.
    """
    n = a.shape[1]
    pivots, reduced, _ = eliminate(a.rows)
    for k in range(len(pivots) - 1, 0, -1):
        c, pivot = pivots[k], reduced[k]
        for i in range(k):
            if c in reduced[i]:
                reduced[i] = _clear(reduced[i], c, pivot)
    pivset = set(pivots)
    free = [f for f in range(n) if f not in pivset]
    rows = [{} for _ in range(n)]
    for k, f in enumerate(free):
        hits = [(c, row) for c, row in zip(pivots, reduced) if f in row]
        scale = lcm(*(row[c] for c, row in hits))
        v = {f: scale}
        for c, row in hits:
            v[c] = -row[f] * (scale // row[c])
        g = gcd(*v.values())
        for i, x in v.items():
            rows[i][k] = x // g
    return Matrix((n, len(free)), rows)


def rank_of_columns(mats):
    """Rank of the column span of several matrices side by side."""
    mats = [m for m in mats if m.any()]
    if not mats:
        return 0
    return rank(hstack(mats)) if len(mats) > 1 else rank(mats[0])
