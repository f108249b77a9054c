"""Exact linear algebra over the rationals, numpy-backed.

Matrices are 2-D numpy arrays of dtype ``object`` holding Python ints and
``fractions.Fraction``, treated as immutable values.  There is one
representation and one eliminator (:func:`._kernels.eliminate`): ranks and
kernels are read off the same fraction-free reduced echelon form, so every
result is exact and no integer can overflow.  The eliminator also reports
the input row behind each pivot, which ``rank(a, profile=True)`` returns as
the rank profile; the spectral pages read their persistence pairing from it.
"""

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

import numpy as np

from ._kernels import eliminate


def from_rows(rows, cols, entries):
    """Build a matrix from an iterable of row iterables of int/Fraction."""
    data = [[x if type(x) is int else _coerce(x) for x in row]
            for row in entries]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError("entry grid does not match the declared shape")
    return np.array(data, dtype=object).reshape(rows, cols)


def _coerce(x):
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x)!r}")


def zeros(rows, cols):
    return np.zeros((rows, cols), dtype=object)


def identity(n):
    return np.eye(n, dtype=object)


def transpose(a):
    return a.T.copy()


def is_zero(a):
    return a.size == 0 or not a.any()


def mat_eq(a, b):
    return a.shape == b.shape and bool(np.array_equal(a, b))


def mat_mul(a, b):
    """Exact product."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return zeros(a.shape[0], b.shape[1])
    return np.dot(a, b)


def hstack(mats):
    return np.hstack(mats)


def vstack(mats):
    return np.vstack(mats)


def assemble(row_dims, col_dims, blocks):
    """Block matrix from ``blocks[(i, j)]``; missing blocks are zero.

    ``row_dims`` / ``col_dims`` are the block partition sizes.
    """
    out = zeros(sum(row_dims), sum(col_dims))
    roff = [0, *accumulate(row_dims)]
    coff = [0, *accumulate(col_dims)]
    for (i, j), blk in blocks.items():
        if blk.shape != (row_dims[i], col_dims[j]):
            raise ValueError(f"block {(i, j)} has shape {blk.shape}, "
                             f"expected {(row_dims[i], col_dims[j])}")
        if blk.size:
            out[roff[i]:roff[i + 1], coff[j]:coff[j + 1]] = blk
    return out


def _rows(a):
    """The rows of ``a`` as dicts from column index to nonzero entry."""
    rows = [{} for _ in range(a.shape[0])]
    if a.size:
        ii, jj = a.nonzero()
        for i, j, x in zip(ii.tolist(), jj.tolist(), a[ii, jj].tolist()):
            rows[i][j] = x
    return rows


def rank(a, profile=False):
    """Exact rank: the number of pivots of the reduced echelon form.

    With ``profile=True`` it returns the rank profile instead: one
    ``(row, column)`` pair per pivot, ordered by column, where ``row`` is
    the first row at which the leading rows of ``a`` gain a pivot in
    ``column``.  ``rank(a[:i, :j])`` is the number of pairs with
    ``row < i`` and ``column < j``.
    """
    pivots, _, origins = eliminate(_rows(a))
    if profile:
        return list(zip(origins, pivots))
    return len(pivots)


def nullspace(a):
    """Matrix whose columns span ker(a); exact, deterministic.

    One column per free (non-pivot) column ``f`` of the reduced echelon
    form, ordered by increasing ``f``: the standard free-column kernel
    vector, scaled to the primitive integer vector with a positive entry at
    ``f``.
    """
    n = a.shape[1]
    pivots, reduced, _ = eliminate(_rows(a))
    pivset = set(pivots)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        hits = [(c, row) for c, row in zip(pivots, reduced) if f in row]
        scale = lcm(*(row[c] for c, row in hits))
        v = [0] * n
        v[f] = scale
        for c, row in hits:
            v[c] = -row[f] * (scale // row[c])
        g = gcd(*v)
        basis.append([x // g for x in v])
    if not basis:
        return zeros(n, 0)
    return np.array(basis, dtype=object).T


def rank_of_columns(mats):
    """Rank of the column span of several matrices side by side."""
    mats = [m for m in mats if m.shape[1] > 0]
    if not mats:
        return 0
    return rank(hstack(mats)) if len(mats) > 1 else rank(mats[0])
