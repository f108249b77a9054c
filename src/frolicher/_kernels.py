"""The exact eliminator: fraction-free Gauss-Jordan over sparse integer rows.

A row is a mapping from column index to a nonzero entry; input rows are
the rows of a ``linalg.Matrix`` as stored.  Input rows (of int and
``fractions.Fraction`` entries) have their denominators cleared row by row
and are inserted one at a time.  Each new row is first reduced
against the pivot rows it is nonzero in; what is left, if anything, becomes a
pivot row at its leading column and is cleared from the earlier pivot rows
that are nonzero in that column.  Every combination ``a*row - b*pivot`` uses
the pivot entry and the entry to clear divided by their gcd, and each new row
is divided by the gcd of its entries, so integers stay as small as the
reduced form allows.

Pivot rows are zero in each other's pivot columns and each one starts at its
pivot column, so they are the reduced row echelon form of the input up to one
positive scale per row.  That form is unique: the pivots and reduced rows do
not depend on the order of the input rows.

It also reports each pivot's origin, the input row whose residue created
the pivot; that does depend on the order.  A residue is zero in every
earlier pivot column, so the pivot a row creates is fixed by the rows
before it, whatever the reduction steps were.  ``linalg.rank`` returns the
(origin, pivot) pairs as the rank profile; fed boundary columns in
filtration order, with row indices reversed, they are the persistence
pairs (see :mod:`.spectral`).
"""

from math import gcd, lcm


def _primitive(row):
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _integer_row(row):
    """``row`` with its denominators cleared, as a primitive integer dict."""
    if not all(type(x) is int for x in row.values()):
        mult = lcm(*(x.denominator for x in row.values()))
        row = {j: int(x * mult) for j, x in row.items()}
    return _primitive(row)


def _clear(row, col, pivot):
    """Primitive ``a*row - b*pivot`` with the entry at ``col`` cancelled."""
    p = pivot[col]
    f = row[col]
    g = gcd(p, f)
    a = p // g
    b = f // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, x in pivot.items():
        v = out.get(j, 0) - b * x
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out) if out else out


def eliminate(rows):
    """Reduced echelon form of ``rows``; returns ``(pivots, reduced, origins)``.

    Each input row is a mapping from column index to a nonzero int or
    ``Fraction``; an empty row creates no pivot.  The input is not modified.

    ``pivots`` lists the pivot columns in increasing order and
    ``reduced[i]`` is the pivot row of ``pivots[i]``: a primitive integer
    mapping with a positive entry at its pivot, zero in every other pivot
    column and in every column left of its pivot.  ``origins[i]`` is the
    position in ``rows`` of the input row that created ``pivots[i]``.
    """
    pivot_rows = {}
    origin = {}
    for index, raw in enumerate(rows):
        if not raw:
            continue
        row = _integer_row(raw)
        for col in [c for c in row if c in pivot_rows]:
            row = _clear(row, col, pivot_rows[col])
        if not row:
            continue
        col = min(row)
        if row[col] < 0:
            row = {j: -x for j, x in row.items()}
        for c, other in pivot_rows.items():
            if col in other:
                pivot_rows[c] = _clear(other, col, row)
        pivot_rows[col] = row
        origin[col] = index
    pivots = sorted(pivot_rows)
    return (pivots, [pivot_rows[c] for c in pivots],
            [origin[c] for c in pivots])


# perfbench/run.py reports kernel_backend "interpreted" when these are one object.
rank_i64 = _rank_i64 = eliminate
