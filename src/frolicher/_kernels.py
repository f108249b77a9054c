"""The exact eliminator: fraction-free Gaussian elimination over sparse
integer rows.

A row is a mapping from column index to a nonzero entry; input rows are
the rows of a ``linalg.Matrix`` as stored.  Input rows (of int and
``fractions.Fraction`` entries) have their denominators cleared row by row
and are inserted one at a time.  Each new row is cleared at its leading
column while a pivot row sits there; when it leads in a new column it
becomes the pivot row of that column, and when it becomes zero it is done.
The reduction is forward only: earlier pivot rows are never revisited.
Every combination ``a*row - b*pivot`` uses the pivot entry and the entry to
clear divided by their gcd, and each new row is divided by the gcd of its
entries, so integers stay as small as the reduction allows.

Each pivot row starts at its pivot column, with a positive entry there, so
the pivot rows are an echelon basis of the span of the input.  The pivot
columns of any echelon basis of a span are the same set, so the pivots do
not depend on the reduction steps or on the order of the input rows.  The
echelon rows themselves are not unique: they depend on that order.

It also reports each pivot's origin, the input row whose residue created
the pivot; that does depend on the order.  The pivot a row creates, if any,
is the one pivot column of the rows up to it that the rows before it lack,
so the origins too are fixed by the ordered input alone, whatever the
reduction steps were.  ``linalg.rank`` returns the (origin, pivot) pairs as
the rank profile; fed the rows of a filtered boundary matrix bottom-up,
they are the persistence pairs (see :mod:`.spectral`).

One loop, :func:`reduce_rows`, does every reduction and returns two maps
keyed by pivot column, unsorted.  ``linalg.rank`` counts them, or lists the
profile from the origins alone; :func:`eliminate` sorts them into the
echelon lists that ``linalg.nullspace`` back-substitutes.
"""

from math import gcd, lcm


def _primitive(row):
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _integer_row(row):
    """``row`` with its denominators cleared, as a primitive integer dict."""
    try:
        return _primitive(row)
    except TypeError:  # gcd refuses a Fraction entry
        mult = lcm(*(x.denominator for x in row.values()))
        return _primitive({j: int(x * mult) for j, x in row.items()})


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


def reduce_rows(rows):
    """The one reduction loop: ``(pivot_rows, origin)``, two maps keyed by
    pivot column, in the order the pivots were created.

    Each input row is a mapping from column index to a nonzero int or
    ``Fraction``; an empty row creates no pivot.  The input is not modified.
    ``pivot_rows[c]`` is the pivot row of column ``c``: a primitive integer
    mapping with a positive entry at ``c`` and zero in every column left of
    it.  ``origin[c]`` is the position in ``rows`` of the input row that
    created ``c``.  Pivots and origins depend on ``rows`` alone; the pivot
    rows also depend on the order of ``rows``.  A row with one entry enters
    as ``{col: 1}``, with no gcd: its primitive form up to sign, and as
    clearing is linear and each new pivot row's sign is normalised, the
    output is the same as from its primitive form.  An integer row with
    more than one entry whose gcd is 1 enters as it is.
    """
    pivot_rows = {}
    origin = {}
    for index, raw in enumerate(rows):
        if not raw:
            continue
        if len(raw) == 1:
            (col,) = raw
            row = {col: 1}
        else:
            try:
                g = gcd(*raw.values())
            except TypeError:  # gcd refuses a Fraction entry
                row = _integer_row(raw)
            else:
                row = raw if g == 1 else {j: x // g for j, x in raw.items()}
            col = min(row)
        while col in pivot_rows:
            row = _clear(row, col, pivot_rows[col])
            if not row:
                break
            col = min(row)
        else:  # the row leads in a new column
            if row[col] < 0:
                row = {j: -x for j, x in row.items()}
            pivot_rows[col] = row
            origin[col] = index
    return pivot_rows, origin


def eliminate(rows):
    """Forward echelon form of ``rows``; returns ``(pivots, echelon,
    origins)``: :func:`reduce_rows`'s two maps listed by pivot column.

    ``pivots`` lists the pivot columns in increasing order,
    ``echelon[i]`` is the pivot row of ``pivots[i]`` and ``origins[i]`` the
    position in ``rows`` of the input row that created it.
    """
    pivot_rows, origin = reduce_rows(rows)
    pivots = sorted(pivot_rows)
    return (pivots, [pivot_rows[c] for c in pivots],
            [origin[c] for c in pivots])


# perfbench/run.py reports kernel_backend "interpreted" when these are one object.
rank_i64 = _rank_i64 = eliminate
