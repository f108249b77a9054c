"""Pages of the column-filtration spectral sequence, two independent ways.

``pages_filtration`` reads every page off the persistence pairing of the
total complex T, filtered by the first grading (F^p T = spots with first
grading >= p).  Each degree is laid out in filtration order, p descending,
so the kept D_k is the filtered boundary matrix, and its rows are reduced
bottom-up: the row of e_i (degree k + 1) leads at the column of the e_j
(degree k) it is paired with, a bar of length p_i - p_j.  Column reduction
pairs alike, as both are fixed by the ranks of the lower-left blocks of D_k
(de Silva, Morozov & Vejdemo-Johansson, *Dualities in persistent
(co)homology*, 2011).  A pair of length l is cancelled by the differential
d_l (Basu & Parida, arXiv:1510.01587; Zomorodian & Carlsson, DCG 2005), so

    E_r(p, q)  =  #{ basis elements at (p, q) that are unpaired
                     or whose bar has length >= r }

and the first page equal to the limit is one more than the longest bar.
The total differential maps degree k into degree k + 1 only, so the
reduction is one exact elimination per degree: the rank profile
(``linalg.rank`` with ``profile=True``) of D_k's rows reversed, a view that
shares them.  Within one filtration level the order of the basis does not
matter.

``pages_explicit`` solves instead for chains of existential extensions at
the spot itself: Z_r(p, q) is the space of d_v-closed elements whose
horizontal images can be corrected r - 1 times, counted from the pivot
columns of one row slice of the validated D_{p+q}, a view that shares its
rows, with no matrix built and no kernel basis, product or
back-substitution.  Page r is the cohomology of page r - 1 under d_{r-1}
(page 0 is the spots with d_0 = d_v, and Z_0 is every element).  On
E_{r-1}(s) = Z_{r-1}(s) / B_{r-1}(s) the kernel of d_{r-1} is Z_r(s) /
B_{r-1}(s), so its rank out of s is dim Z_{r-1}(s) - dim Z_r(s), and

    E_r(t) = E_{r-1}(t) - rank out of t - rank out of the source of t.

B_r is never solved, and Z_r only where d_{r-1} can act (with no arrow
out of s, every a_0 starts the chain (a_0, 0, ..)).  The two methods share
the validated D_k and the eliminator's pivot columns, not the pivots'
origin rows, which make the barcode; the tests check that they agree, and
every explicit entry against systems built from ``K.arrow`` alone.
``cohomology.de_rham`` takes its own ranks of the total differentials, so
the abutment of the stable page to it is a check of the pairing, not a
restatement of it.

The page at index ``min(p_max, q_max) + 2`` is stable: on a bounded grid all
later differentials have zero source or target, so it stands in for the
limit page.  Each method derives page r from page r - 1 (page 0 is the
dims) by :meth:`.linalg.Grid.minus`, so a page that no differential changes
shares its predecessor's grid.  The filtration method charges each bar's
ends by the bar's length, and no bar reaches past the stable page; the
explicit method solves nothing after it, a bound on its work, not a fact.
"""

from . import linalg
from .bicomplex import (_kept_degrees, _spots, layout, require_valid,
                        total_differential)
from .cohomology import Table


def stable_page_index(K):
    """Index of a page guaranteed equal to the limit on this grid."""
    return min(K.p_max, K.q_max) + 2


def euler_char_of_page(table):
    """Alternating sum of the page entries over total degree."""
    return sum((-1) ** (p + q) * x
               for p, row in enumerate(table.grid) for q, x in enumerate(row))


def _bars(K):
    """Persistence pairs of the filtered total complex of a valid ``K``.

    Returns ``(birth, death)`` spot pairs: the row of D_k at ``birth``,
    reduced bottom-up, leads at the column at ``death``.  The bar length is
    ``birth[0] - death[0]``.  Each degree's basis spots are read once from
    the kept layout, and each D_k once from the kept totals.
    """
    bars = []
    layouts, totals = _kept_degrees(K)
    tgt = _spots(layouts[0])
    for d, degree in zip(totals, layouts[1:]):
        src, tgt = tgt, _spots(degree)
        # Both bases run in filtration order (p descending), so row j of
        # the reversed D_k is the (-1 - j)-th basis vector of degree k + 1,
        # and its leading column is the one it is paired with.
        if d.any():
            bars += [(tgt[-1 - j], src[c])
                     for j, c in linalg.rank(d[::-1], profile=True)]
    return bars


def pages_filtration(K, r_max):
    """Page tables r = 1 .. r_max from the barcode of the filtration: page
    r loses the ends of the bars of length r - 1, a charge keyed by length."""
    require_valid(K)
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    # A bar of length l removes its two ends from every page after E_l.
    dying = {}
    for birth, death in _bars(K):
        dying.setdefault(birth[0] - death[0], []).extend(
            ((birth, 1), (death, 1)))
    grid = K.dims
    tables = []
    for r in range(1, r_max + 1):
        grid = grid.minus(dying.get(r - 1, ()))
        tables.append(Table(grid, r=r))
    return tables


def _cycles(K, p, q, r):
    """dim Z_r(p, q), the a_0 of chains (a_0, .., a_{r-1}) at (p+i, q-i)
    with d_v a_0 = 0 and d_h a_{i-1} + d_v a_i = 0.

    The equations are the rows of the kept D_{p+q} at (p+i, q-i+1) for i =
    r-1 down to 0, one range as the layout runs p down, ranked as a view
    that shares them.  They have no entry left of the chain's columns,
    which end with a_0's, and right of a_0's only at (p-1, q+1).  A pivot
    before column j counts the rank of the first j columns, so the pivots
    among a_0's are those of the system on the chain's columns alone, and
    dim Z_r = dim(p, q) less them.  A zero slice is not eliminated."""
    a, *_, b = [j for s, *ends in layout(K, p + q + 1)
                if p <= s[0] < p + r for j in ends] or [0, 0]
    (start, stop), = [ends for s, *ends in layout(K, p + q) if s == (p, q)]
    rows = total_differential(K, p + q)[a:b]
    if not rows.any():
        return stop - start
    return stop - start - sum(start <= c < stop
                              for _, c in linalg.rank(rows, profile=True))


def pages_explicit(K, r_max):
    """Page tables r = 1 .. r_max from the cycle counts dim Z_r per spot.

    Z_r(s) is carried from Z_{r-1}(s) (Z_0 is the dims grid) unless d_{r-1}
    can act out of s: a stored arrow leaves s (on page 1 a d_v, the one
    arrow of the chain there) and page r - 1 is nonzero at s and at its target
    (p + r - 1, q - r + 2).  There it is solved at s, and d_{r-1} has rank
    dim Z_{r-1}(s) - dim Z_r(s) out of s, which E_r loses at s and at the
    target.  Nothing is solved after :func:`stable_page_index`, where no
    differential acts: that bounds the work of a large ``r_max``.
    """
    require_valid(K)
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    d_v_sources = {s for (s, t), _ in K.stored_maps() if s[0] == t[0]}
    sources = {s for (s, _), _ in K.stored_maps()}
    stable = stable_page_index(K)
    cycles = K.dims.tolist()
    tables = []
    prev = K.dims
    for r in range(1, r_max + 1):
        charges = []
        for p, q in d_v_sources if r == 1 else sources if r <= stable else ():
            t = (p + r - 1, q - r + 2)
            if prev[p, q] and K.dim(*t) and prev[t]:
                z = _cycles(K, p, q, r)
                rank, cycles[p][q] = cycles[p][q] - z, z
                if rank:
                    charges += [((p, q), rank), (t, rank)]
        prev = prev.minus(charges)
        tables.append(Table(prev, r=r))
    return tables


def degeneration_page(K):
    """Smallest r whose page equals the stable page: 1 + the longest bar."""
    require_valid(K)
    # A bar of length l runs from (p, q) to (p - l, q + l - 1), so
    # l <= p_max and l <= q_max + 1: this never exceeds stable_page_index(K).
    return 1 + max((b[0] - d[0] for b, d in _bars(K)), default=0)
