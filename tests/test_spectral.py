import random
import sys

import pytest

from frolicher.bicomplex import (DoubleComplex, InvalidComplexError, layout,
                                 total_differential)
from frolicher.cohomology import (Table, aeppli, arithmetic_genus,
                                  bott_chern, de_rham, dolbeault,
                                  row_cohomology)
from frolicher.s6 import (DiamondParams, enumerate_diamonds,
                          predicted_tables, realize_model)
from frolicher.spectral import (_bars, _cycles, degeneration_page,
                                euler_char_of_page, pages_explicit,
                                pages_filtration, stable_page_index)
from frolicher.zigzag import canonicalize_shape, enumerate_shapes, realize_shape
from genutil import (chain_slice_faults, change_basis, dense_models,
                     random_complex, random_complex_suite, ref_bars,
                     ref_cycles, ref_explicit_entry, ref_rank, ref_tables,
                     shrinks, spots)

from frolicher import linalg


def shape_complex(dots, grid=(3, 3)):
    return realize_shape(canonicalize_shape(dots), grid)


def nonzero(table):
    return sorted((p, q) for p in range(table.grid.shape[0])
                  for q in range(table.grid.shape[1]) if table.grid[p, q])


def test_dot_every_page_one():
    K = shape_complex([(0, 0)])
    for t in pages_filtration(K, 5):
        assert nonzero(t) == [(0, 0)] and t.grid[0, 0] == 1
    assert degeneration_page(K) == 1


def test_c_zigzag_pages():
    K = shape_complex([(0, 1), (1, 1)])
    filt = pages_filtration(K, 3)
    assert nonzero(filt[0]) == [(0, 1), (1, 1)]
    assert nonzero(filt[1]) == []
    assert nonzero(filt[2]) == []
    assert degeneration_page(K) == 2


def test_z4a_pages_survive_to_two_die_at_three():
    K = shape_complex([(0, 1), (1, 1), (1, 0), (2, 0)])
    for tables in (pages_filtration(K, 4), pages_explicit(K, 4)):
        assert nonzero(tables[0]) == [(0, 1), (2, 0)]
        assert nonzero(tables[1]) == [(0, 1), (2, 0)]
        assert nonzero(tables[2]) == []
        assert nonzero(tables[3]) == []
    assert degeneration_page(K) == 3


def test_explicit_x2_kills_c_zigzag_source():
    # No chain extension exists out of (0,1) because (1,0) is empty, so the
    # class dies on page 2 of the explicit method too.
    K = shape_complex([(0, 1), (1, 1)])
    assert pages_explicit(K, 2)[1].grid[0, 1] == 0


def test_page_one_is_dolbeault():
    rng = random.Random(10)
    for _ in range(12):
        K = random_complex(rng, 3, 3, rational=(_ % 3 == 0))
        p1 = pages_filtration(K, 1)[0]
        assert p1.grid == dolbeault(K).grid
        e1 = pages_explicit(K, 1)[0]
        assert e1.grid == dolbeault(K).grid


def test_methods_agree_on_random_complexes():
    rng = random.Random(11)
    for i in range(30):
        K = random_complex(rng, 2 + i % 3, 2 + (i // 2) % 2)
        r = stable_page_index(K)
        for a, b in zip(pages_filtration(K, r), pages_explicit(K, r)):
            assert a.grid == b.grid, f"page {a.r}"


def test_monotonicity_and_abutment():
    rng = random.Random(12)
    for _ in range(10):
        K = random_complex(rng, 3, 3)
        r = stable_page_index(K)
        tables = pages_filtration(K, r)
        for earlier, later in zip(tables, tables[1:]):
            assert shrinks(later.grid, earlier.grid)
        b = de_rham(K)
        last = tables[-1]
        for k in range(len(b)):
            total = sum(last.grid[p, k - p]
                        for p in range(max(0, k - K.q_max),
                                       min(K.p_max, k) + 1))
            assert total == b[k]


def test_euler_char_constant_across_pages():
    rng = random.Random(13)
    for _ in range(8):
        K = random_complex(rng, 3, 2)
        chi_dim = sum((-1) ** (p + q) * K.dim(p, q) for p, q in spots(K))
        for t in pages_filtration(K, stable_page_index(K)):
            assert euler_char_of_page(t) == chi_dim


def test_euler_char_of_page_dot():
    K = shape_complex([(0, 0)])
    assert euler_char_of_page(pages_filtration(K, 1)[0]) == 1


def test_degeneration_bound():
    rng = random.Random(14)
    for i in range(12):
        K = random_complex(rng, 2 + i % 3, 2 + i % 2)
        assert degeneration_page(K) <= min(K.p_max, K.q_max) + 2


def first_stable_explicit_page(K):
    tables = pages_explicit(K, stable_page_index(K))
    return next(t.r for t in tables if t.grid == tables[-1].grid)


def test_degeneration_page_matches_explicit_pages():
    complexes = [realize_shape(s, (3, 3)) for s in enumerate_shapes((3, 3), 6)]
    complexes += [realize_model(DiamondParams(*d)) for d in
                  ((0, 0, 1, 0, 0), (1, 0, 0, 1, 0), (0, 1, 1, 1, 1),
                   (0, 1, 0, 2, 1))]
    assert len(complexes) == 86
    seen = set()
    for K in complexes:
        r = degeneration_page(K)
        assert r == first_stable_explicit_page(K)
        seen.add(r)
    assert seen == {1, 2, 3, 4}


def test_bars_match_the_rank_count_reference(suite=None):
    # The barcode against genutil.ref_bars, which counts the pairs between
    # two spots from ranks of lower-left blocks of a dense D_k laid out from
    # K.arrow: on random complexes, every short shape, and the 78 bound-2
    # models under a 4n-step unimodular map, whose D_k are dense.
    if suite is None:
        suite = random_complex_suite(2017, 200)
    complexes = [*suite,
                 *(realize_shape(s, (3, 3))
                   for s in enumerate_shapes((3, 3), 6)),
                 *dense_models(2)]
    assert len(complexes) == len(suite) + 82 + 78
    long_bars = 0
    for K in complexes:
        bars = ref_bars(K)
        assert sorted(_bars(K)) == bars
        long_bars += any(b[0] - d[0] >= 2 for b, d in bars)
    assert long_bars > 100


@pytest.mark.wide
def test_bars_match_the_rank_count_reference_wide(wide_suite):
    assert len(wide_suite) == 2000
    test_bars_match_the_rank_count_reference(wide_suite)


def test_pages_ignore_the_basis_within_each_spot():
    rng = random.Random(15)
    plain = [realize_model(DiamondParams(0, 1, 0, 2, 1))]
    plain += [random_complex(rng, 3, 3, max_shapes=5, max_mult=3,
                             scramble=False) for _ in range(8)]
    for K in plain:
        r = stable_page_index(K)
        scrambled = change_basis(rng, K, rational=True)
        assert scrambled != K
        for a, b in zip(pages_filtration(K, r), pages_filtration(scrambled, r)):
            assert a == b
        assert degeneration_page(scrambled) == degeneration_page(K)


def at(grid, p, q):
    P, Q = grid.shape
    return int(grid[p, q]) if 0 <= p < P and 0 <= q < Q else 0


def short_shapes_and_random_complexes(seed):
    """Every shape of length <= 6 on the 3 x 3 grid, then 24 random
    complexes, a third of them rational."""
    rng = random.Random(seed)
    complexes = [realize_shape(s, (3, 3)) for s in enumerate_shapes((3, 3), 6)]
    return complexes + [random_complex(rng, 2 + i % 3, 2 + (i // 3) % 3,
                                       rational=(i % 3 == 0))
                        for i in range(24)]


def skip_rule_complexes():
    """The inputs of the skip-rule and kernel-definition tests."""
    return short_shapes_and_random_complexes(16) + [
        realize_model(DiamondParams(*d)) for d in
        ((0, 0, 1, 0, 0), (1, 0, 0, 1, 0), (0, 1, 1, 1, 1), (0, 1, 0, 2, 1),
         (1, 2, 2, 2, 2))]


def test_skip_rules_are_sound():
    # pages_explicit solves dim Z_r at (p, q) only where a stored arrow
    # leaves (p, q), on page 1 a d_v, and page r - 1 is nonzero there and at
    # the target (p + r - 1, q - r + 2) of d_{r-1}.  Everywhere else it
    # carries dim Z_{r-1} (dim Z_0 is the dims grid): a solve there must
    # count the same.
    zero = dead_end = no_arrow = no_d_v = 0
    for K in skip_rule_complexes():
        d_v_sources = {s for (s, t), _ in K.stored_maps() if s[0] == t[0]}
        sources = {s for (s, _), _ in K.stored_maps()}
        carried = K.dims.tolist()
        prev = K.dims
        for t in pages_explicit(K, stable_page_index(K) + 1):
            r = t.r
            for p, q in spots(K):
                z = _cycles(K, p, q, r)
                target = at(prev, p + r - 1, q - r + 2)
                solved = d_v_sources if r == 1 else sources
                if (p, q) in solved and prev[p, q] and target:
                    carried[p][q] = z
                    continue
                assert z == carried[p][q], (p, q, r)
                zero += prev[p, q] == 0
                dead_end += prev[p, q] > 0 and target == 0
                live = prev[p, q] > 0 and target > 0
                no_arrow += live and (p, q) not in sources
                no_d_v += live and (p, q) in sources
            prev = t.grid
    # Every skip fires: a zero spot, a zero target, no arrow out, and on
    # page 1 an arrow out of the spot but no d_v.
    assert zero > 1000 and dead_end > 100 and no_arrow > 10 and no_d_v >= 3


def test_explicit_entries_match_the_kernel_definition(complexes=None):
    # Every entry of pages_explicit, past the stable page, against dim(Z_r
    # + B_r) - dim B_r from kernel bases, a product and a stack of dense
    # rows, which also checks that B_r lies in Z_r; and the pivot count
    # dim Z_r at every spot and page against the reference Z_r.  None of
    # the references runs the package's eliminator.
    if complexes is None:
        complexes = skip_rule_complexes()
    for K in complexes:
        for t in pages_explicit(K, stable_page_index(K) + 1):
            r = t.r
            for p, q in spots(K):
                assert (t.grid[p, q]
                        == ref_explicit_entry(K, p, q, r)), (p, q, r)
                assert (_cycles(K, p, q, r)
                        == ref_rank(ref_cycles(K, p, q, r))), (p, q, r)


@pytest.mark.wide
def test_explicit_entries_match_the_kernel_definition_wide(wide_suite):
    complexes = wide_suite[:400]  # random_complex_suite(2017, 400)
    assert len(complexes) == 400
    test_explicit_entries_match_the_kernel_definition(complexes)


def test_staircases_are_slices_of_the_kept_total_differential(
        monkeypatch, complexes=None):
    # layout(K, k) tiles the columns of D_k and the rows of D_{k-1} with the
    # spots of degree k in decreasing p, the filtration order.  _cycles
    # ranks D_{p+q} at the rows of its chain's targets, i = r-1 down to 0:
    # one contiguous range of the kept rows, shared, with no entry left of
    # the chain's columns and right of (p, q)'s only at (p-1, q+1), and the
    # chain's columns are the system laid out from dense rows of K.arrow,
    # at every spot and page.  A slice is ranked only when it has an entry;
    # where none is ranked, the kept rows there must be zero and equal the
    # system all the same, so a kept D_k that lost entries fails there
    # too.  The pivot count does not depend on the order of the blocks, but
    # the cost of the elimination does, so the order is pinned here.
    if complexes is None:
        complexes = random_complex_suite(2017, 40)
    ranked = []
    slices = 0
    rank = linalg.rank

    def recorded(a, profile=False):
        ranked.append(a)
        return rank(a, profile=profile)

    monkeypatch.setattr(linalg, "rank", recorded)
    for K in complexes:
        n = K.p_max + K.q_max
        for k in range(n + 2):
            blocks = layout(K, k)
            assert [s for s, _, _ in blocks] == [
                t for t in reversed(spots(K)) if sum(t) == k]
            stops = [b for _, _, b in blocks]
            assert [a for _, a, _ in blocks] == [0, *stops][:len(stops)]
            assert all(b - a == K.dims[s] for s, a, b in blocks)
            size = stops[-1] if stops else 0
            if k <= n:
                assert total_differential(K, k).shape[1] == size
            if k >= 1:
                assert total_differential(K, k - 1).shape[0] == size
        for r in range(1, stable_page_index(K) + 2):
            for p, q in spots(K):
                ranked.clear()
                _cycles(K, p, q, r)
                assert len(ranked) <= 1 and all(a.any() for a in ranked)
                assert chain_slice_faults(K, p, q, r, (ranked or [None])[0]
                                          ) == [], (p, q, r)
                slices += len(ranked)
    assert slices


@pytest.mark.wide
def test_staircases_are_slices_of_the_kept_total_differential_wide(
        monkeypatch, wide_suite):
    complexes = wide_suite[:400]  # random_complex_suite(2017, 400)
    assert len(complexes) == 400
    test_staircases_are_slices_of_the_kept_total_differential(monkeypatch,
                                                              complexes)


def test_explicit_pages_only_rank(monkeypatch):
    # Each solve counts the pivot columns of one row slice, one elimination
    # at most: no kernel basis, product or side-by-side stack is formed,
    # and neither page method nor de Rham builds a matrix, as each ranks
    # views of the kept D_k.  Validation multiplies and assembles, and
    # every complex is checked as it is built, before those are made to
    # raise.
    complexes = short_shapes_and_random_complexes(18) + [
        realize_model(d) for d in enumerate_diamonds(2)]

    def refuse(name):
        def raising(*args, **kwargs):
            raise AssertionError(f"linalg.{name} called")
        return raising

    for name in ("nullspace", "mat_mul", "hstack", "rank_of_columns",
                 "assemble"):
        monkeypatch.setattr(linalg, name, refuse(name))
    monkeypatch.setattr(linalg.Matrix, "__init__", refuse("Matrix"))
    for K in complexes:
        r = stable_page_index(K)
        pages = pages_filtration(K, r)
        assert pages_explicit(K, r) == pages
        assert list(de_rham(K)) == [
            sum(pages[-1].grid[p, k - p] for p in range(K.p_max + 1)
                if 0 <= k - p <= K.q_max)
            for k in range(K.p_max + K.q_max + 1)]


def test_explicit_entries_assemble_one_staircase(monkeypatch):
    # One elimination per solve, of a row slice with an entry, and no
    # (spot, page) of a complex solved twice: B_r is never solved.  The
    # short shapes solve few entries, so the bound-2 models join them.
    from frolicher import spectral
    solve, rank = spectral._cycles, linalg.rank
    solved, callers = [], []

    def counted_solve(K, p, q, r):
        solved.append((id(K), p, q, r))
        return solve(K, p, q, r)

    def counted_rank(a, profile=False):
        callers.append(sys._getframe(1).f_code.co_name)
        assert a.any(), "eliminated an all-zero slice"
        return rank(a, profile=profile)

    complexes = short_shapes_and_random_complexes(19) + [
        realize_model(d) for d in enumerate_diamonds(2)]
    monkeypatch.setattr(spectral, "_cycles", counted_solve)
    monkeypatch.setattr(linalg, "rank", counted_rank)
    for K in complexes:
        pages_explicit(K, stable_page_index(K))
    assert len(solved) > 300
    assert len(set(solved)) == len(solved)
    assert len(callers) == len(solved)
    assert set(callers) == {"_cycles"}


def test_explicit_pages_read_no_pivot_origin(monkeypatch):
    # The rank profile's origins make the barcode of pages_filtration; the
    # explicit method reads pivot columns only, so it is blind to them.
    complexes = short_shapes_and_random_complexes(20)
    expected = [pages_explicit(K, stable_page_index(K)) for K in complexes]
    rank = linalg.rank

    def no_origins(a, profile=False):
        out = rank(a, profile=profile)
        return [(-1, c) for _, c in out] if profile else out

    monkeypatch.setattr(linalg, "rank", no_origins)
    for K, pages in zip(complexes, expected):
        assert pages_explicit(K, stable_page_index(K)) == pages
    K = complexes[-1]
    assert pages_filtration(K, stable_page_index(K)) != pages_explicit(
        K, stable_page_index(K))


def test_densely_scrambled_models(bound=2, models=None):
    # Every spot of the 78 bound-2 models (316 of bound 3 in the wide case)
    # under a 4n-step unimodular map: the staircases are dense there, not
    # 0/1/-1.  The pages do not depend on the basis, so both methods must
    # still give the closed forms.
    diamonds = enumerate_diamonds(bound)
    if models is None:
        models = dense_models(bound)
    assert len(models) == len(diamonds) == {2: 78, 3: 316}[bound]
    for d, K in zip(diamonds, models):
        r = stable_page_index(K)
        pages = pages_filtration(K, r)
        assert pages_explicit(K, r) == pages, d
        pred = predicted_tables(d)
        assert (pages[0], pages[1]) == (pred.e1, pred.e2), d
        assert all(t.grid == pred.e3plus.grid for t in pages[2:]), d


@pytest.mark.wide
def test_densely_scrambled_models_wide(dense_bound3_models):
    test_densely_scrambled_models(3, dense_bound3_models)


def test_explicit_pages_stop_solving_at_the_stable_page(monkeypatch):
    # Every differential past the stable page has a zero source or target,
    # so both methods return the stable page's own grid as every later
    # page, and rebuild none of them.
    from frolicher import spectral
    solved = []
    solve = spectral._cycles

    def counted_solve(K, p, q, r):
        solved.append(r)
        return solve(K, p, q, r)

    monkeypatch.setattr(spectral, "_cycles", counted_solve)
    rng = random.Random(17)
    for i in range(12):
        K = random_complex(rng, 1 + i % 4, 1 + (i // 4) % 3,
                           rational=(i % 3 == 0))
        s = stable_page_index(K)
        filtration = pages_filtration(K, s + 3)
        solved.clear()
        tables = pages_explicit(K, s + 3)
        assert tables == filtration
        assert max(solved, default=0) <= s
        assert [t.r for t in tables] == list(range(1, s + 4))
        for method, pages in ((pages_explicit, tables),
                              (pages_filtration, filtration)):
            assert all(t.grid is pages[s - 1].grid for t in pages[s:])
            assert pages[:s] == method(K, s)


def test_explicit_pages_never_solve_a_spot_without_arrows(monkeypatch):
    # A spot that no arrow enters or leaves is a sum of dots: its dimension
    # is on every page, with nothing to solve.
    from frolicher import spectral
    solved = []
    solve = spectral._cycles

    def counted_solve(K, p, q, r):
        solved.append((p, q))
        return solve(K, p, q, r)

    monkeypatch.setattr(spectral, "_cycles", counted_solve)
    dots = DoubleComplex(31, 31, [[1] * 32] * 32)
    s = stable_page_index(dots)
    assert pages_explicit(dots, s) == pages_filtration(dots, s)
    assert solved == []
    # Beside an arrow, only the spot it leaves is ever solved.
    K = DoubleComplex(5, 5, [[1] * 6] * 6, d_horiz={(2, 3): [[1]]})
    s = stable_page_index(K)
    assert pages_explicit(K, s) == pages_filtration(K, s)
    assert set(solved) == {(2, 3)}


def test_no_elimination_of_a_system_without_entries(monkeypatch):
    # An all-zero system has rank 0 and the identity as kernel basis; the
    # callers read that off the stored rows instead of eliminating.
    def nonzero_only(fn):
        def wrapped(a, **kwargs):
            mats = a if isinstance(a, list) else [a]
            assert any(m.any() for m in mats), f"{fn.__name__} of zeros"
            return fn(a, **kwargs)
        return wrapped

    for name in ("rank", "nullspace", "rank_of_columns"):
        monkeypatch.setattr(linalg, name, nonzero_only(getattr(linalg, name)))
    from frolicher.cohomology import aeppli, bott_chern, row_cohomology
    from frolicher.s6 import enumerate_diamonds, verify_model
    for shape in enumerate_shapes((3, 3), 6):
        K = realize_shape(shape, (3, 3))
        r = stable_page_index(K)
        assert pages_explicit(K, r) == pages_filtration(K, r)
        for theory in (dolbeault, row_cohomology, bott_chern, aeppli,
                       de_rham, degeneration_page):
            theory(K)
    for d in enumerate_diamonds(2):
        assert verify_model(d) == []


def test_rejects_bad_arguments():
    K = shape_complex([(0, 0)])
    with pytest.raises(ValueError):
        pages_filtration(K, 0)
    with pytest.raises(ValueError):
        pages_explicit(K, -1)
    bad = DoubleComplex(1, 0, [[2], [2]],
                        d_horiz={(0, 0): [[1]]})
    with pytest.raises(InvalidComplexError):
        pages_filtration(bad, 2)
    with pytest.raises(InvalidComplexError):
        degeneration_page(bad)


def test_page_table_entry_and_eq():
    g = [[0, 0], [3, 0]]
    t = Table(g, r=2)
    assert t.grid[1, 0] == 3
    assert t == Table(linalg.Grid(g), r=2)
    assert t != Table(g, r=3)
    with pytest.raises(ValueError) as err:
        Table(g, theory="x")
    assert str(err.value) == "unknown theory 'x'"


def test_pages_from_e3_on_share_one_grid():
    # The s6 models degenerate at E3, so no differential changes a later
    # page, and every method returns E3's grid object for all of them.
    for d in enumerate_diamonds(2):
        K = realize_model(d)
        r = stable_page_index(K) + 2
        for method in (pages_filtration, pages_explicit):
            pages = method(K, r)
            assert all(t.grid is pages[2].grid for t in pages[3:]), d


def test_a_page_shares_its_grid_exactly_when_nothing_changed(suite=None):
    # Both methods run to three pages past the stable page s.  They must
    # agree, and page s must abut to de Rham cohomology.  A page that a
    # differential changes loses a count somewhere, so equal consecutive
    # grids (page 0 being the dims) must be one object, and unequal ones
    # two.  Each page past s must be page s's grid object: the filtration
    # method charges each bar by its length, and no bar reaches past s;
    # the explicit method stops solving at s.
    if suite is None:
        suite = random_complex_suite(2017, 200)
    for K in suite:
        s = stable_page_index(K)
        pages = pages_filtration(K, s + 3)
        explicit = pages_explicit(K, s + 3)
        assert explicit == pages
        grid = pages[s - 1].grid
        assert [sum(grid[p, k - p] for p in range(K.p_max + 1)
                    if 0 <= k - p <= K.q_max)
                for k in range(K.p_max + K.q_max + 1)] == list(de_rham(K))
        for method in (pages, explicit):
            grids = [K.dims] + [t.grid for t in method]
            for a, b in zip(grids, grids[1:]):
                assert (b is a) == (b == a)
            assert all(g is grids[s] for g in grids[s + 1:])


@pytest.mark.wide
def test_a_page_shares_its_grid_exactly_when_nothing_changed_wide(
        wide_suite):
    assert len(wide_suite) == 2000
    test_a_page_shares_its_grid_exactly_when_nothing_changed(wide_suite)


def test_every_table_is_a_checked_rectangle_of_ints(complexes=None):
    # The four grid theories and the arithmetic genus against
    # genutil.ref_tables, which builds every map from zero-filled dense rows
    # and ranks it with its own Fraction elimination.  The engine derives
    # its counts by Grid.minus, which checks each charge, not each cell; the
    # public constructor, which checks every cell, must rebuild the same
    # grid, for every page of both methods too.
    if complexes is None:
        complexes = random_complex_suite(2017, 200)
    theories = {"dolbeault": dolbeault, "row": row_cohomology,
                "bott_chern": bott_chern, "aeppli": aeppli}
    for K in complexes:
        ref = ref_tables(K)
        assert arithmetic_genus(K) == ref["genus"]
        tables = [theory(K) for theory in theories.values()]
        for name, t in zip(theories, tables):
            assert t.grid == ref[name] and t.grid.shape == ref[name].shape
        r = stable_page_index(K) + 1
        for t in tables + pages_filtration(K, r) + pages_explicit(K, r):
            g = t.grid
            assert all(type(x) is int for row in g for x in row)
            rebuilt = linalg.Grid(g.tolist())
            assert g == rebuilt and g.shape == rebuilt.shape


@pytest.mark.wide
def test_every_table_is_a_checked_rectangle_of_ints_wide(
        wide_suite, dense_bound3_models):
    assert (len(wide_suite), len(dense_bound3_models)) == (2000, 316)
    test_every_table_is_a_checked_rectangle_of_ints(
        wide_suite + dense_bound3_models)
