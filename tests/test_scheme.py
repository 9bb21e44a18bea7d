import hashlib
import inspect
import itertools
import json
import math
import sys
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from circulant import (
    BudgetError,
    Example12Params,
    Section,
    aut_group,
    brute_force_srings,
    cyclotomic,
    enumerate_srings,
    example12,
    group_ring,
    is_normal,
    is_schurian,
    nonschurity_criterion,
    rank2,
    section_ring,
    stabilizer0_orbits,
    translations,
    two_equivalent,
    induced_on_section,
    wreath,
)
from circulant import scheme
from circulant.perm import (
    PermGroup,
    StabChain,
    groups_equal,
    identity,
    inverse,
    is_identity,
    mult,
    symmetric,
    translation,
)
from circulant.scheme import (
    DEFAULT_NODE_BUDGET,
    NonSchurityReport,
    _preserves_colors,
    _StabilizerSearch,
    _aut_group_cached,
    rolled_cells,
)
from circulant.sring import SRing
from circulant.structure import canonical_gwp

# sha256 prefix of [n, nodes visited, generators found by level] over every
# catalog ring with n <= 30 and rank > 2, recorded when each found
# automorphism still went through Schreier-Sims; _FullDescentSearch
# reproduces it
SEARCH_DIGEST_N30 = "feb684fa2aca772f"
# nodes the search visits over the same rings, trying the aligned map at
# every off-path node (30563 for _FullDescentSearch)
SEARCH_NODES_N30 = 5466


def color_matrix(ring):
    """D[g, h] = index of the basic set containing h - g, as uint16: the
    colour table of the scheme, the oracle of the search's rolled rows."""
    # row g is cell_of rolled right by g, which is rolled left by n - g
    return rolled_cells(ring, np.uint16)[ring.n:0:-1].copy()


def cells_of(part):
    """The cells of a search partition (points, cuts), as arrays."""
    points, cuts = part
    return [points[a:b] for a, b in zip(cuts, cuts[1:])]


def part_of(cells):
    """The search partition (points, cuts) of a list of ascending cells."""
    points = np.array([x for cell in cells for x in cell], dtype=np.int64)
    return points, tuple(itertools.accumulate(map(len, cells), initial=0))


def full_row_pass(search, part):
    """Oracle: one row pass from the full sorted key row of every point
    of a non-singleton cell, bucketed cell by cell: the new partition, or
    the partition as it is when no cell splits."""
    points, cuts = part
    bounds = list(zip(cuts, cuts[1:]))
    _, window = search._key_window(len(bounds))
    sizes = [b - a for a, b in bounds]
    cell_id = np.empty(search.n, dtype=window.dtype)
    cell_id[points] = np.arange(len(bounds), dtype=window.dtype).repeat(sizes)
    active = points[np.repeat(np.array(sizes) > 1, sizes)]
    keys = search._sorted_keys(active, cell_id, window)
    out, new_cuts = points.copy(), [0]
    for a, b in bounds:
        buckets = {}
        if b - a > 1:
            for v, key in zip(points[a:b].tolist(), keys):
                buckets.setdefault(key, []).append(v)
        if len(buckets) > 1:
            cell = []
            for key in sorted(buckets):
                cell += buckets[key]
                new_cuts.append(a + len(cell))
            out[a:b] = cell
        else:
            new_cuts.append(b)
    if len(new_cuts) == len(cuts):
        return part
    return out, tuple(new_cuts)


class _FullDescentSearch(_StabilizerSearch):
    """Oracle: the search as it was before the aligned-map test, which
    descends through the candidates of every off-path node down to a leaf
    and tests only the leaf, against the full color table, refining by
    full row passes only."""

    def __init__(self, ring, node_budget):
        super().__init__(ring, node_budget)
        self.D = color_matrix(ring)

    def _aligned_map(self, level, part):
        if level < len(self.base):
            return None
        f = np.empty(self.n, dtype=np.int64)
        f[self.p_seq[-1][0]] = part[0]
        return tuple(f.tolist()) if np.array_equal(self.D[f][:, f], self.D) else None

    def _refine(self, part, ci):
        while len(part[1]) - 1 < self.n:
            new_part = full_row_pass(self, part)
            if new_part is part:
                break
            part = new_part
        return part


class _Int64RefineSearch(_StabilizerSearch):
    """Oracle: the search as it was before it took the basic sets as its
    root partition and built narrow keys: the root is refined, and every
    refinement builds little-endian int64 keys."""

    def __init__(self, ring, node_budget):
        self.n = ring.n
        self.D = color_matrix(ring)
        self.rolled = rolled_cells(ring, np.uint16)
        self.node_budget = node_budget
        self.nodes = 0
        self.p_seq = [self._refine(part_of(ring.cells))]
        self.base = []
        self.target_cells = []
        while True:
            part = self.p_seq[-1]
            ci = self._target_cell(part)
            if ci is None:
                break
            b = int(cells_of(part)[ci].min())
            self.base.append(b)
            self.target_cells.append(ci)
            self.p_seq.append(self._refine(self._individualize(part, ci, b)))
        self.found = [[] for _ in self.base]

    def _refine(self, part, ci=None):
        """Full-row passes only: ci is ignored."""
        n, D = self.n, self.D
        cells = cells_of(part)
        while True:
            C = len(cells)
            if C == n:
                return part_of(cells)
            cell_id = np.empty(n, dtype=np.int64)
            for i, c in enumerate(cells):
                cell_id[c] = i
            active = np.concatenate([c for c in cells if len(c) > 1])
            keys = D[active].astype("<i8") * C + cell_id[None, :]
            keys.sort(axis=1)
            row_of = {int(v): i for i, v in enumerate(active)}
            new_cells = []
            changed = False
            for c in cells:
                if len(c) == 1:
                    new_cells.append(c)
                    continue
                buckets = {}
                for v in c.tolist():
                    buckets.setdefault(keys[row_of[v]].tobytes(), []).append(v)
                if len(buckets) == 1:
                    new_cells.append(c)
                    continue
                changed = True
                for key in sorted(buckets):
                    new_cells.append(np.array(buckets[key], dtype=np.int64))
            if not changed:
                return part_of(new_cells)
            cells = new_cells


def eager_transversal(search, level):
    """Oracle: the transversal as a dict of dense pairs (u, u^-1) over the
    orbit of base[level], as the search built it before Schreier trees."""
    b = search.base[level]
    gens = [g for found in search.found[level:] for g in found]
    e = identity(search.n)
    trans = {b: (e, e)}
    queue = [b]
    for pt in queue:
        u = trans[pt][0]
        for g in gens:
            img = g[pt]
            if img not in trans:
                v = mult(u, g)
                trans[img] = (v, inverse(v))
                queue.append(img)
    return trans


def run_search(cls, ring):
    search = cls(ring, DEFAULT_NODE_BUDGET)
    search.run()
    return search


def brute_force_aut_order(ring):
    D = color_matrix(ring)
    count = 0
    for p in itertools.permutations(range(ring.n)):
        f = np.array(p)
        if np.array_equal(D[f][:, f], D):
            count += 1
    return count


def test_cayley_scheme_colors(z9_fixture):
    D5 = color_matrix(group_ring(5))
    assert len(np.unique(D5)) == 5
    assert D5[2, 4] == group_ring(5).cell_of[2]
    D9 = color_matrix(z9_fixture)
    assert len(np.unique(D9)) == 3
    row = D9[4].tolist()
    assert sorted(np.bincount(row)) == [1, 2, 6]
    # translation invariance
    for g in range(9):
        for h in range(9):
            assert D9[g, h] == D9[0, (h - g) % 9]


def test_aut_group_brute_force_oracle():
    for n in range(2, 8):
        for ring in brute_force_srings(n):
            assert aut_group(ring).order() == brute_force_aut_order(ring), ring.cells


def test_aut_group_examples(z9_fixture):
    assert aut_group(group_ring(4)).order() == 4
    assert aut_group(rank2(7)).order() == math.factorial(7)
    assert aut_group(z9_fixture).order() == 1296
    g = aut_group(z9_fixture)
    assert groups_equal(g, canonical_gwp(symmetric(3), symmetric(3), Section(9, 3, 3)))


def test_fixture_induced_action_is_symmetric(z9_fixture):
    # the stabilized action of Aut on the order-3 subgroup is Sym(3)
    induced = induced_on_section(aut_group(z9_fixture), Section(9, 3, 1))
    assert groups_equal(induced, symmetric(3))
    # the automorphism group of ZZ_4 is exactly the translations
    from circulant.perm import two_equivalent as te

    assert te(aut_group(group_ring(4)), translations(4))


def test_aut_contains_translations(z9_fixture):
    from circulant.perm import translation

    for ring in [group_ring(6), rank2(9), z9_fixture, cyclotomic(16, (7,))]:
        g = aut_group(ring)
        assert g.contains(translation(ring.n, 1))


def test_aut_budget_errors():
    with pytest.raises(BudgetError):
        aut_group(group_ring(12), max_n=10)
    with pytest.raises(BudgetError):
        aut_group(cyclotomic(35, (2,)), node_budget=1)


def test_is_schurian_examples(z9_fixture):
    assert is_schurian(group_ring(10))
    assert is_schurian(rank2(12))
    assert is_schurian(z9_fixture)
    # schurity has no bound of its own: aut_group's max_n decides
    assert is_schurian(rank2(3575))
    with pytest.raises(BudgetError, match="n=5001 > 5000"):
        is_schurian(rank2(5001))


def test_z3575_direct_verdicts(example12_fixture):
    # the direct search at the default bounds finds the four-prime family
    # non-schurian and its negative control schurian, the opposite of each
    # ring's section certificate
    control = example12(Example12Params().negative_control()).ring
    for ring, schurian, order in ((example12_fixture.ring, False, 112198814467775750),
                                  (control, True, 224397628935551500)):
        assert is_schurian(ring) is schurian
        assert aut_group(ring).order() == order


def test_closure_inequality():
    # every basic set is a union of stabilizer-of-0 orbits
    for n in (8, 9, 12):
        for ring in brute_force_srings(n):
            orbits = stabilizer0_orbits(ring)
            orbit_of = {}
            for i, orb in enumerate(orbits):
                for x in orb:
                    orbit_of[x] = i
            for cell in ring.cells:
                ids = {orbit_of[x] for x in cell}
                covered = {x for i in ids for x in orbits[i]}
                assert covered == set(cell)


def test_schurian_section_two_equivalence(z9_fixture):
    # for schurian rings, the induced group on a section is 2-equivalent
    # to the automorphism group of the section ring
    cases = [
        (z9_fixture, Section(9, 3, 1)),
        (z9_fixture, Section(9, 9, 3)),
        (cyclotomic(8, (3,)), Section(8, 4, 1)),
        (cyclotomic(8, (3,)), Section(8, 8, 2)),
    ]
    for ring, sec in cases:
        assert is_schurian(ring)
        induced = induced_on_section(aut_group(ring), sec)
        section_aut = aut_group(section_ring(ring, sec))
        assert two_equivalent(induced, section_aut)


def test_is_normal_examples():
    assert is_normal(cyclotomic(8, (3,)))
    assert not is_normal(rank2(5))
    assert not is_normal(rank2(9))
    assert is_normal(group_ring(2))


def conjugation_is_normal(ring):
    """Oracle: the translations are normal in Aut when conjugating x -> x+1
    by every generator gives a translation."""
    n = ring.n
    t1 = translation(n, 1)
    for a in aut_group(ring).generators:
        conj = mult(mult(inverse(a), t1), a)
        k = conj[0]
        if any(conj[x] != (x + k) % n for x in range(n)):
            return False
    return True


def test_is_normal_is_the_conjugation_test():
    """Every generator affine means the translations are normal, on every
    catalog ring with n <= 30, with both answers seen."""
    answers = {ring: is_normal(ring) for ring in catalog_rings(30)}
    assert all(answer == conjugation_is_normal(ring) for ring, answer in answers.items())
    assert set(answers.values()) == {True, False}


def test_nonschurity_criterion_fixture(z9_fixture):
    report = nonschurity_criterion(z9_fixture, Section(9, 3, 3))
    assert not report.holds  # the fixture is schurian: inconclusive
    # u = 1: every group is the one of Z_1
    report = nonschurity_criterion(z9_fixture, Section(9, 1, 1))
    assert report == NonSchurityReport(holds=False, intersection_order=1,
                                       section_aut_order=1, induced_orders=(1, 1))
    # wreath of rank-2 rings over Z_{p^2} is schurian: criterion cannot hold
    from circulant import generalized_wreath

    w = generalized_wreath(rank2(5), rank2(5), Section(25, 5, 5))
    report = nonschurity_criterion(w, Section(25, 5, 5))
    assert not report.holds


def test_aut_output_is_verified(z9_fixture):
    # every returned generator preserves every color
    for ring in [z9_fixture, cyclotomic(16, (7,)), cyclotomic(15, (2,))]:
        D = color_matrix(ring)
        for g in aut_group(ring).generators:
            f = np.fromiter(g, dtype=np.int64)
            assert np.array_equal(D[f][:, f], D)


def test_rank2_aut_is_implicit_symmetric():
    assert aut_group(rank2(1000)).order() == math.factorial(1000)
    ring = rank2(200)
    _aut_group_cached.cache_clear()
    tracemalloc.start()
    try:
        assert aut_group(ring).order() == math.factorial(200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_aut_chain_levels_generate_their_stabilizers(z9_fixture):
    rings = [z9_fixture] + [rank2(n) for n in range(2, 9)]
    rings += [ring for n in (12, 16, 18) for ring in enumerate_srings(n)]
    for ring in rings:
        chain = aut_group(ring).chain
        n = ring.n
        for level, b in enumerate(chain.base):
            gens = chain.level_generators(level)
            assert all(g[x] == x for g in gens for x in chain.base[:level])
            group = PermGroup(n, gens)
            orbit = next(o for o in group.orbits() if b in o)
            trans = chain.transversals[level]
            assert sorted(trans) == orbit, (ring.cells, level)
            for pt, (u, u_inv) in trans.items():
                assert u[b] == pt and is_identity(mult(u, u_inv))
            assert group.order() == math.prod(len(t) for t in chain.transversals[level:])


def test_search_generators_are_a_strong_generating_set():
    """The chain assembled from the search has the order that Schreier-Sims
    certifies for the same generators.  The full-descent oracle visits the
    nodes and finds the generators it did when Schreier-Sims absorbed each
    one, and the search finds the same base and the same generators level
    by level from no more nodes."""
    rows = []
    nodes = 0
    for n in range(2, 31):
        for ring in enumerate_srings(n):
            if ring.rank <= 2:
                continue
            aut = aut_group(ring)
            assert aut.order() == PermGroup(n, aut.generators).order(), ring.cells
            oracle = run_search(_FullDescentSearch, ring)
            rows.append([n, oracle.nodes, [list(g) for gens in oracle.found for g in gens]])
            search = run_search(_StabilizerSearch, ring)
            assert search.base == oracle.base, ring.cells
            assert search.found == oracle.found, ring.cells
            assert search.nodes <= oracle.nodes, ring.cells
            nodes += search.nodes
    assert len(rows) == 718
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == SEARCH_DIGEST_N30
    assert nodes == SEARCH_NODES_N30


def test_search_falls_back_to_candidates_when_the_aligned_map_fails():
    """Below one on-path candidate of this Z_10 ring the aligned map is
    not an automorphism, and the candidates below it give the one the full
    descent finds."""

    class Recording(_StabilizerSearch):
        fallbacks = 0

        def _first_leaf(self, level, cells, v):
            f = super()._first_leaf(level, cells, v)
            ci = self.target_cells[level]
            child = self._refine(self._individualize(cells, ci, v), ci)
            if f is not None and self._aligned_map(level + 1, child) is None:
                self.fallbacks += 1
            return f

    ring = SRing(10, ((0,), (1, 3, 5, 7, 9), (2, 8), (4, 6)))
    search = run_search(Recording, ring)
    oracle = run_search(_FullDescentSearch, ring)
    assert search.fallbacks == 1
    assert search.base == oracle.base
    assert search.found == oracle.found


def test_budget_error_says_how_far_the_search_got():
    with pytest.raises(BudgetError, match=r"after 2 nodes, at level 2 of base length 4, "
                                          r"automorphisms found: 1$"):
        aut_group(cyclotomic(35, (2,)), node_budget=1)


def catalog_rings(max_n):
    return [ring for n in range(1, max_n + 1) for ring in enumerate_srings(n)]


def test_search_of_a_base_about_n_long_does_not_recurse_per_level():
    """Z_2 wr Z_200 (n = 400) has a base of 199 points and Aut = Z_2 wr Z_200
    of order 2^200 * 200.  The search finds it with the recursion limit 60
    frames above the caller's depth."""
    ring = wreath(group_ring(2), group_ring(200), 400)
    _aut_group_cached.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 60)
    try:
        group = aut_group(ring)
    finally:
        sys.setrecursionlimit(limit)
    assert len(group.chain.base) == 1 + 199
    assert group.order() == 2 ** 200 * 200


# the seed and the number of factor pairs of the wreath-product oracle
WREATH_SEED, WREATH_PAIRS = 22, 32


def wreath_pairs(seed, count, max_n=400):
    """count seeded factor pairs (A, B), each with A wr B, where A.n * B.n
    <= max_n.  The factors come from the catalogs with n <= 24, except
    that in every fourth pair one factor is a wreath drawn before it (the
    left factor, or every eighth pair the right one)."""
    rng = np.random.default_rng(seed)
    pool = [ring for ring in catalog_rings(24) if ring.n > 1]
    made = []
    for i in range(count):
        nested = made if i % 4 == 3 and made else pool
        x = nested[rng.integers(len(nested))]
        fits = [ring for ring in pool if ring.n * x.n <= max_n]
        y = fits[rng.integers(len(fits))]
        a, b = (y, x) if i % 8 == 7 else (x, y)
        ring = wreath(a, b, a.n * b.n)
        if ring.n <= max_n // 2:
            made.append(ring)
        yield a, b, ring, nested is made


def test_wreath_products_match_their_factors():
    """Aut(A wr B) = Aut A wr Aut B: every automorphism permutes the cosets
    of the subgroup A lives on, acts on them as an automorphism of B, and
    between two cosets as one of A.  So |Aut(A wr B)| = |Aut A|^b |Aut B|,
    and A wr B is schurian exactly when A and B are."""
    nested = 0
    for a, b, ring, is_nested in wreath_pairs(WREATH_SEED, WREATH_PAIRS):
        assert aut_group(ring).order() == aut_group(a).order() ** b.n * aut_group(b).order(), \
            (a.cells, b.cells)
        assert is_schurian(ring) == (is_schurian(a) and is_schurian(b)), (a.cells, b.cells)
        nested += is_nested
    assert nested == WREATH_PAIRS // 4


def plus_minus_one_ring(n):
    """Cyc({+-1}, Z_n) for even n, built with the raw constructor."""
    cells = [(0,)] + [(x, n - x) for x in range(1, n // 2)] + [(n // 2,)]
    return SRing(n, tuple(cells))


def test_refinement_leaves_the_basic_sets_as_they_are():
    """The basic sets are an equitable partition, so the search takes them
    as its root partition without refining them: one full row pass splits
    none of them, nor does a row pass with every point a splitter."""
    for ring in catalog_rings(30):
        if ring.rank == ring.n:
            continue
        search = _StabilizerSearch(ring, DEFAULT_NODE_BUDGET)
        root = part_of(ring.cells)
        assert full_row_pass(search, root) is root
        part, splitters = search._row_pass(root, np.arange(ring.n))
        assert part is root and len(splitters) == 0


def assert_search_matches_int64_oracle(cls, rings):
    """The search node for node as the int64 oracle's: the same
    partitions, base, generators and node count.  Every cell of the first
    path is strictly ascending.  Returns the searches."""
    searches = []
    for ring in rings:
        search = run_search(cls, ring)
        oracle = run_search(_Int64RefineSearch, ring)
        assert search.base == oracle.base, ring.cells
        assert [[c.tolist() for c in cells_of(p)] for p in search.p_seq] == \
            [[c.tolist() for c in cells_of(p)] for p in oracle.p_seq], ring.cells
        assert search.found == oracle.found, ring.cells
        assert search.nodes == oracle.nodes, ring.cells
        for p in search.p_seq:
            assert all(np.all(np.diff(c) > 0) for c in cells_of(p)), ring.cells
        searches.append(search)
    return searches


def test_search_matches_the_int64_refinement():
    """Narrow keys and the unrefined root give the oracle's search."""

    class Recording(_StabilizerSearch):
        def __init__(self, ring, node_budget):
            self.widths = set()
            super().__init__(ring, node_budget)

        def _key_dtype(self, C):
            dt = super()._key_dtype(C)
            self.widths.add(dt.name)
            return dt

    rings = [ring for ring in catalog_rings(30) if ring.rank > 2]
    assert len(rings) == 718
    assert plus_minus_one_ring(200) == cyclotomic(200, (-1,))
    rings += [plus_minus_one_ring(200), plus_minus_one_ring(600)]
    # the +-1 rings are discrete after the first column of the color
    # table; these rings of 4 and 3 points per cell go on to row passes
    rings += [cyclotomic(101, (10,)), cyclotomic(601, (24,))]
    widths = {s.n: s.widths for s in assert_search_matches_int64_oracle(Recording, rings)}
    assert widths[200] == widths[600] == set()
    assert widths[101] == {"uint16"}
    # its row passes sort 600 cells' keys: 201 colors times 600 > 2**16
    assert widths[601] == {"uint32"}


class _SplitCheckingSearch(_StabilizerSearch):
    """The search, checking at every individualization that the pass
    from one column of the color table gives the cells of one row pass,
    in their order, and counting the calls in which a cell's new cells
    are not in ascending color to the individualized point."""

    def __init__(self, ring, node_budget):
        self.reorders = 0
        super().__init__(ring, node_budget)

    def _refine(self, part, ci):
        cells = cells_of(part)
        if len(cells) < self.n:
            split = cells_of(self._split_by_point(part, ci)[0])
            assert [c.tolist() for c in split] == \
                [c.tolist() for c in cells_of(full_row_pass(self, part))]
            color = self.rolled[int(cells[ci][0]) + 1][::-1]
            old_cell = np.empty(self.n, dtype=np.int64)
            for i, c in enumerate(cells):
                old_cell[c] = i
            pieces = [(old_cell[c[0]], color[c[0]]) for c in split]
            if any(i == j and a > b for (i, a), (j, b) in zip(pieces, pieces[1:])):
                self.reorders += 1
        return super()._refine(part, ci)


def split_reorders(cls):
    """The reorders counted by the checking search cls over every catalog
    ring with n <= 30 and rank > 2, and over the +-1 rings at n = 200 and
    600."""
    rings = [ring for ring in catalog_rings(30) if ring.rank > 2]
    searches = [run_search(cls, ring) for ring in rings]
    pm1 = [run_search(cls, plus_minus_one_ring(n)) for n in (200, 600)]
    return [sum(s.reorders for s in searches), sum(s.reorders for s in pm1)]


def test_split_by_point_is_one_row_pass():
    """The first pass from the individualized point is exact on every
    catalog ring with n <= 30 and rank > 2 and on the +-1 rings at n = 200
    and 600, and the carry of little-endian keys reorders new cells in
    some calls of each set (2 and 4 calls)."""
    assert min(split_reorders(_SplitCheckingSearch)) > 0


def expected_splitters(old_cuts, part):
    """Oracle: the splitter points of the partition part that a pass made
    from one of cut positions old_cuts, sorted: the points of every new
    cell of an old cell that split, except those of its first largest new
    cell."""
    points, cuts = part
    out, j = [], 0
    for a, b in zip(old_cuts, old_cuts[1:]):
        pieces = []
        while cuts[j] < b:
            pieces.append((cuts[j], cuts[j + 1]))
            j += 1
        if len(pieces) > 1:
            largest = max(pieces, key=lambda piece: piece[1] - piece[0])
            out += [x for c, d in pieces if (c, d) != largest for x in points[c:d].tolist()]
    return sorted(out)


class _SplitterCheckingSearch(_StabilizerSearch):
    """The search, checking that every row pass gives the full-row
    oracle's partition, and that the splitters of every pass (row pass or
    `_split_by_point`) are `expected_splitters`; counts the row passes."""

    def __init__(self, ring, node_budget):
        self.passes = 0
        super().__init__(ring, node_budget)

    def _check_splitters(self, part, new, splitters):
        if new is part:
            assert len(splitters) == 0
        elif splitters is None:
            # no pass follows
            assert len(new[1]) - 1 == self.n
        else:
            assert sorted(splitters.tolist()) == expected_splitters(part[1], new)

    def _split_by_point(self, part, ci):
        new, splitters = super()._split_by_point(part, ci)
        self._check_splitters(part, new, splitters)
        return new, splitters

    def _row_pass(self, part, splitters):
        new, new_splitters = super()._row_pass(part, splitters)
        want = full_row_pass(self, part)
        assert new[1] == want[1] and np.array_equal(new[0], want[0])
        self._check_splitters(part, new, new_splitters)
        self.passes += 1
        return new, new_splitters


def example12_sections(result):
    """The rings of the certificate's sections U = 275 and G/L = 3575/11
    of the Z_3575 family ring, over Z_275 and Z_325."""
    ring, sec = result.ring, result.certificate_section
    return [section_ring(ring, Section(sec.n, sec.u, 1)),
            section_ring(ring, Section(sec.n, sec.n, sec.l))]


def test_row_passes_against_the_splitters_are_full_row_passes(monkeypatch, example12_fixture):
    """With the splitters found at every n, every row pass of the search
    over the catalog rings with n <= 30 and rank > 2 and over the Z_3575
    family's section rings on Z_275 and Z_325 gives the partition of the
    full-row oracle, and every pass's splitters are every new cell of a
    cell it split but one largest.  The catalog searches visit the nodes
    they do by default."""
    monkeypatch.setattr(scheme, "_SPLITTER_MIN_N", 0)
    rings = [ring for ring in catalog_rings(30) if ring.rank > 2]
    searches = [run_search(_SplitterCheckingSearch, ring) for ring in rings]
    assert sum(s.nodes for s in searches) == SEARCH_NODES_N30
    sections = [run_search(_SplitterCheckingSearch, ring)
                for ring in example12_sections(example12_fixture)]
    assert [s.n for s in sections] == [275, 325]
    assert min(s.passes for s in sections) > 0
    assert sum(s.passes for s in searches) > 1000


# key entries that the row passes of the search on the Z_325 section ring
# gather, and that full rows of every point of a non-singleton cell would
GATHERED_Z325, FULL_Z325 = 210_182, 1_118_000


class _GatherCounting(_StabilizerSearch):
    """The search, counting the key entries its row passes gather (short
    rows over the splitters and full rows) and those that the full rows
    of every point of a non-singleton cell would."""

    def __init__(self, ring, node_budget):
        self.gathered = self.full = 0
        super().__init__(ring, node_budget)

    def _row_pass(self, part, *args):
        sizes = np.diff(part[1])
        self.full += int(sizes[sizes > 1].sum()) * self.n
        return super()._row_pass(part, *args)

    def _sorted_keys(self, points, cell_id, window):
        self.gathered += len(points) * self.n
        return super()._sorted_keys(points, cell_id, window)

    def _split_cells(self, rows, splitters, cell_id, buf):
        self.gathered += len(rows) * len(splitters)
        return super()._split_cells(rows, splitters, cell_id, buf)


def test_row_passes_gather_under_a_fifth_of_full_rows(example12_fixture):
    """On the Z_3575 family's section ring over Z_325, the row passes
    gather the short rows over the splitters and the full rows of the
    cells that split: under a fifth of the entries of full rows of every
    point."""
    ring = example12_sections(example12_fixture)[1]
    search = run_search(_GatherCounting, ring)
    assert (search.gathered, search.full) == (GATHERED_Z325, FULL_Z325)
    assert 5 * search.gathered < search.full


def search_record(ring):
    """Base, generators, nodes and first-path cells of the search."""
    search = run_search(_StabilizerSearch, ring)
    return (search.base, search.found, search.nodes,
            [[c.tolist() for c in cells_of(p)] for p in search.p_seq])


def test_search_is_the_same_on_a_big_endian_host(monkeypatch):
    """Key rows are little-endian on every host, so with sys.byteorder
    "big" the search gives the same base, generators, nodes and first-path
    cells on every catalog ring with n <= 30 and rank > 2, the +-1 rings
    at n = 200 and 600, and the rings of row passes Cyc(<10>, Z_101) and
    Cyc(<24>, Z_601)."""
    rings = [ring for ring in catalog_rings(30) if ring.rank > 2]
    rings += [plus_minus_one_ring(200), plus_minus_one_ring(600),
              cyclotomic(101, (10,)), cyclotomic(601, (24,))]
    records = [search_record(ring) for ring in rings]
    monkeypatch.setattr(sys, "byteorder", "big")
    assert [search_record(ring) for ring in rings] == records


def test_search_in_small_blocks_matches_the_int64_refinement(monkeypatch):
    """With blocks of 64 entries, at most 21 rows for these rings (3 <= n
    <= 30), the keys of a cell come in several blocks, and with the
    splitters found at every n, so do the short rows of some passes; the
    search is still the oracle's."""

    class Recording(_StabilizerSearch):
        short_blocks = 0

        def _split_cells(self, rows, splitters, cell_id, buf):
            self.short_blocks = max(self.short_blocks, len(rows) * len(splitters) // 64)
            return super()._split_cells(rows, splitters, cell_id, buf)

    monkeypatch.setattr(scheme, "_BLOCK_ENTRIES", 64)
    monkeypatch.setattr(scheme, "_SPLITTER_MIN_N", 0)
    rings = [ring for ring in catalog_rings(30) if ring.rank > 2]
    searches = assert_search_matches_int64_oracle(Recording, rings)
    assert any(len(c) > 64 // s.n for s in searches for p in s.p_seq for c in cells_of(p))
    assert max(s.short_blocks for s in searches) > 1


def test_blockwise_color_check_matches_the_full_table(monkeypatch):
    """_preserves_colors, a block of rows at a time, agrees with the full
    color table on automorphisms and on random permutations.  A failing
    pair of rows g, h fails in both rows, since D[h, g] is the basic set
    inverse to D[g, h]; the non-injective map on rank2(n) that sends n - 1
    to n - 2 fails only in rows n - 2 and n - 1, so only the last block
    sees it."""
    monkeypatch.setattr(scheme, "_BLOCK_ENTRIES", 64)
    rng = np.random.default_rng(0)
    checked = 0
    for ring in catalog_rings(16):
        n = ring.n
        D, rolled = color_matrix(ring), rolled_cells(ring, np.uint16)
        maps = [np.array(g) for g in aut_group(ring).generators]
        maps += [rng.permutation(n) for _ in range(3)]
        for f in maps:
            assert _preserves_colors(rolled, f) == np.array_equal(D[f][:, f], D)
            checked += 1
    assert checked > 1000
    n = 16
    D, rolled = color_matrix(rank2(n)), rolled_cells(rank2(n), np.uint16)
    f = np.arange(n)
    f[n - 1] = n - 2
    bad_rows = np.flatnonzero((D[f][:, f] != D).any(axis=1)).tolist()
    step = 64 // n
    assert bad_rows == [n - 2, n - 1] and (n - 2) // step == (n - 1) // step == n // step - 1
    assert not _preserves_colors(rolled, f)
    assert _preserves_colors(rolled, np.arange(n))


def decoys(f):
    """Non-affine maps that agree with the affine map f at 0, 1, 2, n // 2
    and n - 1: f with one other point moved on by one, and f with the
    images of two other points swapped when they differ."""
    n = len(f)
    free = [x for x in range(3, n - 1) if x != n // 2]
    if len(free) < 2:
        return []
    x, y = free[0], free[-1]
    bumped = f.copy()
    bumped[x] = (f[x] + 1) % n
    out = [bumped]
    if f[x] != f[y]:
        swapped = f.copy()
        swapped[[x, y]] = f[[y, x]]
        out.append(swapped)
    return out


def test_affine_color_check_matches_the_full_table():
    """_preserves_colors agrees with the full color table, over every
    catalog ring with n <= 30, on x -> a * x and x -> a * x + a + 1 for
    every a, unit or not, on every translation, and on decoys of each
    that agree with it where the pre-test looks."""
    seen = {"multiplier kept": 0, "multiplier broken": 0, "non-unit": 0,
            "decoy of a kept map": 0}
    for ring in catalog_rings(30):
        n = ring.n
        D, rolled = color_matrix(ring), rolled_cells(ring, np.uint16)
        x = np.arange(n)
        maps = [(a, (a * x + c) % n) for a in range(n) for c in {0, (a + 1) % n}]
        maps += [(1, (x + c) % n) for c in range(n)]
        for a, f in maps:
            kept = np.array_equal(D[f][:, f], D)
            assert _preserves_colors(rolled, f) == kept, (ring.cells, f)
            if math.gcd(a, n) != 1:
                assert not kept
                seen["non-unit"] += 1
            elif a != 1:
                seen["multiplier kept" if kept else "multiplier broken"] += 1
            for g in decoys(f):
                assert scheme._affine(g) is None
                assert _preserves_colors(rolled, g) == np.array_equal(D[g][:, g], D)
                seen["decoy of a kept map"] += kept
    assert min(seen.values()) > 0, seen


def test_schreier_trees_match_the_eager_transversals():
    """Each level's Schreier tree has the eager dict's points in its order
    and the same pairs (u, u^-1)."""
    for ring in catalog_rings(30):
        if ring.rank <= 2:
            continue
        search = run_search(_StabilizerSearch, ring)
        for level in range(len(search.base)):
            tree = search._transversal(level)
            eager = eager_transversal(search, level)
            assert list(tree) == list(eager), ring.cells
            assert list(tree.items()) == list(eager.items()), ring.cells
    search = run_search(_StabilizerSearch, cyclotomic(1999, (9,)))
    tree = search._transversal(0)
    eager = eager_transversal(search, 0)
    assert list(tree) == list(eager)
    keys = list(eager)
    for pt in keys[::97] + keys[-1:]:
        assert tree[pt] == eager[pt]
        assert pt in tree
    assert -1 not in tree and tree.get(-1) is None


def test_elements_read_each_level_once():
    """elements() enumerates Aut as a chain of eager dicts does, for every
    catalog ring with n <= 12 whose group has at most 10**5 elements (all
    but Sym(n) for n >= 9 and one group of order 1036800), and reads each
    level's representatives once."""

    class Counting(Mapping):
        def __init__(self, trans):
            self.trans = trans
            self.reads = 0

        def __getitem__(self, pt):
            self.reads += 1
            return self.trans[pt]

        def __len__(self):
            return len(self.trans)

        def __iter__(self):
            return iter(self.trans)

    compared = 0
    for ring in catalog_rings(12):
        aut = aut_group(ring)
        if aut.order() > 10 ** 5:
            continue
        chain = aut.chain
        levels = list(zip(chain.base, chain.transversals, chain.gen_lists))
        eager = StabChain.from_levels(ring.n, [(b, dict(t.items()), g) for b, t, g in levels])
        counted = [Counting(t) for _, t, _ in levels]
        counting = StabChain.from_levels(
            ring.n, [(b, t, g) for (b, _, g), t in zip(levels, counted)])
        elements = list(aut.elements())
        assert len(elements) == aut.order()
        assert elements == list(eager.elements()) == list(counting.elements()), ring.cells
        assert [t.reads for t in counted] == [len(t) for t in counted]
        compared += 1
    assert compared == 79


def test_search_set_up_holds_one_n_vector_per_level():
    """The first path of Z_2 wr Z_200 (n = 400, base length 199) keeps one
    partition per level, points in cell order and the cut positions: the
    search's set-up retains less than 18 bytes per point per level."""
    ring = wreath(group_ring(2), group_ring(200), 400)
    tracemalloc.start()
    try:
        search = _StabilizerSearch(ring, DEFAULT_NODE_BUDGET)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(search.base) == 199
    assert retained < 18 * ring.n * len(search.base)


def test_aut_memory_is_bounded():
    n = 2000
    ring = plus_minus_one_ring(n)
    _aut_group_cached.cache_clear()
    tracemalloc.start()
    try:
        assert aut_group(ring).order() == 2 * n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * n * n


@pytest.mark.parametrize("ring, order", [(plus_minus_one_ring(5000), 2 * 5000),
                                         (cyclotomic(1999, (9,)), 1999 * 999)],
                         ids=["pm1-5000", "c9-1999"])
def test_aut_memory_is_linear(ring, order):
    """No color table and no dense transversal: Aut of Cyc({+-1}, Z_5000)
    and of the Paley-type Cyc(<9>, Z_1999) peak under 16 MB, and the group
    holds under 2 MB while it is alive."""
    _aut_group_cached.cache_clear()
    tracemalloc.start()
    try:
        group = aut_group(ring)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert group.order() == order
    assert peak < 16 * 2 ** 20
    assert retained < 2 * 2 ** 20
