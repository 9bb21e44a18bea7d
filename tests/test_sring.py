import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circulant import (
    DomainError,
    Example12Params,
    Section,
    classify,
    cyclotomic,
    example12,
    generalized_wreath,
    group_ring,
    radical,
    radical_of_set,
    rank2,
    section_ring,
    subgroup_lattice,
    tensor,
    validate,
    wreath,
)
from circulant import sring
from circulant.zn import (
    MAX_MODULUS, divisors, multiplicative_closure, multiplicative_order, unit_group,
    unit_orbits,
)
from circulant.sring import SRing, canonical_partition


# (n, partition, message) for each axiom validate checks
BAD_PARTITIONS = [
    (4, [[0], [1, 3], [2], []], "empty cell"),
    (4, [], "element 0 not covered"),
    (4, [[0], [1, 3], [2, 4]], "element 4 out of range for Z_4"),
    (4, [[0], [-1, 1], [2, 3]], "element -1 out of range for Z_4"),
    (4, [[0], [1, 3], [2, 3]], "element 3 covered twice"),
    (3, [[0], [1], [1]], "element 1 covered twice"),
    (4, [[0], [1, 3]], "element 2 not covered"),
    (4, [[0, 2], [1, 3]], "identity not singleton: the cell of 0 must be {0}"),
    (4, [[0], [1], [2, 3]], "not inverse-closed: -{1} is not a cell"),
    (8, [[0], [1, 7], [2, 3, 5, 6], [4]], "structure constants not constant on cell "
     "(X=cell1, Y=cell1, cell2): z=3 gets 0, z=2 gets 1"),
]


def test_validate_examples():
    ring = validate(4, [[0], [1, 3], [2]])
    assert ring.cells == ((0,), (1, 3), (2,))
    assert validate(5, [[x] for x in range(5)]).rank == 5
    for n, partition, message in BAD_PARTITIONS:
        assert validate_message(n, partition) == message, (n, partition)


def pairwise_check(n, partition):
    """Oracle for the structure-constant check: one bincount per pair of
    cells (X, Y), X <= Y in canonical order.  The DomainError message
    validate raises for the partition, or None if it is an S-ring; the
    other axioms must hold."""
    cells = canonical_partition(partition)
    cell_id = np.zeros(n, dtype=np.int64)
    for k, cell in enumerate(cells):
        cell_id[list(cell)] = k
    first = np.array([cell[0] for cell in cells], dtype=np.int64)
    arrays = [np.array(cell, dtype=np.int64) for cell in cells]
    for i, X in enumerate(arrays):
        for j in range(i, len(arrays)):
            counts = np.bincount((X[:, None] + arrays[j][None, :]).ravel() % n, minlength=n)
            expected = counts[first][cell_id]
            if not np.array_equal(counts, expected):
                z = int(np.nonzero(counts != expected)[0][0])
                k = int(cell_id[z])
                return ("structure constants not constant on cell "
                        f"(X=cell{i}, Y=cell{j}, cell{k}): z={z} gets {int(counts[z])}, "
                        f"z={int(first[k])} gets {int(counts[first[k]])}")
    return None


def validate_message(n, partition):
    try:
        validate(n, partition)
    except DomainError as exc:
        return str(exc)
    return None


def merged_cells(ring, rng, merges):
    """The cells of ring with random pairs of non-identity cells merged,
    and their negations merged alike, so the partition stays
    inverse-closed and only the structure constants can fail."""
    n = ring.n
    parent = list(range(ring.rank))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    neg = [ring.cell_of[(-cell[0]) % n] for cell in ring.cells]
    for _ in range(merges):
        if ring.rank < 3:
            break
        i, j = rng.sample(range(1, ring.rank), 2)
        parent[root(i)] = root(j)
        parent[root(neg[i])] = root(neg[j])
    groups = {}
    for i, cell in enumerate(ring.cells):
        groups.setdefault(root(i), []).extend(cell)
    return list(groups.values())


def test_structure_check_matches_pairwise_oracle_on_catalogs():
    from circulant import enumerate_srings

    rings = [ring for n in range(1, 49) for ring in enumerate_srings(n)]
    for ring in rings:
        assert pairwise_check(ring.n, ring.cells) is None
    rng = random.Random(20)
    invalid = 0
    for _ in range(1200):
        ring = rng.choice(rings)
        cells = merged_cells(ring, rng, rng.randint(1, 2))
        expected = pairwise_check(ring.n, cells)
        assert validate_message(ring.n, cells) == expected, (ring.n, cells)
        invalid += expected is not None
    assert invalid >= 800


@given(st.integers(min_value=1, max_value=30), st.randoms(use_true_random=False),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_structure_check_matches_pairwise_oracle(n, rng, merges):
    from circulant import enumerate_srings

    ring = rng.choice(enumerate_srings(n).entries)
    cells = merged_cells(ring, rng, merges)
    assert validate_message(n, cells) == pairwise_check(n, cells)


def test_validate_accepts_every_catalog_ring():
    # the closure builds its rings by construction and checks none, so the
    # axioms of every catalog ring are checked here
    from circulant import enumerate_srings

    for n in range(1, 73):
        for ring in enumerate_srings(n):
            # cells listed in reverse, so validate canonicalizes them
            assert validate(n, ring.cells[::-1]) == ring


def test_structure_check_matches_pairwise_oracle_on_large_rings():
    # a large ring is checked a chunk of rows at a time, and a rank above
    # 181 needs int32 entries
    cells = [[x] for x in range(200) if x not in (1, 199)] + [[1, 199]]
    expected = pairwise_check(200, cells)
    assert expected is not None
    assert validate_message(200, cells) == expected
    squares = sorted({x * x % 2017 for x in range(1, 2017)})
    cells = [[0], squares, sorted(set(range(1, 2017)) - set(squares))]
    assert pairwise_check(2017, cells) is None
    assert validate(2017, cells).rank == 3
    cells = [[0], [5, 1196], [x for x in range(1, 1201) if x not in (5, 1196)]]
    expected = pairwise_check(1201, cells)
    assert expected is not None and "X=cell1" in expected
    assert validate_message(1201, cells) == expected


def large_rings(example12_fixture, rng):
    """Large rings: the Z_325 factor of example12, and rank-2 and
    cyclotomic rings at random n in 257..700."""
    # the cells of group_ring(300) above 150 have their least points there
    rings = [group_ring(300), example12_fixture.right]
    for n in rng.sample(range(257, 701), 8):
        units = unit_group(n)
        rings += [rank2(n), cyclotomic(n, (rng.choice(units),)),
                  cyclotomic(n, tuple(rng.sample(units, 2)))]
    # Cyc(<g>, Z_307), g of order 3, has cells of three points above n/2
    g = next(u for u in unit_group(307) if u > 1 and pow(u, 3, 307) == 1)
    rings.append(cyclotomic(307, (g,)))
    return rings


def test_structure_check_beyond_a_slab_matches_pairwise_oracle(example12_fixture, control_ring):
    # the rows of a large ring, some of whose cells have every point above
    # n/2, give the verdict and the message of the pairwise check
    rng = random.Random(23)
    rings = large_rings(example12_fixture, rng)
    assert any(cell[0] > 307 // 2 and len(cell) == 3 for cell in rings[-1].cells)
    assert example12_fixture.right.n == 325
    invalid = 0
    for ring in rings:
        for merges in (1, 2, 3):
            cells = merged_cells(ring, rng, merges)
            expected = pairwise_check(ring.n, cells)
            assert validate_message(ring.n, cells) == expected, (ring.n, cells)
            invalid += expected is not None
    assert invalid >= 40
    for ring in (example12_fixture.ring, control_ring):
        for merges in (1, 1, 2, 2):
            cells = merged_cells(ring, rng, merges)
            expected = pairwise_check(ring.n, cells)
            assert expected is not None
            assert validate_message(ring.n, cells) == expected


def test_structure_check_beyond_a_slab_sees_every_chunk():
    # the counts of {200, 1001} + {200, 1001} differ only at z = 400 and
    # -400 = 801: past n/4, and beyond the first chunk of rows
    n = 1201
    cells = [[0], [200, 1001], [x for x in range(1, n) if x not in (200, 1001)]]
    expected = pairwise_check(n, cells)
    assert "z=400" in expected
    assert validate_message(n, cells) == expected


def test_structure_check_beyond_a_slab_compares_rows_across_chunks(
        monkeypatch, example12_fixture):
    # in chunks of three rows, or of two for n above 500, most cells
    # straddle a chunk boundary, where a row is compared with the last row
    # of the chunk before
    monkeypatch.setattr(sring, "_CHECK_ENTRIES", 1000)
    rng = random.Random(27)
    invalid = 0
    rings = large_rings(example12_fixture, rng)
    assert {2 * ring.n > 1000 for ring in rings} == {False, True}
    for ring in rings:
        for merges in (1, 2, 3):
            cells = merged_cells(ring, rng, merges)
            expected = pairwise_check(ring.n, cells)
            assert validate_message(ring.n, cells) == expected, (ring.n, cells)
            invalid += expected is not None
    assert invalid >= 40


def test_structure_check_beyond_a_slab_returns_at_once_for_rank_two(monkeypatch):
    # a partition of rank 2 that passes the other axioms is {0} and the
    # rest, whose counts are constant, so rank2(3000) builds no rows
    failing_cell, passes = sring._failing_cell, []

    def spy(ring):
        passes.append(ring)
        return failing_cell(ring)

    monkeypatch.setattr(sring, "_failing_cell", spy)
    assert validate(3000, [[0], list(range(1, 3000))]) == rank2(3000)
    assert passes == []
    # a failure is worded by the least failing cell that one pass of rows
    # finds, and its first Y
    n = 1201
    cells = [[0], [1, n - 1], list(range(2, n - 1))]
    expected = pairwise_check(n, cells)
    assert expected is not None and "X=cell1" in expected
    assert validate_message(n, cells) == expected
    assert len(passes) == 1


@pytest.fixture(scope="module")
def control_ring():
    """The example12 --equal ring over Z_3575, the negative control."""
    return example12(Example12Params().negative_control()).ring


def generator_of_order(n, order):
    return next(u for u in unit_group(n) if multiplicative_order(n, u) == order)


def test_validate_memory_is_bounded(example12_fixture, control_ring):
    # no temporary grows with n or with cell size (1001 points a cell for
    # Cyc(<g>, Z_2003)): a few MB at n in the thousands
    g = generator_of_order(2003, 1001)
    partitions = [(3000, [[0], list(range(1, 3000))]), (2000, unit_orbits(2000, (-1,))),
                  (3575, example12_fixture.ring.cells), (3575, control_ring.cells),
                  (2003, unit_orbits(2003, (g,)))]
    for n, partition in partitions:
        tracemalloc.start()
        try:
            validate(n, partition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_validate_canonicalizes():
    a = validate(4, [[2], [3, 1], [0]])
    b = validate(4, [[0], [1, 3], [2]])
    assert a == b and hash(a) == hash(b)


@given(st.integers(min_value=2, max_value=30), st.randoms())
@settings(max_examples=40)
def test_canonical_form_order_insensitive(n, rng):
    base = cyclotomic(n, tuple(unit_group(n)))
    cells = [list(c) for c in base.cells]
    for c in cells:
        rng.shuffle(c)
    rng.shuffle(cells)
    assert validate(n, cells) == base


def test_cyclotomic_examples():
    assert cyclotomic(8, (3,)).cells == ((0,), (1, 3), (2, 6), (4,), (5, 7))
    assert cyclotomic(7, (1,)) == group_ring(7)
    assert cyclotomic(11, tuple(unit_group(11))) == rank2(11)


def test_tensor_examples():
    assert tensor(group_ring(2), group_ring(3)) == group_ring(6)
    t = tensor(rank2(3), rank2(5))
    assert t.rank == 4 and sorted(len(c) for c in t.cells) == [1, 2, 4, 8]
    a = cyclotomic(8, (3,))
    assert tensor(a, group_ring(1)) == a
    with pytest.raises(DomainError):
        tensor(rank2(4), rank2(6))
    # coprime factors whose product is above the modulus bound
    assert 317 * 331 > MAX_MODULUS
    with pytest.raises(DomainError, match=f"modulus {317 * 331} exceeds the configured limit"):
        tensor(rank2(317), rank2(331))


def test_tensor_rank_multiplicative():
    for a, b in [(cyclotomic(8, (3,)), rank2(3)), (group_ring(4), rank2(9))]:
        assert tensor(a, b).rank == a.rank * b.rank


def test_generalized_wreath_examples(z9_fixture):
    w = wreath(group_ring(2), group_ring(2), 4)
    assert w.cells == ((0,), (1, 3), (2,))
    assert z9_fixture.cells == ((0,), (1, 2, 4, 5, 7, 8), (3, 6))
    # degenerate G/1 section
    a = cyclotomic(8, (3,))
    assert generalized_wreath(a, a, Section(8, 8, 1)) == a
    # section mismatch errors: ZZ_3 quotient vs rank-2 restriction on U/L
    with pytest.raises(DomainError, match="section rings differ"):
        generalized_wreath(group_ring(9), cyclotomic(9, (2,)), Section(27, 9, 3))


def test_generalized_wreath_round_trip(z9_fixture):
    a1, a2 = rank2(3), rank2(3)
    assert section_ring(z9_fixture, Section(9, 3, 1)) == a1
    assert section_ring(z9_fixture, Section(9, 9, 3)) == a2
    left = cyclotomic(9, (2,))
    right = cyclotomic(3, (2,))
    ring = generalized_wreath(left, right, Section(27, 9, 9))
    assert section_ring(ring, Section(27, 9, 1)) == left
    assert section_ring(ring, Section(27, 27, 9)) == right


def test_section_ring_examples(z9_fixture):
    a = cyclotomic(8, (3,))
    assert section_ring(a, Section(8, 8, 2)).cells == ((0,), (1, 3), (2,))
    assert section_ring(z9_fixture, Section(9, 3, 1)) == rank2(3)
    assert section_ring(a, Section(8, 8, 1)) == a
    with pytest.raises(DomainError, match="not an A-section"):
        section_ring(rank2(9), Section(9, 3, 1))


@pytest.mark.parametrize("cells", [((0,), (1,), (2, 4, 5), (3,)),
                                   ((0,), (1, 2), (3,), (4,), (5,))])
def test_section_ring_refuses_images_that_are_no_partition(cells):
    # raw partitions of Z_6 that are no S-rings, with L = {0, 3} a union of
    # cells: the images of their cells mod 3 overlap ({1} and {1, 2}, or
    # {1, 2}, {1} and {2}), so they form no ring on G/L
    ring = SRing(6, cells)
    assert subgroup_lattice(ring) == (1, 2, 6)
    with pytest.raises(DomainError, match="section images of basic sets do not form a partition"):
        section_ring(ring, Section(6, 6, 2))
    # as a left factor its quotient row by L is [0, 1, 1], that of a
    # right factor's ring on U/L, yet it has no ring on U/L to share
    right = cyclotomic(6, (5,))
    with pytest.raises(DomainError, match="section images of basic sets do not form a partition"):
        generalized_wreath(ring, right, Section(12, 6, 2))


@pytest.mark.parametrize("ring", [rank2(256), cyclotomic(256, (3,)), rank2(65536)],
                         ids=["rank2-256", "cyc3-256", "rank2-65536"])
def test_rows_at_moduli_that_fill_their_dtype(ring):
    # at n = 256 and n = 65536 the rows of Z_n reach the top of a narrow
    # dtype, while the restriction to the trivial subgroup divides by n and
    # a product over U = 1 multiplies by it
    from oracles import generalized_wreath_partition, lattice, least_points, section_partition
    from circulant.structure import proj_classes

    n = ring.n
    assert np.array_equal(ring.least_points, least_points(n, ring.cells))
    assert subgroup_lattice(ring) == lattice(ring)
    for u in lattice(ring):
        for l in divisors(u):
            if l in lattice(ring):
                assert section_ring(ring, Section(n, u, l)).cells == section_partition(
                    ring, Section(n, u, l))
    for cl in proj_classes(ring):
        assert cl.rank == len(section_partition(ring, cl.s_min))
    trivial = Section(n, 1, 1)
    assert wreath(group_ring(1), ring, n).cells == generalized_wreath_partition(
        group_ring(1), ring, trivial) == ring.cells


def test_tensor_section_compatibility():
    a1, a2 = cyclotomic(5, (2,)), cyclotomic(8, (3,))
    t = tensor(a1, a2)
    assert section_ring(t, Section(40, 5, 1)) == a1
    assert section_ring(t, Section(40, 8, 1)) == a2
    assert section_ring(t, Section(40, 40, 8)) == a1
    assert section_ring(t, Section(40, 40, 5)) == a2


def test_cyclotomic_sections_are_cyclotomic():
    # section of Cyc(K, n) is Cyc(image of K, u/l)
    for n, gens in [(16, (3,)), (24, (5, 7)), (45, (2,))]:
        ring = cyclotomic(n, gens)
        for u in subgroup_lattice(ring):
            for l in divisors(u):
                if l not in subgroup_lattice(ring):
                    continue
                sec = Section(n, u, l)
                image = tuple(sorted({g % sec.order for g in
                                      multiplicative_closure(n, gens)}))
                assert section_ring(ring, sec) == cyclotomic(sec.order, image)


def test_radical_examples(z9_fixture):
    assert radical_of_set(6, {1, 3, 5}) == 3
    assert radical_of_set(6, {0}) == 1
    assert radical_of_set(6, set(range(6))) == 6
    assert radical(z9_fixture) == 3
    assert radical(cyclotomic(8, (3,))) == 1
    assert radical(group_ring(12)) == 1


def test_radical_of_set_oracle():
    # brute force: largest divisor d whose subgroup stabilizes X, and the
    # number of g with X + g = X
    from oracles import subgroup_elements

    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 61)
        xs = set(rng.sample(range(n), rng.randrange(1, n + 1)))
        best = 1
        for d in divisors(n):
            sub = subgroup_elements(n, d)
            if all({(x + g) % n for g in sub} <= xs for x in xs):
                best = max(best, d)
        stab = sum({(x + g) % n for x in xs} == xs for g in range(n))
        assert radical_of_set(n, xs) == best == stab, (n, sorted(xs))


def test_subgroup_lattice_examples(z9_fixture):
    assert subgroup_lattice(group_ring(12)) == divisors(12)
    assert subgroup_lattice(rank2(7)) == (1, 7)
    assert subgroup_lattice(z9_fixture) == (1, 3, 9)


def test_lattice_closed_under_gcd_lcm():
    from math import gcd

    for ring in [cyclotomic(24, (7,)), cyclotomic(36, (5,)), rank2(30)]:
        lat = subgroup_lattice(ring)
        assert 1 in lat and ring.n in lat
        for a in lat:
            for b in lat:
                assert gcd(a, b) in lat and a * b // gcd(a, b) in lat


def test_classify_examples(z9_fixture):
    assert classify(rank2(9)).primitive
    flags = classify(z9_fixture)
    assert (3, 3) in flags.proper_gwp_sections
    full = classify(group_ring(10))
    assert full.trivial_radical and full.dense


def test_radical_iff_proper_gwp():
    # nontrivial radical exactly when some proper section condition holds
    from circulant import brute_force_srings

    for n in range(2, 13):
        for ring in brute_force_srings(n):
            flags = classify(ring)
            has_proper = bool(flags.proper_gwp_sections)
            assert (radical(ring) > 1) == has_proper, ring.cells


def test_monotonicity_of_lattice():
    from circulant import brute_force_srings

    entries = list(brute_force_srings(12))
    for a in entries:
        for b in entries:
            if b.refines(a):
                assert set(subgroup_lattice(a)) <= set(subgroup_lattice(b))


def test_internal_product_partition_matches_tensor():
    # the factors embedded as the subgroups of Z_st of their orders,
    # x1 * t + x2 * s, against tensor's CRT embedding: the two differ by a
    # unit multiplier on each factor, which fixes every S-ring (Schur)
    from math import gcd

    from circulant import enumerate_srings

    pairs = 0
    for s in range(1, 73):
        for t in range(1, 72 // s + 1):
            if gcd(s, t) != 1:
                continue
            m = s * t
            for a in enumerate_srings(s):
                for b in enumerate_srings(t):
                    cells = canonical_partition(
                        [(x1 * t + x2 * s) % m for x1 in X1 for x2 in X2]
                        for X1 in a.cells for X2 in b.cells)
                    assert cells == tensor(a, b).cells, (a.cells, b.cells)
                    pairs += 1
    assert pairs == 20171  # 2,344 with neither factor Z_1


def test_json_round_trip(z9_fixture):
    import json

    from circulant.sring import SRing

    text = json.dumps({"n": z9_fixture.n, "basic_sets": [list(c) for c in z9_fixture.cells]})
    assert SRing.from_json(text) == z9_fixture
