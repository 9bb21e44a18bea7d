import hashlib
import json
import math

import pytest

from circulant import (
    BudgetError,
    DomainError,
    Example12Params,
    Section,
    brute_force_srings,
    cyclotomic,
    enumerate_srings,
    example12,
    generalized_wreath,
    group_ring,
    radical,
    rank2,
    schurity_sweep,
    section_ring,
    subgroup_lattice,
    validate,
)
from circulant.sring import canonical_partition
from circulant.zn import divisors, multiplicative_order, unit_group
from oracles import (
    generalized_wreath_partition,
    lattice,
    least_points,
    row_layer_mismatches,
    section_partition,
    tensor_partition,
)


def test_brute_force_counts():
    assert len(brute_force_srings(2)) == 1
    assert len(brute_force_srings(4)) == 3
    cells4 = {r.cells for r in brute_force_srings(4)}
    assert ((0,), (1, 3), (2,)) in cells4
    # prime case: one ring per divisor of p-1
    for p in (5, 7, 11, 13):
        assert len(brute_force_srings(p)) == len(divisors(p - 1))
    with pytest.raises(BudgetError):
        brute_force_srings(14)


def test_oracle_equivalence_small():
    for n in range(2, 11):
        assert set(enumerate_srings(n).entries) == set(brute_force_srings(n).entries)


def test_enumerate_contains_fixture(z9_fixture):
    assert z9_fixture in enumerate_srings(9)
    assert rank2(9) in enumerate_srings(9)
    assert group_ring(9) in enumerate_srings(9)


def test_catalog_closed_under_multipliers():
    # Schur's theorem on multipliers: x -> m*x for a unit m fixes every
    # S-ring over Z_n, so each ring is its own image, not only some ring of
    # the catalog
    for n in range(1, 73):
        for ring in enumerate_srings(n):
            for m in unit_group(n):
                image = canonical_partition(
                    [x * m % n for x in cell] for cell in ring.cells)
                assert image == ring.cells, (n, m, ring.cells)


def test_enumerate_budget():
    with pytest.raises(BudgetError):
        enumerate_srings(300)


def test_schurity_sweep_small():
    reports = schurity_sweep([4, 9, 15])
    for rep in reports:
        assert rep.schurian == rep.total
        assert not rep.nonschurian_entries
    assert reports[0].total == 3


def test_example12_element_orders():
    # independent modular-order checks for the published minimal example
    assert multiplicative_order(25, 2) == 20
    assert multiplicative_order(11, 3) == 5
    assert multiplicative_order(13, 5) == 4
    assert multiplicative_order(13, 8) == 4


def test_example12_construction():
    res = example12(Example12Params())
    ring = res.ring
    assert ring.n == 3575
    assert subgroup_lattice(ring) == (1, 5, 11, 25, 55, 143, 275, 715, 3575)
    # the two factors agree with Cyc(d,p) wr Cyc(d,p) on Z_{p^2}
    double = generalized_wreath(cyclotomic(5, (2,)), cyclotomic(5, (2,)),
                                Section(25, 5, 5))
    assert section_ring(res.left, Section(275, 275, 11)) == double
    assert section_ring(res.right, Section(325, 25, 1)) == double
    # generators as in the published instance
    assert res.m_generator % 25 == 2 and res.m_generator % 11 == 3
    assert res.m1_generator % 5 == 2 and res.m1_generator % 13 == 5
    assert res.m2_generator % 5 == 2 and res.m2_generator % 13 == 8


def test_example12_products_pass_validate(example12_fixture):
    # example12 builds its factors and the product by construction; the
    # axioms of each are checked here, for the family and the control
    control = example12(Example12Params().negative_control())
    for res in (example12_fixture, control):
        for ring in (res.left, res.right, res.ring):
            assert validate(ring.n, ring.cells) == ring


def test_example12_parameter_validation():
    with pytest.raises(DomainError):
        Example12Params(p=4, p3=11, p4=13, d=4)
    with pytest.raises(DomainError):
        Example12Params(p=5, p3=7, p4=13, d=4)  # 5 does not divide 6
    with pytest.raises(DomainError):
        Example12Params(p=5, p3=11, p4=13, d=3)  # 3 does not divide 4
    with pytest.raises(DomainError):
        example12(Example12Params(phi_choice=(2, 5)))  # 2 has order 12 mod 13
    for d in (0, -4):
        with pytest.raises(DomainError, match=f"d={d} must be a positive integer"):
            Example12Params(d=d)


def test_example12_negative_control_takes_the_least_image_twice():
    # 5 is the least unit of order 4 mod 13 (8 is the other)
    assert Example12Params().negative_control() == Example12Params(phi_choice=(5, 5))
    assert Example12Params(d=2).negative_control().phi_choice == (12, 12)


def test_example12_structural_facts():
    # structural facts of the non-schurian family ring: the only section
    # condition satisfied non-trivially is (275, 11); |L| and |G/U| are
    # prime, |S| = 25 != 4, the section ring is a proper wreath product,
    # the factors are not, and they are not both normal.
    from circulant.catalog import _nonschurian_structure_checks
    from circulant.sring import classify

    res = example12(Example12Params())
    flags = classify(res.ring)
    assert flags.proper_gwp_sections == ((275, 11),)
    checks = _nonschurian_structure_checks(res.ring)
    assert checks and all(line.startswith("ok") for line in checks)


def test_example12_second_family():
    # distinct primes with common divisor d >= 3 of p-1 and p4-1
    params = Example12Params(p=7, p3=29, p4=13, d=3)
    res = example12(params)
    assert res.ring.n == 7 * 7 * 29 * 13
    assert radical(res.ring) > 1


def test_prime_catalog_is_cyclotomic():
    from circulant.catalog import _unit_subgroups

    for p in (5, 7, 11, 13):
        entries = set(enumerate_srings(p).entries)
        expected = {cyclotomic(p, tuple(sorted(k))) for k in _unit_subgroups(p)}
        assert entries == expected


def test_unit_subgroups_match_the_closure_oracle():
    # oracle: the cyclic subgroups and each join closed by breadth-first
    # search over products
    from circulant.catalog import ENUMERATE_MAX_N, _unit_subgroups
    from circulant.zn import multiplicative_closure

    def closure_subgroups(n):
        if n <= 2:
            return [frozenset({1 % n})]
        cyclic = {multiplicative_closure(n, (u,)) for u in unit_group(n)}
        subgroups, frontier = set(cyclic), set(cyclic)
        while frontier:
            new = set()
            for a in frontier:
                for b in cyclic:
                    joined = multiplicative_closure(n, tuple(a | b))
                    if joined not in subgroups:
                        subgroups.add(joined)
                        new.add(joined)
            frontier = new
        return sorted(subgroups, key=lambda s: (len(s), sorted(s)))

    for n in range(1, ENUMERATE_MAX_N + 1):
        assert _unit_subgroups(n) == closure_subgroups(n), n


def test_catalogs_up_to_72_are_pinned():
    # sha256 of (n, cells, provenance) for n = 1..72, recorded before the
    # closure began to validate each distinct ring only once
    digest = hashlib.sha256()
    for n in range(1, 73):
        cat = enumerate_srings(n)
        digest.update(json.dumps([n, [r.cells for r in cat], list(cat.provenance)]).encode())
    assert digest.hexdigest().startswith("12bf3462f2c9433c")


def oracle_gwp_pairs(n):
    """The closure's pairing by section rings: for each proper section U/L
    and each left factor i over Z_u, (sec, i, js) with js the right factors
    over Z_{n/l} that induce the same ring on U/L, found with the set
    lattice and compared by the set projections of the oracles."""
    for u in divisors(n):
        if u == n:
            continue
        for l in divisors(u):
            if l == 1:
                continue
            sec = Section(n, u, l)
            buckets = {}
            for j, right in enumerate(enumerate_srings(n // l).entries):
                if u // l in lattice(right):
                    key = section_partition(right, Section(n // l, u // l, 1))
                    buckets.setdefault(key, []).append(j)
            for i, left in enumerate(enumerate_srings(u).entries):
                if l in lattice(left):
                    js = buckets.get(section_partition(left, Section(u, u, l)))
                    if js:
                        yield sec, i, js


def gwp_triples(n):
    from circulant import catalog

    return [(sec, i, js) for sec, pairs in catalog._gwp_pairs(n) for i, js in pairs]


def test_gwp_pairs_match_the_section_ring_oracle():
    for n in range(1, 49):
        assert gwp_triples(n) == list(oracle_gwp_pairs(n)), n


def test_section_maps_are_least_point_maps_of_section_rings():
    # every row of restrictions(s) and quotients(l) is the least-point map
    # of the matching section ring's set projection, and the rows cover
    # exactly the entries whose set lattice has the subgroup
    from circulant.sring import _key_dtype

    for m in range(1, 49):
        cat = enumerate_srings(m)
        for d in divisors(m):
            restricted = {j: row for row, js in cat.restrictions(d).items() for j in js}
            quotient = cat.quotients(d)
            for i, ring in enumerate(cat):
                if d not in lattice(ring):
                    assert i not in restricted and i not in quotient, (m, d, i)
                    continue
                on_h = section_partition(ring, Section(m, d, 1))
                on_g_mod_h = section_partition(ring, Section(m, m, d))
                assert restricted[i] == least_points(d, on_h).astype(_key_dtype(d)).tobytes()
                assert quotient[i] == least_points(m // d, on_g_mod_h).astype(
                    _key_dtype(m // d)).tobytes()


def test_gathered_keys_are_least_point_maps():
    # every product the closure pairs for n <= 48: the key gathered from
    # the factors' least-point rows is the least-point map of the product
    # built cell by cell
    import numpy as np

    from circulant import sring

    products = 0
    for n in range(2, 49):
        for sec, i, js in gwp_triples(n):
            cat_u, cat_q = enumerate_srings(sec.u), enumerate_srings(n // sec.l)
            keys = sring._gwp_rows(cat_u.least_points[i], cat_q.least_points[js], sec)
            for j, key in zip(js, keys):
                cells = generalized_wreath_partition(cat_u.entries[i], cat_q.entries[j], sec)
                assert np.array_equal(key, least_points(n, cells)), (sec, i, j)
                products += 1
    assert products > 5702


def test_closure_builds_only_new_products(monkeypatch):
    # one closure pass at n = 48 over cached smaller catalogs checks one
    # gathered key per gwp entry it keeps (5,702 products were built before
    # they were keyed by their least-point maps)
    from circulant import catalog

    cached = enumerate_srings(48)
    checked = []
    check = catalog._check_gwp_keys

    def counted(lefts, rights, keys, sec):
        checked.extend(keys)
        return check(lefts, rights, keys, sec)

    monkeypatch.setattr(catalog, "_check_gwp_keys", counted)
    again = catalog._enumerate_cached.__wrapped__(48)
    assert again == cached
    assert len(checked) == sum(how.startswith("gwp(") for how in cached.provenance) == 947


def test_closure_rejects_a_wrong_gathered_key(monkeypatch):
    # the runtime check rebuilds each new product from the factors' cells:
    # one wrong entry in a gathered key fails the closure step at n = 48
    from circulant import catalog

    enumerate_srings(48)
    gather = catalog._gwp_rows

    def corrupted(lefts, rights, sec):
        keys = gather(lefts, rights, sec)
        keys[0, -1] = (keys[0, -1] + 1) % sec.n
        return keys

    monkeypatch.setattr(catalog, "_gwp_rows", corrupted)
    with pytest.raises(AssertionError, match="not the least-point map"):
        catalog._enumerate_cached.__wrapped__(48)


def test_closure_validates_once_per_modulus(monkeypatch):
    # one closure pass at n = 48 builds every ring it keeps, seeds, tensors
    # and gwp products, by construction and calls no validator;
    # test_validate_accepts_every_catalog_ring checks their axioms instead
    from circulant import catalog, sring

    cached = enumerate_srings(48)
    calls = []
    monkeypatch.setattr(catalog, "validate", lambda *args: calls.append(args))
    monkeypatch.setattr(sring, "validate", lambda *args: calls.append(args))
    again = catalog._enumerate_cached.__wrapped__(48)
    assert again == cached
    assert not calls


def test_constructions_run_with_validate_refusing(monkeypatch, z9_fixture, example12_fixture):
    # validate checks outside input only: the closure steps up to n = 36,
    # resolve (whose extensions are generalized wreath products) and
    # example12 build their rings with every binding of validate raising
    import sys

    from circulant import catalog, resolve, singular_classes, sring

    catalogs = [enumerate_srings(n) for n in range(1, 37)]
    rings = [z9_fixture] + [ring for ring in enumerate_srings(36) if singular_classes(ring)]

    def refuse(*args):
        raise AssertionError(f"validate called on {args!r:.60}")

    bound = [module for module in list(sys.modules.values())
             if module.__name__.startswith("circulant")
             and getattr(module, "validate", None) is sring.validate]
    assert {catalog, sring} <= set(bound)
    for module in bound:
        monkeypatch.setattr(module, "validate", refuse)
    for n, cat in enumerate(catalogs, start=1):
        assert catalog._enumerate_cached.__wrapped__(n) == cat
    assert all(resolve(ring).verified for ring in rings)
    assert example12(Example12Params()) == example12_fixture


def test_closure_memory_is_bounded():
    # one closure pass at n = 60 over cached smaller catalogs peaks at
    # about 2 MB, most of it the 1,103 rings
    import tracemalloc

    from circulant import catalog

    cached = enumerate_srings(60)
    tracemalloc.start()
    try:
        again = catalog._enumerate_cached.__wrapped__(60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == cached
    assert peak < 4 * 2**20


def test_seed_rows_are_least_point_maps_of_unit_orbits():
    # for every n <= 200, the seed row of each unit subgroup K, from one
    # batched reduction, is the least-point map of Cyc(K, Z_n)'s orbits
    import numpy as np

    from circulant import catalog, sring
    from circulant.zn import unit_orbits

    rows = 0
    for n in range(1, catalog.ENUMERATE_MAX_N + 1):
        subgroups = [sorted(K) for K in catalog._unit_subgroups(n)]
        for K, row in zip(subgroups, sring._cyclotomic_rows(n, subgroups), strict=True):
            assert np.array_equal(row, least_points(n, unit_orbits(n, tuple(K)))), (n, K)
            rows += 1
    assert rows > 3000


def tensor_row_mismatches(rows_of, limit):
    """(n, i, j) for each coprime split n = a * b <= limit (1 < a < b) and
    each pair of rings whose row from rows_of(lefts, rights), one call per
    split, is not the least-point map of their tensor partition."""
    import numpy as np

    for n in range(2, limit + 1):
        for a in divisors(n)[1:]:
            b = n // a
            if a >= b or math.gcd(a, b) != 1:
                continue
            lefts, rights = enumerate_srings(a), enumerate_srings(b)
            left_ids, right_ids = np.divmod(np.arange(len(lefts) * len(rights)), len(rights))
            rows = rows_of(lefts.least_points[left_ids], rights.least_points[right_ids])
            for row, i, j in zip(rows, left_ids.tolist(), right_ids.tolist(), strict=True):
                cells = tensor_partition(lefts.entries[i], rights.entries[j])
                if not np.array_equal(row, least_points(n, cells)):
                    yield n, i, j


def test_tensor_rows_are_least_point_maps_of_tensor_partitions():
    from circulant import sring

    assert list(tensor_row_mismatches(sring._tensor_rows, 100)) == []


def test_tensor_rows_with_swapped_crt_components_fail():
    # mutation check of the test above: each factor's row read at the other
    # factor's residue of x (reduced into range) keys other partitions
    import numpy as np

    from circulant import sring

    def swapped(lefts, rights):
        a, b = lefts.shape[1], rights.shape[1]
        x = np.arange(a * b)
        return sring._first_points(lefts[:, x % b % a].astype(np.intp) * b + rights[:, x % a])

    assert next(tensor_row_mismatches(swapped, 100), None) == (6, 0, 0)


def test_row_layer_matches_the_oracles():
    # the public functions, which compute on least-point rows, against the
    # set and tuple builders on every catalog ring with n <= 48 (CI runs
    # the same comparison up to n = 100)
    from collections import Counter

    counts = Counter()
    assert list(row_layer_mismatches(48, counts)) == []
    assert counts == {"rings": 3061, "sections": 60602, "tensors": 435, "products": 10456}


def test_row_layer_oracles_see_a_quotient_read_at_x_div_s(monkeypatch):
    # mutation check of the test above: a quotient row that reads x's image
    # at x // s in place of x mod s gives other section rings
    import numpy as np

    from circulant import sring

    def mutated(rows, l):
        n = rows.shape[1]
        s = n // l
        least = rows.astype(np.intp)
        lowest = np.full(least.shape, s, dtype=np.intp)
        np.minimum.at(lowest, (np.arange(len(least))[:, None], least), np.arange(n) // s)
        return np.take_along_axis(lowest, least[:, :s], axis=1).astype(sring._key_dtype(s))

    monkeypatch.setattr(sring, "_quotient_rows", mutated)
    sring._section_ring_cached.cache_clear()
    try:
        assert next(row_layer_mismatches(48), None) is not None
    finally:
        sring._section_ring_cached.cache_clear()


def test_closure_builds_no_partition(monkeypatch):
    # every ring enters the closure as a row of least points: the catalogs
    # 1..40, rebuilt from an empty cache, call none of the partition
    # builders or public constructors, wherever a circulant module binds
    # them, and read no ring's row
    import sys

    from circulant import catalog

    catalogs = [enumerate_srings(n) for n in range(1, 41)]

    def refuse(*args):
        raise AssertionError(f"partition built from {args!r:.60}")

    names = ("unit_orbits", "canonical_partition", "cyclotomic", "tensor", "generalized_wreath",
             "section_ring")
    for module in list(sys.modules.values()):
        if module.__name__.startswith("circulant"):
            for name in names:
                if hasattr(module, name) or module is catalog:
                    monkeypatch.setattr(module, name, refuse, raising=False)
    catalog._enumerate_cached.cache_clear()
    rebuilt = [enumerate_srings(n) for n in range(1, 41)]
    assert rebuilt == catalogs
    assert not any("least_points" in vars(ring) for cat in rebuilt for ring in cat)
