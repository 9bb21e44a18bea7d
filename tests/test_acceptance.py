"""Acceptance criteria, one test per criterion.

The catalog-wide criteria (2, 4, 6, 8) share a single pass over the
catalogs computed by the session fixture; each criterion asserts that its
violation list is empty and prints one PASS/FAIL line.  Run with
``pytest -s tests/test_acceptance.py`` (or scripts/run_acceptance.py) to
see the lines.
"""

import math
import random

import pytest

from circulant import (
    DomainError,
    Example12Params,
    Section,
    aut_group,
    brute_force_srings,
    canonical_gwp,
    cyclotomic,
    enumerate_srings,
    ext,
    example12,
    generalized_wreath,
    group_ring,
    holomorph,
    induced_on_section,
    is_prime,
    is_schurian,
    kernel_on_blocks,
    nonschurity_criterion,
    proj_classes,
    radical,
    rank2,
    resolve,
    singular_classes,
    subgroup_lattice,
    translations,
    wreath,
)
from circulant.perm import groups_equal
from circulant.scheme import _aut_group_cached
from circulant.zn import big_omega, divisors, unit_group


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" : {detail}" if detail else ""
    print(f"[acceptance] criterion {num} ({name}): {status}{suffix}")


def _affine(group) -> bool:
    m = group.degree
    for g in group.generators:
        b = g[0]
        a = (g[1] - b) % m if m > 1 else 0
        if any(g[x] != (a * x + b) % m for x in range(m)):
            return False
    return True


@pytest.fixture(scope="session")
def sweep_digest():
    """One pass over the catalogs: n in 2..60 fully (criteria 4, 6, 8) and
    n in 61..75 with omega <= 3 for schurity only (criterion 2)."""
    v2, v4, v6, v8 = [], [], [], []
    stats = {"entries_2": 0, "entries_60": 0, "resolved": 0}
    for n in range(2, 76):
        omega = big_omega(n)
        if n > 60 and omega > 3:
            continue
        catalog = enumerate_srings(n)
        for ring in catalog:
            schurian = is_schurian(ring)
            if omega <= 3:
                stats["entries_2"] += 1
                if not schurian:
                    v2.append((n, ring.cells))
            if n > 60:
                continue
            stats["entries_60"] += 1
            if radical(ring) == 1 and not schurian:
                v8.append((n, ring.cells))
            classes = proj_classes(ring)

            # criterion 4: dichotomy of induced actions on primitive classes
            aut = aut_group(ring)
            for cl in classes:
                if not cl.primitive:
                    continue
                for sec in cl.sections:
                    induced = induced_on_section(aut, sec)
                    is_sym = induced.order() == math.factorial(cl.order)
                    in_hol = is_prime(cl.order) and _affine(induced)
                    if not (is_sym or in_hol):
                        v4.append((n, ring.cells, (sec.u, sec.l)))

            # criterion 6: resolve on schurian entries with singular classes
            singular = [cl for cl in classes if cl.singular]
            if singular and schurian:
                stats["resolved"] += 1
                result = resolve(ring)
                if result.verified is not True:
                    v6.append((n, ring.cells, "not 2-equivalent to Aut"))
                    continue
                for cl in singular:
                    for sec in cl.sections:
                        induced = induced_on_section(result.group, sec)
                        if is_prime(cl.order):
                            ok = groups_equal(induced, holomorph(cl.order))
                        else:
                            ok = induced.order() == math.factorial(cl.order)
                        if not ok:
                            v6.append((n, ring.cells, (sec.u, sec.l)))
        _aut_group_cached.cache_clear()
    return {"v2": v2, "v4": v4, "v6": v6, "v8": v8, "stats": stats}


def test_criterion_1_oracle_equivalence():
    mismatches = []
    total = 0
    for n in range(2, 14):
        brute = set(brute_force_srings(n).entries)
        enum = set(enumerate_srings(n).entries)
        total += len(brute)
        if brute != enum:
            mismatches.append(n)
    ok = not mismatches
    _report(1, "enumeration equals brute force for n in 2..13", ok,
            f"{total} rings compared")
    assert ok, mismatches


def test_criterion_2_omega3_schurian(sweep_digest):
    bad = sweep_digest["v2"]
    ok = not bad
    _report(2, "every ring with omega(n) <= 3, n <= 75 is schurian", ok,
            f"{sweep_digest['stats']['entries_2']} rings tested")
    assert ok, bad[:3]


def test_criterion_3_minimal_example():
    result = example12(Example12Params(p=5, p3=11, p4=13, d=4))
    lattice_ok = subgroup_lattice(result.ring) == (1, 5, 11, 25, 55, 143, 275, 715, 3575)
    report = nonschurity_criterion(result.ring, result.certificate_section)
    negative = example12(Example12Params(p=5, p3=11, p4=13, d=4, phi_choice=(5, 5)))
    neg_report = nonschurity_criterion(negative.ring, negative.certificate_section)
    ok = lattice_ok and report.holds and not neg_report.holds
    _report(3, "minimal four-prime family over Z_3575", ok,
            f"certificate={report.holds}, lattice ok={lattice_ok}, "
            f"negative control={not neg_report.holds}")
    assert report.holds and lattice_ok
    assert not neg_report.holds
    # the certificate's numbers, on the translation-chain routes of
    # induced_on_section and intersect
    assert report.intersection_order == 250 and neg_report.intersection_order == 500
    for r in (report, neg_report):
        assert r.induced_orders == (500, 62500)
        assert r.section_aut_order == 2985984000000


def test_criterion_4_dichotomy(sweep_digest):
    bad = sweep_digest["v4"]
    ok = not bad
    _report(4, "primitive classes: Sym(S) or prime with Hol(S), n <= 60", ok,
            f"{sweep_digest['stats']['entries_60']} rings tested")
    assert ok, bad[:3]


def _extension_instances():
    yield generalized_wreath(rank2(3), rank2(3), Section(9, 3, 3))
    for p in (3, 5, 7):
        for bottom in (rank2(2), rank2(3), rank2(4), cyclotomic(4, (3,)),
                       group_ring(3)):
            yield wreath(rank2(p), bottom, p * bottom.n)


def test_criterion_5_extension_bookkeeping():
    checked = 0
    failures = []
    for ring in _extension_instances():
        prime_singular = [cl for cl in singular_classes(ring) if is_prime(cl.order)]
        if not prime_singular:
            continue
        cl = prime_singular[0]
        extended = ext(ring, cl, group_ring(cl.order))
        checked += 1
        if subgroup_lattice(extended) != subgroup_lattice(ring):
            failures.append((ring.cells, "lattice changed"))
        before = {(c.s_min, c.s_max) for c in singular_classes(ring)}
        after = {(c.s_min, c.s_max) for c in singular_classes(extended)}
        if after != before - {(cl.s_min, cl.s_max)}:
            failures.append((ring.cells, "singular classes not reduced by C"))
    ok = checked >= 11 and not failures
    _report(5, "extension keeps the lattice and removes one singular class", ok,
            f"{checked} instances")
    assert checked >= 11
    assert not failures, failures[:3]


def test_criterion_6_resolve(sweep_digest):
    bad = sweep_digest["v6"]
    ok = not bad
    _report(6, "resolve is 2-equivalent to Aut with Hol/Sym sections, n <= 60",
            ok, f"{sweep_digest['stats']['resolved']} rings resolved")
    assert ok, bad[:3]


def _criterion7_pool(m, rng):
    kinds = ["translations", "holomorph", "cyclotomic"]
    kind = rng.choice(kinds)
    if kind == "translations":
        return translations(m)
    if kind == "holomorph":
        return holomorph(m)
    units = [u for u in unit_group(m) if u != 1]
    if not units:
        return translations(m)
    gen = rng.choice(units)
    return aut_group(cyclotomic(m, (gen,)))


def test_criterion_7_canonical_gwp():
    rng = random.Random(20260810)
    done = 0
    tried = 0
    failures = []
    while done < 20 and tried < 500:
        tried += 1
        n = rng.randrange(4, 49)
        ds = [d for d in divisors(n) if 1 < d < n]
        if not ds:
            continue
        u = rng.choice(ds)
        ls = [l for l in divisors(u) if l > 1]
        if not ls:
            continue
        l = rng.choice(ls)
        sec = Section(n, u, l)
        d_u = _criterion7_pool(u, rng)
        d_0 = _criterion7_pool(n // l, rng)
        try:
            product = canonical_gwp(d_u, d_0, sec)
        except DomainError:
            continue  # incompatible pair; draw again
        done += 1
        s = u // l
        blocks = [[y for y in range(u) if y % s == c] for c in range(s)]
        kernel = kernel_on_blocks(d_u, blocks)
        if not groups_equal(induced_on_section(product, Section(n, n, l)), d_0):
            failures.append((n, u, l, "projection"))
        if not groups_equal(induced_on_section(product, Section(n, u, 1)), d_u):
            failures.append((n, u, l, "restriction"))
        if product.order() != d_0.order() * kernel.order() ** (n // u):
            failures.append((n, u, l, "order"))
    ok = done == 20 and not failures
    _report(7, "canonical gwp: projection, restriction, order formula", ok,
            f"{done} randomized pairs")
    assert done == 20
    assert not failures, failures


def test_criterion_8_trivial_radical_schurian(sweep_digest):
    bad = sweep_digest["v8"]
    ok = not bad
    _report(8, "trivial-radical rings are schurian, n <= 60", ok)
    assert ok, bad[:3]
