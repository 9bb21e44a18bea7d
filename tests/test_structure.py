import math

import pytest

from circulant import (
    DomainError,
    Section,
    aut_group,
    cyclotomic,
    enumerate_srings,
    ext,
    generalized_wreath,
    group_ring,
    gwr_group,
    holomorph,
    induced_on_section,
    is_multiple,
    proj_classes,
    rank2,
    resolve,
    section_ring,
    singular_classes,
    subgroup_lattice,
    translations,
    two_equivalent,
    wreath,
    GwrSpec,
    canonical_gwp,
)
from circulant import structure
from circulant.perm import PermGroup, difference_classes, groups_equal, kernel_on_blocks
from circulant.structure import ProjClass, _pair_is_isolated
from circulant.zn import is_prime
import numpy as np


def class_by_smin(classes, u, l):
    return next(cl for cl in classes if (cl.s_min.u, cl.s_min.l) == (u, l))


def test_proj_classes_prime():
    classes = proj_classes(group_ring(5))
    orders = sorted(cl.order for cl in classes)
    assert orders == [1, 5]
    big = class_by_smin(classes, 5, 1)
    assert {(s.u, s.l) for s in big.sections} == {(5, 1)}


def test_proj_classes_fixture(z9_fixture):
    classes = proj_classes(z9_fixture)
    small = [cl for cl in classes if cl.order == 3]
    assert len(small) == 2  # U/1 and G/U in distinct singleton classes
    assert {(cl.s_min.u, cl.s_min.l) for cl in small} == {(3, 1), (9, 3)}
    for cl in small:
        assert cl.s_min == cl.s_max and cl.rank == 2 and cl.primitive


def pairwise_closure_classes(ring):
    """Reference classes: the transitive closure of the multiple relation
    over every pair of A-sections, extremal members found by search."""
    lattice = subgroup_lattice(ring)
    sections = [Section(ring.n, u, l) for u in lattice for l in lattice if u % l == 0]
    k = len(sections)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if is_multiple(sections[i], sections[j]) or is_multiple(sections[j], sections[i]):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(sections[i])

    out = []
    for members in groups.values():
        orders = {sec.order for sec in members}
        assert len(orders) == 1
        order = orders.pop()
        s_min = next(m for m in members if all(is_multiple(x, m) for x in members))
        s_max = next(m for m in members if all(is_multiple(m, x) for x in members))
        ring_s = section_ring(ring, s_min)
        primitive = order > 1 and subgroup_lattice(ring_s) == (1, order)
        isolated = order > 1 and _pair_is_isolated(ring, s_min, s_max)
        cl = ProjClass(
            sections=tuple(sorted(members, key=lambda s: (s.u, s.l))),
            s_min=s_min, s_max=s_max, order=order,
            rank=ring_s.rank, primitive=primitive,
            singular=ring_s.rank == 2 and order > 2 and isolated, ring=ring,
        )
        out.append((cl, isolated))
    out.sort(key=lambda pair: pair[0].sort_key())
    return out


def test_proj_classes_match_pairwise_closure():
    # isolated is read on demand, not a compared field: compare it as well
    rings = [ring for n in range(1, 73) for ring in enumerate_srings(n)]
    for ring in rings + [group_ring(720), group_ring(2520)]:
        expected = pairwise_closure_classes(ring)
        classes = proj_classes(ring)
        assert classes == [cl for cl, _ in expected], ring.cells
        assert [cl.isolated for cl in classes] == [iso for _, iso in expected], ring.cells


def test_proj_classes_extremal_members():
    # every member is a multiple of s_min; s_max is a multiple of every member
    for ring in [cyclotomic(8, (3,)), cyclotomic(24, (7,)), group_ring(12)]:
        for cl in proj_classes(ring):
            for s in cl.sections:
                assert is_multiple(s, cl.s_min)
                assert is_multiple(cl.s_max, s)


def test_proj_classes_constant_rank():
    for ring in [cyclotomic(24, (7,)), cyclotomic(36, (5,)), group_ring(30)]:
        for cl in proj_classes(ring):
            ranks = {section_ring(ring, s).rank for s in cl.sections}
            assert ranks == {cl.rank}


def assert_only_extremal_pair(ring, cl):
    """No pair (s, t) of the class with t a multiple of s other than
    (s_min, s_max) meets the isolated-pair conditions."""
    for s in cl.sections:
        for t in cl.sections:
            if (s, t) != (cl.s_min, cl.s_max) and is_multiple(t, s):
                assert not _pair_is_isolated(ring, s, t), ((s.u, s.l), (t.u, t.l))


def test_isolated_pair_fixture(z9_fixture):
    classes = proj_classes(z9_fixture)
    cl = class_by_smin(classes, 3, 1)
    assert cl.isolated
    assert_only_extremal_pair(z9_fixture, cl)
    assert cl.s_min.u == 3 and cl.s_min.l == 1


def test_isolated_pair_exhaustive_small():
    # uniqueness cross-check: no non-extremal pair in any class qualifies
    rings = [
        generalized_wreath(rank2(5), rank2(5), Section(25, 5, 5)),
        wreath(cyclotomic(8, (3,)), rank2(3), 24),
        cyclotomic(45, (2,)),
        generalized_wreath(cyclotomic(20, (3,)), cyclotomic(10, (3,)),
                           Section(40, 20, 4)),
    ]
    for ring in rings:
        for cl in proj_classes(ring):
            if cl.order > 1:
                assert_only_extremal_pair(ring, cl)


def test_group_ring_isolated_classes_are_degenerate():
    # In the full group ring a class is isolated exactly when (S1) is
    # vacuous: s_min = (s, 1) and s_max = (n, n/s).  No class is singular
    # (rank > 2 everywhere), and since only B = A_S refines the section
    # ring, ext can never change the ring.
    ring = group_ring(12)
    for cl in proj_classes(ring):
        if cl.order <= 1:
            continue
        expected = cl.s_max.u == 12 and cl.s_min.l == 1
        assert_only_extremal_pair(ring, cl)
        assert cl.isolated == expected, (cl.s_min, cl.s_max)
        assert not cl.singular
    assert singular_classes(ring) == []
    cl = class_by_smin(proj_classes(ring), 3, 1)
    assert ext(ring, cl, group_ring(3)) == ring


def test_singular_classes_fixture(z9_fixture):
    sing = singular_classes(z9_fixture)
    assert {(cl.s_min.u, cl.s_min.l) for cl in sing} == {(3, 1), (9, 3)}
    assert singular_classes(group_ring(12)) == []


def test_ext_fixture_steps(z9_fixture):
    classes = proj_classes(z9_fixture)
    c1 = class_by_smin(classes, 3, 1)
    step1 = ext(z9_fixture, c1, group_ring(3))
    assert step1.cells == ((0,), (1, 2, 4, 5, 7, 8), (3,), (6,))
    # replacing the section ring by itself leaves the ring unchanged
    assert ext(z9_fixture, c1, section_ring(z9_fixture, Section(9, 3, 1))) == z9_fixture
    c2 = next(cl for cl in singular_classes(step1))
    step2 = ext(step1, c2, group_ring(3))
    assert step2.cells == ((0,), (1, 4, 7), (2, 5, 8), (3,), (6,))


def test_ext_products_pass_validate(monkeypatch):
    # ext builds its tensor and its three generalized wreath products by
    # construction; validate checks each of them, extending every ring with
    # n <= 36 over each singular class by every ring over its section
    from circulant import validate

    products = []
    for name in ("tensor", "generalized_wreath"):
        def built(*args, build=getattr(structure, name)):
            products.append(build(*args))
            return products[-1]

        monkeypatch.setattr(structure, name, built)
    extensions = 0
    for n in range(1, 37):
        for ring in enumerate_srings(n):
            for cl in singular_classes(ring):
                for finer in enumerate_srings(cl.order):
                    ext(ring, cl, finer)
                    extensions += 1
    assert extensions == 4007 and len(products) == 4 * extensions
    for product in set(products):
        assert validate(product.n, product.cells) == product


def test_ext_requires_refinement(z9_fixture):
    classes = proj_classes(z9_fixture)
    c1 = class_by_smin(classes, 3, 1)
    with pytest.raises(DomainError, match="must live over"):
        ext(z9_fixture, c1, rank2(5))
    # B must refine the section ring: rank2(4) does not refine ZZ_4
    ring = group_ring(12)
    cl = class_by_smin(proj_classes(ring), 4, 1)
    with pytest.raises(DomainError, match="does not refine"):
        ext(ring, cl, rank2(4))


def test_extension_bookkeeping_on_fixture(z9_fixture):
    # G(A) unchanged; singular classes lose exactly the extended class
    classes = singular_classes(z9_fixture)
    c1 = class_by_smin(classes, 3, 1)
    extended = ext(z9_fixture, c1, group_ring(3))
    assert subgroup_lattice(extended) == subgroup_lattice(z9_fixture)
    before = {(cl.s_min.u, cl.s_min.l) for cl in classes}
    after = {(cl.s_min.u, cl.s_min.l) for cl in singular_classes(extended)}
    assert after == before - {(3, 1)}


def test_sections_avoiding_a_primitive_isolated_class():
    # for a primitive isolated class and any section without a subsection
    # in the class: either L >= L1 or U <= U0
    rings = [
        generalized_wreath(rank2(3), rank2(3), Section(9, 3, 3)),
        wreath(rank2(5), rank2(2), 10),
        generalized_wreath(cyclotomic(20, (3,)), cyclotomic(10, (3,)),
                           Section(40, 20, 4)),
    ]
    for ring in rings:
        classes = proj_classes(ring)
        for cl in classes:
            if not (cl.primitive and cl.isolated):
                continue
            members = set(cl.sections)
            l1, u0 = cl.s_min.u, cl.s_max.l
            for other in proj_classes(ring):
                for sec in other.sections:
                    # M = M1/M0 is a subsection of U/L iff L <= M0 and M1 <= U
                    has_subsection = any(
                        m.l % sec.l == 0 and sec.u % m.u == 0 for m in members)
                    if has_subsection:
                        continue
                    assert sec.l % l1 == 0 or u0 % sec.u == 0, (
                        ring.cells, (sec.u, sec.l), (l1, u0))


def test_gwr_group_examples(z9_fixture):
    # Hol(Z_p) acting on the order-p subgroup, identity elsewhere
    spec = GwrSpec(Section(15, 5, 1), Section(15, 5, 1), holomorph(5))
    g = gwr_group(15, spec)
    assert g.order() == holomorph(5).order()
    for gen in g.generators:
        for x in range(15):
            if x % 3 != 0:
                assert gen[x] == x
    # kernel-only group when M is trivial
    spec = GwrSpec(Section(9, 9, 3), Section(9, 9, 3), translations(3))
    g = gwr_group(9, spec)
    assert g.order() == 3 * 3 ** 3


def test_gwr_order_formula(z9_fixture):
    # |Gwr| = |M| * l0^{|S|} on the extended fixture class
    step1 = ext(z9_fixture, next(
        cl for cl in singular_classes(z9_fixture)
        if (cl.s_min.u, cl.s_min.l) == (3, 1)), group_ring(3))
    cl = next(c for c in singular_classes(step1))
    spec = GwrSpec(cl.s_min, cl.s_max, holomorph(3))
    g = gwr_group(9, spec)
    assert g.order() == 6 * 3 ** 3


def test_gwr_group_preserves_all_colors(z9_fixture):
    # every generator of Gwr_A(C, Aut(A_S)) preserves every color
    rings = [z9_fixture,
             wreath(rank2(5), rank2(2), 10),
             generalized_wreath(cyclotomic(20, (3,)), cyclotomic(10, (3,)),
                                Section(40, 20, 4))]
    for ring in rings:
        # D[g, h] = the cell of h - g
        x = np.arange(ring.n)
        D = np.array(ring.cell_of)[(x[None, :] - x[:, None]) % ring.n]
        for cl in proj_classes(ring):
            if not cl.isolated or cl.order <= 1:
                continue
            m_group = aut_group(section_ring(ring, cl.s_min))
            g = gwr_group(ring.n, GwrSpec(cl.s_min, cl.s_max, m_group))
            for gen in g.generators:
                f = np.fromiter(gen, dtype=np.int64)
                assert np.array_equal(D[f][:, f], D)


def test_canonical_gwp_examples(z9_fixture):
    from circulant.perm import symmetric

    g = canonical_gwp(symmetric(2), symmetric(2), Section(4, 2, 2))
    assert g.order() == 8
    g9 = canonical_gwp(symmetric(3), symmetric(3), Section(9, 3, 3))
    assert g9.order() == 1296
    assert groups_equal(g9, aut_group(z9_fixture))
    # l = 1: the translations are their own canonical product
    gt = canonical_gwp(translations(4), translations(12), Section(12, 4, 1))
    assert groups_equal(gt, translations(12))


def test_canonical_gwp_projection_restriction_order():
    # projection equals d0, restriction equals dU, and the order is
    # |d0| times the block-kernel order to the number of U-cosets
    cases = [
        (translations(4), translations(6), Section(12, 4, 2)),
        (holomorph(8), holomorph(12), Section(24, 8, 2)),
        (aut_group(cyclotomic(9, (2,))), holomorph(6), Section(18, 9, 3)),
    ]
    for du, d0, sec in cases:
        g = canonical_gwp(du, d0, sec)
        assert groups_equal(induced_on_section(g, Section(sec.n, sec.n, sec.l)), d0)
        assert groups_equal(induced_on_section(g, Section(sec.n, sec.u, 1)), du)
        s = sec.u // sec.l
        blocks = [[y for y in range(sec.u) if y % s == c] for c in range(s)]
        kernel = kernel_on_blocks(du, blocks)
        assert g.order() == d0.order() * kernel.order() ** (sec.n // sec.u)


def test_canonical_gwp_lifts_through_a_large_induced_group():
    # Aut(A_U) induces Sym(n/4) on U/L, 8!, 9! and 10! elements; each lift
    # is one sift through the block chain of Aut(A_U)
    from circulant import validate

    orders = {32: 213_084_064_972_800, 36: 69_039_237_051_187_200,
              40: 27_615_694_820_474_880_000}
    for n, order in orders.items():
        u, s = n // 2, n // 4
        ring = validate(n, [[0], range(1, n, 2), [x for x in range(2, n, 2) if x != u], [u]])
        sec = Section(n, u, 2)
        du = aut_group(section_ring(ring, Section(n, u, 1)))
        d0 = aut_group(section_ring(ring, Section(n, n, 2)))
        assert induced_on_section(du, Section(u, u, 2)).order() == math.factorial(s)
        g = canonical_gwp(du, d0, sec)
        assert groups_equal(induced_on_section(g, Section(n, n, 2)), d0)
        assert groups_equal(induced_on_section(g, Section(n, u, 1)), du)
        kernel = kernel_on_blocks(du, [range(c, u, s) for c in range(s)])
        assert g.order() == d0.order() * kernel.order() ** 2 == order


def test_canonical_gwp_mismatch_errors():
    # translations of Z_9 induce Z_3 on S; Hol(Z_6) induces Sym(3)
    with pytest.raises(DomainError, match="induced section actions differ"):
        canonical_gwp(translations(9), holomorph(6), Section(18, 9, 3))
    # x -> -x permutes the cosets of {0, 3} in Z_6 but is no translation
    flip = PermGroup(6, [tuple(-x % 6 for x in range(6))])
    with pytest.raises(DomainError, match="x -> x\\+1"):
        canonical_gwp(flip, holomorph(6), Section(12, 6, 2))


def test_resolve_fixture(z9_fixture):
    result = resolve(z9_fixture)
    assert result.verified is True
    assert result.group.order() <= 1296
    assert two_equivalent(result.group, aut_group(z9_fixture))


def test_resolve_composite_singular_class():
    # rank2(15) wr rank2(2): the order-15 class is singular and composite,
    # so resolve returns Aut itself and induces Sym on the class
    ring = wreath(rank2(15), rank2(2), 30)
    sing = singular_classes(ring)
    assert any(cl.order == 15 for cl in sing)
    result = resolve(ring)
    assert result.verified is True
    cl = next(c for c in sing if c.order == 15)
    for sec in cl.sections:
        ind = induced_on_section(result.group, sec)
        assert ind.order() == math.factorial(15)


def test_resolve_induces_product_of_holomorphs():
    # section ring = rank2(3) (x) rank2(5): the resolved group acts on the
    # section as the product of the two holomorphs under the CRT embedding
    from circulant import group_ring, is_schurian, tensor
    from circulant.perm import identity
    from circulant.zn import crt_idempotents

    s_ring = tensor(rank2(3), rank2(5))
    a_u = tensor(group_ring(2), s_ring)
    a_gl = tensor(rank2(2), s_ring)
    ring = generalized_wreath(a_u, a_gl, Section(60, 30, 2))
    assert is_schurian(ring)
    result = resolve(ring)
    assert result.verified is True
    induced = induced_on_section(result.group, Section(60, 30, 2))
    e1, e2 = crt_idempotents(3, 5)

    def embed(p3, p5):
        return tuple((p3[x % 3] * e1 + p5[x % 5] * e2) % 15 for x in range(15))

    gens = [embed(g, identity(5)) for g in holomorph(3).generators]
    gens += [embed(identity(3), g) for g in holomorph(5).generators]
    assert groups_equal(induced, PermGroup(15, gens))


def test_resolve_prime_class_induces_holomorph(z9_fixture):
    result = resolve(z9_fixture)
    for cl in singular_classes(z9_fixture):
        for sec in cl.sections:
            ind = induced_on_section(result.group, sec)
            assert groups_equal(ind, holomorph(sec.order))


def recursive_resolve_group(ring):
    """Oracle: the recursive resolution.  Extend over the least prime
    singular class of the ring, resolve the extension from its own
    classes, and join with the Gwr group of the class for M = Hol(S)."""
    prime_classes = [cl for cl in singular_classes(ring) if is_prime(cl.order)]
    if not prime_classes:
        return aut_group(ring)
    cl = prime_classes[0]
    sub = recursive_resolve_group(ext(ring, cl, group_ring(cl.order)))
    delta = gwr_group(ring.n, GwrSpec(cl.s_min, cl.s_max, holomorph(cl.order)))
    return PermGroup(ring.n, sub.generators + delta.generators)


def test_resolve_matches_the_recursive_resolution():
    # the loop extends over the ring's own prime singular classes; the
    # recursion re-analyses each extension.  Same generators, in order.
    # The group's 2-orbit classes, joined from Aut's stabilizer of 0 and
    # the Gwr generators, are those of the generic difference graph of the
    # same generators.
    checked = 0
    for n in range(1, 31):
        for ring in enumerate_srings(n):
            if not any(is_prime(cl.order) for cl in singular_classes(ring)):
                continue
            group = resolve(ring).group
            assert group.generators == recursive_resolve_group(ring).generators
            fresh = PermGroup(n, group.generators)
            assert difference_classes(group) == difference_classes(fresh), ring.cells
            checked += 1
    assert checked == 288


def test_proj_classes_then_resolve_find_the_classes_once(monkeypatch):
    # the sweep's order over the n = 36 catalog: each ring's classes are
    # computed once, and _pair_is_isolated runs only for the rank-2
    # classes of order > 2 (singular needs no other) and in ext's checks
    counts = {"isolated": 0, "ext": 0}
    pair_is_isolated, extension = structure._pair_is_isolated, structure.ext

    def counted_isolated(*args):
        counts["isolated"] += 1
        return pair_is_isolated(*args)

    def counted_ext(*args):
        counts["ext"] += 1
        return extension(*args)

    monkeypatch.setattr(structure, "_pair_is_isolated", counted_isolated)
    monkeypatch.setattr(structure, "ext", counted_ext)
    structure._proj_classes_cached.cache_clear()
    rings = enumerate_srings(36)
    candidates = 0
    for ring in rings:
        candidates += sum(cl.rank == 2 and cl.order > 2 for cl in proj_classes(ring))
        resolve(ring)
    assert structure._proj_classes_cached.cache_info().misses == len(rings) == 284
    assert counts["isolated"] == candidates + counts["ext"]
    assert (candidates, counts["ext"]) == (344, 180)


def test_resolve_runs_proj_classes_once(z9_fixture, monkeypatch):
    # the fixture has two prime singular classes, and only the ring itself
    # is analysed
    calls = []

    def counted(ring):
        calls.append(ring)
        return proj_classes(ring)

    monkeypatch.setattr(structure, "proj_classes", counted)
    assert resolve(z9_fixture).verified is True
    assert calls == [z9_fixture]


def test_ext_checks_isolation_in_the_ring_it_is_given():
    # ((6,2), (6,2)) is an isolated singular class of Z_2 wr rank2(3) but
    # not isolated in Cyc({+-1}, Z_6): its basic set {1, 5} is not a union
    # of cosets of the order-2 subgroup
    rings = enumerate_srings(6)
    source = next(r for r in rings if r.cells == ((0,), (1, 2, 4, 5), (3,)))
    cl = next(c for c in singular_classes(source) if c.s_min == c.s_max == Section(6, 6, 2))
    ring = cyclotomic(6, (5,))
    assert not _pair_is_isolated(ring, cl.s_min, cl.s_max)
    with pytest.raises(DomainError, match="extension requires an isolated class"):
        ext(ring, cl, group_ring(3))
