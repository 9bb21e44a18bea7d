import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circulant import (
    BudgetError,
    DomainError,
    Section,
    SRing,
    aut_group,
    enumerate_srings,
    holomorph,
    induced_on_section,
    intersect,
    kernel_on_blocks,
    resolve,
    symmetric,
    translations,
    two_equivalent,
    two_orbits,
)
from circulant.perm import (
    PermGroup,
    StabChain,
    _has_translation_chain,
    block_chain,
    block_preimage,
    check_perm,
    difference_classes,
    groups_equal,
    identity,
    inverse,
    is_identity,
    join_generators,
    mult,
    symmetric_chain,
    translation,
    translation_chain,
    unit_generators,
)
from circulant.sring import cyclotomic, group_ring, section_ring, subgroup_lattice
from circulant.zn import divisors, unit_group
from circulant.structure import canonical_gwp


def test_perm_basics():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert mult(p, q) == (2, 1, 0)
    assert mult(p, inverse(p)) == identity(3)
    assert is_identity(identity(5))
    with pytest.raises(DomainError):
        check_perm((0, 0, 1))


def test_group_orders_brute_force():
    # order equals brute-force element count for every test group
    cases = [
        translations(7),
        holomorph(5),
        holomorph(8),
        symmetric(5),
        PermGroup(6, [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]),
    ]
    for g in cases:
        elements = set(g.elements())
        assert len(elements) == g.order() <= 5000
        # closed under composition on a sample
        sample = random.Random(1).sample(sorted(elements), min(8, len(elements)))
        for a in sample:
            for b in sample:
                assert mult(a, b) in elements


def test_holomorph_orders():
    assert holomorph(5).order() == 20
    assert holomorph(8).order() == 32
    assert holomorph(1).order() == 1
    assert holomorph(2).order() == 2
    # unit generators really generate
    for m in (9, 15, 16, 24):
        from circulant.zn import unit_group
        from circulant.zn import multiplicative_closure

        gens = unit_generators(m)
        assert multiplicative_closure(m, gens) == set(unit_group(m))


def test_holomorph_chain_is_built_by_construction():
    # the translations, then the unit multipliers at base point 1
    for m in range(2, 41):
        h = holomorph(m)
        assert _has_translation_chain(h)
        assert h.order() == m * len(unit_group(m))
        assert h.order() == PermGroup(m, h.generators).order()
        assert h.generators == (translation(m, 1),) + tuple(
            tuple(g * x % m for x in range(m)) for g in unit_generators(m))


def test_prescribed_base_chain():
    chain = StabChain(4, base=(2, 0, 1, 3))
    for g in symmetric(4).generators:
        chain.insert(g)
    assert chain.order() == 24
    assert chain.base[0] == 2
    # stabilizer of base prefix [2] has order 6
    stab_gens = chain.level_generators(1)
    assert all(g[2] == 2 for g in stab_gens)
    assert PermGroup(4, stab_gens).order() == 6


def test_assembled_chains_make_levels_on_demand():
    # the oracles are generic Schreier-Sims chains of the same generators
    trans = translation_chain(5)
    assert trans.order() == 5
    assert set(trans.elements()) == set(PermGroup(5, translations(5).generators).elements())
    assert trans.contains(translation(5, 3))
    assert not trans.contains((1, 0, 2, 3, 4))
    sym = symmetric_chain(5)
    generic_sym = PermGroup(5, symmetric(5).generators)
    assert sym.order() == 120
    assert set(sym.elements()) == set(generic_sym.elements())
    assert all(sym.contains(g) for g in generic_sym.elements())
    assert symmetric_chain(2).order() == 2
    for chain in (trans, sym):
        with pytest.raises(TypeError):
            chain.insert((1, 0, 2, 3, 4))


def test_symmetric_and_translations_use_implicit_chains():
    assert symmetric(200).order() == math.factorial(200)
    assert translations(2000).order() == 2000
    assert symmetric(2).order() == 2 and translations(1).order() == 1
    # Z_1 is one point, and its groups carry the translation chain of it
    for g in (aut_group(group_ring(1)), translations(1), holomorph(1), symmetric(1)):
        assert _has_translation_chain(g) and g.order() == 1 and g.is_transitive()


def pair_bfs_two_orbits(group):
    """Reference 2-orbits: breadth-first search over all m*m pairs, labels
    in row-major order of first encounter."""
    m = group.degree
    labels = np.full((m, m), -1, dtype=np.int32)
    next_label = 0
    for x in range(m):
        for y in range(m):
            if labels[x, y] != -1:
                continue
            stack = [(x, y)]
            labels[x, y] = next_label
            while stack:
                a, b = stack.pop()
                for g in group.generators:
                    c, d = g[a], g[b]
                    if labels[c, d] == -1:
                        labels[c, d] = next_label
                        stack.append((c, d))
            next_label += 1
    return labels


def assert_same_labels(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_two_orbits_examples():
    assert len(np.unique(two_orbits(translations(6)))) == 6
    assert len(np.unique(two_orbits(symmetric(4)))) == 2
    assert len(np.unique(two_orbits(holomorph(5)))) == 2
    assert two_equivalent(holomorph(5), symmetric(5))
    g = translations(5)
    assert two_equivalent(g, g)
    with pytest.raises(DomainError):
        two_equivalent(translations(4), translations(5))


@given(st.integers(min_value=2, max_value=12), st.randoms())
@settings(max_examples=25, deadline=None)
def test_two_orbits_redundant_generators(m, rng):
    g = holomorph(m)
    gens = list(g.generators)
    if gens:
        extra = mult(rng.choice(gens), rng.choice(gens))
        g2 = PermGroup(m, gens + [extra])
        assert two_equivalent(g, g2)


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=3),
       st.sampled_from(["inserted", "generated", "absent"]), st.randoms())
@settings(max_examples=60, deadline=None)
def test_two_orbits_matches_pair_bfs(m, ngens, step, rng):
    # x -> x+1 is a generator, or is generated by x -> x+k with
    # gcd(k, m) = 1, or is in the group only if the random generators make it
    gens = [tuple(rng.sample(range(m), m)) for _ in range(ngens)]
    if step == "inserted":
        gens.insert(0, translation(m, 1))
    elif step == "generated":
        k = rng.choice([k for k in range(2, m) if math.gcd(k, m) == 1] or [1])
        gens.insert(rng.randint(0, len(gens)), translation(m, k))
    group = PermGroup(m, gens)
    labels = pair_bfs_two_orbits(group)
    if group.contains(translation(m, 1)):
        assert_same_labels(two_orbits(group), labels)
    else:
        assert step == "absent"
        with pytest.raises(DomainError, match="x -> x\\+1"):
            two_orbits(group)
        with pytest.raises(DomainError):
            two_equivalent(group, translations(m))
    # the point orbits are the orbits on the diagonal pairs (x, x)
    diagonal = {}
    for x in range(m):
        diagonal.setdefault(labels[x, x], []).append(x)
    assert group.orbits() == list(diagonal.values())


def test_two_orbits_of_catalog_groups_match_pair_bfs():
    # every Aut group and resolve group over the catalogs with n <= 24;
    # Aut reads its classes from level 1 of its chain, a resolve group
    # joins the level 1 of its Aut with its Gwr generators, the copies use
    # their difference graphs, and all have x -> x+1 among their
    # generators
    for n in range(1, 25):
        for ring in enumerate_srings(n):
            aut = aut_group(ring)
            assert _has_translation_chain(aut)
            for group in (aut, resolve(ring).group):
                want = pair_bfs_two_orbits(group)
                fresh = PermGroup(n, group.generators)
                assert n == 1 or translation(n, 1) in fresh.generators
                assert not _has_translation_chain(fresh)
                assert_same_labels(two_orbits(fresh), want)
                assert_same_labels(two_orbits(group), want)


@given(st.sampled_from([6, 8, 9, 12, 16]), st.integers(min_value=0, max_value=3), st.randoms())
@settings(max_examples=40, deadline=None)
def test_join_generators_matches_the_difference_graph(n, k, rng):
    # Aut of a random catalog ring joined with k random permutations: the
    # same generators as a fresh group, and the classes of its generic
    # difference graph
    aut = aut_group(rng.choice(list(enumerate_srings(n))))
    extra = [tuple(rng.sample(range(n), n)) for _ in range(k)]
    joined = join_generators(aut, extra)
    fresh = PermGroup(n, [*aut.generators, *extra])
    assert joined.generators == fresh.generators
    assert difference_classes(joined) == difference_classes(fresh)
    with pytest.raises(DomainError, match="translation chain"):
        join_generators(fresh, extra)


def test_two_equivalent_compares_differences_without_x_plus_1_as_generator():
    # the same group as holomorph(m) from x -> x+2 and the unit
    # multipliers for odd m; for even m those, and a point stabilizer
    # always, lack x -> x+1
    for m in (5, 7, 9, 12):
        hol = holomorph(m)
        other = PermGroup(m, [translation(m, 2)] + list(hol.generators[1:]))
        stab = PermGroup(m, hol.generators[1:])
        if m % 2:
            assert_same_labels(two_orbits(other), pair_bfs_two_orbits(other))
            assert two_equivalent(hol, other) and two_equivalent(other, hol)
        else:
            with pytest.raises(DomainError):
                two_equivalent(hol, other)
            with pytest.raises(DomainError):
                two_equivalent(other, hol)
        with pytest.raises(DomainError):
            two_equivalent(hol, stab)
        with pytest.raises(DomainError):
            two_equivalent(stab, hol)
    # one dihedral group of Z_400, with x -> x+1 generated by x -> x+3,
    # and with x -> x+1 as a generator
    m = 400
    flip = tuple(-x % m for x in range(m))
    pairs = PermGroup(m, [translation(m, 3), flip])
    differences = PermGroup(m, [translation(m, 1), flip])
    assert_same_labels(two_orbits(pairs), two_orbits(differences))
    assert two_equivalent(pairs, differences)


def test_translation_free_group_raises_before_building_arrays():
    # the old pair-node route labelled n * n pairs, 32 MB as int64
    n = 2000
    flip = PermGroup(n, [tuple(-x % n for x in range(n))])
    tracemalloc.start()
    try:
        with pytest.raises(DomainError):
            two_orbits(flip)
        with pytest.raises(DomainError):
            two_equivalent(flip, translations(n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_two_equivalent_of_translation_groups_builds_no_pair_matrix():
    n = 2000
    ring = SRing(n, tuple(sorted({tuple(sorted({x, -x % n})) for x in range(n)})))
    aut = aut_group(ring)
    copy = PermGroup(n, aut.generators)
    tracemalloc.start()
    try:
        assert two_equivalent(aut, copy)
        assert two_equivalent(aut, aut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one n x n int32 label matrix is 16 MB
    assert peak < n * n * 4


def test_induced_on_section_examples():
    t = induced_on_section(translations(12), Section(12, 6, 2))
    assert groups_equal(t, translations(3))
    h = induced_on_section(holomorph(9), Section(9, 9, 3))
    assert groups_equal(h, holomorph(3))
    with pytest.raises(DomainError, match="section not invariant"):
        induced_on_section(symmetric(6), Section(6, 3, 1))
    # x -> -x keeps the cosets of U = {0, 2, 4} but is no translation: the
    # group it generates induces a group of order 2 on U, not Sym(3)
    flip = PermGroup(6, [tuple(-x % 6 for x in range(6))])
    with pytest.raises(DomainError, match="x -> x\\+1"):
        induced_on_section(flip, Section(6, 3, 1))
    # a group that holds x -> x+1 without it among its generators passes
    dihedral = PermGroup(6, [translation(6, 2), translation(6, 3), flip.generators[0]])
    assert groups_equal(induced_on_section(dihedral, Section(6, 3, 1)), symmetric(3))


def test_section_check_matches_a_loop_over_residues():
    # reference: g permutes the residue classes mod m iff the class of g(x)
    # depends only on the class of x
    def permutes_classes(g, m):
        image = {}
        return all(image.setdefault(x % m, y % m) == y % m for x, y in enumerate(g))

    rng = random.Random(5)
    for _ in range(300):
        n = rng.choice([4, 6, 8, 9, 12, 16, 18, 24])
        ds = [d for d in range(1, n + 1) if n % d == 0]
        u = rng.choice(ds)
        sec = Section(n, u, rng.choice([d for d in ds if u % d == 0]))
        # a permutation that maps the classes mod m onto each other
        m = rng.choice(ds)
        targets = rng.sample(range(m), m)
        g = [0] * n
        for c in range(m):
            images = rng.sample(range(targets[c], n, m), n // m)
            for x, y in zip(range(c, n, m), images):
                g[x] = y
        group = PermGroup(n, [translation(n, 1), tuple(g)])
        if permutes_classes(g, n // sec.u) and permutes_classes(g, n // sec.l):
            induced_on_section(group, sec)
        else:
            with pytest.raises(DomainError, match="section not invariant"):
                induced_on_section(group, sec)


def schreier_generators(generators, sec):
    """The degree-n route: every Schreier generator t_j g t_k^-1 of the
    setwise stabilizer of U, for k = g(j) mod n/u, built in full."""
    n, nu = sec.n, sec.n // sec.u
    return [tuple((g[(x + j) % n] - g[j] % nu) % n for x in range(n))
            for g in generators for j in range(nu)]


def read_on_section(h, sec):
    """The action of a U-stabilizing permutation on the L-classes of U."""
    nu = sec.n // sec.u
    return tuple(h[c * nu] // nu % sec.order for c in range(sec.order))


def oracle_induced(group, sec):
    if sec.u == sec.n and sec.l == 1:
        return group
    return PermGroup(sec.order, {read_on_section(h, sec)
                                 for h in schreier_generators(group.generators, sec)})


def oracle_action_table(group, sec):
    pairs = {}
    for h in schreier_generators(group.generators, sec):
        pairs.setdefault(read_on_section(h, sec), h)
    table = {identity(sec.order): identity(sec.n)}
    frontier = list(table.items())
    for sigma, elem in frontier:
        for hs, h in pairs.items():
            new_sigma = mult(sigma, hs)
            if new_sigma not in table:
                table[new_sigma] = mult(elem, h)
                frontier.append((new_sigma, table[new_sigma]))
    return table


def oracle_canonical_gwp(d_u, d_0, sec, kernel):
    """The canonical product with the generators of kernel, the kernel of
    d_u on the L-cosets, copied onto every U-coset, and the lifts read
    from the oracle's action table."""
    n, u, l = sec.n, sec.u, sec.l
    nu = n // u
    bottom = Section(n // l, u // l, 1)
    table = oracle_action_table(d_u, Section(u, u, l))
    gens = []
    for k in kernel.generators:
        for j in range(nu):
            img = list(range(n))
            for y in range(u):
                img[j + nu * y] = j + nu * k[y]
            gens.append(tuple(img))
    for g0 in d_0.generators:
        img = [0] * n
        for j, h in enumerate(schreier_generators([g0], bottom)):
            d = table[read_on_section(h, bottom)]
            for y in range(u):
                img[j + nu * y] = g0[j] % nu + nu * d[y]
        gens.append(tuple(img))
    return PermGroup(n, gens)


# the largest group whose kernel on blocks the oracle enumerates
ORACLE_KERNEL_ORDER = 10 ** 4


def oracle_kernel(group, blocks):
    """Enumerate-and-filter on a chainless copy: the elements of the group
    that map every block onto itself, with the chain they were inserted
    into."""
    block_of = {x: i for i, block in enumerate(blocks) for x in block}
    chain, gens = StabChain(group.degree), []
    for el in PermGroup(group.degree, group.generators).elements():
        if all(block_of[el[x]] == i for x, i in block_of.items()) and chain.insert(el):
            gens.append(el)
    return PermGroup(group.degree, gens, chain=chain)


def section_kernel(d_u, sec):
    """The kernel of d_u on the L-cosets of Z_u: `oracle_kernel` when d_u
    has at most ORACLE_KERNEL_ORDER elements, after checking that it is
    kernel_on_blocks's group, else kernel_on_blocks."""
    s = sec.u // sec.l
    blocks = [list(range(c, sec.u, s)) for c in range(s)]
    kernel = kernel_on_blocks(d_u, blocks)
    if d_u.order() > ORACLE_KERNEL_ORDER:
        return kernel
    want = oracle_kernel(d_u, blocks)
    assert groups_equal(kernel, want) and groups_equal(want, kernel)
    return want


def oracle_intersect(g1, g2):
    """Enumerate-and-sift on chainless copies: every element of the
    smaller group's generic chain, sifted through the larger one's."""
    small, big = sorted((PermGroup(g.degree, g.generators) for g in (g1, g2)),
                        key=PermGroup.order)
    chain, gens = StabChain(small.degree), []
    for el in small.elements():
        if big.chain.contains(el) and chain.insert(el):
            gens.append(el)
    return PermGroup(small.degree, gens, chain=chain)


def test_section_actions_match_the_degree_n_route():
    # over every Aut and resolve group of the catalogs with n <= 24 and
    # every section of the ring: a group with a translation chain (every
    # Aut) induces the oracle's group, by order, membership both ways and
    # difference classes; any other (a joined resolve group) the oracle's
    # exact generator tuples, in order.  Canonical products of the Aut
    # groups of the rings on U and on G/L against the oracle's, whose
    # kernel is enumerated and filtered for 2201 of the 2244 products
    products = enumerated = 0
    for n in range(2, 25):
        for ring in enumerate_srings(n):
            lattice = subgroup_lattice(ring)
            sections = [Section(n, u, l) for u in lattice for l in lattice if u % l == 0]
            for group in (aut_group(ring), resolve(ring).group):
                for sec in sections:
                    induced, want = induced_on_section(group, sec), oracle_induced(group, sec)
                    if _has_translation_chain(group):
                        assert groups_equal(induced, want) and groups_equal(want, induced)
                        assert difference_classes(induced) == difference_classes(want)
                    else:
                        assert induced.generators == want.generators
            for sec in sections:
                if not 1 < sec.l <= sec.u < n:
                    continue
                d_u = aut_group(section_ring(ring, Section(n, sec.u, 1)))
                d_0 = aut_group(section_ring(ring, Section(n, n, sec.l)))
                try:
                    product = canonical_gwp(d_u, d_0, sec)
                except DomainError:
                    top = Section(sec.u, sec.u, sec.l)
                    bottom = Section(n // sec.l, sec.u // sec.l, 1)
                    assert not groups_equal(oracle_induced(d_u, top), oracle_induced(d_0, bottom))
                    continue
                products += 1
                enumerated += d_u.order() <= ORACLE_KERNEL_ORDER
                kernel = section_kernel(d_u, sec)
                assert_same_product(product, oracle_canonical_gwp(d_u, d_0, sec, kernel),
                                    kernel, sec)
    assert products == 2244 and enumerated == 2201


def assert_same_product(product, oracle, kernel, sec):
    """The two canonical products hold as many generators: copies of
    kernel elements, then one lift per generator of d_0.  The product's
    copies each move one U-coset, and on every coset they apply the same
    elements, which generate the kernel.  Each lift maps the U-cosets as
    the oracle's does and differs from it on each coset by an element of
    the kernel, so the two groups are equal."""
    n, u = sec.n, sec.u
    nu = n // u
    lifts = len(oracle.generators) - len(kernel.generators) * nu
    copies = len(product.generators) - lifts
    assert lifts > 0 and copies >= 0
    applied = [[] for _ in range(nu)]
    for g in product.generators[:copies]:
        moved = {x % nu for x in range(n) if g[x] != x}
        assert len(moved) == 1
        j = moved.pop()
        assert all(g[j + nu * y] % nu == j for y in range(u))
        applied[j].append(tuple(g[j + nu * y] // nu for y in range(u)))
    assert all(ks == applied[0] for ks in applied)
    copied = PermGroup(u, applied[0])
    assert groups_equal(copied, kernel) and groups_equal(kernel, copied)
    for lift, want in zip(product.generators[copies:], oracle.generators[-lifts:]):
        for j in range(nu):
            assert lift[j] % nu == want[j] % nu
            d, e = (tuple(g[j + nu * y] // nu for y in range(u)) for g in (lift, want))
            assert kernel.contains(mult(d, inverse(e)))


def test_block_preimages_of_catalog_groups():
    # over every catalog Aut group with n <= 24 and every A-subgroup L of
    # index s <= 6: each action on the L-cosets in the oracle's table has a
    # preimage in the group that acts so, and for s <= 5 every other
    # permutation of Z_s has none
    for n in range(2, 25):
        for ring in enumerate_srings(n):
            aut = aut_group(ring)
            for l in subgroup_lattice(ring):
                s = n // l
                if s > 6:
                    continue
                chain, _ = block_chain(aut, [range(c, n, s) for c in range(s)])
                table = oracle_action_table(aut, Section(n, n, l))
                for sigma in table:
                    g = block_preimage(chain, sigma)
                    assert aut.contains(g)
                    assert tuple(g[c] % s for c in range(s)) == sigma
                if s <= 5:
                    for sigma in itertools.permutations(range(s)):
                        if sigma not in table:
                            assert block_preimage(chain, sigma) is None


def test_induced_on_section_reads_only_the_points_of_u():
    # the degree-n route holds n/u Schreier generators of degree n per
    # generator: 137 MB here
    n = 2000
    aut = aut_group(cyclotomic(n, (-1,)))
    tracemalloc.start()
    try:
        induced = induced_on_section(aut, Section(n, 2, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert induced.generators == ((1, 0),)
    assert peak < 1000 * n


def test_induced_groups_of_equivalent_sections_match():
    # projectively equivalent invariant sections give permutationally
    # isomorphic induced groups: same order and 2-orbit class sizes
    g = holomorph(12)
    s = Section(12, 2, 1)
    t = Section(12, 6, 3)  # multiple of S: gcd(3,2)=1, lcm(3,2)=6
    gs, gt = induced_on_section(g, s), induced_on_section(g, t)
    assert gs.order() == gt.order()
    ls, lt = two_orbits(gs), two_orbits(gt)
    assert sorted(np.bincount(ls.ravel())) == sorted(np.bincount(lt.ravel()))


def test_induced_groups_and_intersections_match_generic_chains():
    # over every catalog Aut group with n <= 24 and every A-section U/L
    # with 1 < u/l < n: the translation chain of the induced group against
    # the generic chain of its generators and the oracle's group, and the
    # intersection of the two induced groups of the non-schurity criterion
    # against oracle_intersect
    pairs = 0
    for n in range(2, 25):
        for ring in enumerate_srings(n):
            aut = aut_group(ring)
            lattice = subgroup_lattice(ring)
            for u, l in ((u, l) for u in lattice for l in lattice
                         if u % l == 0 and 1 < u // l < n):
                sec = Section(n, u, l)
                induced = induced_on_section(aut, sec)
                generic = PermGroup(sec.order, induced.generators)
                want = oracle_induced(aut, sec)
                assert groups_equal(induced, want) and groups_equal(want, induced)
                assert _has_translation_chain(induced)
                assert induced.order() == generic.order()
                assert all(generic.contains(g) for g in induced.chain.strong_generators())
                assert all(induced.contains(g) for g in generic.generators)
                if not 1 < l <= u < n:
                    continue
                top = induced_on_section(aut_group(section_ring(ring, Section(n, u, 1))),
                                         Section(u, u, l))
                bottom = induced_on_section(aut_group(section_ring(ring, Section(n, n, l))),
                                            Section(n // l, u // l, 1))
                inter = intersect(top, bottom)
                oracle = oracle_intersect(top, bottom)
                assert _has_translation_chain(inter) and not _has_translation_chain(oracle)
                assert groups_equal(inter, oracle) and groups_equal(oracle, inter)
                pairs += 1
    assert pairs > 1000


def test_kernel_on_blocks_examples():
    blocks = [[i for i in range(12) if i % 3 == r] for r in range(3)]
    k = kernel_on_blocks(translations(12), blocks)
    assert groups_equal(k, PermGroup(12, [translation(12, 3)]))
    assert kernel_on_blocks(symmetric(5), [[i] for i in range(5)]).order() == 1
    # x -> x+1 maps {0, 1} to {1, 2}, which is not a block
    with pytest.raises(DomainError, match="blocks are not invariant"):
        kernel_on_blocks(symmetric(4), [[0, 1], [2, 3]])


def test_kernel_on_blocks_oracle():
    # invariant partitions only: the cosets of each subgroup of Z_m for the
    # holomorph and the translations, the two trivial partitions for Sym(m)
    for m in range(4, 8):
        cases = [(symmetric(m), [[x] for x in range(m)]), (symmetric(m), [list(range(m))])]
        for g in (holomorph(m), translations(m)):
            cases += [(g, [list(range(c, m, k)) for c in range(k)]) for k in divisors(m)]
        for g, blocks in cases:
            kern = kernel_on_blocks(g, blocks)
            want = [e for e in g.elements()
                    if all({e[x] for x in b} == set(b) for b in blocks)]
            assert kern.order() == len(want), (m, blocks)


def test_intersect_examples():
    s4 = symmetric(4)
    assert groups_equal(intersect(s4, s4), s4)
    t6, h6 = translations(6), holomorph(6)
    assert groups_equal(intersect(t6, h6), t6)
    assert _has_translation_chain(intersect(t6, h6))
    h5 = holomorph(5)
    w = (0, 2, 1, 3, 4)
    conj = PermGroup(5, [mult(mult(inverse(w), g), w) for g in h5.generators])
    # conj has no translation chain: only the oracle intersects it
    with pytest.raises(DomainError, match="translation chains"):
        intersect(h5, conj)
    inter = oracle_intersect(h5, conj)
    brute = [e for e in h5.elements() if conj.contains(e)]
    assert inter.order() == len(brute)
    assert all(h5.contains(g) and conj.contains(g) for g in inter.generators)
    # the budget counts the stabilizer of 0, the part enumerated: 1008
    # elements of Hol(1009), of order 1,017,072, and 29! of Sym(30)
    h1009 = holomorph(1009)
    inter = intersect(h1009, h1009)
    assert groups_equal(inter, h1009) and _has_translation_chain(inter)
    with pytest.raises(BudgetError):
        intersect(symmetric(30), symmetric(30))


def test_holomorph_product_has_no_smaller_two_equivalent_subgroup():
    # a 2-equivalent subgroup of a product of holomorph factors is the
    # whole group
    from circulant.zn import crt_idempotents

    e1, e2 = crt_idempotents(3, 5)

    def embed(p3, p5):
        return tuple((p3[x % 3] * e1 + p5[x % 5] * e2) % 15 for x in range(15))

    h3, h5 = holomorph(3), holomorph(5)
    gens = [embed(g, identity(5)) for g in h3.generators]
    gens += [embed(identity(3), g) for g in h5.generators]
    delta = PermGroup(15, gens)
    assert delta.order() == h3.order() * h5.order()
    assert delta.contains(translation(15, 1))
    rng = random.Random(5)
    elements = list(delta.elements())
    for _ in range(12):
        sub = PermGroup(15, [translation(15, 1)] + rng.sample(elements, 2))
        if two_equivalent(sub, delta):
            assert sub.order() == delta.order()
        else:
            assert sub.order() < delta.order()
