import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circulant import (
    BudgetError,
    DomainError,
    Section,
    holomorph,
    induced_on_section,
    intersect,
    kernel_on_blocks,
    preimage_with_induced,
    symmetric,
    translations,
    two_equivalent,
    two_orbits,
)
from circulant.perm import (
    PermGroup,
    StabChain,
    check_perm,
    groups_equal,
    identity,
    inverse,
    is_identity,
    mult,
    symmetric_chain,
    translation,
    translation_chain,
    unit_generators,
    _induced_perm,
)


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
    trans = translation_chain(5)
    assert trans.order() == 5
    assert set(trans.elements()) == set(translations(5).elements())
    assert trans.contains(translation(5, 3))
    assert not trans.contains((1, 0, 2, 3, 4))
    sym = symmetric_chain(5)
    assert sym.order() == 120
    assert set(sym.elements()) == set(symmetric(5).elements())
    assert all(sym.contains(g) for g in symmetric(5).elements())
    assert symmetric_chain(2).order() == 2
    for chain in (trans, sym):
        with pytest.raises(TypeError):
            chain.insert((1, 0, 2, 3, 4))


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


def test_induced_on_section_examples():
    t = induced_on_section(translations(12), Section(12, 6, 2))
    assert groups_equal(t, translations(3))
    h = induced_on_section(holomorph(9), Section(9, 9, 3))
    assert groups_equal(h, holomorph(3))
    with pytest.raises(DomainError, match="section not invariant"):
        induced_on_section(symmetric(6), Section(6, 3, 1))


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


def test_kernel_on_blocks_examples():
    assert kernel_on_blocks(symmetric(4), [[0, 1], [2, 3]]).order() == 4
    blocks = [[i for i in range(12) if i % 3 == r] for r in range(3)]
    k = kernel_on_blocks(translations(12), blocks)
    assert groups_equal(k, PermGroup(12, [translation(12, 3)]))
    assert kernel_on_blocks(symmetric(5), [[i] for i in range(5)]).order() == 1


def test_kernel_on_blocks_oracle():
    rng = random.Random(3)
    for _ in range(10):
        m = rng.randrange(4, 8)
        g = symmetric(m) if rng.random() < 0.5 else holomorph(m)
        cut = rng.randrange(1, m)
        blocks = [list(range(cut)), list(range(cut, m))]
        kern = kernel_on_blocks(g, blocks)
        want = [e for e in g.elements()
                if all({e[x] for x in b} == set(b) for b in blocks)]
        assert kern.order() == len(want)


def test_intersect_examples():
    s4 = symmetric(4)
    assert groups_equal(intersect(s4, s4), s4)
    t6, h6 = translations(6), holomorph(6)
    assert groups_equal(intersect(t6, h6), t6)
    h5 = holomorph(5)
    w = (0, 2, 1, 3, 4)
    conj = PermGroup(5, [mult(mult(inverse(w), g), w) for g in h5.generators])
    inter = intersect(h5, conj)
    brute = [e for e in h5.elements() if conj.contains(e)]
    assert inter.order() == len(brute)
    assert all(h5.contains(g) and conj.contains(g) for g in inter.generators)
    with pytest.raises(BudgetError):
        intersect(symmetric(30), symmetric(30), threshold=100)


def test_preimage_with_induced_examples():
    h9 = holomorph(9)
    sec = Section(9, 9, 3)
    target = (0, 2, 1)  # x -> 2x on Z_3
    pre = preimage_with_induced(h9, sec, target)
    assert h9.contains(pre)
    assert _induced_perm(pre, sec) == target
    assert preimage_with_induced(h9, sec, (0, 1, 2)) == identity(9)
    t4 = translations(4)
    pre2 = preimage_with_induced(t4, Section(4, 4, 2), (1, 0))
    assert pre2 in {translation(4, 1), translation(4, 3)}
    with pytest.raises(DomainError, match="not in the induced image"):
        preimage_with_induced(translations(9), sec, (0, 2, 1))


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
    rng = random.Random(5)
    elements = list(delta.elements())
    for _ in range(12):
        sub = PermGroup(15, rng.sample(elements, 3))
        if two_equivalent(sub, delta):
            assert sub.order() == delta.order()
        else:
            assert sub.order() < delta.order()


def test_group_json_round_trip():
    g = holomorph(8)
    data = g.to_json_dict()
    assert groups_equal(PermGroup.from_json_dict(data), g)
