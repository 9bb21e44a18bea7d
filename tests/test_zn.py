import pytest
from hypothesis import given, strategies as st

from circulant import DomainError, Section, is_multiple, unit_orbits
from oracles import subgroup_elements
from circulant.zn import (
    big_omega,
    crt_idempotents,
    divisors,
    is_prime,
    multiplicative_closure,
    multiplicative_order,
    unit_group,
)


def test_subgroup_elements_examples():
    assert subgroup_elements(6, 3) == {0, 2, 4}
    assert subgroup_elements(6, 1) == {0}
    assert subgroup_elements(3575, 275) == frozenset(range(0, 3575, 13))
    with pytest.raises(DomainError):
        subgroup_elements(6, 4)


def test_is_multiple_examples():
    assert is_multiple(Section(12, 6, 3), Section(12, 2, 1))
    assert not is_multiple(Section(9, 9, 3), Section(9, 3, 1))
    s = Section(60, 20, 4)
    assert is_multiple(s, s)


def test_unit_orbits_examples():
    assert unit_orbits(8, (3,)) == ((0,), (1, 3), (2, 6), (4,), (5, 7))
    assert unit_orbits(5, (2,)) == ((0,), (1, 2, 3, 4))
    assert unit_orbits(7, (1,)) == tuple((x,) for x in range(7))
    with pytest.raises(DomainError):
        unit_orbits(8, (2,))


@st.composite
def modulus_and_divisors(draw):
    n = draw(st.integers(min_value=1, max_value=360))
    ds = divisors(n)
    d1 = draw(st.sampled_from(ds))
    d2 = draw(st.sampled_from(ds))
    return n, d1, d2


@given(modulus_and_divisors())
def test_subgroup_gcd_lcm_lattice(data):
    from math import gcd

    n, d1, d2 = data
    s1, s2 = subgroup_elements(n, d1), subgroup_elements(n, d2)
    assert subgroup_elements(n, gcd(d1, d2)) == s1 & s2
    sumset = {(a + b) % n for a in s1 for b in s2}
    assert subgroup_elements(n, d1 * d2 // gcd(d1, d2)) == sumset


@given(st.integers(min_value=1, max_value=120))
def test_multiple_closure_is_equivalence(n):
    # reflexivity plus idempotence of the symmetric-transitive closure
    sections = [Section(n, u, l) for u in divisors(n) for l in divisors(u)]
    k = len(sections)
    adj = [[i == j or is_multiple(sections[i], sections[j])
            or is_multiple(sections[j], sections[i]) for j in range(k)] for i in range(k)]
    closure = [row[:] for row in adj]
    for m in range(k):
        for i in range(k):
            if closure[i][m]:
                for j in range(k):
                    if closure[m][j]:
                        closure[i][j] = True
    # one more closure round changes nothing
    again = [row[:] for row in closure]
    for m in range(k):
        for i in range(k):
            if again[i][m]:
                for j in range(k):
                    if again[m][j]:
                        again[i][j] = True
    assert again == closure
    assert all(closure[i][i] for i in range(k))


@given(st.integers(min_value=2, max_value=150), st.data())
def test_unit_orbits_refinement(n, data):
    units = unit_group(n)
    gens = tuple(data.draw(st.sets(st.sampled_from(units), min_size=1, max_size=3)))
    sub = tuple(data.draw(st.sets(st.sampled_from(gens), min_size=1)))
    coarse = unit_orbits(n, gens)
    fine = unit_orbits(n, sub)
    cell_of = {}
    for i, cell in enumerate(coarse):
        for x in cell:
            cell_of[x] = i
    for cell in fine:
        assert len({cell_of[x] for x in cell}) == 1


def test_misc_arithmetic():
    assert big_omega(3575) == 4
    assert big_omega(1) == 0
    assert is_prime(13) and not is_prime(1) and not is_prime(12)
    assert multiplicative_order(25, 2) == 20
    assert multiplicative_order(11, 3) == 5
    e1, e2 = crt_idempotents(3, 5)
    assert e1 % 3 == 1 and e1 % 5 == 0 and e2 % 3 == 0 and e2 % 5 == 1
    assert multiplicative_closure(8, (3, 5)) == {1, 3, 5, 7}
