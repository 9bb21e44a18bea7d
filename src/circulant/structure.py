"""Projective classes of sections, isolated pairs, singular classes, the
extension construction, automorphism subgroups built from a transitive
group on a section, the canonical generalized wreath product of
permutation groups, and the resolution of singularities."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd, lcm, prod

import numpy as np

from .errors import BudgetError, DomainError
from .perm import (
    Perm,
    PermGroup,
    block_chain,
    block_preimage,
    holomorph,
    induced_on_section,
    join_generators,
    section_action,
    translation,
    two_equivalent,
)
from .scheme import DEFAULT_AUT_MAX_N, DEFAULT_NODE_BUDGET, aut_group
from .sring import (
    SRing,
    _section_rows,
    _tensor_rows,
    group_ring,
    s_condition_holds,
    section_ring,
    subgroup_lattice,
    generalized_wreath,
    tensor,
)
from .zn import Section, is_multiple, is_prime


@dataclass(frozen=True)
class ProjClass:
    """A class of projectively equivalent sections of an S-ring, with its
    smallest and greatest members and structural flags.

    ``isolated`` (the extremal pair is isolated in ``ring``, the ring the
    class belongs to; see _pair_is_isolated) is decided the first time it
    is read and kept.  A class of rank 2 and order > 2 is isolated iff it
    is singular, which proj_classes decides at once; of the other classes
    only ``circulant analyze`` reads the flag, and ``ext`` checks its pair
    itself.  Not a dataclass field, so classes compare without it."""

    sections: tuple[Section, ...]
    s_min: Section
    s_max: Section
    order: int
    rank: int
    primitive: bool
    singular: bool
    ring: SRing = field(repr=False, compare=False)

    @cached_property
    def isolated(self) -> bool:
        if self.rank == 2 and self.order > 2:
            return self.singular
        return self.order > 1 and _pair_is_isolated(self.ring, self.s_min, self.s_max)

    def sort_key(self):
        return (self.order, self.s_min.u, self.s_min.l)


def _pair_is_isolated(ring: SRing, s_min: Section, s_max: Section) -> bool:
    """Decomposition conditions for the extremal pair: the ring satisfies
    both section conditions, and the ring induced on U1/L0 is the product
    of the rings induced on L1/L0 and U0/L0.

    The product is tensor(left, right), compared by its least-point row,
    which sring's _tensor_rows computes from the factors' rows: it embeds the factors through the CRT idempotents, not as the subgroups
    L1/L0 and U0/L0 of U1/L0; the two embeddings differ by a unit
    multiplier on each factor, and by Schur's theorem on multipliers every
    unit multiplier fixes an S-ring over a cyclic group.  The factors'
    orders are coprime, as gcd(l1, u0) = l0 for a projectively equivalent
    pair."""
    l1, l0 = s_min.u, s_min.l
    u1, u0 = s_max.u, s_max.l
    if not (s_condition_holds(ring, u0, l0) and s_condition_holds(ring, u1, l1)):
        return False
    mid = section_ring(ring, Section(ring.n, u1, l0))
    left = section_ring(ring, s_min)
    right = section_ring(ring, Section(ring.n, u0, l0))
    return np.array_equal(mid.least_points,
                          _tensor_rows(left.least_points[None], right.least_points[None])[0])


def proj_classes(ring: SRing) -> list[ProjClass]:
    """All A-sections grouped into classes of projectively equivalent
    sections, sorted by (order, s_min).  A pure function of the ring's
    value, cached by it: each call returns a fresh list of the same
    (frozen) classes, so resolve reuses the classes its caller found.

    The A-subgroup orders form a distributive lattice under gcd and lcm, so
    the d | u with lcm(l, d) = u are closed under gcd and the d with l | d
    and gcd(d, u) = l under lcm.  U/L is thus a multiple of a least section
    s_min = (r, gcd(l, r)), r the gcd of the first set, and has a greatest
    multiple s_max = (lcm(u, b), b), b the lcm of the second; two sections
    are projectively equivalent iff they share both."""
    return list(_proj_classes_cached(ring))


@lru_cache(maxsize=4096)
def _proj_classes_cached(ring: SRing) -> tuple[ProjClass, ...]:
    lattice = subgroup_lattice(ring)
    sections: dict[tuple[int, int], Section] = {}
    classes: dict[tuple[tuple[int, int], tuple[int, int]], list[Section]] = {}
    for u in lattice:
        below = [d for d in lattice if u % d == 0]
        for l in below:
            r = 0
            for d in below:
                if lcm(l, d) == u:
                    r = gcd(r, d)
            b = l
            for d in lattice:
                if d % l == 0 and gcd(d, u) == l:
                    b = lcm(b, d)
            sec = sections[u, l] = Section(ring.n, u, l)
            classes.setdefault(((r, gcd(l, r)), (lcm(u, b), b)), []).append(sec)

    out = []
    for (least, greatest), members in classes.items():
        s_min, s_max = sections[least], sections[greatest]
        if not all(is_multiple(m, s_min) and is_multiple(s_max, m) for m in members):
            raise AssertionError(
                f"class without extremal elements: {[(m.u, m.l) for m in members]}")
        # the ring on s_min = U/L has a basic set per least point of its
        # row, and its A-subgroups are the H/L with H an A-subgroup of the
        # ring between L and U
        order, (u, l) = s_min.order, (s_min.u, s_min.l)
        rank = len(set(_section_rows(ring, s_min)[1].tolist()))
        primitive = order > 1 and not any(l < d < u and u % d == 0 == d % l for d in lattice)
        singular = rank == 2 and order > 2 and _pair_is_isolated(ring, s_min, s_max)
        out.append(ProjClass(
            sections=tuple(members), s_min=s_min, s_max=s_max, order=order,
            rank=rank, primitive=primitive, singular=singular, ring=ring,
        ))
    out.sort(key=ProjClass.sort_key)
    return tuple(out)


def singular_classes(ring: SRing) -> list[ProjClass]:
    """Classes of rank 2 and order > 2 containing an isolated pair."""
    return [cl for cl in proj_classes(ring) if cl.singular]


def ext(ring: SRing, cl: ProjClass, finer: SRing) -> SRing:
    """Extension of the ring over an isolated class: the rank-2 section
    ring on S = s_min is replaced by the finer ring ``finer``.  The pair
    (s_min, s_max) is checked to be isolated in ``ring`` itself.

    Built as A1 wr_{U1/L0} A2 with
    A1 = A_{U0} wr_{U0/L0} (B (x) A_{U0/L0}) over U1 and
    A2 = (B (x) A_{U0/L0}) wr_{U1/L1} A_{G/L1} over G/L0.
    """
    if cl.order <= 1 or not _pair_is_isolated(ring, cl.s_min, cl.s_max):
        raise DomainError("extension requires an isolated class")
    n = ring.n
    l1, l0 = cl.s_min.u, cl.s_min.l
    u1, u0 = cl.s_max.u, cl.s_max.l
    s = l1 // l0
    ring_s = section_ring(ring, cl.s_min)
    if finer.n != s:
        raise DomainError(f"replacement ring must live over Z_{s}, got Z_{finer.n}")
    if not finer.refines(ring_s):
        raise DomainError("replacement ring does not refine the section ring")

    ring_u0 = section_ring(ring, Section(n, u0, 1))
    ring_u0_l0 = section_ring(ring, Section(n, u0, l0))
    ring_g_l1 = section_ring(ring, Section(n, n, l1))
    mixed = tensor(finer, ring_u0_l0)

    a1 = generalized_wreath(ring_u0, mixed, Section(u1, u0, l0))
    a2 = generalized_wreath(mixed, ring_g_l1, Section(n // l0, u1 // l0, l1 // l0))
    result = generalized_wreath(a1, a2, Section(n, u1, l0))
    if not result.refines(ring):
        raise AssertionError("extension does not refine the original ring")
    return result


@dataclass(frozen=True)
class GwrSpec:
    """Data for the automorphism subgroup supported on U1: the extremal
    sections of an isolated class and a transitive group on S."""

    s_min: Section
    s_max: Section
    m_group: PermGroup

    def __post_init__(self):
        if not is_multiple(self.s_max, self.s_min):
            raise DomainError("s_max must be a multiple of s_min")
        if self.m_group.degree != self.s_min.order:
            raise DomainError(
                f"group degree {self.m_group.degree} != section order {self.s_min.order}")
        if not self.m_group.is_transitive():
            raise DomainError("the section group must be transitive")


def gwr_group(n: int, spec: GwrSpec) -> PermGroup:
    """The subgroup of Sym(Z_n) fixing G minus U1 pointwise whose action on
    U1 moves U0-cosets by class-preserving translations according to M.

    Generators: (i) per generator of M, the permutation translating each
    U0-coset a+U0 of U1 to a'+U0 by the least representative of a'-a+L0;
    (ii) per U0-coset of U1, translation by the generator of L0 on that
    coset alone.  The order is |M| * l0^{|S|}.
    """
    l1, l0 = spec.s_min.u, spec.s_min.l
    u1 = spec.s_max.u
    if spec.s_min.n != n:
        raise DomainError("section modulus does not match n")
    s = l1 // l0
    r = u1 // l1  # index of L1 in U1 = index of L0 in U0, coprime to s
    rinv = pow(r, -1, s) if s > 1 else 0
    nu1 = n // u1
    gens = []

    def coset_class(x: int) -> int:
        # S-label of the U0-coset of x within U1 (via the natural
        # isomorphism L1/L0 -> U1/U0, aL0 -> aU0)
        return ((x // nu1) % s) * rinv % s if s > 1 else 0

    for m in spec.m_group.generators:
        img = list(range(n))
        for x in range(n):
            if x % nu1:
                continue
            c = coset_class(x)
            shift = ((m[c] - c) * (n // l1)) % n % (n // l0)
            img[x] = (x + shift) % n
        gens.append(tuple(img))

    if l0 > 1:
        step = n // l0
        for cp in range(s):
            img = list(range(n))
            for x in range(n):
                if x % nu1 == 0 and coset_class(x) == cp:
                    img[x] = (x + step) % n
            gens.append(tuple(img))
    return PermGroup(n, gens)


def canonical_gwp(d_u: PermGroup, d_0: PermGroup, sec: Section) -> PermGroup:
    """Canonical generalized wreath product of d_u (on Z_u, containing its
    translations) by d_0 (on Z_{n/l}, containing its translations), for the
    section U/L of Z_n.  Requires the two induced actions on S = U/L to
    agree exactly.

    The result projects onto d_0 mod L, restricts to d_u on U, and has
    order |d_0| * |kernel|^{n/u} where kernel is the subgroup of d_u fixing
    every L-coset setwise.

    Everything about d_u is read from one block_chain of its action on
    Z_u and the L-cosets y = c mod u/l: whether it holds x -> x+1, the
    order of its induced group on S, membership of d_0's induced
    generators in it (with equal orders, the two groups are then equal),
    the kernel, and a preimage of each block action of d_0 that a lift
    needs.
    """
    n, u, l = sec.n, sec.u, sec.l
    if d_u.degree != u:
        raise DomainError(f"top factor must act on Z_{u}, got degree {d_u.degree}")
    if d_0.degree != n // l:
        raise DomainError(f"bottom factor must act on Z_{n // l}, got degree {d_0.degree}")
    s = u // l
    nu = n // u
    bottom = Section(n // l, u // l, 1)
    chain, nb = block_chain(d_u, [range(c, u, s) for c in range(s)])
    if not chain.contains(translation(u, 1) + tuple(u + (c + 1) % s for c in range(s))):
        raise DomainError("the group does not contain x -> x+1")
    ind_0 = induced_on_section(d_0, bottom)
    order_u = prod(len(t) for t in chain.transversals[:nb])
    if order_u != ind_0.order() or any(block_preimage(chain, g) is None
                                       for g in ind_0.generators):
        raise DomainError(
            f"induced section actions differ: orders {order_u} vs {ind_0.order()}")
    gens: list[Perm] = []

    # kernel part: the L-coset kernel of d_u, copied onto every U-coset
    for k in chain.level_generators(nb):
        for j in range(nu):
            img = list(range(n))
            for y in range(u):
                img[j + nu * y] = j + nu * k[y]
            gens.append(tuple(img))

    # lifts: one permutation per generator of d_0, acting blockwise through
    # translation identifications of each U-coset with U; its block action
    # on coset j is in d_0's induced group, so it has a preimage in d_u
    for g0 in d_0.generators:
        img = [0] * n
        for j in range(nu):
            jp, sigma = section_action(g0, j, bottom)
            d = block_preimage(chain, sigma)
            for y in range(u):
                img[j + nu * y] = jp + nu * d[y]
        gens.append(tuple(img))
    return PermGroup(n, gens)


@dataclass(frozen=True)
class ResolveResult:
    group: PermGroup
    verified: bool | None  # None = comparison out of budget ("post unverified")


def resolve(ring: SRing, *, max_n: int = DEFAULT_AUT_MAX_N,
            node_budget: int = DEFAULT_NODE_BUDGET) -> ResolveResult:
    """A subgroup of Sym(Z_n) that is 2-equivalent to Aut(ring) for
    schurian rings, built by resolving prime-order singular classes.

    With no prime-order singular class this is Aut(ring) itself.
    Otherwise the ring is extended over each such class in (order, s_min)
    order with the full group ring on S: an extension keeps the A-subgroup
    lattice and loses just the class it was taken over, so the ring's own
    classes serve every extension.  Aut of the last extension is joined
    with the Gwr groups of the classes for M = Hol(S), last class first
    (join_generators: the 2-orbits of the join come from Aut's stabilizer
    of 0 and the Gwr generators, its chain is still built generically).
    The classes are proj_classes', cached, so a caller that has just
    computed them does not pay again.  max_n and node_budget bound both
    automorphism searches, as in aut_group; verified is None when
    Aut(ring) itself is out of them.
    """
    prime_classes = [cl for cl in singular_classes(ring) if is_prime(cl.order)]
    extended = ring
    for cl in prime_classes:
        extended = ext(extended, cl, group_ring(cl.order))
    group = aut_group(extended, max_n=max_n, node_budget=node_budget)
    if prime_classes:
        gens = []
        for cl in reversed(prime_classes):
            spec = GwrSpec(cl.s_min, cl.s_max, holomorph(cl.order))
            gens.extend(gwr_group(ring.n, spec).generators)
        group = join_generators(group, gens)
    try:
        verified = two_equivalent(group, aut_group(
            ring, max_n=max_n, node_budget=node_budget))
    except BudgetError:
        verified = None
    return ResolveResult(group=group, verified=verified)
