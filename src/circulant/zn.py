"""Arithmetic of the cyclic group Z_n: divisors, subgroups, sections, units.

Subgroups of Z_n are identified by their order d (there is exactly one
subgroup per divisor): the subgroup of order d is the set of multiples of
n/d.  A section U/L is a pair of divisors l | u | n; its group is
canonically identified with Z_{u/l} by the maps sending 1 to n/m and to 1
respectively, so every quotient is materialized as a concrete Z_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import DomainError

# Operations reject moduli above this bound with a clear error.
MAX_MODULUS = 100_000


def check_modulus(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"modulus must be a positive integer, got {n!r}")
    if n > MAX_MODULUS:
        raise DomainError(f"modulus {n} exceeds the configured limit {MAX_MODULUS}")


def divisors(n: int) -> tuple[int, ...]:
    """All divisors of n in increasing order."""
    check_modulus(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def big_omega(n: int) -> int:
    """Number of prime factors of n counted with multiplicity."""
    check_modulus(n)
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count + (1 if n > 1 else 0)


def is_prime(n: int) -> bool:
    return n > 1 and big_omega(n) == 1


@dataclass(frozen=True)
class Section:
    """The section U/L of Z_n with |U| = u and |L| = l, where l | u | n.

    The section group is identified with Z_{u/l}: an element g of U (a
    multiple of n/u) projects to (g / (n/u)) mod (u/l).
    """

    n: int
    u: int
    l: int

    def __post_init__(self) -> None:
        check_modulus(self.n)
        if self.u < 1 or self.n % self.u != 0:
            raise DomainError(f"{self.u} is not a divisor of {self.n}")
        if self.l < 1 or self.u % self.l != 0:
            raise DomainError(f"{self.l} is not a divisor of {self.u}")

    @property
    def order(self) -> int:
        return self.u // self.l


def is_multiple(t: Section, s: Section) -> bool:
    """Whether T = U1/U0 is a multiple of S = L1/L0, i.e. L0 = U0 n L1 and U1 = U0*L1.

    In divisor arithmetic over Z_n the intersection of subgroups has gcd
    order and their product has lcm order.
    """
    if t.n != s.n:
        raise DomainError(f"sections over different moduli: {t.n} != {s.n}")
    u1, u0 = t.u, t.l
    l1, l0 = s.u, s.l
    return l0 == gcd(u0, l1) and u1 == (u0 * l1) // gcd(u0, l1)


def is_unit(n: int, m: int) -> bool:
    return gcd(m % n, n) == 1


def unit_group(n: int) -> tuple[int, ...]:
    """The units of Z_n in increasing order."""
    check_modulus(n)
    if n == 1:
        return (0,)
    return tuple(m for m in range(1, n) if gcd(m, n) == 1)


def multiplicative_closure(n: int, gens: frozenset[int] | set[int] | tuple[int, ...]) -> frozenset[int]:
    """The subgroup of (Z/n)* generated by the given units."""
    check_modulus(n)
    for g in gens:
        if not is_unit(n, g):
            raise DomainError(f"{g} is not a unit mod {n}")
    group = {1 % n}
    frontier = [1 % n]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = (x * g) % n
            if y not in group:
                group.add(y)
                frontier.append(y)
    return frozenset(group)


def unit_orbits(n: int, gens) -> tuple[tuple[int, ...], ...]:
    """Orbits of the multiplicative action of <gens> on Z_n, in canonical order.

    {0} is always a singleton orbit.  Cells are sorted ascending and listed
    by minimum element.
    """
    group = multiplicative_closure(n, gens)
    seen = [False] * n
    cells = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = sorted({(x * k) % n for k in group})
        for y in orbit:
            seen[y] = True
        cells.append(tuple(orbit))
    return tuple(cells)


def multiplicative_order(n: int, m: int) -> int:
    """Order of the unit m in (Z/n)*."""
    if not is_unit(n, m):
        raise DomainError(f"{m} is not a unit mod {n}")
    k, x = 1, m % n
    while x != 1 % n:
        x = (x * m) % n
        k += 1
    return k


def crt_idempotents(n1: int, n2: int) -> tuple[int, int]:
    """Residues (e1, e2) mod n1*n2 with e1 = (1,0) and e2 = (0,1) under CRT."""
    if gcd(n1, n2) != 1:
        raise DomainError(f"moduli {n1} and {n2} are not coprime")
    n = n1 * n2
    e1 = (n2 * pow(n2, -1, n1)) % n if n1 > 1 else 0
    e2 = (n1 * pow(n1, -1, n2)) % n if n2 > 1 else 0
    return e1, e2
