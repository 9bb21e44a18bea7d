"""Enumeration of circulant S-rings at desk scale, a brute-force oracle,
schurity sweeps, and the generator of the non-schurian family over
Z_{p*p*p3*p4}.

The enumeration builds, per divisor m of n: all cyclotomic rings and the
rank-2 ring as seeds, then closes under tensor products over coprime
splittings and generalized wreath products over proper sections (1 < l,
u < n).  Both closure operations consume only catalogs of smaller moduli,
so one pass per modulus reaches the fixpoint.  The closure only
orchestrates: every ring at n enters it as its least-point row, keyed by
its bytes, with no partition built, and every row comes from sring's row
functions, run over whole catalogs at once (Catalog.least_points stacks a
catalog's rows).  The factors of a generalized wreath product are paired
by their rings on U/L: a left factor's quotient row by L
(Catalog.quotients) against a right factor's restriction row to U/L
(Catalog.restrictions), which each catalog computes once per subgroup
order.  The gwp rows that are new are checked in one batch per section:
the product's cells are numbered from the factors' cells, and the first
point of each cell must be the row's least point.  Of the rows at n
(seeds, then tensors, then generalized wreath products) the first of
each ring is kept, and the cells of every ring kept are read off its row
in one place.  Every ring is an S-ring by construction (Schur's
theorem for the seeds, the tensor theorem, and the generalized wreath
theorem for factors whose rings on U/L agree), so the closure runs no
axiom check; the tests check every catalog ring with sring.validate.
Completeness rests on the radical dichotomy (a ring is either a proper
generalized wreath product or a tensor product of a normal ring and rank-2
rings, and normal rings are cyclotomic) and is certified against the
brute-force oracle for n <= 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import BudgetError, DomainError
from .scheme import DEFAULT_AUT_MAX_N, DEFAULT_NODE_BUDGET, is_normal, is_schurian
from .sring import (SRing, _cells_of, _cyclotomic_rows, _first_points, _gwp_rows, _is_a_subgroup,
                    _key_dtype, _quotient_rows, _restriction_rows, _tensor_rows, classify,
                    cyclotomic, generalized_wreath, group_ring, section_ring, validate)
from .zn import (
    Section,
    big_omega,
    check_modulus,
    crt_idempotents,
    divisors,
    is_prime,
    multiplicative_order,
    unit_group,
)

BRUTE_FORCE_MAX_N = 13
ENUMERATE_MAX_N = 200
# key entries per numpy batch of the closure, so that its temporaries stay
# a few MB however many products a section pairs
_BATCH_ENTRIES = 2**15


@dataclass(frozen=True)
class Catalog:
    """The S-rings over Z_n, by rank and then cells, with how each was
    found.

    least_points[i] is the least-point row of entry i; the closure stacks
    the keys it kept, and any other caller gets the entries' rows.  The
    section rows of restrictions and quotients are computed once per
    subgroup order and kept in _sections, which the catalog owns."""

    n: int
    entries: tuple[SRing, ...]
    provenance: tuple[str, ...]
    least_points: np.ndarray | None = field(default=None, compare=False, repr=False)
    _sections: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.least_points is None:
            least = np.array([ring.least_points for ring in self.entries],
                             dtype=_key_dtype(self.n)).reshape(len(self), self.n)
            object.__setattr__(self, "least_points", least)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def restrictions(self, s: int) -> dict[bytes, list[int]]:
        """The entries in which the subgroup H of order s is an A-subgroup,
        bucketed by the bytes of the least-point row of their ring on H."""
        key = ("restrictions", s)
        if key not in self._sections:
            rows = np.flatnonzero(_is_a_subgroup(self.least_points, self.n // s))
            buckets: dict[bytes, list[int]] = {}
            for j, row in zip(rows.tolist(), _restriction_rows(self.least_points[rows], s)):
                buckets.setdefault(row.tobytes(), []).append(j)
            self._sections[key] = buckets
        return self._sections[key]

    def quotients(self, l: int) -> dict[int, bytes]:
        """Entry i -> the bytes of the least-point row of its ring on
        Z_n / L, for each entry in which the subgroup L of order l is an
        A-subgroup."""
        key = ("quotients", l)
        if key not in self._sections:
            rows = np.flatnonzero(_is_a_subgroup(self.least_points, self.n // l))
            maps = _quotient_rows(self.least_points[rows], l)
            self._sections[key] = {i: row.tobytes() for i, row in zip(rows.tolist(), maps)}
        return self._sections[key]


def _unit_subgroups(n: int) -> list[frozenset[int]]:
    """All subgroups of (Z/n)*.  Each is a join of cyclic subgroups of
    prime-power order, so those are closed under joins.  Each cyclic
    subgroup <u> is built once, from the first of its generators u^k (k
    prime to |<u>|).  The group is abelian, so the join of a and <g> is the
    union of the cosets a * g^k up to the first g^k in a."""
    if n <= 2:
        return [frozenset({1 % n})]
    cyclic, done = [], set()
    for u in unit_group(n):
        if u in done:
            continue
        powers, x = [1], u
        while x != 1:
            powers.append(x)
            x = x * u % n
        m = len(powers)
        done.update(x for k, x in enumerate(powers) if gcd(k, m) == 1)
        if m == 1 or m == divisors(m)[1] ** big_omega(m):
            cyclic.append((u, frozenset(powers)))
    subgroups = {b for _, b in cyclic}
    frontier = set(subgroups)
    while frontier:
        new = set()
        for a in frontier:
            for g, _ in cyclic:
                if g in a:
                    continue
                joined, h = set(a), g
                while h not in a:
                    joined.update(x * h % n for x in a)
                    h = h * g % n
                joined = frozenset(joined)
                if joined not in subgroups:
                    subgroups.add(joined)
                    new.add(joined)
        frontier = new
    return sorted(subgroups, key=lambda s: (len(s), sorted(s)))


def enumerate_srings(n: int, limit: int = ENUMERATE_MAX_N) -> Catalog:
    """All S-rings over Z_n (seeds plus tensor/gwp closure, memoized per
    divisor)."""
    check_modulus(n)
    if n > limit:
        raise BudgetError(f"enumeration budget exceeded: n={n} > {limit}")
    return _enumerate_cached(n)


@lru_cache(maxsize=None)
def _enumerate_cached(n: int) -> Catalog:
    # every ring at n enters as a row of least points, keyed by its bytes:
    # the seeds, rank 2, then tensors by (a, i, j), then gwp products.  The
    # first key of a ring wins, and found maps it to the ring's provenance;
    # the cells of every ring kept are read off its key at the end.
    dtype = _key_dtype(n)
    size = n * dtype.itemsize
    found: dict[bytes, str] = {}

    def keep(keys: np.ndarray, how) -> list[int]:
        """Add each row of keys not found yet, named how(k) for row k, and
        return the indices of those rows."""
        blob, new = keys.astype(dtype, copy=False).tobytes(), []
        for k in range(len(keys)):
            key = blob[k * size:(k + 1) * size]
            if key not in found:
                found[key] = how(k)
                new.append(k)
        return new

    subgroups = [sorted(K) for K in _unit_subgroups(n)]
    keep(_cyclotomic_rows(n, subgroups), lambda k: f"seed:cyc({subgroups[k]})")
    keep(np.minimum(np.arange(n), 1)[None], lambda k: "seed:rank2")

    rows = max(1, _BATCH_ENTRIES // n)
    for a in divisors(n):
        b = n // a
        if a <= 1 or b <= 1 or a > b or gcd(a, b) != 1:
            continue
        lefts, rights = _enumerate_cached(a).least_points, _enumerate_cached(b).least_points
        pairs = len(lefts) * len(rights)
        for start in range(0, pairs, rows):
            i, j = np.divmod(np.arange(start, min(start + rows, pairs)), len(rights))
            keep(_tensor_rows(lefts[i], rights[j]), lambda k: f"tensor({a}#{i[k]},{b}#{j[k]})")

    for sec, pairs in _gwp_pairs(n):
        u, l = sec.u, sec.l
        left_ids = [i for i, js in pairs for _ in js]
        right_ids = [j for _, js in pairs for j in js]
        left_rows = _enumerate_cached(u).least_points[left_ids]
        right_rows = _enumerate_cached(n // l).least_points[right_ids]
        keys = _gwp_rows(left_rows, right_rows, sec)
        new = keep(keys, lambda k: f"gwp(u={u},l={l},{u}#{left_ids[k]},{n // l}#{right_ids[k]})")
        for start in range(0, len(new), rows):
            batch = new[start:start + rows]
            _check_gwp_keys(left_rows[batch], right_rows[batch], keys[batch], sec)

    keys = np.frombuffer(b"".join(found), dtype=dtype).reshape(len(found), n)
    cells = [c for start in range(0, len(keys), rows) for c in _cells_of(keys[start:start + rows])]
    how = list(found.values())
    order = sorted(range(len(found)), key=lambda k: (len(cells[k]), cells[k]))
    return Catalog(n, tuple(SRing(n, cells[k]) for k in order),
                   tuple(how[k] for k in order), keys[order])


def _gwp_pairs(n: int):
    """The products the closure forms over Z_n: for each proper section
    U/L (1 < l, u < n), (sec, pairs) with pairs the (i, js) such that the
    right factors js over Z_{n/l} induce on U/L the same ring as the left
    factor i over Z_u.  The left factor's ring there is its quotient by L
    and the right factor's its restriction to U/L, so the two are paired by
    their least-point maps."""
    for u in divisors(n)[:-1]:
        for l in divisors(u)[1:]:
            buckets = _enumerate_cached(n // l).restrictions(u // l)
            pairs = [(i, buckets[quotient])
                     for i, quotient in _enumerate_cached(u).quotients(l).items()
                     if quotient in buckets]
            if pairs:
                yield Section(n, u, l), pairs


def _check_gwp_keys(lefts: np.ndarray, rights: np.ndarray, keys: np.ndarray,
                    sec: Section) -> None:
    """Raise AssertionError unless each row of keys is the least-point map
    of the product of the same rows of lefts and rights, built cell by
    cell: a point x of U takes the left factor's cell of x // scale, any
    other x the right factor's cell of x mod n/l, numbered past the left
    factor's cells, and each cell's least point is the first point in it.
    A cell is named by its factor's least point, so the left cells are
    numbered below u."""
    n, u = sec.n, sec.u
    cells = rights[:, np.arange(n) % (n // sec.l)].astype(np.intp) + u
    cells[:, ::n // u] = lefts
    if not np.array_equal(_first_points(cells), keys):
        raise AssertionError(f"a key gathered over {sec} is not the least-point map "
                             "of its product")


def brute_force_srings(n: int) -> Catalog:
    """Oracle: enumerate all partitions of Z_n with {0} a cell and cells
    built in least-uncovered order, pruning on inverse-closure and on
    partial structure-constant consistency, validating at the leaves."""
    check_modulus(n)
    if n > BRUTE_FORCE_MAX_N:
        raise BudgetError(f"brute force bounded to n <= {BRUTE_FORCE_MAX_N}, got {n}")
    if n == 1:
        return Catalog(1, (group_ring(1),), ("brute",))

    results: list[SRing] = []

    def counts_of(cx: tuple[int, ...], cy: tuple[int, ...]) -> list[int]:
        counts = [0] * n
        for x in cx:
            for y in cy:
                counts[(x + y) % n] += 1
        return counts

    def place(cells: list[tuple[int, ...]], pair_counts: list[list[int]],
              new: list[tuple[int, ...]]) -> list[list[int]] | None:
        """Extend the verified pair-count list by the pairs involving the
        new cells; None if some count is non-constant on some cell."""
        before = len(cells) - len(new)
        for counts in pair_counts:
            for cell in new:
                base = counts[cell[0]]
                if any(counts[z] != base for z in cell):
                    return None
        added = []
        for j in range(before, len(cells)):
            for i in range(j + 1):
                counts = counts_of(cells[i], cells[j])
                for cell in cells:
                    base = counts[cell[0]]
                    if any(counts[z] != base for z in cell):
                        return None
                added.append(counts)
        return pair_counts + added

    def extend(cells: list[tuple[int, ...]], uncovered: set[int],
               pair_counts: list[list[int]]) -> None:
        if not uncovered:
            try:
                results.append(validate(n, cells))
            except DomainError:
                pass
            return
        x = min(uncovered)
        sig_x = tuple(c[x] for c in pair_counts)
        pool = sorted(y for y in uncovered
                      if y != x and tuple(c[y] for c in pair_counts) == sig_x)
        # choose the cell of x among subsets of its signature class
        for mask in range(1 << len(pool)):
            cell = (x,) + tuple(pool[i] for i in range(len(pool)) if mask >> i & 1)
            cset = set(cell)
            neg = {(-y) % n for y in cell}
            if neg & cset:
                if neg != cset:
                    continue
                new = [cell]
                rest = uncovered - cset
            else:
                if not neg <= uncovered - cset:
                    continue
                new = [cell, tuple(sorted(neg))]
                rest = uncovered - cset - neg
            new_cells = cells + new
            extended = place(new_cells, pair_counts, new)
            if extended is not None:
                extend(new_cells, rest, extended)

    extend([(0,)], set(range(1, n)), [counts_of((0,), (0,))])
    entries = sorted(set(results), key=lambda r: (r.rank, r.cells))
    return Catalog(n, tuple(entries), tuple("brute" for _ in entries))


@dataclass(frozen=True)
class SweepEntryReport:
    ring: SRing
    trivial_radical: bool
    gwp_sections: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class SweepReport:
    n: int
    total: int
    schurian: int
    nonschurian_entries: tuple[SweepEntryReport, ...]
    structural_checks: tuple[str, ...]


def _nonschurian_structure_checks(ring: SRing) -> list[str]:
    """Facts that must hold for a non-schurian ring over Z_n with four
    prime factors: for every section U/L satisfied non-trivially, |L| and
    |G/U| are prime, |U/L| != 4, the section ring is a proper wreath
    product, and the two factors are not both normal."""
    n = ring.n
    notes = []
    flags = classify(ring)
    if not flags.proper_gwp_sections:
        notes.append("FAIL: non-schurian ring without a proper gwp section")
    for (u, l) in flags.proper_gwp_sections:
        ok_primes = is_prime(l) and is_prime(n // u)
        s = u // l
        sec_ring = section_ring(ring, Section(n, u, l))
        sec_flags = classify(sec_ring)
        proper_wreath = any(uu == ll for (uu, ll) in sec_flags.proper_gwp_sections)
        factors_not_wreath = True
        for sub in (section_ring(ring, Section(n, u, 1)), section_ring(ring, Section(n, n, l))):
            sub_flags = classify(sub)
            if any(uu == ll for (uu, ll) in sub_flags.proper_gwp_sections):
                factors_not_wreath = False
        both_normal = (is_normal(section_ring(ring, Section(n, u, 1)))
                       and is_normal(section_ring(ring, Section(n, n, l))))
        status = "ok" if (ok_primes and s != 4 and proper_wreath
                          and factors_not_wreath and not both_normal) else "FAIL"
        notes.append(
            f"{status}: section (u={u},l={l}): primes={ok_primes}, |S|={s}, "
            f"section wreath={proper_wreath}, factors not wreath={factors_not_wreath}, "
            f"both normal={both_normal}")
    return notes


def schurity_sweep(n_values, *, max_n: int = DEFAULT_AUT_MAX_N,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> list[SweepReport]:
    """Per modulus: entry count, schurian count, and for each non-schurian
    entry its proper gwp sections plus the structural facts for four-prime
    moduli.  max_n and node_budget bound each automorphism search, as in
    aut_group."""
    reports = []
    for n in n_values:
        catalog = enumerate_srings(n)
        bad = []
        schurian_count = 0
        for ring in catalog:
            ok = is_schurian(ring, max_n=max_n, node_budget=node_budget)
            if ok:
                schurian_count += 1
            else:
                flags = classify(ring)
                bad.append(SweepEntryReport(
                    ring=ring,
                    trivial_radical=flags.trivial_radical,
                    gwp_sections=flags.proper_gwp_sections))
        checks: list[str] = []
        if bad and big_omega(n) == 4:
            for entry in bad:
                checks.extend(_nonschurian_structure_checks(entry.ring))
        reports.append(SweepReport(
            n=n, total=len(catalog), schurian=schurian_count,
            nonschurian_entries=tuple(bad), structural_checks=tuple(checks)))
    return reports


@dataclass(frozen=True)
class Example12Params:
    """Parameters of the four-prime family: p = p1 = p2, p3, p4 primes with
    p | p3 - 1, d | p - 1, d | p4 - 1; phi_choice picks the two order-d
    images mod p4 defining M1 and M2 (equal choices give the negative
    control)."""

    p: int = 5
    p3: int = 11
    p4: int = 13
    d: int = 4
    phi_choice: tuple[int, int] | None = None

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"d={self.d} must be a positive integer")
        for q in (self.p, self.p3, self.p4):
            if not is_prime(q):
                raise DomainError(f"{q} is not prime")
        if self.p == self.p3 or self.p == self.p4 or self.p3 == self.p4:
            raise DomainError("p, p3, p4 must be distinct")
        if (self.p3 - 1) % self.p != 0:
            raise DomainError(f"p={self.p} must divide p3-1={self.p3 - 1}")
        if (self.p - 1) % self.d != 0 or (self.p4 - 1) % self.d != 0:
            raise DomainError(f"d={self.d} must divide p-1 and p4-1")

    @property
    def n(self) -> int:
        return self.p * self.p * self.p3 * self.p4

    def negative_control(self) -> Example12Params:
        """The same parameters with both isomorphisms sending the generator
        to the least unit of order d mod p4."""
        image = _elements_of_order(self.p4, self.d)[0]
        return replace(self, phi_choice=(image, image))


def _elements_of_order(modulus: int, order: int) -> list[int]:
    """The units x > 1 of the given multiplicative order, ascending;
    DomainError when there is none."""
    found = [x for x in unit_group(modulus)
             if x > 1 and multiplicative_order(modulus, x) == order]
    if not found:
        raise DomainError(f"no unit of order {order} mod {modulus}")
    return found


def _crt(a: int, n1: int, b: int, n2: int) -> int:
    e1, e2 = crt_idempotents(n1, n2)
    return (a * e1 + b * e2) % (n1 * n2)


@dataclass(frozen=True)
class Example12Result:
    ring: SRing
    left: SRing                # cyclotomic ring over Z_{p^2 p3}
    right: SRing               # wreath-type ring over Z_{p^2 p4}
    m_generator: int
    m1_generator: int
    m2_generator: int
    certificate_section: Section


def example12(params: Example12Params) -> Example12Result:
    """The family ring A = Cyc(M, p^2 p3) wr_{p^2} (Cyc(M1, p p4) wr_{p4}
    Cyc(M2, p p4)) over Z_{p^2 p3 p4}.

    M is the graph of the epimorphism from the order-pd subgroup of
    Aut(Z_{p^2}) onto the order-p subgroup of Aut(Z_{p3}); M1 and M2 are
    graphs of isomorphisms between the order-d subgroups of Aut(Z_p) and
    Aut(Z_{p4}).  Both small quotients of the factors are verified to be
    the double wreath of Cyc(d, p) before combining.
    """
    p, p3, p4, d = params.p, params.p3, params.p4, params.d
    n = params.n

    a = _elements_of_order(p * p, p * d)[0]
    b = _elements_of_order(p3, p)[0]
    m_gen = _crt(a, p * p, b, p3)
    left = cyclotomic(p * p * p3, (m_gen,))

    c = _elements_of_order(p, d)[0]
    if params.phi_choice is not None:
        e1, e2 = params.phi_choice
        for e in (e1, e2):
            if multiplicative_order(p4, e) != d:
                raise DomainError(f"{e} does not have order {d} mod {p4}")
    else:
        images = _elements_of_order(p4, d)
        if len(images) < 2:
            raise DomainError(f"d={d} < 3 leaves no two distinct isomorphism images")
        e1, e2 = images[0], images[1]
    m1_gen = _crt(c, p, e1, p4)
    m2_gen = _crt(c, p, e2, p4)
    cyc1 = cyclotomic(p * p4, (m1_gen,))
    cyc2 = cyclotomic(p * p4, (m2_gen,))

    # A2 = Cyc(M1, p p4) wr_{p4} Cyc(M2, p p4) over Z_{p^2 p4}
    right = generalized_wreath(cyc1, cyc2, Section(p * p * p4, p * p4, p))

    # quotient/restriction on Z_{p^2} must equal Cyc(d,p) wr Cyc(d,p)
    cyc_dp = cyclotomic(p, (c,))
    double = generalized_wreath(cyc_dp, cyc_dp, Section(p * p, p, p))
    left_q = section_ring(left, Section(p * p * p3, p * p * p3, p3))
    right_r = section_ring(right, Section(p * p * p4, p * p, 1))
    if left_q != double or right_r != double:
        raise AssertionError("factor sections do not match the double wreath of Cyc(d,p)")

    ring = generalized_wreath(left, right, Section(n, p * p * p3, p3))
    return Example12Result(
        ring=ring, left=left, right=right,
        m_generator=m_gen, m1_generator=m1_gen, m2_generator=m2_gen,
        certificate_section=Section(n, p * p * p3, p3),
    )
