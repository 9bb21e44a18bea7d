"""Output checks computed apart from the program under test.

Everything here is plain Python and numpy over partitions of Z_n and
permutation tuples; nothing imports `circulant`.  Each function returns a
list of problems, empty when the output is correct.
"""

from __future__ import annotations

from math import gcd

import numpy as np

EXAMPLE12_LATTICE = [1, 5, 11, 25, 55, 143, 275, 715, 3575]


def canonical(cells) -> tuple[tuple[int, ...], ...]:
    """Cells sorted, ordered by their least element."""
    return tuple(sorted(tuple(sorted(c)) for c in cells))


def labels_of(n: int, cells) -> np.ndarray:
    lab = np.full(n, -1, dtype=np.int64)
    for i, cell in enumerate(cells):
        lab[list(cell)] = i
    return lab


def omega(n: int) -> int:
    """Number of prime factors of n, with multiplicity."""
    count, p = 0, 2
    while p * p <= n:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count + (n > 1)


def units(n: int) -> list[int]:
    return [u for u in range(1, n) if gcd(u, n) == 1]


def unit_generators(n: int) -> list[int]:
    """A generating set of (Z/n)*, chosen greedily by least element."""
    gens: list[int] = []
    closure = {1 % n}
    for u in units(n):
        if u in closure:
            continue
        gens.append(u)
        frontier = list(closure)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % n
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
    return gens


def cyclotomic_partition(n: int, gens) -> tuple[tuple[int, ...], ...]:
    """Orbits of Z_n under multiplication by the subgroup generated by gens."""
    seen: set[int] = set()
    cells = []
    for x in range(n):
        if x in seen:
            continue
        orbit = {x}
        frontier = [x]
        while frontier:
            y = frontier.pop()
            for g in gens:
                z = y * g % n
                if z not in orbit:
                    orbit.add(z)
                    frontier.append(z)
        seen |= orbit
        cells.append(orbit)
    return canonical(cells)


def ring_problems(n: int, cells) -> list[str]:
    """S-ring axioms by direct count: a partition of Z_n with {0} a cell,
    closed under x -> -x, and with every product of two cells constant on
    every cell (cyclic convolution of the cell indicators)."""
    flat = sorted(x for c in cells for x in c)
    if flat != list(range(n)):
        return ["not a partition of Z_n"]
    if (0,) not in {tuple(c) for c in cells}:
        return ["{0} is not a cell"]
    lab = labels_of(n, cells)
    rep = np.array([min(c) for c in cells])
    neg = (-np.arange(n)) % n
    if not np.array_equal(lab[neg], lab[neg[rep[lab]]]):
        return ["not inverse-closed"]
    ind = np.zeros((len(cells), n))
    for i, cell in enumerate(cells):
        ind[i, list(cell)] = 1.0
    f = np.fft.rfft(ind, axis=1)
    conv = np.fft.irfft(f[:, None, :] * f[None, :, :], n=n, axis=2)
    counts = np.rint(conv).astype(np.int64)
    if np.abs(conv - counts).max() > 1e-6:
        return ["structure constants not integral"]
    if not np.array_equal(counts, counts[:, :, rep[lab]]):
        return ["structure constants not constant on a cell"]
    return []


def catalog_problems(n: int, entries, brute=None) -> list[str]:
    """Properties every complete catalog of S-rings over Z_n has."""
    problems = []
    parts = [canonical(c) for c in entries]
    have = set(parts)
    if len(have) != len(parts):
        problems.append("duplicate entries")
    for cells in parts:
        for p in ring_problems(n, cells):
            problems.append(f"{p}: {cells}")
            break
    expected = [((0,), tuple(range(1, n))), tuple((x,) for x in range(n))]
    expected += [cyclotomic_partition(n, [u]) for u in units(n)]
    if any(e not in have for e in expected):
        problems.append("missing rank 2, the group ring or a cyclotomic ring")
    for u in unit_generators(n):
        if any(canonical([[x * u % n for x in c] for c in cells]) not in have
               for cells in parts):
            problems.append(f"not closed under x -> {u}x")
    if n > 2 and omega(n) == 1:
        tau = sum(1 for d in range(1, n) if (n - 1) % d == 0)
        if len(parts) != tau:
            problems.append(f"prime modulus: {len(parts)} entries, d(n-1) = {tau}")
    if brute is not None and have != {canonical(c) for c in brute}:
        problems.append("differs from the brute-force oracle")
    return problems


def pair_orbits(n: int, gens) -> np.ndarray:
    """Orbits of the group generated by gens on ordered pairs of Z_n, by
    union-find over the n*n pairs; labels numbered in row-major order of
    first occurrence, so equal partitions give equal arrays."""
    idx = np.arange(n * n)
    x, y = idx // n, idx % n
    src, dst = [], []
    for g in gens:
        g = np.asarray(g, dtype=np.int64)
        src.append(idx)
        dst.append(g[x] * n + g[y])
    parent = idx.copy()
    if src:
        src, dst = np.concatenate(src), np.concatenate(dst)
        while True:
            ps, pd = parent[src], parent[dst]
            differ = ps != pd
            if not differ.any():
                break
            lo = np.minimum(ps[differ], pd[differ])
            hi = np.maximum(ps[differ], pd[differ])
            np.minimum.at(parent, hi, lo)
            while True:
                jumped = parent[parent]
                if np.array_equal(jumped, parent):
                    break
                parent = jumped
    _, first, inv = np.unique(parent, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    return rank[inv].reshape(n, n)


def stabilizer0_cells(labels: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Orbits of the stabilizer of 0 on points, read off the pair orbits of
    a transitive group: x and y share an orbit iff (0, x) and (0, y) do."""
    cells: dict[int, list[int]] = {}
    for x, lab in enumerate(labels[0].tolist()):
        cells.setdefault(lab, []).append(x)
    return canonical(cells.values())


def colour_table(n: int, cells) -> np.ndarray:
    """colour[x, y] = index of the cell holding y - x."""
    lab = labels_of(n, cells).astype(np.int32)
    ar = np.arange(n)
    return lab[(ar[None, :] - ar[:, None]) % n]


def generator_problems(n: int, cells, gens) -> list[str]:
    """Each generator is a permutation of Z_n preserving the colour table."""
    colour = colour_table(n, cells)
    for g in gens:
        f = np.asarray(g, dtype=np.int64)
        if len(f) != n or not np.array_equal(np.sort(f), np.arange(n)):
            return ["generator is not a permutation of Z_n"]
        if not np.array_equal(colour[f][:, f], colour):
            return ["generator does not preserve the colour table"]
    return []
