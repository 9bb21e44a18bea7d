"""Set and tuple builders of the S-ring constructions, kept as oracles for
the least-point rows that circulant.sring computes on, and one comparison
of the two over every catalog ring up to a modulus.

The tests import this module; CI runs the comparison up to n = 100 with
``PYTHONPATH=src:tests python -c 'import oracles; ...'``.
"""

from collections import Counter
from math import gcd

import numpy as np

from circulant import (
    DomainError,
    Section,
    enumerate_srings,
    generalized_wreath,
    section_ring,
    subgroup_lattice,
    tensor,
)
from circulant.catalog import _gwp_pairs
from circulant.sring import canonical_partition, s_condition_holds
from circulant.zn import check_modulus, crt_idempotents, divisors


def subgroup_elements(n, d):
    """The unique subgroup of order d in Z_n, as a set of residues."""
    check_modulus(n)
    if d < 1 or n % d != 0:
        raise DomainError(f"{d} is not a divisor of {n}")
    return frozenset(range(0, n, n // d))


def least_points(n, cells):
    """least[x] = the least point of x's cell, for canonical cells."""
    least = [0] * n
    for cell in cells:
        for x in cell:
            least[x] = cell[0]
    return np.array(least)


def tensor_partition(a1, a2):
    """The canonical cells of tensor(a1, a2): X1 x X2 embedded by the CRT
    idempotents e1 = (1, 0), e2 = (0, 1)."""
    n = a1.n * a2.n
    e1, e2 = crt_idempotents(a1.n, a2.n)
    return canonical_partition(tuple((x1 * e1 + x2 * e2) % n for x1 in X1 for x2 in X2)
                               for X1 in a1.cells for X2 in a2.cells)


def generalized_wreath_partition(a1, a2, sec):
    """The canonical cells of a1 wr_{U/L} a2: the image of a1's cells in U,
    then the preimage mod L of each cell of a2 outside U/L."""
    n, u, l = sec.n, sec.u, sec.l
    scale = n // u
    cells = [tuple(x * scale % n for x in cell) for cell in a1.cells]
    step = n // l  # generator of L inside Z_n
    for cell in a2.cells:
        if all(x % scale == 0 for x in cell):
            continue  # inside the image of U; covered by a1
        cells.append(tuple((x + k * step) % n for x in cell for k in range(l)))
    return canonical_partition(cells)


def lattice(ring):
    """Orders d | n whose subgroup is a union of basic sets."""
    n = ring.n
    out = []
    for d in divisors(n):
        sub = subgroup_elements(n, d)
        if all(set(ring.cells[i]) <= sub for i in {ring.cell_of[x] for x in sub}):
            out.append(d)
    return tuple(out)


def section_partition(ring, sec):
    """The canonical cells of the ring on the A-section U/L: the images of
    the basic sets in U, x -> (x / (n/u)) mod u/l; None if the images do
    not partition Z_{u/l}."""
    scale, order = ring.n // sec.u, sec.order
    images = {tuple(sorted({x // scale % order for x in cell}))
              for cell in ring.cells if cell[0] % scale == 0}
    if sorted(x for img in images for x in img) != list(range(order)):
        return None
    return canonical_partition(images)


def s_condition(ring, u, l):
    """Whether every basic set outside U is a union of L-cosets."""
    n, step = ring.n, ring.n // l
    for cell in ring.cells:
        if all(x % (n // u) == 0 for x in cell):
            continue
        members = set(cell)
        if any((x + step) % n not in members for x in cell):
            return False
    return True


def row_layer_mismatches(limit, counts=None):
    """Compare the public functions with the oracles on every catalog ring
    over Z_n, n <= limit, and yield (n, what, detail) for each difference:
    each ring's least_points, subgroup_lattice, section_ring at every
    A-section, s_condition_holds at every pair of lattice orders l | u,
    tensor over every coprime split 1 < a < b and every pair of factors,
    and generalized_wreath for every product the closure pairs
    (catalog._gwp_pairs).  counts, a Counter if given, receives the number
    of each compared."""
    counts = Counter() if counts is None else counts
    for n in range(1, limit + 1):
        catalog = enumerate_srings(n)
        for i, ring in enumerate(catalog):
            counts["rings"] += 1
            expected = least_points(n, ring.cells)
            if not (np.array_equal(ring.least_points, expected)
                    and np.array_equal(catalog.least_points[i], expected)):
                yield n, "least_points", i
            orders = lattice(ring)
            if subgroup_lattice(ring) != orders:
                yield n, "subgroup_lattice", i
            for u in orders:
                for l in orders:
                    if u % l:
                        continue
                    counts["sections"] += 1
                    sec = Section(n, u, l)
                    try:
                        cells = section_ring(ring, sec).cells
                    except DomainError:
                        cells = None
                    if cells != section_partition(ring, sec):
                        yield n, "section_ring", (i, u, l)
                    if s_condition_holds(ring, u, l) != s_condition(ring, u, l):
                        yield n, "s_condition_holds", (i, u, l)
        for a in divisors(n)[1:]:
            b = n // a
            if a >= b or gcd(a, b) != 1:
                continue
            for i, left in enumerate(enumerate_srings(a)):
                for j, right in enumerate(enumerate_srings(b)):
                    counts["tensors"] += 1
                    if tensor(left, right).cells != tensor_partition(left, right):
                        yield n, "tensor", (a, i, j)
        for sec, pairs in _gwp_pairs(n):
            lefts, rights = enumerate_srings(sec.u).entries, enumerate_srings(n // sec.l).entries
            for i, js in pairs:
                for j in js:
                    counts["products"] += 1
                    product = generalized_wreath(lefts[i], rights[j], sec)
                    if product.cells != generalized_wreath_partition(lefts[i], rights[j], sec):
                        yield n, "generalized_wreath", (sec.u, sec.l, i, j)
