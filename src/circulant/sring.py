"""S-rings over Z_n and the constructions on them.

An S-ring is stored as its basic-set partition in canonical form: each
cell sorted ascending, cells ordered by minimum element.  Canonical form
defines equality and hashing, and every constructor canonicalizes on
output.

The constructions and queries compute on least-point rows, and this
module owns them: a partition of Z_n is determined by x -> the least
point of x's cell, a row of n integers (SRing.least_points, derived from
the cells when first read).  Each row function takes a stack of rows, so
the catalog closure runs it over whole catalogs and the public functions
run it on one ring.  A section ring is the quotient row of a restriction
row, and generalized_wreath pairs its factors by comparing the left
factor's quotient row with the right factor's restriction row.

One rule divides the work: validate checks a partition from outside the
program, and every constructor builds its S-ring directly from S-ring
inputs, by a theorem that makes the result an S-ring.  validate checks
cells, coverage, the identity cell and inverse closure in one Python
pass, then the structure constants as sorted rows: the row of z holds the
cell of z - x tagged by the cell of x, over every x, and sorted it must be
the same at every point of z's cell, which compares every count c_XY at z
at once.  The rows are built in one pass over the points listed cell by
cell, a chunk at a time, each compared with the row before it in its
cell.  A ring of rank 2 passes at once.  Every temporary has O(n) entries
or those of one chunk, whatever the cell sizes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd

import numpy as np

from .errors import DomainError
from .zn import Section, check_modulus, divisors, is_unit, unit_orbits


def canonical_partition(partition) -> tuple[tuple[int, ...], ...]:
    cells = [tuple(sorted(cell)) for cell in partition]
    cells.sort(key=lambda c: c[0])
    return tuple(cells)


@dataclass(frozen=True)
class SRing:
    """An S-ring over Z_n given by its basic sets in canonical form.

    Constructors build S-rings from S-rings; :func:`validate` checks
    outside input.  The raw constructor trusts its input.
    """

    n: int
    cells: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.cells)

    @cached_property
    def cell_of(self) -> tuple[int, ...]:
        """cell_of[x] = index of the basic set containing x."""
        idx = [-1] * self.n
        for i, cell in enumerate(self.cells):
            for x in cell:
                idx[x] = i
        return tuple(idx)

    @cached_property
    def least_points(self) -> np.ndarray:
        """least_points[x] = the least point of x's basic set, read-only."""
        least = [0] * self.n
        for cell in self.cells:
            for x in cell:
                least[x] = cell[0]
        row = np.array(least, dtype=_key_dtype(self.n))
        row.flags.writeable = False
        return row

    def refines(self, other: "SRing") -> bool:
        """True if every cell of self lies inside a cell of other (self >= other)."""
        if self.n != other.n:
            return False
        return all(len({other.cell_of[x] for x in cell}) == 1 for cell in self.cells)

    @staticmethod
    def from_json(text: str, n: int | None = None) -> "SRing":
        """The ring {"n": int, "basic_sets": [[int, ...], ...]}, validated;
        n is the modulus when the JSON has none.  Raises DomainError for
        anything else."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DomainError(f"malformed JSON at position {exc.pos}: {exc.msg}") from exc
        cells = data.get("basic_sets") if isinstance(data, dict) else None
        if not isinstance(cells, list) or not all(
                isinstance(c, list) and all(type(x) is int for x in c) for c in cells):
            raise DomainError("ring JSON must be an object whose 'basic_sets' is "
                              "a list of lists of integers")
        modulus = data.get("n", n)
        if modulus is None:
            raise DomainError("ring JSON carries no modulus and none was supplied")
        if n is not None and "n" in data and data["n"] != n:
            raise DomainError(f"modulus mismatch: JSON says {data['n']!r}, flag says {n}")
        return validate(modulus, cells)

    def __repr__(self) -> str:
        return f"SRing(n={self.n}, rank={self.rank})"


def validate(n: int, partition) -> SRing:
    """Check the S-ring axioms of a partition from outside the program
    and return the canonicalized ring.

    Raises DomainError naming a witness if a cell is empty, a point is out
    of range or not covered exactly once, the identity cell is not {0},
    some cell's negation is not a cell, or the convolution of two cells is
    not constant on some cell.  A partition of rank 2 or less that passes
    the other axioms is {0} and the rest, whose counts are constant, so it
    passes at once.
    """
    check_modulus(n)
    if any(len(cell) == 0 for cell in partition):
        raise DomainError("empty cell")
    cells = canonical_partition(partition)
    error = _axiom_error(n, cells)
    if error is not None:
        raise DomainError(error)
    ring = SRing(n, cells)
    if ring.rank > 2:
        failing = _failing_cell(ring)
        if failing is not None:
            _raise_first_failure(ring, failing)
    return ring


# entries of each chunk of rows of the structure-constant check (512 KB as
# int32)
_CHECK_ENTRIES = 1 << 17


def _axiom_error(n: int, cells) -> str | None:
    """The message for the first axiom other than the structure constants
    that canonical cells fail, in the order points, identity, inverses;
    None if they pass them all."""
    seen = [False] * n
    for cell in cells:
        for x in cell:
            if not 0 <= x < n:
                return f"element {x} out of range for Z_{n}"
            if seen[x]:
                return f"element {x} covered twice"
            seen[x] = True
    if not all(seen):
        return f"element {seen.index(False)} not covered"
    if cells[0] != (0,):
        return "identity not singleton: the cell of 0 must be {0}"
    cell_set = set(cells)
    # negation reverses each sorted cell other than {0}
    for cell in cells[1:]:
        if tuple([n - x for x in reversed(cell)]) not in cell_set:
            return f"not inverse-closed: -{set(cell)} is not a cell"
    return None


def _failing_cell(ring: SRing) -> int | None:
    """The least cell X of a partition that passes the other axioms whose
    count c_XY, for some cell Y, is not constant on some cell; None if
    there is none.

    c_XY(z), the number of (x, y) in X x Y with x + y = z, is the
    multiplicity of Y among the cells of z - x, x in X.  So the row of z,
    the cell of z - x tagged by the cell of x over every x and sorted, is
    the same at every point of z's cell exactly when every count is
    constant there.  Row z, column j holds the cell of z + j tagged by the
    cell of -j (x = -j), which sorting makes the same row.  The rows are
    gathered from one forward-strided view of the doubled cell ids, at the
    points listed cell by cell, a chunk of at most _CHECK_ENTRIES entries
    (or two rows, for n above half that) at a time, sorted, and each
    compared with the row before it when both lie in one cell; each chunk
    begins with the last row of the chunk before.

    Every sorted row holds |X| entries tagged X for each cell X, so column
    c of every row holds an entry tagged by the c-th least cell id of the
    points (z_cell, which is sorted).  The first column at which some row
    differs from its cell's first row is also the first at which two
    consecutive rows of that cell differ, and it names the least failing
    X.  Every temporary has O(n) entries or those of one chunk, whatever
    the cell sizes.
    """
    n, rank = ring.n, ring.rank
    zs = np.fromiter(chain.from_iterable(ring.cells), dtype=np.int64, count=n)
    sizes = np.fromiter(map(len, ring.cells), dtype=np.int64, count=rank)
    # a tagged entry is below rank * rank; int16 sorts faster where it fits
    dtype = np.int16 if rank * rank <= 1 << 15 else np.int32
    # the cell of each point of zs, and cell[x], the cell of x
    z_cell = np.arange(rank, dtype=dtype).repeat(sizes)
    cell = np.empty(n, dtype=dtype)
    cell[zs] = z_cell
    doubled = np.concatenate([cell, cell])
    window = np.lib.stride_tricks.as_strided(doubled, shape=(n, n), strides=doubled.strides * 2,
                                             writeable=False)
    tag = cell[-np.arange(n)] * rank
    same = z_cell[1:] == z_cell[:-1]
    # the columns at which two consecutive rows of one cell differ
    differs = np.zeros(n, dtype=bool)
    per = max(1, _CHECK_ENTRIES // n - 1)
    for start in range(0, n - 1, per):
        rows = window[zs[start:start + per + 1]]
        rows += tag
        rows.sort(axis=1)
        differs |= ((rows[1:] != rows[:-1]) & same[start:start + per, None]).any(axis=0)
        # one chunk at a time: free it before the next is gathered
        del rows
    return int(z_cell[np.argmax(differs)]) if differs.any() else None


def _raise_first_failure(ring: SRing, i: int) -> None:
    """Raise the DomainError for the first cell Y >= X = cell i whose
    counts c_XY are not constant on some cell, naming the least such z.
    For X the least failing cell (_failing_cell), c_XY = c_YX is constant
    for every Y < X, so this is the first pair the pairwise check in order
    (X, Y), X <= Y, rejects."""
    n = ring.n
    cell_id = np.fromiter(ring.cell_of, dtype=np.int64, count=n)
    first = np.array([cell[0] for cell in ring.cells], dtype=np.int64)
    X = np.array(ring.cells[i], dtype=np.int64)
    for j in range(i, ring.rank):
        Y = np.array(ring.cells[j], dtype=np.int64)
        counts = np.zeros(n, dtype=np.int64)
        step = max(1, _CHECK_ENTRIES // len(Y))
        for s in range(0, len(X), step):
            counts += np.bincount(((X[s:s + step, None] + Y) % n).ravel(), minlength=n)
        expected = counts[first][cell_id]
        if not np.array_equal(counts, expected):
            z = int(np.nonzero(counts != expected)[0][0])
            k = ring.cell_of[z]
            raise DomainError(
                "structure constants not constant on cell "
                f"(X=cell{i}, Y=cell{j}, cell{k}): z={z} gets {int(counts[z])}, "
                f"z={int(first[k])} gets {int(counts[first[k]])}"
            )
    raise AssertionError(f"cell{i} fails the sorted check but no pair count differs")


def group_ring(n: int) -> SRing:
    """The full group ring ZZ_n (all singletons)."""
    check_modulus(n)
    return SRing(n, tuple((x,) for x in range(n)))


def rank2(n: int) -> SRing:
    """The rank-2 ring {0} | Z_n \\ {0} (equals ZZ_1, ZZ_2 for n <= 2)."""
    check_modulus(n)
    if n == 1:
        return SRing(1, ((0,),))
    return SRing(n, ((0,), tuple(range(1, n))))


def cyclotomic(n: int, gens) -> SRing:
    """Cyc(K, n): basic sets are the orbits of K = <gens> <= (Z/n)* on Z_n.

    An S-ring by Schur's theorem: the orbits of the stabilizer of a point
    in a permutation group of Z_n that contains the translations form an
    S-ring.  Here the group is Z_n x| K, whose stabilizer of 0 is K.
    """
    return SRing(n, unit_orbits(n, gens))


def tensor(a1: SRing, a2: SRing) -> SRing:
    """Tensor product over Z_{n1*n2} via the CRT isomorphism fixed by the
    canonical idempotents e1 = (1,0), e2 = (0,1).

    An S-ring, since the tensor product of S-rings over Z_n1 and Z_n2 is
    one over Z_n1 x Z_n2: its structure constants are the products
    c_{X1 X2, Y1 Y2}(z1, z2) = c_{X1 Y1}(z1) * c_{X2 Y2}(z2)."""
    n1, n2 = a1.n, a2.n
    if gcd(n1, n2) != 1:
        raise DomainError(f"tensor factors must have coprime moduli, got {n1}, {n2}")
    check_modulus(n1 * n2)
    return SRing(n1 * n2, _cells_of(_tensor_rows(a1.least_points[None], a2.least_points[None]))[0])


def section_ring(ring: SRing, sec: Section) -> SRing:
    """The induced ring on the section U/L, as an S-ring over Z_{u/l}.

    Requires U and L to be A-groups; cells are the projections of the
    basic sets contained in U, read off the quotient row by L of the
    restriction row to U, and a DomainError is raised unless they
    partition Z_{u/l}.
    """
    if sec.n != ring.n:
        raise DomainError(f"section over Z_{sec.n} does not match ring over Z_{ring.n}")
    if sec.u == ring.n and sec.l == 1:
        return ring
    return _section_ring_cached(ring, sec)


@lru_cache(maxsize=65536)
def _section_ring_cached(ring: SRing, sec: Section) -> SRing:
    inside, row = _section_rows(ring, sec)
    _check_section_images(inside, row)
    return SRing(sec.order, _cells_of(row[None])[0])


def _section_rows(ring: SRing, sec: Section) -> tuple[np.ndarray, np.ndarray]:
    """The rows of the ring restricted to U and of its quotient by L, the
    ring on U/L if _check_section_images passes; U and L must be
    A-subgroups (DomainError otherwise)."""
    lattice = subgroup_lattice(ring)
    if sec.u not in lattice or sec.l not in lattice:
        raise DomainError(
            f"not an A-section: orders ({sec.u}, {sec.l}) not both in the lattice {lattice}")
    inside = _restriction_rows(ring.least_points[None], sec.u)[0]
    return inside, (inside if sec.l == 1 else _quotient_rows(inside[None], sec.l)[0])


def _check_section_images(inside: np.ndarray, row: np.ndarray) -> None:
    """DomainError unless the images of the basic sets of the ring on U
    (row inside) partition Z_{u/l}.  They do when each maps into the cell
    of its least point in row (their quotient), and the pairs (basic set,
    L-coset) that meet, counted column by column of U's points listed
    coset by coset, are as many as those cells hold together."""
    order = len(row)
    if order == len(inside):
        return
    y = np.arange(len(inside))
    target = row[y % order]
    columns = np.sort(inside.reshape(-1, order), axis=0)
    pairs = order + np.count_nonzero(columns[1:] != columns[:-1])
    if not ((target[inside] == target).all()
            and pairs == np.bincount(row, minlength=order)[target[inside == y]].sum()):
        raise DomainError("section images of basic sets do not form a partition")


def generalized_wreath(a1: SRing, a2: SRing, sec: Section) -> SRing:
    """The generalized wreath product A1 wr_{U/L} A2 over Z_n.

    a1 lives over Z_u = U, a2 over Z_{n/l} = G/L, and the two induced
    rings on S = U/L must coincide under the canonical identifications.
    The result restricts to a1 on U, projects to a2 mod L, and every
    basic set outside U is a union of L-cosets.  It is an S-ring by the
    theorem of Evdokimov and Ponomarenko on generalized wreath products:
    the product of an S-ring over U and one over G/L is an S-ring whenever
    the two induce the same ring on U/L.
    """
    n, u, l = sec.n, sec.u, sec.l
    if a1.n != u:
        raise DomainError(f"left factor must live over Z_{u}, got Z_{a1.n}")
    if a2.n != n // l:
        raise DomainError(f"right factor must live over Z_{n // l}, got Z_{a2.n}")
    if u == n and l == 1:
        if a1 != a2:
            raise DomainError("degenerate section G/1 requires equal factors")
        return a1

    inside, left = _section_rows(a1, Section(u, u, l))
    _check_section_images(inside, left)
    if not np.array_equal(left, _section_rows(a2, Section(n // l, u // l, 1))[1]):
        s1 = section_ring(a1, Section(u, u, l))
        s2 = section_ring(a2, Section(n // l, u // l, 1))
        raise DomainError(
            "section rings differ on U/L: "
            f"restriction of left factor gives {s1.cells}, of right factor {s2.cells}")
    return SRing(n, _cells_of(_gwp_rows(a1.least_points[None], a2.least_points[None], sec))[0])


def wreath(a1: SRing, a2: SRing, n: int) -> SRing:
    """Ordinary wreath product over Z_n: the generalized product with U = L."""
    u = a1.n
    if n % u != 0 or a2.n != n // u:
        raise DomainError(f"wreath factors Z_{a1.n}, Z_{a2.n} do not fit modulus {n}")
    return generalized_wreath(a1, a2, Section(n, u, u))


def radical_of_set(n: int, xs) -> int:
    """Order of the largest subgroup H with H + X = X (the radical of X).
    The stabilizer of X is a subgroup of Z_n, so this is the largest d | n
    with X + n/d = X."""
    check_modulus(n)
    xs = {x % n for x in xs}
    if not xs:
        raise DomainError("radical of the empty set is undefined")
    return next(d for d in reversed(divisors(n))
                if all((x + n // d) % n in xs for x in xs))


def radical(ring: SRing) -> int:
    """Order of rad(A): the radical of any basic set containing a generator
    of Z_n.  Independence across such basic sets is verified."""
    orders = {radical_of_set(ring.n, cell)
              for cell in ring.cells if any(is_unit(ring.n, x) for x in cell)}
    if len(orders) != 1:
        raise AssertionError(
            f"radical disagrees across generator cells ({sorted(orders)}); invalid S-ring")
    return orders.pop()


@lru_cache(maxsize=65536)
def subgroup_lattice(ring: SRing) -> tuple[int, ...]:
    """Orders d | n whose subgroup is a union of basic sets, sorted ascending."""
    orders = divisors(ring.n)
    steps = ring.n // np.array(orders)[:, None]
    return tuple(d for d, a in zip(orders, _is_a_subgroup(ring.least_points, steps).tolist()) if a)


def s_condition_holds(ring: SRing, u: int, l: int) -> bool:
    """Whether every basic set outside U is a union of L-cosets
    (the U/L-condition; U and L are assumed to be A-groups): whether
    x + n/l lies in x's basic set wherever x lies outside U."""
    if l == 1:
        return True
    n, least = ring.n, ring.least_points
    outside = np.flatnonzero(least % (n // u))
    return bool(np.array_equal(least[outside], least[(outside + n // l) % n]))


@dataclass(frozen=True)
class Classification:
    rank: int
    dense: bool
    primitive: bool
    trivial_radical: bool
    proper_gwp_sections: tuple[tuple[int, int], ...]  # (u, l) order pairs


def classify(ring: SRing) -> Classification:
    """Rank, density, primitivity, radical triviality, and the sections
    U/L (with L > 1, U < G) for which the ring satisfies the S-condition."""
    n = ring.n
    lattice = subgroup_lattice(ring)
    sections = []
    for u in lattice:
        if u == n:
            continue
        for l in lattice:
            if l == 1 or u % l != 0:
                continue
            if s_condition_holds(ring, u, l):
                sections.append((u, l))
    return Classification(
        rank=ring.rank,
        dense=(lattice == divisors(n)),
        primitive=(n > 1 and lattice == (1, n)),
        trivial_radical=(radical(ring) == 1),
        proper_gwp_sections=tuple(sorted(sections)),
    )


# --- least-point rows ---------------------------------------------------------
# Each function takes a stack of rows, one per ring, and answers row by row.


def _key_dtype(n: int) -> np.dtype:
    """The narrowest dtype of a row over Z_n that also holds n, so that a
    row divides and multiplies by any divisor of n in its own dtype."""
    return np.min_scalar_type(n)


def _cells_of(rows: np.ndarray) -> list[tuple[tuple[int, ...], ...]]:
    """The canonical cells of each row: the points grouped by least point,
    in order of first appearance."""
    order = np.argsort(rows, axis=1, kind="stable")
    starts = np.ones(rows.shape, dtype=bool)
    least = np.sort(rows, axis=1)
    starts[:, 1:] = least[:, 1:] != least[:, :-1]
    # one split of all rows' points, in row order, then cells by row
    cuts = np.flatnonzero(starts).tolist() + [rows.size]
    points = order.ravel().tolist()
    cells = [tuple(points[a:b]) for a, b in zip(cuts, cuts[1:])]
    out, k = [], 0
    for rank in starts.sum(axis=1).tolist():
        out.append(tuple(cells[k:k + rank]))
        k += rank
    return out


def _first_points(ids: np.ndarray) -> np.ndarray:
    """Row by row, x -> the first point whose cell id equals x's: the row
    of the partition that the non-negative ids of each row name."""
    k, n = ids.shape
    # number every row's cells apart, so one pass finds each first point
    width = int(ids.max()) + 1
    cells = ids + width * np.arange(k)[:, None]
    first = np.full(k * width, n, dtype=np.intp)
    np.minimum.at(first, cells.ravel(), np.tile(np.arange(n), k))
    return first[cells]


def _cyclotomic_rows(n: int, subgroups: list[list[int]]) -> np.ndarray:
    """The row of Cyc(K, Z_n) for each subgroup K of units:
    x -> min{k * x mod n : k in K}, the least point of x's K-orbit."""
    units = np.array([k for K in subgroups for k in K])
    starts = np.cumsum([0] + [len(K) for K in subgroups[:-1]])
    return np.minimum.reduceat(units[:, None] * np.arange(n) % n, starts, axis=0)


def _tensor_rows(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """The rows of the tensor products of the rows of lefts (over Z_a) and
    rights (over Z_b), row by row.  Under tensor's CRT embedding x lies in
    cell(x mod a) x cell(x mod b), so the pair of least points
    left[x mod a], right[x mod b] names its cell."""
    a, b = lefts.shape[1], rights.shape[1]
    x = np.arange(a * b)
    return _first_points(lefts[:, x % a].astype(np.intp) * b + rights[:, x % b])


def _gwp_rows(lefts: np.ndarray, rights: np.ndarray, sec: Section) -> np.ndarray:
    """The rows of left wr_{U/L} right, one per row of lefts and rights (or
    per row of rights, for one left row): a point x of U (a multiple of
    scale = n/u) has the least point scale * left[x // scale], any other x
    that of its L-coset's cell, right[x mod n/l]."""
    n, scale = sec.n, sec.n // sec.u
    rows = rights[:, np.arange(n) % (n // sec.l)].astype(_key_dtype(n))
    rows[:, ::scale] = scale * lefts.astype(rows.dtype)
    return rows


def _is_a_subgroup(rows: np.ndarray, step: int) -> np.ndarray:
    """Whether the subgroup generated by step (by each of a column of
    steps) is an A-subgroup of each row's ring: whether x lies in it
    exactly when x's least point does."""
    inside = np.arange(rows.shape[-1]) % step == 0
    return (inside == (rows % step == 0)).all(axis=-1)


def _restriction_rows(rows: np.ndarray, d: int) -> np.ndarray:
    """The rows of the rings on the A-subgroup of order d, over Z_d."""
    step = rows.shape[1] // d
    return (rows[:, ::step] // step).astype(_key_dtype(d))


def _quotient_rows(rows: np.ndarray, l: int) -> np.ndarray:
    """The rows of the quotients by the A-subgroup L of order l, over
    Z_s (s = n/l).  The cell of x < s there is the image mod s of x's
    cell, so its least point is min{y mod s : y in cell(x)}."""
    n = rows.shape[1]
    s = n // l
    k = np.arange(len(rows))[:, None]
    lowest = np.full(rows.shape, s, dtype=np.intp)
    np.minimum.at(lowest, (k, rows), np.arange(n) % s)
    return lowest[k, rows[:, :s]].astype(_key_dtype(s))
