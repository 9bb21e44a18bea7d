"""Automorphism groups of the Cayley schemes of S-rings.

The color of (g, h) in the scheme is the index of the basic set
containing h - g.  Row g of that n x n table is the ring's cell-id row
rolled by g, so the search reads rows from one view of 2n cell ids
(``rolled_cells``) and never builds the table: refinement makes its
keys, and the color check of a map its rows, a block of at most
``_BLOCK_ENTRIES`` entries at a time.  An affine map x -> a * x + c, such
as a translation or a multiplier, gets an exact O(n) check instead: it
takes the color of (g, h), the cell of h - g, to the cell of a * (h - g),
so it preserves every color exactly when cell(a * z) = cell(z) for every
z (an a that is not a unit fails, since a * d = 0 for some d != 0 and
cell(0) = {0}).

The automorphism group is found by computing the stabilizer of 0 with an
individualization-refinement backtracking search over vertex colorings
(the edge-color table is fixed; refinement is one-dimensional).  A
partition is one pair (points, cuts): the n points in one int64 array,
cell by cell and each cell ascending, and the C + 1 cut positions as a
tuple of ints, so cell i is points[cuts[i]:cuts[i + 1]].  The root
partition is the basic sets, unrefined: for v in a basic set Z, the
number of u in Y with u - v in X is the coefficient of v in Y X^-1, the
same for every v in Z, so the basic sets are equitable and refinement
would return them as they are.  Every partition the search individualizes
a point v in is equitable, so its first refinement pass reads one column
of the color table: each cell splits by the color to v, ordered as the
sorted key rows would order it (keys are little-endian on every host,
and a carry out of a key's low byte reverses some colors), and when
no cell splits the partition is equitable as it is.  Only the passes
after a split sort key rows, and each reads the columns of its splitters
alone: the new cells of every cell the pass before it split, but one
largest of each, as in the equitable refinement of McKay and Piperno
(2014) and in Paige and Tarjan's "process all but the largest" (1987).
Two points of one cell have equal counts to every cell that pass left
whole, and so to the largest new cell of one it split, so their short
rows over the splitter columns differ exactly when their full rows do;
only the cells that split get full rows, which order their new cells.
Below n = _SPLITTER_MIN_N, where every full row is short, the pass after
the first makes them all.  The search fixes a base on its first path, then
searches its levels deepest first in one loop, so the automorphisms
found at levels >= L generate the pointwise stabilizer of the first L
base points: they are a strong generating set, and each level's
transversal is the Schreier tree of one orbit computation, which makes a
representative when it is looked up.  A union-find over the points of
the target cells, whose roots are least points, merges each automorphism
as it is found, over the target cells it maps onto themselves; since
every deeper level is finished before a level's candidates are tried,
its classes are the orbits that prune those candidates.  The descent
below a candidate keeps an explicit stack, not one call per level, so
the call depth stays flat on a base of length about n.  Off the first
path, each node first tests the map that aligns the first path's
partition at its level with its own, position by position in their
points; refinement keeps cells ascending and splits them in place, so
when that map is an automorphism it is the leaf the descent would reach
first, and the node is not descended below.  Since the translations are
always automorphisms and act regularly, the full group's stabilizer
chain is that of the stabilizer of 0 below an implicit translation
level, with no Schreier-Sims run; a ring of rank <= 2 gets the implicit
chain of Sym(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain

import numpy as np

from .errors import BudgetError, DomainError
from .perm import (
    PermGroup,
    SchreierTree,
    difference_classes,
    induced_on_section,
    intersect,
    symmetric_chain,
    translation_chain,
    two_equivalent,
)
from .sring import SRing, s_condition_holds, section_ring, subgroup_lattice
from .zn import Section

DEFAULT_AUT_MAX_N = 5000
DEFAULT_NODE_BUDGET = 500_000
# entries in one block of rows of the search's key and color temporaries,
# so that none grows with the square of n
_BLOCK_ENTRIES = 1 << 18
# below this n, `_split_by_point` leaves the splitters of the pass after it
# unfound, and that pass makes every full key row: over the catalogs, a
# search that finds them is 5% slower at n = 64 and 5% faster at n = 72
_SPLITTER_MIN_N = 72


def _points(ring: SRing) -> np.ndarray:
    """The points of Z_n cell by cell, in canonical order."""
    return np.fromiter(chain.from_iterable(ring.cells), dtype=np.int64, count=ring.n)


def rolled_cells(ring: SRing, dtype, points: np.ndarray | None = None) -> np.ndarray:
    """Read-only view with row k, 0 <= k <= n, equal to cell_of rolled left
    by k: rolled[k][z] is the index of the basic set containing z + k.
    points, when given, is `_points(ring)`."""
    n = ring.n
    cell_of = np.empty(2 * n, dtype=dtype)
    if points is None:
        points = _points(ring)
    cell_of[points] = np.repeat(np.arange(ring.rank, dtype=dtype),
                                [len(cell) for cell in ring.cells])
    cell_of[n:] = cell_of[:n]
    step = cell_of.strides[0]
    return np.lib.stride_tricks.as_strided(cell_of, shape=(n + 1, n), strides=(step, step),
                                           writeable=False)


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_ENTRIES // n)


def _affine(f: np.ndarray) -> tuple[int, int] | None:
    """(a, c) when f(x) = a * x + c mod n for every x, else None.  A map
    that disagrees with a * x + c at 2 (0 when n <= 2), n // 2 or n - 1
    is rejected before the full comparison."""
    n = len(f)
    c = f.item(0)
    a = (f.item(1) - c) % n if n > 1 else 0
    for x in (2 % n, n // 2, n - 1):
        if f.item(x) != (a * x + c) % n:
            return None
    if not np.array_equal(f, (a * np.arange(n) + c) % n):
        return None
    return a, c


def _preserves_colors(rolled: np.ndarray, f) -> bool:
    """Whether f preserves every color.

    An affine f(x) = a * x + c takes the pair (g, h), of color cell(h - g),
    to one of color cell(a * (h - g)), so it preserves every color exactly
    when cell(a * z) = cell(z) for every z: one gather of cell_of =
    rolled[0].  That is exact for any a, since the test rejects every a
    that is not a unit: then a * d = 0 for some d != 0, and cell(0) = {0}
    is not cell(d).  Any other f is checked a block of rows G of the color
    table at a time: row g is rolled[n - g], so D[f][:, f] has rows G equal
    to rolled[n - f[G]][:, f].  Most maps the search tests fix 0 and 1, so
    those skip the affine test.
    """
    n = len(f)
    f = np.asarray(f, dtype=np.int64)
    affine = None if n > 1 and f.item(0) == 0 and f.item(1) == 1 else _affine(f)
    if affine is not None:
        cell_of = rolled[0]
        return np.array_equal(cell_of[affine[0] * np.arange(n) % n], cell_of)
    step = _block_rows(n)
    for g0 in range(0, n, step):
        g1 = min(g0 + step, n)
        if not np.array_equal(rolled[n - f[g0:g1]][:, f], rolled[n - g0:n - g1:-1]):
            return False
    return True


def _splitters(points: np.ndarray, bounds: np.ndarray, old_bounds: np.ndarray,
               old: np.ndarray) -> np.ndarray:
    """The splitter points of a partition that a pass made, given as its
    points and its cut positions bounds, whose cell i lies in cell old[i]
    of the partition before the pass, of cut positions old_bounds: the
    points of every new cell of an old cell that split, except those of
    its largest new cell (the first, on a tie)."""
    sizes = bounds[1:] - bounds[:-1]
    # each old cell's new cells, largest first
    order = (old * (bounds[-1] + 1) - sizes).argsort(kind="stable")
    splitter = np.ones(len(sizes), dtype=bool)
    # an old cell starts where its first new cell does
    splitter[order[np.searchsorted(bounds, old_bounds[:-1])]] = False
    return points[splitter.repeat(sizes)]


class _TargetOrbits:
    """Union-find over the points of the search's target cells, whose
    classes are their orbits under the automorphisms merged; each root is
    its class's least point.

    An automorphism found at level k fixes base[:k], so it maps the target
    cell of every level L <= k onto itself, and those cells hold every
    candidate tested after it is found: it is merged over their points
    alone, not over Z_n.  No class then leaves a cell: a point outside a
    cell that an automorphism maps into it would make it map the cell
    onto more than itself."""

    def __init__(self, cells: list[list[int]]):
        self.parent: dict[int, int] = {}
        # fresh[k]: the points of the target cell of level k that no cell
        # above it holds
        self.fresh = []
        for cell in cells:
            fresh = [x for x in cell if x not in self.parent]
            self.parent.update(zip(fresh, fresh))
            self.fresh.append(fresh)

    def root(self, x: int) -> int:
        """The least point of x's class, halving the path to it."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def merge(self, f: tuple, k: int) -> None:
        """Join the classes of x and f(x) for every x of the target cells
        of levels <= k, f an automorphism found at level k."""
        for x in chain.from_iterable(self.fresh[:k + 1]):
            y = f[x]
            if x != y:
                rx, ry = self.root(x), self.root(y)
                self.parent[max(rx, ry)] = min(rx, ry)


class _StabilizerSearch:
    """Backtracking search for the full group of color-preserving
    permutations fixing 0 (equivalently, preserving every basic set).

    A partition is one pair (points, cuts): points is an int64 array of
    the n points cell by cell, each cell ascending, and cuts is a tuple of
    the C + 1 cut positions as Python ints, so cell i is
    points[cuts[i]:cuts[i + 1]].  Two partitions have the same shape
    exactly when their cuts are equal."""

    def __init__(self, ring: SRing, node_budget: int):
        self.n = ring.n
        points = _points(ring)
        # row g of the color table is rolled[n - g], a view of 2n entries
        self.rolled = rolled_cells(ring, np.uint16, points)
        # per key dtype: the cell ids twice over, and a buffer for them
        # times the number of cells with its window view
        self._key_windows: dict = {}
        self.node_budget = node_budget
        self.nodes = 0
        self.ncolors = ring.rank
        # p_seq[L]: the first path's partition at level L; the basic sets
        # are equitable, so refinement would return them as they are
        self.p_seq = [(points, (0, *accumulate(len(cell) for cell in ring.cells)))]
        self.base: list[int] = []
        self.target_cells: list[int] = []
        while True:
            part = self.p_seq[-1]
            ci = self._target_cell(part)
            if ci is None:
                break
            b = part[0].item(part[1][ci])
            self.base.append(b)
            self.target_cells.append(ci)
            self.p_seq.append(self._refine(self._individualize(part, ci, b), ci))
        # found[L]: automorphisms found at level L (fixing base[:L])
        self.found: list[list[tuple]] = [[] for _ in self.base]

    @staticmethod
    def _target_cell(part) -> int | None:
        """Smallest non-singleton cell, ties by least vertex (cells are
        ascending, so a cell's least vertex is its first); None when the
        partition is discrete."""
        points, cuts = part
        if len(cuts) - 1 == len(points):
            return None
        best = min(((b - a, points.item(a), i) for i, (a, b) in enumerate(zip(cuts, cuts[1:]))
                    if b - a > 1), default=None)
        return None if best is None else best[2]

    @staticmethod
    def _individualize(part, ci: int, v: int):
        """The partition with cell ci split into v and then the rest of
        the cell, both at the cell's positions."""
        points, cuts = part
        a, b = cuts[ci], cuts[ci + 1]
        out = points.copy()
        out[a + 1:b] = points[a:b][points[a:b] != v]
        out[a] = v
        return out, cuts[:ci + 1] + (a + 1,) + cuts[ci + 1:]

    def _key_dtype(self, C: int) -> np.dtype:
        """The narrowest little-endian unsigned dtype of at least 16 bits
        holding every key color * C + cell, up to ncolors * C - 1."""
        return np.dtype("<u2" if self.ncolors * C <= 1 << 16 else "<u4")

    def _key_window(self, C: int) -> tuple[np.ndarray, np.ndarray]:
        """The colors of the color table times C, in the `_key_dtype` of
        C: the cell ids twice over times C as buf, and the view of buf
        whose row n - v is row v of the table, buf[n - v:2n - v]."""
        dt = self._key_dtype(C)
        if dt not in self._key_windows:
            ids = np.tile(self.rolled[0].astype(dt), 2)
            buf = np.empty_like(ids)
            self._key_windows[dt] = ids, buf, np.lib.stride_tricks.sliding_window_view(buf, self.n)
        ids, buf, window = self._key_windows[dt]
        np.multiply(ids, C, out=buf)
        return buf, window

    def _sorted_keys(self, points, cell_id, window):
        """The bytes of each point's sorted key row, made a block of
        rows at a time."""
        n = self.n
        step = _block_rows(n)
        for start in range(0, len(points), step):
            keys = window[n - points[start:start + step]]
            keys += cell_id
            keys.sort(axis=1)
            raw = keys.tobytes()
            width = len(raw) // len(keys)
            yield from (raw[i:i + width] for i in range(0, len(raw), width))

    def _split_by_point(self, part, ci: int):
        """The first refinement pass of the partition made by
        individualizing v, the only point of cell ci, in an equitable
        partition, split by one column of the color table, and the
        splitters of the pass after it: the partition as it is and no
        splitters when no cell splits, else the `_splitters` of the new
        cells, or None (every point) when n < _SPLITTER_MIN_N or the new
        partition is discrete and no pass follows.

        The rest of v's old cell is cell ci + 1.  That cell was a cell of
        an equitable partition, so every x in a cell X has the same key
        row with v counted in cell ci + 1; the row of x is that row with
        one key k + 1 replaced by k = a * C + ci, a = color(x, v).  So two
        rows of X are equal exactly when their a is, and for a < b the row
        of a sorts first exactly when the bytes of k sort before those of
        k + 1.  Keys are little-endian on every host, so they do unless
        the low byte of k is 0xFF, whose carry makes k + 1's first byte
        0x00, at any key width.  So a cell's new cells are its colors
        without that carry ascending, then those with it descending.
        """
        points, cuts = part
        C, R = len(cuts) - 1, self.ncolors
        # the place of each color among the new cells of a cell
        ranks = [2 * R - 1 - a if (a * C + ci) & 0xFF == 0xFF else a for a in range(R)]
        # color(x, v) = cell_of[v - x] = rolled[v + 1][n - 1 - x]
        colors = self.rolled[points.item(cuts[ci]) + 1][::-1][points]
        old_bounds = np.fromiter(cuts, dtype=np.int64, count=C + 1)
        key = np.arange(0, 2 * R * C, 2 * R).repeat(old_bounds[1:] - old_bounds[:-1])
        key += np.array(ranks)[colors]
        order = key.argsort(kind="stable")
        key = key[order]
        starts = (key[1:] != key[:-1]).nonzero()[0] + 1
        if len(starts) + 1 == C:
            return part, points[:0]
        points, new_cuts = points[order], (0, *starts.tolist(), self.n)
        if self.n < _SPLITTER_MIN_N or len(new_cuts) - 1 == self.n:
            return (points, new_cuts), None
        bounds = np.concatenate(([0], starts, [self.n]))
        # key // 2R is the old cell of a point
        return (points, new_cuts), _splitters(points, bounds, old_bounds, key[bounds[:-1]] // (2 * R))

    def _row_pass(self, part, splitters):
        """One refinement pass against the edge-color table, stable under
        color-automorphisms cell-index-wise, of a partition that the pass
        before made with the splitters given (None: every point): the new
        partition and its splitters, the new cells of each cell that split
        but its largest (the first, on a tie), or the partition as it is
        and no splitters when no cell splits.

        The signature of a vertex v is the multiset of (edge color to u,
        cell of u) over all u, realized as the sorted row of combined
        keys color * C + cell; cells split into the order of the
        signatures' bytes.  Two points of one cell had one signature in
        the partition before the last pass, so they have the same count of
        each color to every cell that pass left whole, and to the largest
        new cell of each cell it split, which is that cell's count less
        those of its other new cells.  So their signatures differ exactly
        when their short rows do, the sorted keys over the splitter points
        alone, and `_split_cells` finds the cells that split from the short
        rows.  Only the points of those cells get full key rows (with
        splitters None, those of every non-singleton cell), so the new
        cells, their order and the key bytes are those of full rows.

        The keys are built in the `_key_dtype` of C: uint16 while
        ncolors * C <= 2**16, else uint32 (ncolors * C <= n**2 < 2**32 for
        n < 2**16).  Every key is non-negative and fits, so a wider
        little-endian dtype would only append zero bytes, equal in every
        key, to each entry: the byte order of two rows, and so the order of
        the new cells, is the same at any width.  The rows are made a block
        of points at a time from the `_key_window` of C, with no color
        table, and bucketed cell by cell; a cell larger than a block fills
        its buckets over several blocks.
        """
        points, cuts = part
        C = len(cuts) - 1
        buf, window = self._key_window(C)
        bounds = np.fromiter(cuts, dtype=np.int64, count=C + 1)
        sizes = bounds[1:] - bounds[:-1]
        cell_id = np.empty(self.n, dtype=window.dtype)
        cell_id[points] = np.arange(C, dtype=window.dtype).repeat(sizes)
        if splitters is None:
            split = np.flatnonzero(sizes > 1).tolist()
        else:
            split = self._split_cells(points[np.repeat(sizes > 1, sizes)], splitters, cell_id, buf)
            if not split:
                return part, points[:0]
        keys = self._sorted_keys(
            np.concatenate([points[cuts[i]:cuts[i + 1]] for i in split]), cell_id, window)
        out, added, new_splitters = points.copy(), [], []
        for i in split:
            a, b = cuts[i], cuts[i + 1]
            buckets: dict[bytes, list[int]] = {}
            # zip takes exactly b - a rows from keys
            for v, key in zip(points[a:b].tolist(), keys):
                buckets.setdefault(key, []).append(v)
            if len(buckets) == 1:
                continue
            pieces = [buckets[key] for key in sorted(buckets)]
            # max takes the first of the largest
            largest = max(pieces, key=len)
            cell = []
            for piece in pieces:
                cell += piece
                added.append(a + len(cell))
                if piece is not largest:
                    new_splitters += piece
            # the last new cell ends at b, an old cut
            added.pop()
            out[a:b] = cell
        if not added:
            return part, points[:0]
        return (out, tuple(sorted(cuts + tuple(added)))), np.array(new_splitters, dtype=np.int64)

    def _split_cells(self, rows, splitters, cell_id, buf) -> list[int]:
        """The cells, of the points of the non-singleton cells given as
        rows, whose points' short key rows, their keys over the splitter
        points sorted, are not all equal: those in which two consecutive
        rows differ.  The short rows are made a block of rows at a time,
        each block starting at the last row of the one before."""
        row_cell = cell_id[rows]
        splitter_ids = cell_id[splitters]
        # the key of (v, u) is buf[n - v + u]; int32 halves the block of
        # indices (2n < 2**31)
        offsets, splitters = (self.n - rows).astype(np.int32), splitters.astype(np.int32)
        differs = np.empty(len(rows) - 1, dtype=bool)
        step = max(2, _BLOCK_ENTRIES // len(splitters))
        for start in range(0, len(rows) - 1, step - 1):
            keys = buf[offsets[start:start + step, None] + splitters]
            keys += splitter_ids
            keys.sort(axis=1)
            differs[start:start + step - 1] = (keys[1:] != keys[:-1]).any(axis=1)
        differs &= row_cell[1:] == row_cell[:-1]
        # rows are in cell order, so dict.fromkeys keeps each cell once
        return list(dict.fromkeys(row_cell[1:][differs].tolist()))

    def _refine(self, part, ci: int):
        """One-dimensional refinement of a partition in which cell ci is
        a point just individualized in an equitable partition: the first
        pass is `_split_by_point`, one gather of the point's column and one
        stable sort, which gives the cells of a row pass in their order
        (ascending color, except that the colors whose key ends in the
        byte 0xFF go last, descending), and a partition it leaves as it is
        is already equitable.  Then `_row_pass`, each against the
        splitters of the pass before it, until no cell splits.
        """
        n = self.n
        if len(part[1]) - 1 == n:
            return part
        part, splitters = self._split_by_point(part, ci)
        while len(part[1]) - 1 < n and (splitters is None or len(splitters)):
            part, splitters = self._row_pass(part, splitters)
        return part

    def run(self) -> list:
        """Search, then return the stabilizer chain levels of the stabilizer
        of 0 as (base point, transversal, automorphisms found there).

        The levels are searched deepest first, so when a level starts,
        every deeper level is finished and none above has started:
        found[:level] is empty, and the `_TargetOrbits` classes on the
        level's target cell are the orbits of found[level:] on it, each
        automorphism merged over the target cells it maps onto themselves
        (O(|cells|), not O(n)).  The cell is ascending, the base point is
        its first point and the candidates are the rest in order, so v's
        orbit meets a point tried or skipped before v iff its least point
        is not v.
        """
        cells = [points[cuts[ci]:cuts[ci + 1]].tolist()
                 for (points, cuts), ci in zip(self.p_seq, self.target_cells)]
        orbits = _TargetOrbits(cells)
        for level in reversed(range(len(self.base))):
            for v in cells[level][1:]:
                if orbits.root(v) == v:
                    f = self._first_leaf(level, self.p_seq[level], v)
                    if f is not None:
                        self.found[level].append(f)
                        orbits.merge(f, level)
        return [(b, self._transversal(level), self.found[level])
                for level, b in enumerate(self.base)]

    def _transversal(self, level: int) -> SchreierTree:
        """{pt: (u, u^-1)} over the orbit of base[level], as the Schreier
        tree of a breadth-first search under the automorphisms found at
        this level or deeper."""
        gens = [g for found in self.found[level:] for g in found]
        return SchreierTree(self.n, self.base[level], gens)

    def _tick(self, level: int) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            found = sum(len(gens) for gens in self.found)
            raise BudgetError(
                f"automorphism search budget exhausted after {self.nodes} nodes, "
                f"at level {level} of base length {len(self.base)}, "
                f"automorphisms found: {found}")

    def _aligned_map(self, level: int, part) -> tuple | None:
        """The map taking the first path's partition at this level onto
        part position by position, if it preserves every color."""
        f = np.empty(self.n, dtype=np.int64)
        f[self.p_seq[level][0]] = part[0]
        return tuple(f.tolist()) if _preserves_colors(self.rolled, f) else None

    def _first_leaf(self, level: int, part, v: int):
        """The first automorphism, in depth-first candidate order, among
        the leaves below the child at v of the node (level, part), or
        None, from a stack of (level, partition, candidates left).

        Refinement splits a cell only within its own positions and keeps
        every cell ascending, so the aligned map at a child fixes the base
        points above it and is increasing on each cell.  When it is an
        automorphism, the first candidate at each deeper level is its image
        of the base point, the refined partitions are its images of the
        first path's, and the leaf reached is the map itself: the descent
        would return it.  Only at the leaf is a failed test final; above it
        the candidates are searched.
        """
        stack = [(level, part, iter((v,)))]
        while stack:
            level, part, candidates = stack[-1]
            v = next(candidates, None)
            if v is None:
                stack.pop()
                continue
            ci = self.target_cells[level]
            self._tick(level)
            child = self._refine(self._individualize(part, ci, v), ci)
            if child[1] != self.p_seq[level + 1][1]:
                continue
            f = self._aligned_map(level + 1, child)
            if f is not None:
                return f
            if level + 1 < len(self.base):
                points, cuts = child
                ci = self.target_cells[level + 1]
                stack.append((level + 1, child, iter(points[cuts[ci]:cuts[ci + 1]].tolist())))
        return None


def _chain_group(chain) -> PermGroup:
    return PermGroup(chain.degree, chain.strong_generators(), chain=chain)


@lru_cache(maxsize=4096)
def _aut_group_cached(ring: SRing, node_budget: int) -> PermGroup:
    n = ring.n
    if ring.rank <= 2:
        # A scheme with at most one off-diagonal color is preserved by every
        # permutation, so Aut = Sym(n) exactly.
        return _chain_group(symmetric_chain(n))
    search = _StabilizerSearch(ring, node_budget)
    group = _chain_group(translation_chain(n, search.run()))
    if not all(_preserves_colors(search.rolled, g) for g in group.generators):
        raise AssertionError("search returned a non-automorphism; internal error")
    return group


def aut_group(ring: SRing, *, max_n: int = DEFAULT_AUT_MAX_N,
              node_budget: int = DEFAULT_NODE_BUDGET) -> PermGroup:
    """The full automorphism group of the Cayley scheme of the ring.

    Always contains the translations.  Every returned generator is
    verified against every color: an affine one, x -> a * x + c, in O(n)
    as cell(a * z) = cell(z) for every z, since it takes the color of
    (g, h), the cell of h - g, to the cell of a * (h - g); any other, a
    block of rows of the color table at a time.  Raises
    BudgetError when n or the search budget is exceeded (never returns a
    wrong answer).
    """
    if ring.n > max_n:
        raise BudgetError(
            f"automorphism search bound exceeded: n={ring.n} > {max_n}")
    return _aut_group_cached(ring, node_budget)


def stabilizer0_orbits(ring: SRing, **kwargs) -> tuple[tuple[int, ...], ...]:
    """Orbits on Z_n of the stabilizer of 0 in Aut(ring), canonical form:
    the difference classes of Aut's 2-orbits, cached on the group, so
    that schurity and every 2-equivalence test with Aut find them once."""
    return tuple(map(tuple, difference_classes(aut_group(ring, **kwargs))))


def is_schurian(ring: SRing, **kwargs) -> bool:
    """Whether the orbits of the stabilizer of 0 in Aut(ring) are exactly
    the basic sets.  The bounds (max_n, node_budget) and the BudgetError
    are aut_group's: the Z_3575 family ring (non-schurian) and its negative
    control (schurian) are decided within the defaults."""
    return stabilizer0_orbits(ring, **kwargs) == ring.cells


def is_normal(ring: SRing, *, max_n: int = DEFAULT_AUT_MAX_N,
              node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Whether the translations are normal in Aut(ring): whether every
    generator is affine, x -> a * x + c.  The normalizer of the
    translations in Sym(n) is the holomorph of Z_n, the affine
    permutations."""
    group = aut_group(ring, max_n=max_n, node_budget=node_budget)
    return all(_affine(np.asarray(g)) is not None for g in group.generators)


@dataclass(frozen=True)
class NonSchurityReport:
    holds: bool
    intersection_order: int
    section_aut_order: int
    induced_orders: tuple[int, int]


def nonschurity_criterion(ring: SRing, sec: Section, *,
                          max_n: int = DEFAULT_AUT_MAX_N,
                          node_budget: int = DEFAULT_NODE_BUDGET) -> NonSchurityReport:
    """One-sided non-schurity certificate for a ring satisfying the
    U/L-condition: the ring is non-schurian whenever the intersection of
    the two induced automorphism groups on S = U/L is not 2-equivalent to
    the automorphism group of the section ring.  holds=False is
    inconclusive.

    Every group here holds the translations and carries a translation
    chain, a section of order 1 included: Aut(A_U) and Aut(A_{G/L}) from
    aut_group, their induced groups on S from induced_on_section, which
    runs Schreier-Sims only on the image of each stabilizer of 0, and
    their intersection T (H1_0 & H2_0), from intersect, which enumerates
    only the smaller stabilizer of 0 (BudgetError past its threshold).
    The 2-orbits of the intersection are read from its level 1."""
    n, u, l = sec.n, sec.u, sec.l
    if ring.n != n:
        raise DomainError("section does not match the ring modulus")
    if l > 1 and u < n:
        lattice = subgroup_lattice(ring)
        if not (u in lattice and l in lattice and s_condition_holds(ring, u, l)):
            raise DomainError(
                f"ring does not satisfy the U/L-condition for (u={u}, l={l})")

    ring_u = section_ring(ring, Section(n, u, 1))
    ring_gl = section_ring(ring, Section(n, n, l))
    aut_u = aut_group(ring_u, max_n=max_n, node_budget=node_budget)
    aut_gl = aut_group(ring_gl, max_n=max_n, node_budget=node_budget)
    ind_u = induced_on_section(aut_u, Section(u, u, l))
    ind_gl = induced_on_section(aut_gl, Section(n // l, u // l, 1))
    inter = intersect(ind_u, ind_gl)
    ring_s = section_ring(ring, sec)
    aut_s = aut_group(ring_s, max_n=max_n, node_budget=node_budget)
    holds = not two_equivalent(inter, aut_s)
    return NonSchurityReport(
        holds=holds,
        intersection_order=inter.order(),
        section_aut_order=aut_s.order(),
        induced_orders=(ind_u.order(), ind_gl.order()),
    )
