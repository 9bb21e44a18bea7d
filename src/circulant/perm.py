"""Permutation groups on {0..m-1} given by generators.

Permutations are dense image tuples.  Composition is left-to-right:
mult(p, q) applies p first, then q.  Groups carry a lazily built
deterministic Schreier-Sims stabilizer chain that certifies the order and
supports membership sifting; a base prefix can be prescribed, which is
how the kernel on a block system is computed (the blocks must be
invariant: every generator maps each block onto a block).  A chain known
by construction is assembled from its levels instead
(``translation_chain``, ``symmetric_chain``, ``holomorph``); its
translation, transposition and multiplier levels, and the Schreier trees
of other levels, make their representatives on demand rather than store
them.

Every group compared by its orbits on ordered pairs contains the
translations of Z_m, and the routines that compare them require it: a
group that does not contain x -> x+1, as a generator or as a member, is
a DomainError.  Such a group takes (x, y) to (0, y - x), so its 2-orbits
are the classes of differences y - x, which are the orbits of its
stabilizer of 0 on Z_m.  A chain built by ``translation_chain`` gives
them as the point orbits of its level 1; any other group as the
components of the difference graph, d ~ g(x+d) - g(x) over every
generator g and every x.  Both take m nodes.  A group built by
``join_generators`` from a translation-chain group and more generators
joins the two: the point edges of the first group's level 1 and the
difference edges of the rest.  Point orbits and these components are
found by one numpy routine: min label propagation with pointer jumping.

The action induced on a section U/L requires a group that contains
x -> x+1 and has the U-cosets and L-cosets as blocks.  The translations
t_j are then coset representatives of the setwise stabilizer of U, and
its Schreier generators t_j g t_k^-1 are read only at the u/l points of U
that give their action on U/L.  A group with a translation chain is
T G_0, the translations times the stabilizer of 0; its induced group and
the intersection of two such groups are built the same way, with
Schreier-Sims and enumeration confined to the stabilizers of 0.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .errors import BudgetError, DomainError
from .zn import Section, is_unit, multiplicative_closure, unit_group

Perm = tuple

INTERSECT_ENUM_THRESHOLD = 10 ** 6
INDUCED_TABLE_LIMIT = 10 ** 4
# edge targets per block of the difference graph (512 KB as int64), so
# that no temporary grows with the square of the degree; a block still
# holds at least one row x for every generator
_EDGE_BLOCK = 1 << 16


_IDENTITY_CACHE: dict[int, Perm] = {}


def identity(m: int) -> Perm:
    cached = _IDENTITY_CACHE.get(m)
    if cached is None:
        cached = _IDENTITY_CACHE[m] = tuple(range(m))
    return cached


def mult(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(map(q.__getitem__, p))


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def check_perm(p, m: int | None = None) -> Perm:
    p = tuple(p)
    if m is not None and len(p) != m:
        raise DomainError(f"permutation degree {len(p)} != {m}")
    if set(p) != set(range(len(p))):
        raise DomainError("not a permutation")
    return p


def is_identity(p: Perm) -> bool:
    return p == identity(len(p))


def translation(n: int, k: int) -> Perm:
    return tuple((x + k) % n for x in range(n))


def _multiplier(n: int, a: int) -> Perm:
    return tuple((a * x) % n for x in range(n))


def _transposition(n: int, a: int, b: int) -> Perm:
    img = list(range(n))
    img[a], img[b] = b, a
    return tuple(img)


class _Translations(Mapping):
    """Transversal {v: (x -> x+v, x -> x-v)} of the stabilizer of 0 in a
    group containing the translations of Z_n, made on demand."""

    def __init__(self, n: int):
        self.n = n

    def __getitem__(self, v: int) -> tuple[Perm, Perm]:
        if not 0 <= v < self.n:
            raise KeyError(v)
        return translation(self.n, v), translation(self.n, -v)

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(range(self.n))


class _Multipliers(Mapping):
    """Level 1 of Hol(Z_n) over the base 0, 1: the transversal
    {a: (x -> a*x, x -> a^-1*x)} over the units a, made on demand.  The
    stabilizer of 0 is the group of unit multipliers, which is regular on
    the orbit of 1, the units, so no level follows."""

    def __init__(self, n: int):
        self.n = n
        self.units = unit_group(n)

    def __getitem__(self, a: int) -> tuple[Perm, Perm]:
        if not (0 <= a < self.n and is_unit(self.n, a)):
            raise KeyError(a)
        return _multiplier(self.n, a), _multiplier(self.n, pow(a, -1, self.n))

    def __len__(self) -> int:
        return len(self.units)

    def __iter__(self):
        return iter(self.units)


class _Transpositions(Mapping):
    """Level b of Sym(n) over the base 0, 1, ..., n-2: the transversal
    {pt: ((b pt), (b pt))} for pt >= b, made on demand.  The level's group
    Sym({b..n-1}) is generated by (b b+1) and the cycle (b b+1 ... n-1)."""

    def __init__(self, n: int, b: int):
        self.n = n
        self.b = b

    def __getitem__(self, pt: int) -> tuple[Perm, Perm]:
        if not self.b <= pt < self.n:
            raise KeyError(pt)
        t = _transposition(self.n, self.b, pt)
        return t, t

    def __len__(self) -> int:
        return self.n - self.b

    def __iter__(self):
        return iter(range(self.b, self.n))

    def generators(self) -> list[Perm]:
        n, b = self.n, self.b
        swap = _transposition(n, b, b + 1)
        if n - b == 2:
            return [swap]
        return [swap, tuple(range(b)) + tuple(range(b + 1, n)) + (b,)]


class SchreierTree(Mapping):
    """Transversal {pt: (u, u^-1)} of the orbit of b under the generators,
    stored as the breadth-first tree pt -> (parent, generator index): a
    Schreier vector (Seress, Permutation Group Algorithms, 2003, sec. 4.1).
    u is the product of the generators on the tree path from b to pt, made
    when pt is looked up, so the tree holds O(orbit) entries, not a dense
    pair per point.  Points are in breadth-first order, generators in
    their given order at each point."""

    def __init__(self, degree: int, b: int, generators):
        self.degree = degree
        self.generators = list(generators)
        tree: dict[int, tuple[int, int] | None] = {b: None}
        queue = [b]
        for pt in queue:
            for gi, g in enumerate(self.generators):
                img = g[pt]
                if img not in tree:
                    tree[img] = (pt, gi)
                    queue.append(img)
        self._tree = tree

    def __getitem__(self, pt: int) -> tuple[Perm, Perm]:
        edge = self._tree[pt]
        path = []
        while edge is not None:
            parent, gi = edge
            path.append(self.generators[gi])
            edge = self._tree[parent]
        u = identity(self.degree)
        for g in reversed(path):
            u = mult(u, g)
        return u, inverse(u)

    def __contains__(self, pt) -> bool:
        return pt in self._tree

    def __len__(self) -> int:
        return len(self._tree)

    def __iter__(self):
        return iter(self._tree)


class StabChain:
    """Deterministic incremental Schreier-Sims chain.

    ``base`` may be prescribed up front (levels are created eagerly), in
    which case the pointwise stabilizer of any base prefix is generated by
    the strong generators fixing that prefix.  ``from_levels`` assembles a
    read-only chain from levels known by construction instead.
    """

    def __init__(self, degree: int, base: tuple[int, ...] = ()):
        self.degree = degree
        self.base: list[int] = []
        self.gen_lists: list[list[Perm]] = []
        # transversals[i][pt] = (u, u^-1) with u[base[i]] = pt
        self.transversals: list[Mapping[int, tuple[Perm, Perm]]] = []
        self._read_only = False
        # per level: generators seen by the closure scan and the pair queue
        self._known: list[list[Perm]] = []
        self._orbit_order: list[list[int]] = []
        self._pending: list[list[tuple[int, int]]] = []
        self._dirty: set[int] = set()
        for b in base:
            self._new_level(b)

    @classmethod
    def from_levels(cls, degree: int, levels) -> "StabChain":
        """Assemble a read-only chain from (basepoint, transversal,
        generators) triples that are known by construction to form a valid
        chain: the transversal maps each orbit point pt to (u, u^-1) with
        u[basepoint] = pt, and the generators are the strong generators
        added at that level."""
        chain = cls(degree)
        chain._read_only = True
        for b, trans, gens in levels:
            chain.base.append(b)
            chain.transversals.append(trans)
            chain.gen_lists.append(list(gens))
        return chain

    def _new_level(self, b: int) -> None:
        self.base.append(b)
        self.gen_lists.append([])
        self.transversals.append({b: (identity(self.degree),) * 2})
        self._known.append([])
        self._orbit_order.append([b])
        self._pending.append([])

    def level_generators(self, level: int) -> list[Perm]:
        """Generators of the stabilizer of base[:level] (strong generators
        added at this level or deeper; a transposition level generates its
        own group and everything below it)."""
        out = []
        for lev in range(level, len(self.base)):
            trans = self.transversals[lev]
            if isinstance(trans, _Transpositions):
                out.extend(trans.generators())
                break
            out.extend(self.gen_lists[lev])
        return out

    def strong_generators(self) -> list[Perm]:
        return self.level_generators(0)

    def order(self) -> int:
        total = 1
        for t in self.transversals:
            total *= len(t)
        return total

    def strip(self, g: Perm, level: int = 0) -> tuple[Perm, int]:
        """Sift g from the given level; returns (residue, level reached)."""
        h = g
        for lev in range(level, len(self.base)):
            b = self.base[lev]
            img = h[b]
            if img == b:
                continue
            pair = self.transversals[lev].get(img)
            if pair is None:
                return h, lev
            h = mult(h, pair[1])
        return h, len(self.base)

    def contains(self, g: Perm) -> bool:
        residue, _ = self.strip(g)
        return is_identity(residue)

    def insert(self, g: Perm) -> bool:
        """Add g to the group if not already a member.  Returns True if the
        group grew."""
        if self._read_only:
            raise TypeError("an assembled chain is read-only")
        residue, lev = self.strip(g)
        if is_identity(residue):
            return False
        self._append_gen(lev, residue)
        self._close_all()
        return True

    def _append_gen(self, lev: int, g: Perm) -> None:
        if lev == len(self.base):
            b = next(p for p in range(self.degree) if g[p] != p)
            self._new_level(b)
        self.gen_lists[lev].append(g)
        self._dirty.update(range(lev + 1))

    def _close_all(self) -> None:
        # Deepest-first: closing a level may dirty it and everything above.
        while self._dirty:
            lev = max(self._dirty)
            self._dirty.discard(lev)
            self._close_level(lev)

    def _sync_level(self, lev: int) -> None:
        """Queue Schreier pairs for new generators and new orbit points."""
        known = self._known[lev]
        known_set = set(known)
        trans = self.transversals[lev]
        order = self._orbit_order[lev]
        pending = self._pending[lev]
        for g in self.level_generators(lev):
            if g not in known_set:
                known_set.add(g)
                known.append(g)
                gi = len(known) - 1
                for pt_idx in range(len(order)):
                    pending.append((pt_idx, gi))
        # extend orbit with all known generators
        i = 0
        scan = order
        while i < len(scan):
            pt = scan[i]
            i += 1
            u = trans[pt][0]
            for gi, g in enumerate(known):
                img = g[pt]
                if img not in trans:
                    v = mult(u, g)
                    trans[img] = (v, inverse(v))
                    order.append(img)
                    for gj in range(len(known)):
                        pending.append((len(order) - 1, gj))

    def _close_level(self, lev: int) -> None:
        self._sync_level(lev)
        trans = self.transversals[lev]
        order = self._orbit_order[lev]
        known = self._known[lev]
        pending = self._pending[lev]
        while pending:
            pt_idx, gi = pending.pop()
            pt = order[pt_idx]
            g = known[gi]
            u = trans[pt][0]
            schreier = mult(mult(u, g), trans[g[pt]][1])
            if is_identity(schreier):
                continue
            residue, sublev = self.strip(schreier, lev + 1)
            if not is_identity(residue):
                self._append_gen(sublev, residue)
                self._dirty.add(lev)
                return

    def elements(self):
        """Iterate all group elements (use only when the order is small).
        Each level's representatives are read once per call, since a level
        made on demand builds them anew on every read."""
        reps = [[u for u, _ in trans.values()] for trans in self.transversals]

        def rec(level):
            if level == len(self.base):
                yield identity(self.degree)
                return
            for sub in rec(level + 1):
                for u in reps[level]:
                    yield mult(sub, u)

        yield from rec(0)


def translation_chain(n: int, levels=()) -> StabChain:
    """Chain of a group containing the translations of Z_n: level 0 has
    base point 0 and the translations as its transversal, made on demand;
    ``levels`` are those of the stabilizer of 0 (see from_levels)."""
    level0 = (0, _Translations(n), [translation(n, 1)])
    return StabChain.from_levels(n, [level0, *levels])


def _levels(chain: StabChain, start: int = 0) -> list:
    """The (basepoint, transversal, generators) triples of a chain from
    the given level on, as from_levels takes them."""
    return list(zip(chain.base[start:], chain.transversals[start:],
                    chain.gen_lists[start:]))


def symmetric_chain(n: int) -> StabChain:
    """Chain of Sym(n) (n >= 2) over the base 0, 1, ..., n-2: translations,
    then transposition levels, all made on demand."""
    return translation_chain(n, [(b, _Transpositions(n, b), [])
                                 for b in range(1, n - 1)])


class PermGroup:
    """A permutation group of the given degree with a generator list."""

    def __init__(self, degree: int, generators, chain: StabChain | None = None):
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            g = check_perm(g, degree)
            if not is_identity(g) and g not in seen:
                seen.add(g)
                gens.append(g)
        self.generators: tuple[Perm, ...] = tuple(gens)
        self._chain = chain
        self._two_orbit_labels: np.ndarray | None = None

    @property
    def chain(self) -> StabChain:
        if self._chain is None:
            ch = StabChain(self.degree)
            for g in self.generators:
                ch.insert(g)
            self._chain = ch
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def contains(self, g) -> bool:
        g = check_perm(g, self.degree)
        return self.chain.contains(g)

    def elements(self):
        return self.chain.elements()

    def orbits(self) -> list[list[int]]:
        """Point orbits, each sorted, ordered by minimum element."""
        return orbits(self.degree, self.generators)

    def is_transitive(self) -> bool:
        return self.degree == 1 or len(self.orbits()) == 1

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def trivial_group(n: int) -> PermGroup:
    return PermGroup(n, [])


def translations(n: int) -> PermGroup:
    """The regular group of translations of Z_n."""
    if n == 1:
        return trivial_group(1)
    return PermGroup(n, [translation(n, 1)], chain=translation_chain(n))


def symmetric(n: int) -> PermGroup:
    if n <= 1:
        return trivial_group(max(n, 1))
    gens = [tuple([1, 0] + list(range(2, n)))]
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return PermGroup(n, gens, chain=symmetric_chain(n))


def unit_generators(m: int) -> tuple[int, ...]:
    """A small generating set of (Z/m)*, chosen greedily by least element."""
    if m <= 2:
        return ()
    gens: list[int] = []
    closure = {1}
    for u in unit_group(m):
        if u not in closure:
            gens.append(u)
            closure = set(multiplicative_closure(m, tuple(gens)))
    return tuple(gens)


def holomorph(m: int) -> PermGroup:
    """Hol(Z_m): generated by x -> x+1 and x -> g*x for unit generators g.
    Its chain is known by construction: the translations, then the unit
    multipliers (the stabilizer of 0) at base point 1; order m * phi(m)."""
    if m == 1:
        return trivial_group(1)
    multipliers = [_multiplier(m, g) for g in unit_generators(m)]
    levels = [(1, _Multipliers(m), multipliers)] if multipliers else []
    return PermGroup(m, [translation(m, 1), *multipliers],
                     chain=translation_chain(m, levels))


def groups_equal(g1: PermGroup, g2: PermGroup) -> bool:
    """Exact equality as permutation groups (same degree, same element set)."""
    if g1.degree != g2.degree:
        return False
    if g1.order() != g2.order():
        return False
    return all(g2.contains(g) for g in g1.generators)


def _perm_stack(generators, degree: int) -> np.ndarray:
    """The generators and their inverses (an involution once) as the rows
    of one index array: with both, every edge of an orbit graph is also
    walked back."""
    perms = np.array(generators, dtype=np.intp).reshape(-1, degree)
    inverses = np.empty_like(perms)
    inverses[np.arange(len(perms))[:, None], perms] = np.arange(degree)
    return np.concatenate([perms, inverses[(inverses != perms).any(axis=1)]])


def _least_in_component(size: int, edge_blocks) -> np.ndarray:
    """The least node of the connected component of each node 0..size-1.

    ``edge_blocks()`` yields 2-D index arrays whose column j lists
    neighbours of node j; every edge must also be listed reversed.  It is
    called once per round: each node and the root its label names take
    the least label among the node's neighbours, then labels jump to their
    label's label until they stop moving.  Labels only fall and stay
    within the component, and once a round moves none, neighbours agree,
    so each label is its component's least node.  Moving the roots keeps
    long cycles short: the points of Z_1000 under x -> x+3 and x -> -x
    take 3 rounds, and 169 without.
    """
    lab = np.arange(size)
    while True:
        changed = False
        for targets in edge_blocks():
            nearest = lab[targets].min(axis=0)
            if (nearest < lab).any():
                changed = True
                np.minimum.at(lab, lab.copy(), nearest)
                np.minimum(lab, nearest, out=lab)
        if not changed:
            return lab
        while True:
            jumped = lab[lab]
            if np.array_equal(jumped, lab):
                break
            lab = jumped


def _least_in_orbit(degree: int, generators) -> np.ndarray:
    """The least point of the orbit of each point under the generators."""
    perms = _perm_stack(generators, degree)
    blocks = [perms] if len(perms) else []
    return _least_in_component(degree, lambda: blocks)


def _classes(least: np.ndarray) -> list[list[int]]:
    """The classes that ``least`` names by their least member, each
    sorted, ordered by least member."""
    points = np.argsort(least, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(least[points])) + 1).tolist(), least.size]
    points = points.tolist()
    return [points[a:b] for a, b in zip(cuts, cuts[1:])]


def orbits(degree: int, generators) -> list[list[int]]:
    """Point orbits of the group generated, each sorted, ordered by least
    point."""
    return _classes(_least_in_orbit(degree, generators))


def _difference_edges(perms: np.ndarray):
    """Edges d -> g(x+d) - g(x) of the difference graph, for a block of
    rows x at a time: about _EDGE_BLOCK targets over all perms, rows and
    differences (no block without perms)."""
    k, m = perms.shape
    # shifted[i, x] is perms[i] at x + d for d = 0..m-1
    shifted = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([perms, perms], axis=1), m, axis=1)
    rows = max(1, _EDGE_BLOCK // max(1, k * m))
    for x0 in range(0, m if k else 0, rows):
        xs = slice(x0, min(x0 + rows, m))
        targets = shifted[:, xs] - perms[:, xs, None]
        targets %= m
        yield targets.reshape(-1, m)


def _require_translations(group: PermGroup) -> None:
    """Raise DomainError unless the group contains x -> x+1."""
    step = translation(group.degree, 1)
    if step not in group.generators and not group.contains(step):
        raise DomainError("the group does not contain x -> x+1")


def _has_translation_chain(group: PermGroup) -> bool:
    """Whether the group's chain was built by translation_chain, so that
    its level 1 generates the stabilizer of 0."""
    levels = group._chain.transversals if group._chain is not None else []
    return bool(levels) and isinstance(levels[0], _Translations)


def _two_orbit_classes(group: PermGroup) -> np.ndarray:
    """Least member of the class of each difference 0..m-1, cached on the
    group: the orbits of its stabilizer of 0.  Raises DomainError, before
    any array is built, unless the group contains x -> x+1."""
    if group._two_orbit_labels is None:
        _require_translations(group)
        m = group.degree
        if _has_translation_chain(group):
            least = _least_in_orbit(m, group.chain.level_generators(1))
        else:
            perms = _non_translations(group.generators, m)
            least = _least_in_component(m, lambda: _difference_edges(perms))
        group._two_orbit_labels = least
    return group._two_orbit_labels


def _non_translations(generators, m: int) -> np.ndarray:
    """_perm_stack of the generators without the translations, which add
    only the loops d -> d to the difference graph."""
    perms = _perm_stack(generators, m)
    return perms[((perms - perms[:, :1]) % m != np.arange(m)).any(axis=1)]


def join_generators(group: PermGroup, generators) -> PermGroup:
    """PermGroup(m, group.generators + generators) for a group with a
    translation chain, with its difference classes found at once: the
    components of one graph on Z_m over the point edges of
    group.chain.level_generators(1) and the difference edges of
    ``generators`` only.

    This is exact.  Let G be the group and H the join; both hold the
    translations T.  For a group that holds T, the components of the
    difference graph of any generating set are the orbits of its
    stabilizer of 0 (see the module docstring), so H's classes are the
    components of the difference edges of G's generators and of
    ``generators`` together.  Those of G's generators alone are the orbits
    of G_0, as G = T G_0, and so are the components of the point edges of
    G_0's generators, level 1 of the chain.  The components of a union of
    edge sets depend only on the components of each set, so the swap
    leaves H's classes as they were.  H's chain is still built
    generically, on demand."""
    if not _has_translation_chain(group):
        raise DomainError("join_generators needs a group with a translation chain")
    m = group.degree
    joined = PermGroup(m, [*group.generators, *generators])
    points = _perm_stack(group.chain.level_generators(1), m)
    perms = _non_translations(generators, m)

    def edges():
        if len(points):
            yield points
        yield from _difference_edges(perms)

    joined._two_orbit_labels = _least_in_component(m, edges)
    return joined


def difference_classes(group: PermGroup) -> list[list[int]]:
    """The classes of differences y - x of the 2-orbits of a group that
    contains x -> x+1, which are the orbits of its stabilizer of 0: each
    sorted, ordered by least member."""
    return _classes(_two_orbit_classes(group))


def two_orbits(group: PermGroup) -> np.ndarray:
    """Orbit labels of the coordinatewise action on ordered pairs, for a
    group that contains x -> x+1 (else DomainError).

    Returns an m x m int32 matrix, the only m x m array built here;
    labels are assigned in row-major order of first encounter, so equal
    partitions yield identical matrices.  (x, y) has the label of the
    difference class of y - x, and a class's least difference d sits at
    (0, d), so the classes rank by least member.
    """
    m = group.degree
    least = _two_orbit_classes(group)
    labels = (np.cumsum(least == np.arange(m), dtype=np.int32) - 1)[least]
    # row x is the difference labels rolled right by x
    twice = np.concatenate([labels, labels])
    return np.lib.stride_tricks.sliding_window_view(twice, m)[m:0:-1].copy()


def two_equivalent(g1: PermGroup, g2: PermGroup) -> bool:
    """Whether the two groups have identical orbits on ordered pairs, for
    groups that contain x -> x+1 (else DomainError): whether their
    difference classes agree.  Builds no m x m array."""
    if g1.degree != g2.degree:
        raise DomainError(f"degree mismatch: {g1.degree} != {g2.degree}")
    return bool(np.array_equal(_two_orbit_classes(g1), _two_orbit_classes(g2)))


def _check_section(group: PermGroup, sec: Section) -> None:
    n = sec.n
    if group.degree != n:
        raise DomainError(f"group degree {group.degree} does not match section modulus {n}")
    # g permutes the residue classes mod m iff g(x + m) = g(x) mod m for all x
    perms = np.array(group.generators, dtype=np.intp).reshape(-1, n)
    moved = sum(((np.roll(perms, -m, axis=1) - perms) % m).any(axis=1)
                for m in (n // sec.u, n // sec.l))
    if moved.any():
        raise DomainError(
            f"section not invariant under generator {group.generators[moved.argmax()]}")
    _require_translations(group)


def section_action(g: Perm, j: int, sec: Section) -> tuple[int, Perm]:
    """For k = g(j) mod n/u, the Schreier generator t_j g t_k^-1 (t_v is
    x -> x+v) maps U onto itself.  Returns k and its action on the
    L-classes of U as a permutation of Z_{u/l}, read at the u/l points
    c * n/u, without building the degree-n permutation."""
    nu, s = sec.n // sec.u, sec.order
    k = g[j] % nu
    # g(c * n/u + j) is k + q * n/u, which t_k^-1 maps to q * n/u
    return k, tuple(g[c * nu + j] // nu % s for c in range(s))


def induced_on_section(group: PermGroup, sec: Section) -> PermGroup:
    """The action induced on the section U/L of Z_n by the setwise
    stabilizer of U, under the canonical identification with Z_{u/l}.

    Requires the U-coset and L-coset partitions to be invariant and the
    group to contain x -> x+1 (see the module docstring).  The generators
    are the actions of the Schreier generators t_j g t_k^-1.

    A group G whose chain was built by translation_chain gets a chain of
    the same kind on Z_{u/l}, with Schreier-Sims run only on the
    stabilizer of 0:
    - G = T G_0, for the translations T and the stabilizer G_0 of 0, and
      G_0 maps U, the block of 0, onto itself.
    - The stabilizer of 0 (the coset L) in G^{U/L} is the image of G_0:
      an element t_v g of the stabilizer of U, g in G_0, maps L onto L
      exactly when v is in L, and t_v then acts trivially on U/L.  That
      image is generated by sigma(h) = section_action(h, 0, sec)[1] over
      the generators h of G_0, each fixing 0.
    - t_{n/u} induces c -> c+1, so G^{U/L} holds the translations of
      Z_{u/l}, and |G^{U/L}| = u/l * |<sigma(h)>|.
    """
    _check_section(group, sec)
    if sec.u == sec.n and sec.l == 1:
        return group
    induced = {section_action(g, j, sec)[1]
               for g in group.generators for j in range(sec.n // sec.u)}
    if not _has_translation_chain(group):
        return PermGroup(sec.order, induced)
    stabilizer = StabChain(sec.order)
    for h in group.chain.level_generators(1):
        stabilizer.insert(section_action(h, 0, sec)[1])
    return PermGroup(sec.order, induced,
                     chain=translation_chain(sec.order, _levels(stabilizer)))


def kernel_on_blocks(group: PermGroup, blocks) -> PermGroup:
    """The subgroup fixing every block setwise, for a partition into
    blocks that the group permutes (its generators map each block onto a
    block).

    The group then acts on the m points and the blocks together; a
    stabilizer chain on that extended domain with the block labels as
    base prefix yields the pointwise stabilizer of the labels, i.e. the
    kernel.  Raises DomainError when a generator maps a block outside the
    partition.
    """
    m = group.degree
    blocks = [frozenset(b) for b in blocks]
    covered: set[int] = set()
    for b in blocks:
        if b & covered:
            raise DomainError("blocks are not disjoint")
        covered |= b
    if covered != set(range(m)):
        raise DomainError("blocks do not cover the domain")

    sets: list[frozenset] = list(dict.fromkeys(blocks))
    index = {b: i for i, b in enumerate(sets)}
    nb = len(sets)
    ext_gens = []
    for g in group.generators:
        images = [index.get(frozenset(g[x] for x in b)) for b in sets]
        if None in images:
            raise DomainError("blocks are not invariant: a generator maps a block "
                              "outside the partition")
        ext_gens.append(tuple(g) + tuple(m + j for j in images))

    chain = StabChain(m + nb, base=tuple(range(m, m + nb)))
    for g in ext_gens:
        chain.insert(g)
    kernel_gens = [g[:m] for g in chain.strong_generators()
                   if all(g[m + j] == m + j for j in range(nb))]
    return PermGroup(m, kernel_gens)


def intersect(g1: PermGroup, g2: PermGroup) -> PermGroup:
    """Intersection by enumerating the smaller group and sifting through
    the larger group's chain.  Hard error when the smaller group's order
    exceeds the enumeration threshold.

    Two groups whose chains were built by translation_chain both hold the
    translations T, and so does their intersection, which is therefore
    T (H1_0 & H2_0) for the stabilizers H1_0, H2_0 of 0.  Only the smaller
    stabilizer of 0 is enumerated, and the result carries a translation
    chain again.
    """
    if g1.degree != g2.degree:
        raise DomainError(f"degree mismatch: {g1.degree} != {g2.degree}")
    small, big = (g1, g2) if g1.order() <= g2.order() else (g2, g1)
    if small.order() > INTERSECT_ENUM_THRESHOLD:
        raise BudgetError(
            f"both groups exceed enumeration threshold {INTERSECT_ENUM_THRESHOLD} "
            f"(orders {g1.order()}, {g2.order()})")
    m = small.degree
    over_translations = _has_translation_chain(g1) and _has_translation_chain(g2)
    if over_translations:
        enumerated, gens = StabChain.from_levels(m, _levels(small.chain, 1)), [translation(m, 1)]
    else:
        enumerated, gens = small.chain, []
    result = StabChain(m)
    for el in enumerated.elements():
        if big.chain.contains(el) and result.insert(el):
            gens.append(el)
    if over_translations:
        result = translation_chain(m, _levels(result))
    return PermGroup(m, gens, chain=result)


def induced_action_table(group: PermGroup, sec: Section, wanted) -> dict[Perm, Perm]:
    """Map elements of the induced section action to one preimage each, by
    breadth-first search over products of the stabilizer generators, until
    every action in ``wanted`` is in the table (or the search ends); a
    Schreier generator is built in full only for the first (g, j) of each
    new action.  The search order does not depend on ``wanted``, so every
    entry is the one the search over the whole image would give."""
    _check_section(group, sec)
    n, s = sec.n, sec.order
    pairs: dict[Perm, Perm] = {}
    for g in group.generators:
        for j in range(n // sec.u):
            k, sigma = section_action(g, j, sec)
            if sigma not in pairs:
                pairs[sigma] = mult(mult(translation(n, j), g), translation(n, -k))

    table: dict[Perm, Perm] = {identity(s): identity(group.degree)}
    missing = set(wanted) - table.keys()
    frontier = [(identity(s), identity(group.degree))]
    while frontier and missing:
        sigma, elem = frontier.pop(0)
        for hs, h in pairs.items():
            new_sigma = mult(sigma, hs)
            if new_sigma not in table:
                if len(table) >= INDUCED_TABLE_LIMIT:
                    raise BudgetError(
                        f"induced image exceeds table limit {INDUCED_TABLE_LIMIT}")
                new_elem = mult(elem, h)
                table[new_sigma] = new_elem
                frontier.append((new_sigma, new_elem))
                missing.discard(new_sigma)
    return table
