"""Canonical forms, automorphisms, and vertex orbits for small graphs.

Self-contained refinement-plus-backtracking canonical labeling: partitions
are refined to equitability, the first non-singleton cell is branched on,
and the least relabeled upper triangle over all leaves, ``triangle_bits``
in graph6's bit order, is the canonical form.  Discovered automorphisms
prune sibling branches, so highly symmetric graphs stay cheap.  Intended
for n <= ~12.

Each recorded automorphism keeps the mask of the vertices it fixes.  A
search node keeps the automorphisms that fix its branch prefix and the
images of its explored siblings under them; before each sibling it tests
only the automorphisms recorded since the last one, one mask test each,
so no node rescans the whole list.

``orbit`` is the one orbit closure: vertex orbits here, and ``generate``'s
subset and colouring orbits, close under generators; no group is enumerated.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from typing import TypeVar

from .graph import Graph
from .graphio import triangle_bits

T = TypeVar("T", bound=Hashable)


def _refine(adj: tuple[int, ...], cells: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Refine an ordered partition to equitability.

    Each cell is split by the vector of neighbor counts into every cell;
    fragments are ordered by that invariant, which keeps the cell order
    isomorphism-invariant.
    """
    while True:
        masks = [0] * len(cells)
        for i, cell in enumerate(cells):
            m = 0
            for v in cell:
                m |= 1 << v
            masks[i] = m
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple((adj[v] & mk).bit_count() for mk in masks)
                sig.setdefault(key, []).append(v)
            if len(sig) == 1:
                new_cells.append(cell)
            else:
                changed = True
                for key in sorted(sig):
                    new_cells.append(tuple(sig[key]))
        cells = new_cells
        if not changed:
            return cells


class _Canonizer:
    def __init__(self, adj: tuple[int, ...], n: int):
        self.adj = adj
        self.n = n
        self.best_key: int | None = None
        self.best_order: list[int] | None = None
        self.first_key: int | None = None
        self.first_order: list[int] | None = None
        self.automorphisms: list[tuple[int, ...]] = []
        # per automorphism, the mask of the vertices it fixes
        self.fixes: list[int] = []

    def run(self) -> None:
        self._search(_refine(self.adj, [tuple(range(self.n))]), 0)

    def _search(self, cells: list[tuple[int, ...]], prefix: int) -> None:
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                target = idx
                break
        if target is None:
            order = [c[0] for c in cells]
            key = triangle_bits(self.adj, order)
            if self.first_key is None:
                self.first_key, self.first_order = key, order
            elif key == self.first_key and order != self.first_order:
                self._record(self.first_order, order)
            if self.best_key is None or key < self.best_key:
                self.best_key = key
                self.best_order = order
            elif key == self.best_key and order != self.best_order:
                self._record(self.best_order, order)
            return
        cell = cells[target]
        # skip v if a known automorphism fixing the branch prefix maps an
        # already-explored sibling onto it: ``stab`` holds the automorphisms
        # recorded so far that fix the prefix, ``images`` what they make of
        # the explored siblings
        explored: list[int] = []
        stab: list[tuple[int, ...]] = []
        images: set[int] = set()
        seen = 0
        for v in cell:
            for i in range(seen, len(self.automorphisms)):
                if self.fixes[i] & prefix == prefix:
                    a = self.automorphisms[i]
                    stab.append(a)
                    images.update(a[u] for u in explored)
            seen = len(self.automorphisms)
            if v in images:
                continue
            rest = tuple(u for u in cell if u != v)
            child = cells[:target] + [(v,), rest] + cells[target + 1 :]
            self._search(_refine(self.adj, child), prefix | 1 << v)
            explored.append(v)
            images.update(a[v] for a in stab)

    def _record(self, ref: list[int], order: list[int]) -> None:
        # two equal-key leaves give an automorphism (ref[i] -> order[i])
        perm = [0] * self.n
        for i, v in enumerate(order):
            perm[ref[i]] = v
        self.automorphisms.append(tuple(perm))
        self.fixes.append(sum(1 << v for v, w in enumerate(perm) if v == w))


def canonical_labeling(g: Graph) -> tuple[bytes, tuple[int, ...], list[tuple[int, ...]]]:
    """Canonical key, the order achieving it (new index -> old vertex),
    and a generating list of automorphisms found along the way.  The key is
    ``bytes([n])`` and the least leaf's triangle bits, zero-padded to whole
    bytes: for one n, the order of these bytes is the order of the integers."""
    c = _Canonizer(g.adj, g.n)
    c.run()
    assert c.best_order is not None
    nbits = g.n * (g.n - 1) // 2
    body = (c.best_key << -nbits % 8).to_bytes((nbits + 7) // 8, "big")
    return bytes([g.n]) + body, tuple(c.best_order), c.automorphisms


def positions(order: tuple[int, ...]) -> list[int]:
    """Inverse of a labeling order: ``pos[order[i]] == i``, so old vertex
    ``v`` gets canonical label ``pos[v]``."""
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return pos


def canonize(g: Graph) -> tuple[bytes, Graph, list[int], bytes, list[tuple[int, ...]]]:
    """The canonical key of ``g``, its canonically labeled copy, ``pos``
    (vertex v of ``g`` gets canonical label ``pos[v]``), ``roots`` (per
    canonical label, the least label of its Aut-orbit) and generators of
    Aut(g) in canonical labels."""
    key, order, gens = canonical_labeling(g)
    pos = positions(order)
    # a generator v -> a[v] of g reads, in canonical labels, i -> pos[a[order[i]]]
    auts = [tuple([pos[a[v]] for v in order]) for a in gens]
    return key, g.relabel(pos), pos, bytes(orbit_least(g.n, auts)), auts


def vertex_orbits(g: Graph) -> list[tuple[int, ...]]:
    """Orbits of the automorphism group, each sorted, in order of their
    smallest vertex; the generators discovered during canonical labeling
    suffice to generate the group."""
    groups: dict[int, list[int]] = {}
    for v, r in enumerate(orbit_least(g.n, canonical_labeling(g)[2])):
        groups.setdefault(r, []).append(v)
    return [tuple(vs) for vs in groups.values()]


def orbit_least(n: int, gens: list[tuple[int, ...]]) -> list[int]:
    """Per vertex v of 0..n-1, the least vertex in v's orbit under the
    group generated by the permutations ``gens``."""
    moves = [a.__getitem__ for a in gens]
    least = list(range(n))
    seen: set[int] = set()
    for v in range(n):
        if v not in seen:  # so v is the least vertex of its orbit
            for w in orbit(v, moves, seen):
                least[w] = v
    return least


def orbit(start: T, images: Sequence[Callable[[T], T]], seen: set[T]) -> list[T]:
    """The orbit of ``start``, listed first, under the group the maps
    ``images`` generate; the group is finite, so closing under the maps alone
    suffices.  Every element reached joins ``seen``.  ``a.__getitem__`` moves
    a vertex by the permutation ``a``, ``operator.itemgetter(*a)`` a tuple
    indexed by vertex."""
    seen.add(start)
    found = [start]
    for x in found:
        for image in images:
            y = image(x)
            if y not in seen:
                seen.add(y)
                found.append(y)
    return found
