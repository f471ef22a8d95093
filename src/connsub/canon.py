"""Canonical forms, automorphisms, and vertex orbits for small graphs.

Self-contained refinement-plus-backtracking canonical labeling: partitions
are refined to equitability, the first non-singleton cell is branched on,
and the least relabeled upper triangle over all leaves, ``triangle_bits``
in graph6's bit order, is the canonical form.  Discovered automorphisms
prune sibling branches, so highly symmetric graphs stay cheap.  Intended
for n <= ~12.

Refinement counts neighbours only in the cells that split in the round
before.  Lemma: let every cell X of the ordered partition P have, at each of
its vertices, the same number of neighbours in each cell of a partition Q
that P refines.  A vertex's count in a cell of P that is also a cell of Q
is then constant on X, and its count in the last fragment F_m of a cell
F_1 + ... + F_m of Q is its count in that cell, constant on X, less its
counts in F_1, ..., F_{m-1}.  So counts in those earlier fragments alone
split X as the counts in every cell of P do, and order the fragments the
same: two full count vectors first differ at a kept coordinate, since the
constant ones never differ and F_m's differs only if an earlier
sibling's does.  Q is the partition one round back; the first round counts
in the unit cell (degrees) at the root, and in ``(v,)`` alone after ``v``
is individualised, as the equitable partition it came from split only v's
cell, into ``(v,)`` and the rest.  A vertex's counts are packed into one
int, first splitter most significant, in fields of ``n.bit_length()`` bits:
a count is at most n, so no field carries into the next and the order of
the ints is the lexicographic order of the count vectors.

A leaf with the first leaf's key records one automorphism, and a leaf with
the best key one more once the best leaf is no longer the first, so no
leaf records the same automorphism twice.  Each recorded automorphism keeps
the mask of the vertices it fixes.  A search node keeps the automorphisms
that fix its branch prefix and the images of its explored siblings under
them; before each sibling it tests only the automorphisms recorded since
the last one, one mask test each, so no node rescans the whole list.

``orbit`` is the one orbit closure: vertex orbits here, and ``generate``'s
subset and colouring orbits, close under generators; no group is enumerated.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from typing import TypeVar

from .graph import Graph
from .graphio import triangle_bits

T = TypeVar("T", bound=Hashable)


def _refine(
    adj: tuple[int, ...], cells: list[tuple[int, ...]], splitters: list[int]
) -> list[tuple[int, ...]]:
    """Refine an ordered partition to equitability.

    Each round splits every cell by its vertices' neighbour counts in the
    cells whose masks are ``splitters``, packed into one int with the first
    splitter most significant; fragments are ordered by that int, which
    keeps the cell order isomorphism-invariant.  The next round's splitters
    are the fragments of this round's split cells, each cell's last one left
    out (the lemma in the module docstring).
    """
    width = len(adj).bit_length()
    while splitters:
        new_cells: list[tuple[int, ...]] = []
        split: list[int] = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            sig: dict[int, list[int]] = {}
            for v in cell:
                a = adj[v]
                key = 0
                for m in splitters:
                    key = key << width | (a & m).bit_count()
                sig.setdefault(key, []).append(v)
            if len(sig) == 1:
                new_cells.append(cell)
                continue
            frags = [tuple(sig[key]) for key in sorted(sig)]
            new_cells += frags
            split += [sum(1 << v for v in frag) for frag in frags[:-1]]
        cells, splitters = new_cells, split
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
        self._search(_refine(self.adj, [tuple(range(self.n))], [(1 << self.n) - 1]), 0)

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
            elif key == self.best_key and self.best_order is not self.first_order:
                # while the first leaf is the best, the test above recorded it
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
            self._search(_refine(self.adj, child, [1 << v]), prefix | 1 << v)
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
