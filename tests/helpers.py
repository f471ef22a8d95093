"""Test-side wrappers over package internals, used as oracles and keys."""

from itertools import combinations

from connsub import census, decompose, extremal
from connsub.canon import canonical_labeling
from connsub.graph import bits, blocks, cut_vertices, map_mask, reach


def canonical_key(g):
    return canonical_labeling(g)[0]


def triangle_string(adj, order):
    """Bit-by-bit reference for ``graphio.triangle_bits``: the upper triangle
    relabeled by ``order`` as a '0'/'1' string, pair (i, j) for j = 1, 2,
    ... and i < j."""
    return "".join(str(adj[order[j]] >> order[i] & 1) for j in range(len(order)) for i in range(j))


def packed(bit_string, width):
    """The bits zero-padded to a multiple of ``width``, read ``width`` at a
    time, first bit most significant."""
    bit_string += "0" * (-len(bit_string) % width)
    return [int(bit_string[i : i + width], 2) for i in range(0, len(bit_string), width)]


def labeled_key(g):
    """The key of ``g`` in its own labels, without a search; it equals the
    key ``canonical_labeling(g)`` returns when ``g`` is canonically labeled."""
    return bytes([g.n, *packed(triangle_string(g.adj, range(g.n)), 8)])


def enumerate_connected_subgraphs(g, req, visitor):
    """Visit every connected subgraph whose vertex set contains ``req``,
    exactly once, in the enumerator's order, passing the sorted vertex tuple
    and the sorted edge tuple."""
    edges = g.edges
    census._walk(
        g,
        sum(1 << v for v in set(req)),
        lambda sel, vmask: visitor(tuple(bits(vmask)), tuple(edges[i] for i in bits(sel))),
    )


def walk_oracle(g, rmask, visit):
    """``census._walk`` with the extension set rebuilt at every node: the
    edges touching the vertex set, less the chosen, the skipped and those
    below the anchor edge.  It makes the same ``visit(edge_mask,
    vertex_mask)`` calls in the same order."""
    if rmask.bit_count() <= 1:
        for v in range(g.n):
            if rmask == 0 or rmask == 1 << v:
                visit(0, 1 << v)
    inc = [0] * g.n
    emask = []
    for i, (u, v) in enumerate(g.edges):
        inc[u] |= 1 << i
        inc[v] |= 1 << i
        emask.append(1 << u | 1 << v)

    def grow(sel, vmask, banned, above):
        if vmask & rmask == rmask:
            visit(sel, vmask)
        taken = 0
        for j in bits(map_mask(vmask, inc) & ~sel & ~banned & above):
            grow(sel | 1 << j, vmask | emask[j], banned | taken, above)
            taken |= 1 << j

    for i in range(len(emask)):
        grow(1 << i, emask[i], 0, -1 << i + 1)


_NAIVE_MAX_M = 18


def count_by_edge_subsets(g, req=()):
    """Independent oracle: loop over all 2^m edge subsets with a direct
    connectivity check.  Exponential; kept only to cross-check conventions.
    """
    m = g.m
    if m > _NAIVE_MAX_M:
        raise census.CensusLimitError(f"naive subset loop needs m <= {_NAIVE_MAX_M}, got {m}")
    rmask = census._req_mask(g, req)
    emask = [(1 << u) | (1 << v) for u, v in g.edges]
    count = 0
    if rmask.bit_count() <= 1:
        count += g.n if rmask == 0 else 1
    for sub in range(1, 1 << m):
        chosen = [emask[j] for j in bits(sub)]
        vmask = 0
        for em in chosen:
            vmask |= em
        if vmask & rmask != rmask:
            continue
        # BFS over selected edges only
        reached = vmask & -vmask
        while True:
            grown = reached
            for em in chosen:
                if em & grown:
                    grown |= em
            if grown == reached:
                break
            reached = grown
        if reached == vmask:
            count += 1
    return count


def subset_table_oracle(g):
    """``census.connected_set_table`` by the direct recurrence over about
    3^n / 2 subset pairs.  Splitting an edge subset of G[S] by the component
    of S's lowest vertex v gives 2^e(S) = sum over T with v in T, T a subset
    of S, of table[T] 2^e(S - T), with table[{v}] = 1 covering a v that no
    chosen edge touches."""
    n, adj = g.n, g.adj
    size = 1 << n
    ecnt = [0] * size
    for S in range(1, size):
        low = S & -S
        rest = S ^ low
        ecnt[S] = ecnt[rest] + (adj[low.bit_length() - 1] & rest).bit_count()
    npow = [1 << e for e in ecnt]
    table = [0] * size
    for S in range(1, size):
        low = S & -S
        rest = S ^ low
        if not rest:
            table[S] = 1
            continue
        acc = 0
        sub = (rest - 1) & rest
        while True:
            acc += table[low | sub] * npow[rest ^ sub]
            if sub == 0:
                break
            sub = (sub - 1) & rest
        table[S] = npow[S] - acc
    return table


def block_expansion_count(g, block):
    """F(G) by the paper's expansion around one block B, given as its vertex
    mask, with cut vertices w1..ws:

        F(B) + sum_i (F(G_i) - 1) + sum_i (f_B(w_i) - 1)(f_i - 1)
             + sum over subsets S with |S| >= 2 of f_B(S) prod_{i in S} (f_i - 1)

    where G_i is the branch at w_i (everything reachable from w_i without
    entering B) and f_i = f_{G_i}(w_i): 2^s terms, an oracle for the
    pairwise merge rule of ``decompose``."""
    if block not in blocks(g):
        raise ValueError("not a block of the graph")
    cuts = cut_vertices(g)
    ws = [w for w in bits(block) if w in cuts]
    bgraph, old = g.subgraph_on(bits(block))
    total = census.count_connected_subgraphs(bgraph)
    gain = {}  # f_i - 1
    for w in ws:
        branch, bold = g.subgraph_on(bits(reach(g.adj, w, (1 << g.n) - 1 & ~block | 1 << w)))
        total += decompose.count_via_decomposition(branch) - 1
        gain[w] = decompose.subgraph_number_via_decomposition(branch, bold.index(w)) - 1
    for w in ws:
        total += (census.subgraph_number(bgraph, old.index(w)) - 1) * gain[w]
    for r in range(2, len(ws) + 1):
        for subset in combinations(ws, r):
            term = census.count_containing(bgraph, [old.index(w) for w in subset])
            for w in subset:
                term *= gain[w]
            total += term
    return total


def subset_tables(graphs):
    """Census subset tables for a batch of same-order graphs from the batched
    kernel, int64-exact, one ``[graph, subset]`` row per graph."""
    return extremal._tables(graphs).T


def leaf_stripping_certificate(blocks, n):
    """The certificate of ``generate``'s lemma for a connected graph on n
    vertices with a cut vertex, from its block list: the block-cut tree is
    built, its leaves are stripped layer by layer down to the centre, and
    every piece is coded from scratch.  An oracle for composition, which
    codes only the pieces on the path from the glue vertex to the centre."""
    at = [[] for _ in range(n)]  # the blocks at each vertex
    for i, (_, verts) in enumerate(blocks):
        for v in verts:
            at[v].append(i)
    # the block-cut tree: block i is node i, cut vertex v is node nb + v
    nb = len(blocks)
    cuts = [v for v in range(n) if len(at[v]) > 1]
    nbrs = [[] for _ in range(nb)]
    for v in cuts:
        for i in at[v]:
            nbrs[i].append(nb + v)
    nbrs += at
    deg = [len(ids) for ids in nbrs]
    layer = [i for i in range(nb) if deg[i] == 1]
    left = nb + len(cuts)
    while left > len(layer):
        left -= len(layer)
        nxt = []
        for u in layer:
            deg[u] = 0
            for w in nbrs[u]:
                if deg[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centre = layer[0]

    def block_code(i, entry):
        cls, verts = blocks[i]
        if len(nbrs[i]) == 1:  # a leaf, entered at its one cut vertex
            return cls.key + bytes([cls.roots[verts.index(entry)]])
        colours = [
            b"\xff" if v == entry else vertex_code(v, i) if len(at[v]) > 1 else b"\x00"
            for v in verts
        ]
        return cls.key + b"\xfe" + cls.least(colours)

    def vertex_code(v, parent):
        codes = sorted([block_code(j, v) for j in at[v] if j != parent])
        return bytes([len(codes)]) + b"".join(codes)

    if centre < nb:
        return block_code(centre, -1)
    w = centre - nb
    return b"".join(sorted([block_code(j, w) for j in at[w]]))


def _group(gens, n):
    """Every permutation of 0..n-1 that ``gens`` generate, enumerated: an
    oracle for the orbits the package closes under generators alone.  A
    generator the group so far already holds is skipped."""
    group = {tuple(range(n))}
    kept = []
    for s in gens:
        if s in group:
            continue
        kept.append(s)
        todo = list(group)
        while todo:
            p = todo.pop()
            for t in kept:
                q = tuple(p[i] for i in t)
                if q not in group:
                    group.add(q)
                    todo.append(q)
    return group


def refine_oracle(adj, cells):
    """Refine an ordered partition to equitability by each vertex's full
    vector of neighbour counts, one per cell, fragments in the order of
    their vectors: an oracle for ``canon._refine``, which counts only in the
    cells that split the round before."""
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        new_cells = []
        for cell in cells:
            sig = {}
            for v in cell:
                sig.setdefault(tuple((adj[v] & m).bit_count() for m in masks), []).append(v)
            new_cells += [tuple(sig[key]) for key in sorted(sig)]
        if new_cells == cells:
            return cells
        cells = new_cells
