"""Machine verification of the extremal claims and of the reference table.

Each named check exhaustively tests an inequality together with its exact
equality cases over every isomorphism class in range, reporting any
counterexample as a graph6 string.  ``verify_table1`` replays the published
table of minimum connected-subgraph counts: tier (a) recomputes the count
of every named graph, tier (b) re-runs the full search where the
generation cap allows and compares the minimizer set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterable, Iterator

from . import census, decompose, families
from .extremal import (
    ClassSpec,
    SearchReport,
    evaluate_counts,
    search_min_F,
    search_min_vertex_subgraph_number,
)
from .canon import canonize
from .generate import GENERATION_CAP, connected_classes, glue, rooted_classes
from .graph import MAX_VERTICES, Graph, bits, blocks, cut_vertices
from .graphio import parse_graph6, serialize_graph6


@dataclass
class CheckItem:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class VerdictReport:
    name: str
    items: list[CheckItem] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def lines(self) -> list[str]:
        out = []
        for item in self.items:
            status = "PASS" if item.passed else "FAIL"
            suffix = f"  [{item.detail}]" if item.detail else ""
            out.append(f"{status}  {self.name}: {item.label}{suffix}")
        return out


@lru_cache(maxsize=None)
def _named_form(text: str) -> tuple[str, tuple[tuple[int, ...], ...]]:
    """The canonical graph6 of a named graph, the form in which a search
    reports its minimizers, and per vertex the canonical labels of its
    orbit, ascending."""
    _, g, pos, roots, _ = canonize(families.build(families.parse_family_spec(text)))
    orbits = [tuple(i for i, r in enumerate(roots) if r == root) for root in roots]
    return serialize_graph6(g), tuple(orbits[p] for p in pos)


# ---------------------------------------------------------------------------
# theorem checks: each is a function of one n that yields its report items


def _item(label: str, bad: str | None) -> CheckItem:
    """The item that passes iff its first counterexample ``bad`` is None."""
    return CheckItem(label, bad is None, bad or "")


def _per_n(label: str, offence: Callable[[int], str | None]) -> Callable[[int], list[CheckItem]]:
    """The check whose one item at n is labelled by ``label`` formatted
    with n; ``offence(n)`` is the first counterexample at n, or None."""
    return lambda n: [_item(label.format(n=n), offence(n))]


def _edge_monotonicity_offence(n: int) -> str | None:
    """Deleting any edge strictly decreases the total count and every
    per-vertex count: the first edge whose deletion does not, or None."""
    for g in connected_classes(n):
        F, *fs = _table_counts(g)
        for u, v in g.edges:
            Fh, *fhs = _table_counts(g.remove_edge(u, v))
            if Fh >= F:
                return f"{serialize_graph6(g)} edge ({u},{v}) total"
            if any(fh >= f for fh, f in zip(fhs, fs)):
                return f"{serialize_graph6(g)} edge ({u},{v}) vertex count"
    return None


def _table_counts(g: Graph) -> list[int]:
    """F(g), then f(g, x) for every vertex x, all read from one subset table."""
    table, size = census.connected_set_table(g), 1 << g.n
    return [census._count_from_table(table, size, req) for req in (0, *(1 << x for x in range(g.n)))]


def _cycle_pair_offence(n: int) -> str | None:
    """On a cycle, the count of subgraphs containing two vertices at
    distance d is (n^2+2d^2-2nd+n+2)/2; maximal exactly at d=1, and the
    floor (n^2+2n+4)/4 is met exactly at d=n/2 (so only for even n).  The
    first distance that breaks this, or None."""
    g = families.build(families.spec("C", n=n))
    for d in range(1, n // 2 + 1):
        got = census.count_containing(g, (0, d))
        want = families.cycle_pair_count(n, d)
        if got != want:
            return f"d={d}: {got} != {want}"
        if 4 * got < n * n + 2 * n + 4 or got > (n * n - n + 4) // 2:
            return f"d={d}: bound violated"
        if got == (n * n - n + 4) // 2 and d != 1:
            return f"d={d}: upper equality away from d=1"
        if 4 * got == n * n + 2 * n + 4 and 2 * d != n:
            return f"d={d}: lower equality away from d=n/2"
    return None


def _block_pair_offence(n: int, star4: str) -> str | None:
    """For graphs with k <= n-3 cut vertices, except the 4-star (canonical
    graph6 ``star4``): any two vertices of any block have pair count at
    least 2(n-k)-1.  The first pair that breaks the floor, or None."""
    graphs = connected_classes(n)
    _, _, cuts, _, _, pair = evaluate_counts(graphs, True)
    for g, cut, counts in zip(graphs, cuts.tolist(), pair):
        k = cut.bit_count()
        if k > n - 3 or (n == 4 and serialize_graph6(g) == star4):
            continue
        bound = 2 * (n - k) - 1
        for block in blocks(g):
            for u, v in combinations(bits(block), 2):
                if counts[u, v] < bound:
                    return f"{serialize_graph6(g)} pair ({u},{v}): {counts[u, v]} < {bound}"
    return None


def _girth_free_offence(n: int) -> str | None:
    """The abstract's claim at k = 4: among connected graphs with four cut
    vertices, those of girth >= 4 attain the minimum of F, and every
    minimizer has girth >= 4.  Both searches' outcomes when they differ,
    or None."""
    whole = search_min_F(ClassSpec(n, 4))
    floored = search_min_F(ClassSpec(n, 4, min_girth=4))
    if whole.minimum == floored.minimum and set(whole.minimizers) == set(floored.minimizers):
        return None
    return (
        f"all: {whole.minimum} at {whole.minimizers}; "
        f"girth >= 4: {floored.minimum} at {floored.minimizers}"
    )


def _named_value(text: str, tag: str | None) -> int:
    """The closed-form F of a named graph, or f of its tagged vertex."""
    fs = families.parse_family_spec(text)
    return families.closed_form_F(fs) if tag is None else families.closed_form_f(fs, tag)


def _argmin_at_tag(report: SearchReport, text: str, tag: str) -> bool:
    """The named minimizer's argmin vertices are exactly its tagged
    vertex's orbit, in canonical labels."""
    g6, orbit_of = _named_form(text)
    tagged = families.special_vertex(families.parse_family_spec(text), tag)
    return report.argmin_vertices[report.minimizers.index(g6)] == orbit_of[tagged]


# Extremal graphs named as (family spec, tag): the tag picks the vertex whose
# closed-form f is the floor of a vertex-count search; it is None for a
# total-count search, whose floor is the closed-form F.
_Named = tuple[tuple[str, str | None], ...]


def _lollipop_pendant(n: int, k: int) -> _Named:
    return ((f"L:n={n},g={n - k}", "pendant"),)


def _broom_end(n: int, k: int) -> _Named:
    return ((f"PS:k={k + 1},m={n - k - 1}", "path_end"),)


def _vertex_floor_graphs(n: int, k: int) -> _Named:
    """Lollipop regime for k <= n-6, the lollipop/broom tie at k = n-5,
    broom regime above."""
    if k <= n - 6:
        return _lollipop_pendant(n, k)
    if k == n - 5:
        return _broom_end(n, k) + _lollipop_pendant(n, k)
    return _broom_end(n, k)


def _balanced_double_broom(n: int, k: int) -> _Named:
    r = n - k
    return ((f"T:l={r // 2},m={(r + 1) // 2},d={k}", None),)


def _girth_count_graphs(n: int, k: int) -> _Named:
    """The lollipop, tied by the cycle-broom exactly at n = 2k+1, k >= 3."""
    lollipop = ((f"L:n={n},g={n - k}", None),)
    return lollipop + (((f"Q:n={n},k={k}", None),) if n == 2 * k + 1 and k >= 3 else ())


@dataclass(frozen=True)
class _Floor:
    """A search-and-compare check at n: for every k in ks(n), the searched
    minimum of spec(n, k) is the closed form of each graph in expected(n, k)
    and the minimizers (by canonical graph6) are exactly those graphs.  Their
    tags fix the objective and the argmin check: tagged graphs ask for a
    vertex-count search, where each one's argmin is its tagged vertex's orbit,
    untagged ones for a total-count search.  An empty class fails its item
    unless the row's ``empty_iff`` (rule text, predicate) predicts it."""

    ks: Callable[[int], range]
    spec: Callable[[int, int], ClassSpec]
    expected: Callable[[int, int], _Named]
    label: str  # the item label, formatted with n, k and want
    empty_iff: tuple[str, Callable[[int, int], bool]] | None = None

    def __call__(self, n: int) -> Iterator[CheckItem]:
        for k in self.ks(n):
            named = self.expected(n, k)
            minf = any(tag is not None for _, tag in named)
            report = (search_min_vertex_subgraph_number if minf else search_min_F)(self.spec(n, k))
            if self.empty_iff and (report.class_size == 0 or self.empty_iff[1](n, k)):
                rule, empty = self.empty_iff
                yield CheckItem(
                    f"n={n} k={k}: class empty iff {rule}",
                    (report.class_size == 0) == empty(n, k),
                    f"classes={report.class_size}",
                )
                continue
            values = {_named_value(text, tag) for text, tag in named}
            want = {_named_form(text)[0] for text, _ in named}
            ok = values == {report.minimum} and set(report.minimizers) == want
            ok = ok and all(tag is None or _argmin_at_tag(report, text, tag) for text, tag in named)
            detail = "" if ok else f"got {report.minimum} at {report.minimizers}"
            yield CheckItem(self.label.format(n=n, k=k, want=min(values, default=None)), ok, detail)


def _pendant_share_limit(n: int) -> Iterator[CheckItem]:
    """On every vertex-count minimizer over non-trees, the block holding
    the argmin vertex shares each of its cut vertices with at most four
    other blocks, and with two or more only if all of them are pendant
    edges."""
    for k in range(1, n - 2):
        report = search_min_vertex_subgraph_number(ClassSpec(n, k, subset="nontrees"))
        if report.class_size == 0:
            continue
        yield _item(f"n={n} k={k}: sharer limit on minimizers", _pendant_share_offence(report))


def _pendant_share_offence(report: SearchReport) -> str | None:
    """The first minimizer whose argmin block breaks the sharer limit, or None.
    A pendant edge is a 2-vertex block holding exactly one cut vertex."""
    for g6s, argmins in zip(report.minimizers, report.argmin_vertices):
        g = parse_graph6(g6s)
        masks, cuts = blocks(g), cut_vertices(g)
        for v0 in argmins:
            for block in (b for b in masks if b >> v0 & 1):
                for w in (w for w in bits(block) if w in cuts):
                    others = [b for b in masks if b != block and b >> w & 1]
                    if len(others) > 4:
                        return f"{g6s}: {len(others)} other blocks at {w}"
                    if len(others) >= 2 and any(
                        b.bit_count() != 2 or len(cuts.intersection(bits(b))) != 1
                        for b in others
                    ):
                        return f"{g6s}: non-pendant-edge sharer at {w}"
    return None


# the branch-move check draws this many constructed pairs from this seed
_BRANCH_MOVE_PAIRS = 60
_BRANCH_MOVE_SEED = 7


def _branch_move_decrease() -> Iterator[CheckItem]:
    """Moving a whole branch from a shared cut vertex to a deeper vertex
    strictly decreases every vertex count in the untouched part."""
    rng = random.Random(_BRANCH_MOVE_SEED)
    pool = []
    for n in (2, 3, 4):
        pool.extend((cls.graph, r) for cls, r, _ in rooted_classes(n))
    tested = 0
    bad = None
    while tested < _BRANCH_MOVE_PAIRS and bad is None:
        g1, r1 = pool[rng.randrange(len(pool))]
        g2, r2 = pool[rng.randrange(len(pool))]
        g3, r3 = pool[rng.randrange(len(pool))]
        base = glue(g1, r1, g2, r2)
        # glue labels g2's non-root vertices g1.n .. g1.n + g2.n - 2
        wprime = g1.n + rng.randrange(g2.n - 1)
        g_orig = glue(base, r1, g3, r3)
        g_star = glue(base, wprime, g3, r3)
        for v in range(g1.n):
            fo = decompose.subgraph_number_via_decomposition(g_orig, v)
            fs_ = decompose.subgraph_number_via_decomposition(g_star, v)
            if not fs_ < fo:
                bad = f"{serialize_graph6(g_orig)} -> {serialize_graph6(g_star)} at v={v}: {fs_} !< {fo}"
                break
        tested += 1
    yield _item(f"strict decrease on {tested} constructed pairs", bad)


# every theorem check in report order: (first n, default last n, items at
# one n); a check with no n is called once with no argument.  The floors'
# named graphs carry tags that fix their objective and argmin check.
_THEOREMS: dict[str, tuple[int | None, int | None, Callable[..., Iterable[CheckItem]]]] = {
    "edge-monotonicity": (2, 6, _per_n(
        "strict decrease for every edge, n={n}", _edge_monotonicity_offence
    )),
    # over 2-connected graphs every vertex count is at least (n^2+n+2)/2,
    # with equality exactly on the cycle
    "two-connected-vertex-floor": (3, 8, _Floor(
        lambda n: range(0, 1), ClassSpec, lambda n, k: ((f"C:n={n}", "any"),),
        "floor (n^2+n+2)/2 with cycle equality, n={n}",
    )),
    "cycle-pair-count": (
        3, 12, _per_n("pair formula and equality cases, n={n}", _cycle_pair_offence)
    ),
    "block-pair-floor": (3, 8, _per_n(
        "pair floor 2(n-k)-1 within blocks, n={n}",
        lambda n: _block_pair_offence(n, _named_form("S:n=4")[0]),
    )),
    "pendant-share-limit": (5, 9, _pendant_share_limit),
    # over non-trees the vertex-count floor is ((n-k)^2+n+k+2)/2, attained
    # only by the lollipop at its pendant
    "vertex-floor-nontree": (4, 9, _Floor(
        lambda n: range(1, n - 2), lambda n, k: ClassSpec(n, k, subset="nontrees"),
        _lollipop_pendant, "n={n} k={k}: floor {want} uniquely lollipop at pendant",
    )),
    # the vertex-count minimum over all of C_{n,k}, in three regimes
    "vertex-floor-three-regime": (4, 9, _Floor(
        lambda n: range(1, n - 2), ClassSpec,
        _vertex_floor_graphs, "n={n} k={k}: floor {want} with exact minimizer set",
    )),
    # over trees the vertex-count floor is 2^{n-k-1}+k, only at the broom
    "tree-vertex-floor": (3, 9, _Floor(
        lambda n: range(1, n - 1), lambda n, k: ClassSpec(n, k, subset="trees"),
        _broom_end, "n={n} k={k}: tree floor {want} uniquely broom",
    )),
    # over trees with k >= 2 the total-count floor is the balanced double broom
    "tree-count-floor": (4, 9, _Floor(
        lambda n: range(2, n - 1), lambda n, k: ClassSpec(n, k, subset="trees"),
        _balanced_double_broom, "n={n} k={k}: balanced double broom floor {want}",
    )),
    # over non-trees with girth >= k the total-count floor is the lollipop
    "count-floor-girth": (4, 9, _Floor(
        lambda n: range(1, n - 2), lambda n, k: ClassSpec(n, k, min_girth=k, subset="nontrees"),
        _girth_count_graphs, "n={n} k={k}: girth-floored count minimum {want}",
        empty_iff=("n < k + max(3,k)", lambda n, k: n < k + max(3, k)),
    )),
    # the abstract's k <= 4 claim says something only at k = 4: every
    # simple graph has girth >= 3
    "girth-free-agreement": (6, 9, _per_n(
        "k=4 minimum and minimizers agree with girth >= 4, n={n}", _girth_free_offence
    )),
    "branch-move-decrease": (None, None, _branch_move_decrease),
}


def theorem_names() -> tuple[str, ...]:
    return tuple(_THEOREMS)


def verify_theorem(name: str, n_max: int | None = None) -> VerdictReport:
    if name not in _THEOREMS:
        raise ValueError(f"unknown check {name!r}; known: {', '.join(_THEOREMS)}")
    first, last, items = _THEOREMS[name]
    if first is None:
        return VerdictReport(name, list(items()))
    if n_max is not None and n_max < first:
        # a run that checks nothing must not read as a pass
        raise ValueError(f"check {name!r} starts at n = {first}; n_max = {n_max} checks nothing")
    last = last if n_max is None else min(n_max, last)
    return VerdictReport(name, [item for n in range(first, last + 1) for item in items(n)])


# ---------------------------------------------------------------------------
# the reference table

#: printed entries of the published minimum table: (n, k) -> (family spec, value);
#: cells printed as "no graph exists" hold None.
REFERENCE_TABLE: dict[tuple[int, int], tuple[str, int] | None] = {
    (12, 1): ("L:n=12,g=11", 190),
    (12, 2): ("L:n=12,g=10", 216),
    (12, 3): ("L:n=12,g=9", 226),
    (12, 4): ("L:n=12,g=8", 223),
    (12, 5): ("L:n=12,g=7", 210),
    (12, 6): ("T:l=3,m=3,d=6", 160),
    (11, 1): ("L:n=11,g=10", 163),
    (11, 2): ("L:n=11,g=9", 177),
    (11, 3): ("L:n=11,g=8", 179),
    (11, 4): ("L:n=11,g=7", 176),
    (11, 5): ("T:l=3,m=3,d=5", 140),
    (11, 6): ("T:l=2,m=3,d=6", 107),
    (10, 1): ("L:n=10,g=9", 129),
    (10, 2): ("L:n=10,g=8", 142),
    (10, 3): ("L:n=10,g=7", 143),
    (10, 4): ("T:l=3,m=3,d=4", 121),
    (10, 5): ("T:l=2,m=3,d=5", 91),
    (10, 6): ("T:l=2,m=2,d=6", 70),
    (9, 1): ("L:n=9,g=8", 103),
    (9, 2): ("L:n=9,g=7", 111),
    (9, 3): ("T:l=3,m=3,d=3", 103),
    (9, 4): ("T:l=2,m=3,d=4", 76),
    (9, 5): ("T:l=2,m=2,d=5", 58),
    (9, 6): ("T:l=1,m=2,d=6", 51),
    (8, 1): ("L:n=8,g=7", 80),
    (8, 2): ("L:n=8,g=6", 84),
    (8, 3): ("T:l=2,m=3,d=3", 62),
    (8, 4): ("T:l=2,m=2,d=4", 47),
    (8, 5): ("T:l=1,m=2,d=5", 41),
    (8, 6): ("P:n=6", 21),
    (7, 1): ("L:n=7,g=6", 60),
    (7, 2): ("T:l=2,m=3,d=2", 49),
    (7, 3): ("T:l=2,m=2,d=3", 47),
    (7, 4): ("T:l=1,m=2,d=4", 32),
    (7, 5): ("P:n=5", 15),
    (7, 6): None,
    (6, 1): ("S:n=6", 37),
    (6, 2): ("T:l=2,m=2,d=2", 28),
    (6, 3): ("T:l=1,m=2,d=3", 24),
    (6, 4): ("P:n=4", 10),
    (6, 5): None,
    (6, 6): None,
}

#: cells whose printed graph is a path on fewer vertices than the class
#: column; their printed entry is self-consistent, so tier (a) checks it as
#: printed, while tier (b) reports the search outcome without asserting it.
PATH_LABELED_CELLS = {(6, 4), (7, 5), (8, 6)}


@dataclass
class CellResult:
    n: int
    k: int
    spec_text: str | None
    printed: int | None
    computed: int | None
    matches_printed: bool
    remark: str = ""


@dataclass
class TierBResult:
    n: int
    k: int
    minimum: int | None
    minimizers: tuple[str, ...]
    class_size: int
    printed_in_minimizers: bool
    value_matches_printed: bool
    remark: str = ""


@dataclass
class Table1Report:
    tier_a: list[CellResult]
    tier_b: list[TierBResult]
    notes: list[str]

    @property
    def passed(self) -> bool:
        return all(c.matches_printed for c in self.tier_a) and all(
            b.printed_in_minimizers and b.value_matches_printed
            for b in self.tier_b
            if (b.n, b.k) not in PATH_LABELED_CELLS
        )

    def lines(self) -> list[str]:
        out = []
        for c in self.tier_a:
            status = "PASS" if c.matches_printed else "FAIL"
            name = c.spec_text or "empty"
            printed = "-" if c.printed is None else str(c.printed)
            computed = "-" if c.computed is None else str(c.computed)
            extra = f"  [{c.remark}]" if c.remark else ""
            out.append(
                f"{status}  table1 tier-a cell (n={c.n}, k={c.k}): {name} "
                f"printed={printed} computed={computed}{extra}"
            )
        for b in self.tier_b:
            flagged = (b.n, b.k) in PATH_LABELED_CELLS
            ok = b.printed_in_minimizers and b.value_matches_printed
            status = "REPORT" if flagged else ("PASS" if ok else "FAIL")
            mins = "-" if b.minimum is None else str(b.minimum)
            out.append(
                f"{status}  table1 tier-b class (n={b.n}, k={b.k}): min={mins} "
                f"minimizers={','.join(b.minimizers)} classes={b.class_size}"
                + (f"  [{b.remark}]" if b.remark else "")
            )
        out.extend(f"NOTE  {note}" for note in self.notes)
        return out


def _check_n_max(n_max: int, top: int, what: str) -> None:
    """Refuse an n_max outside 1..top, in the words of the CLI's --n-max."""
    if not 1 <= n_max <= top:
        rule = f"for {what} must be at most {top}" if n_max > top else "must be at least 1"
        raise ValueError(f"--n-max {rule}")


def verify_table1(search_n_max: int = GENERATION_CAP) -> Table1Report:
    """Both tiers of the reference table, tier (b) searched up to
    n = ``search_n_max``, which is refused outside 1..``GENERATION_CAP``."""
    _check_n_max(search_n_max, GENERATION_CAP, "table1 searches")
    tier_a: list[CellResult] = []
    tier_b: list[TierBResult] = []
    for (n, k), cell in sorted(REFERENCE_TABLE.items()):
        # one search per cell in range serves both tiers
        report = search_min_F(ClassSpec(n, k, min_girth=k)) if n <= search_n_max else None
        if cell is None:
            empty_ok = report is None or report.class_size == 0
            tier_a.append(
                CellResult(n, k, None, None, None, empty_ok, remark="printed as empty")
            )
            continue
        spec_text, printed = cell
        g = families.build(families.parse_family_spec(spec_text))
        computed = decompose.count_via_decomposition(g)
        remark = ""
        if (n, k) in PATH_LABELED_CELLS:
            remark = f"printed graph has {g.n} vertices in a class of {n}-vertex graphs"
        elif computed != printed:
            remark = "printed value conflicts with the named graph's count"
        tier_a.append(
            CellResult(n, k, spec_text, printed, computed, computed == printed, remark)
        )
        if report is None:
            continue
        remark = ""
        if (n, k) in PATH_LABELED_CELLS:
            remark = "flagged cell: search result reported, not asserted"
        tier_b.append(
            TierBResult(
                n=n,
                k=k,
                minimum=report.minimum,
                minimizers=report.minimizers,
                class_size=report.class_size,
                printed_in_minimizers=_named_form(spec_text)[0] in report.minimizers,
                value_matches_printed=report.minimum == printed,
                remark=remark,
            )
        )

    notes = [
        "uniqueness for n >= 13 and for the full classes at n in 10..12 is outside "
        f"the generation cap; it is substituted by the named-value checks above and "
        f"by exhaustive search verification at n <= {search_n_max}.",
    ]
    return Table1Report(tier_a, tier_b, notes)


def compare_family(fs: families.FamilySpec) -> Iterator[tuple[str | None, int, int]]:
    """Yield (tag, closed form, computed count) for the family's F (tag
    None) and then each tagged vertex's f, all counted by decomposition,
    computing each count only when it is reached."""
    g = families.build(fs)
    yield None, families.closed_form_F(fs), decompose.count_via_decomposition(g)
    for tag in families.special_tags(fs.name):
        got = decompose.subgraph_number_via_decomposition(g, families.special_vertex(fs, tag))
        yield tag, families.closed_form_f(fs, tag), got


def verify_formulas(n_max: int = 12) -> VerdictReport:
    """Every family closed form, of F and of each special vertex's f,
    equals its decomposition count, on the orders up to ``n_max``, which
    is refused outside 1..``MAX_VERTICES`` before any spec is listed."""
    _check_n_max(n_max, MAX_VERTICES, "formulas")
    rep = VerdictReport("formulas")
    for fs in families.specs_up_to(n_max):
        detail = "".join(
            f"closed form {want} != computed {got}" if tag is None else f" f[{tag}] {want} != {got}"
            for tag, want, got in compare_family(fs)
            if want != got
        )
        rep.items.append(CheckItem(str(fs), not detail, detail))
    return rep
