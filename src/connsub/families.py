"""Named graph families: constructors, closed-form counts, special vertices.

Families and their compact spec grammar (``NAME:key=int[,key=int...]``):

==========  =============================  ==========================================
name        parameters                     graph
==========  =============================  ==========================================
``P``       ``n >= 1``                     path on n vertices
``C``       ``n >= 3``                     cycle on n vertices
``S``       ``n >= 2``                     star K_{1,n-1}
``L``       ``3 <= g <= n-1``              cycle C_g with a pendant path, n vertices
``CC``      ``m1, m2 >= 3, n >= m1+m2-1``  two cycles joined by a (possibly empty) path
``PS``      ``k >= 1, m >= 1``             broom: path of k vertices, star K_{1,m}
                                           identified at the path's last vertex
``T``       ``l, m >= 1, d >= 2``          double broom: path of d vertices with l
                                           extra leaves at one end and m at the other
``Q``       ``k >= 2, n-k-1 >= 3``         cycle C_{n-k-1} glued to the path-end of
                                           the broom PS(k, 2)
==========  =============================  ==========================================

Each family is one ``_Family`` row in ``_FAMILIES``: its parameter names,
validity rules, vertex count, edges, closed-form total and, per
special-vertex tag, the vertex and its closed-form count.  Spec checking,
``build``, the special vertices and the closed forms are lookups into that
row.  Labelings are fixed (cycle vertices first, then path and leaf
vertices in order) so serialized output is byte-stable.  Every closed form
here is cross-checked against brute-force counting in the test suite.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Sequence

from .decompose import merge_count
from .graph import MAX_VERTICES, Edge, Graph


@dataclass(frozen=True)
class FamilySpec:
    name: str
    params: tuple[tuple[str, int], ...]

    def __post_init__(self):
        fam = _FAMILIES.get(self.name)
        if fam is None:
            raise ValueError(f"unknown family {self.name!r}")
        if tuple(k for k, _ in self.params) != fam.params:
            raise ValueError(f"family {self.name} takes parameters {fam.params}")
        for holds, message in fam.rules:
            if not holds(**dict(self.params)):
                raise ValueError(message)

    def __str__(self) -> str:
        return f"{self.name}:" + ",".join(f"{k}={v}" for k, v in self.params)


def spec(name: str, **params: int) -> FamilySpec:
    """The spec of family ``name``; parameters may be given in any order."""
    order = _FAMILIES[name].params if name in _FAMILIES else ()
    rank = {k: i for i, k in enumerate(order)}
    ordered = sorted(params.items(), key=lambda kv: rank.get(kv[0], len(order)))
    return FamilySpec(name, tuple(ordered))


def parse_family_spec(text: str) -> FamilySpec:
    m = re.fullmatch(r"([A-Za-z]+):((?:\w+=-?\d+)(?:,\w+=-?\d+)*)", text.strip())
    if not m:
        raise ValueError(f"bad family spec {text!r} (expected NAME:key=int,...)")
    name = m.group(1)
    params = {}
    for item in m.group(2).split(","):
        k, v = item.split("=")
        if k in params:
            raise ValueError(f"bad family spec {text!r}: parameter {k!r} given twice")
        params[k] = int(v)
    return spec(name, **params)


def build(fs: FamilySpec) -> Graph:
    """Construct the family graph with its fixed deterministic labeling."""
    fam, params = _FAMILIES[fs.name], dict(fs.params)
    if not 1 <= (n := fam.order(**params)) <= MAX_VERTICES:  # before any edge is built
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    return Graph.from_edges(n, fam.edges(**params))


def special_tags(name: str) -> tuple[str, ...]:
    if name not in _FAMILIES:
        raise ValueError(f"unknown family {name!r}")
    return tuple(_FAMILIES[name].special)


def _special(fs: FamilySpec, tag: str) -> tuple[Callable[..., int], Callable[..., int]]:
    special = _FAMILIES[fs.name].special
    if tag not in special:
        raise ValueError(f"family {fs.name} has no special vertex {tag!r}")
    return special[tag]


def special_vertex(fs: FamilySpec, tag: str) -> int:
    """Vertex id of a designated special vertex in the ``build`` labeling."""
    return _special(fs, tag)[0](**dict(fs.params))


def closed_form_F(fs: FamilySpec) -> int:
    """Closed-form total count of connected subgraphs for the family."""
    return _FAMILIES[fs.name].F(**dict(fs.params))


def closed_form_f(fs: FamilySpec, tag: str) -> int:
    """Closed-form subgraph number of the tagged special vertex."""
    return _special(fs, tag)[1](**dict(fs.params))


def specs_up_to(n_max: int) -> list[FamilySpec]:
    """Every spec on at most ``n_max`` vertices, family by family in table
    order; CC and T specs that are mirror images of one another appear once."""
    return [
        FamilySpec(name, tuple(zip(fam.params, values)))
        for name, fam in _FAMILIES.items()
        for values in fam.sweep(n_max)
    ]


def balanced_double_broom_F(n: int, k: int) -> int:
    """Count for the balanced double broom on n vertices with k cut vertices,
    exactly as the parity-split closed form states it."""
    r = n - k
    if r % 2 == 0:
        return (k - 1) * (1 << ((r + 2) // 2)) + (1 << r) + r + comb(k - 1, 2)
    return 3 * (k - 1) * (1 << ((r - 1) // 2)) + (1 << r) + r + comb(k - 1, 2)


def cycle_pair_count(n: int, d: int) -> int:
    """Connected subgraphs of the cycle C_n that contain two given vertices
    at distance d."""
    return (n * n + 2 * d * d - 2 * n * d + n + 2) // 2


# ---------------------------------------------------------------------------
# edges


def _path(vs: Sequence[int]) -> list[Edge]:
    return list(zip(vs, vs[1:]))


def _cycle(vs: Sequence[int]) -> list[Edge]:
    return _path([*vs, vs[0]])


def _star(center: int, leaves: Iterable[int]) -> list[Edge]:
    return [(center, v) for v in leaves]


def _dumbbell(n: int, m1: int, m2: int) -> list[Edge]:
    t = n + 2 - m1 - m2  # path vertices, counting the two on the cycles
    path = [0, *range(m1, m1 + t - 1)]
    return _cycle(range(m1)) + _path(path) + _cycle([path[-1], *range(m1 + t - 1, n)])


def _cycle_broom(n: int, k: int) -> list[Edge]:
    c = n - k - 1
    hub = c + k - 2  # the broom's star centre, last of its k path vertices
    return _cycle(range(c)) + _path([0, *range(c, hub + 1)]) + _star(hub, (n - 2, n - 1))


# ---------------------------------------------------------------------------
# closed forms


def _cycle_F(n: int) -> int:
    return n * n + 1


def _cycle_f(n: int) -> int:
    return (n * n + n + 2) // 2


def _lollipop_F(n: int, g: int) -> int:
    k = n - g
    return k * (n * n + k * k - 2 * n * k + n + 3) // 2 + g * g + 1


def _lollipop_pendant_f(n: int, g: int) -> int:
    return (g * g + n + (n - g) + 2) // 2


def _dumbbell_F(n: int, m1: int, m2: int) -> int:
    k = n + 2 - m1 - m2
    return (
        m1 * m1 * m2 * m2
        + m1 * m1 * m2
        + 2 * m1 * m1 * k
        + m1 * m2 * m2
        + m1 * m2
        + 2 * m1 * k
        + 2 * m1 * m1
        + 2 * m2 * m2
        + 2 * m2 * m2 * k
        + 2 * m2 * k
        + 2 * k * k
        + 2 * k
        - 2 * m1
        - 2 * m2
    ) // 4


def _dumbbell_cut_f(n: int, m1: int, m2: int) -> int:
    # the first cycle's factor times the pendant count of the lollipop that
    # the path and the second cycle form (the cycle itself when n = m1+m2-1)
    return _cycle_f(m1) * _lollipop_pendant_f(n - m1 + 1, m2)


def _broom_F(k: int, m: int) -> int:
    return k * (k - 1) // 2 + k * (1 << m) + m


def _broom_f_path_end(k: int, m: int) -> int:
    return (1 << m) + k - 1


def _double_broom_F(l: int, m: int, d: int) -> int:
    if abs(l - m) <= 1:
        return balanced_double_broom_F(l + m + d, d)
    # unbalanced case: fold the m-leaf star onto the broom holding the
    # l leaves, counts merged at the far path end
    return merge_count(_broom_F(d, l), (1 << m) + m, _broom_f_path_end(d, l), 1 << m)


def _cycle_broom_F(n: int, k: int) -> int:
    c = n - k - 1
    return merge_count(_cycle_F(c), _broom_F(k, 2), _cycle_f(c), _broom_f_path_end(k, 2))


# ---------------------------------------------------------------------------
# the family table


@dataclass(frozen=True)
class _Family:
    """Everything known about one named family; every callable takes the
    spec's parameters as keyword arguments."""

    params: tuple[str, ...]
    rules: tuple[tuple[Callable[..., bool], str], ...]  # (must hold, message otherwise)
    order: Callable[..., int]  # vertex count
    edges: Callable[..., list[Edge]]
    F: Callable[..., int]
    special: dict[str, tuple[Callable[..., int], Callable[..., int]]]  # tag -> (vertex, f)
    sweep: Callable[[int], Iterable[tuple[int, ...]]]  # parameter values up to n_max vertices


_FAMILIES: dict[str, _Family] = {
    "P": _Family(
        ("n",),
        ((lambda n: n >= 1, "path needs n >= 1"),),
        lambda n: n,
        lambda n: _path(range(n)),
        lambda n: comb(n + 1, 2),
        {"end": (lambda n: 0, lambda n: n)},
        lambda N: ((n,) for n in range(1, N + 1)),
    ),
    "C": _Family(
        ("n",),
        ((lambda n: n >= 3, "cycle needs n >= 3"),),
        lambda n: n,
        lambda n: _cycle(range(n)),
        _cycle_F,
        {"any": (lambda n: 0, _cycle_f)},
        lambda N: ((n,) for n in range(3, N + 1)),
    ),
    "S": _Family(
        ("n",),
        ((lambda n: n >= 2, "star needs n >= 2"),),
        lambda n: n,
        lambda n: _star(0, range(1, n)),
        lambda n: (1 << (n - 1)) + n - 1,
        {
            "center": (lambda n: 0, lambda n: 1 << (n - 1)),
            "leaf": (lambda n: 1, lambda n: (1 << (n - 2)) + 1),
        },
        lambda N: ((n,) for n in range(2, N + 1)),
    ),
    "L": _Family(
        ("n", "g"),
        ((lambda n, g: 3 <= g <= n - 1, "lollipop needs 3 <= g <= n-1 (use C for g = n)"),),
        lambda n, g: n,
        lambda n, g: _cycle(range(g)) + _path([0, *range(g, n)]),
        _lollipop_F,
        {
            "pendant": (lambda n, g: n - 1, _lollipop_pendant_f),
            "cut": (lambda n, g: 0, lambda n, g: _cycle_f(g) * (n - g + 1)),
        },
        lambda N: ((n, g) for n in range(4, N + 1) for g in range(3, n)),
    ),
    "CC": _Family(
        ("n", "m1", "m2"),
        (
            (lambda n, m1, m2: m1 >= 3 and m2 >= 3, "dumbbell cycles need m1, m2 >= 3"),
            (lambda n, m1, m2: n >= m1 + m2 - 1, "dumbbell needs n >= m1 + m2 - 1"),
        ),
        lambda n, m1, m2: n,
        _dumbbell,
        _dumbbell_F,
        {"cut": (lambda n, m1, m2: 0, _dumbbell_cut_f)},
        lambda N: (
            (n, m1, m2)
            for n in range(5, N + 1)
            for m1 in range(3, n)
            for m2 in range(m1, n)
            if m1 + m2 - 1 <= n
        ),
    ),
    "PS": _Family(
        ("k", "m"),
        ((lambda k, m: k >= 1 and m >= 1, "broom needs k >= 1 and m >= 1"),),
        lambda k, m: k + m,
        lambda k, m: _path(range(k)) + _star(k - 1, range(k, k + m)),
        _broom_F,
        {
            "path_end": (lambda k, m: 0, _broom_f_path_end),
            "center": (lambda k, m: k - 1, lambda k, m: k * (1 << m)),
        },
        lambda N: ((k, m) for k in range(1, N) for m in range(1, N + 1 - k)),
    ),
    "T": _Family(
        ("l", "m", "d"),
        (
            (
                lambda l, m, d: l >= 1 and m >= 1 and d >= 2,
                "double broom needs l, m >= 1 and d >= 2",
            ),
        ),
        lambda l, m, d: l + m + d,
        lambda l, m, d: (
            _path(range(d)) + _star(0, range(d, d + l)) + _star(d - 1, range(d + l, d + l + m))
        ),
        _double_broom_F,
        {},
        lambda N: (
            (l, m, d)
            for d in range(2, N - 1)
            for l in range(1, N)
            for m in range(l, N)
            if l + m + d <= N
        ),
    ),
    "Q": _Family(
        ("n", "k"),
        (
            (
                lambda n, k: k >= 2 and n - k - 1 >= 3,
                "Q needs k >= 2 and a cycle of length n-k-1 >= 3",
            ),
        ),
        lambda n, k: n,
        _cycle_broom,
        _cycle_broom_F,
        {"glue": (lambda n, k: 0, lambda n, k: _cycle_f(n - k - 1) * _broom_f_path_end(k, 2))},
        lambda N: ((n, k) for n in range(6, N + 1) for k in range(2, n - 3)),
    ),
}
