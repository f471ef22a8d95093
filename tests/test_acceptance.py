"""Acceptance gate: one test per stated criterion, at stated sizes.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion item.

Three cells of the published reference table print values that contradict
the closed forms published alongside them (and brute-force counting):
(7,3) prints 47 for a graph whose count is 37, (11,1) prints 163 against
158, (11,3) prints 179 against 182.  The tier-(a) checks for those three
cells, and the tier-(b) value check for (7,3), are therefore expected to
fail; the companion test right below them pins the computed values to the
closed forms so the disagreement is machine-checked from both sides.
"""

import hashlib
import json
import math
import random
import subprocess
import sys

import pytest

from connsub import census, decompose, families, verify
from connsub.extremal import ClassSpec, search_min_F
from connsub.generate import connected_classes
from connsub.graph import Graph, blocks, cut_vertices
from connsub.graphio import parse_graph6, serialize_graph6

from helpers import block_expansion_count, canonical_key


def build(text):
    return families.build(families.parse_family_spec(text))


# -- criterion 1: closed-form identities, n = 1..12, against brute force ---


@pytest.mark.parametrize("n", range(1, 13))
def test_c1_path_identity(n):
    g = build(f"P:n={n}")
    want = math.comb(n + 1, 2)
    assert families.closed_form_F(families.parse_family_spec(f"P:n={n}")) == want
    assert census.count_connected_subgraphs(g) == want


@pytest.mark.parametrize("n", range(3, 13))
def test_c1_cycle_identity(n):
    g = build(f"C:n={n}")
    assert census.count_connected_subgraphs(g) == n * n + 1


@pytest.mark.parametrize("n", range(2, 13))
def test_c1_star_identity(n):
    g = build(f"S:n={n}")
    assert census.count_connected_subgraphs(g) == (1 << (n - 1)) + n - 1


# -- criterion 2: reference table tier (a) ---------------------------------

TIER_A_CELLS = sorted(
    (nk, cell) for nk, cell in verify.REFERENCE_TABLE.items() if cell is not None
)

#: cells whose printed value contradicts the same publication's closed
#: forms; see the module docstring
VALUE_CONFLICT_CELLS = {(7, 3): 37, (11, 1): 158, (11, 3): 182}


@pytest.mark.parametrize(
    "nk,cell", TIER_A_CELLS, ids=[f"n{n}k{k}" for (n, k), _ in TIER_A_CELLS]
)
def test_c2_table1_tier_a_printed_value(nk, cell):
    spec_text, printed = cell
    computed = decompose.count_via_decomposition(build(spec_text))
    assert computed == printed, (
        f"cell {nk}: computed {computed} != printed {printed}"
        + (
            " (known print/formula conflict in the source table)"
            if nk in VALUE_CONFLICT_CELLS
            else ""
        )
    )


def test_c2_conflicting_cells_match_closed_forms():
    # the three disputed cells agree with the closed forms and with brute force
    for (n, k), want in VALUE_CONFLICT_CELLS.items():
        spec_text, _printed = verify.REFERENCE_TABLE[(n, k)]
        fs = families.parse_family_spec(spec_text)
        assert families.closed_form_F(fs) == want
        g = families.build(fs)
        assert decompose.count_via_decomposition(g) == want
        if g.n <= 9:
            assert census.count_by_enumeration(g) == want


def test_c2_empty_cells_are_empty_classes():
    for (n, k), cell in verify.REFERENCE_TABLE.items():
        if cell is None:
            report = search_min_F(ClassSpec(n, k, min_girth=k))
            assert report.class_size == 0 and report.minimum is None


# -- criterion 3: reference table tier (b), exhaustive search 6 <= n <= 9 --

TIER_B_CELLS = sorted(
    (nk, cell)
    for nk, cell in verify.REFERENCE_TABLE.items()
    if cell is not None and 6 <= nk[0] <= 9
)


@pytest.mark.parametrize(
    "nk,cell", TIER_B_CELLS, ids=[f"n{n}k{k}" for (n, k), _ in TIER_B_CELLS]
)
def test_c3_table1_tier_b_search(nk, cell):
    n, k = nk
    spec_text, printed = cell
    report = search_min_F(ClassSpec(n, k, min_girth=k))
    assert report.class_size > 0
    got_keys = {canonical_key(parse_graph6(s)) for s in report.minimizers}
    if nk in verify.PATH_LABELED_CELLS:
        # flagged cells: the printed graph is a smaller path than the class
        # admits; the search reports the class's true (unique) minimizer P_n
        path_key = canonical_key(build(f"P:n={n}"))
        assert got_keys == {path_key}
        assert report.minimum == math.comb(n + 1, 2)
        return
    named_key = canonical_key(build(spec_text))
    assert named_key in got_keys, f"printed graph is not a minimizer at {nk}"
    assert report.minimum == printed, (
        f"cell {nk}: search minimum {report.minimum} != printed {printed}"
        + (
            " (known print/formula conflict in the source table)"
            if nk in VALUE_CONFLICT_CELLS
            else ""
        )
    )


def test_c3_runs_under_search_cap():
    report = verify.verify_table1(search_n_max=9)
    sizes = {(b.n, b.k): b.class_size for b in report.tier_b}
    assert sizes[(9, 1)] == 52448  # largest class searched
    assert all(b.class_size > 0 for b in report.tier_b)


# -- criterion 4: decomposition == brute force ------------------------------


def test_c4_exhaustive_up_to_seven():
    checked = 0
    for n in range(3, 8):
        for g in connected_classes(n):
            if not cut_vertices(g):
                continue
            want = census.count_connected_subgraphs(g)
            assert decompose.count_via_decomposition(g) == want
            for v in range(n):
                assert decompose.subgraph_number_via_decomposition(
                    g, v
                ) == census.subgraph_number(g, v)
            for blk in blocks(g):
                assert block_expansion_count(g, blk) == want
            checked += 1
    assert checked == 456


def _random_connected(rnd, n, m_cap):
    edges = set()
    for v in range(1, n):
        edges.add((rnd.randrange(v), v))
    pairs = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges
    ]
    rnd.shuffle(pairs)
    for p in pairs[: max(0, m_cap - len(edges))]:
        if len(edges) >= m_cap or rnd.random() < 0.5:
            break
        edges.add(p)
    return Graph.from_edges(n, edges)


def test_c4_random_up_to_ten():
    rnd = random.Random(20240817)
    checked = 0
    while checked < 200:
        n = rnd.randint(4, 10)
        g = _random_connected(rnd, n, m_cap=20)
        if not cut_vertices(g):
            continue
        want = census.count_connected_subgraphs(g)
        assert decompose.count_via_decomposition(g) == want
        for v in range(n):
            assert decompose.subgraph_number_via_decomposition(
                g, v
            ) == census.subgraph_number(g, v)
        for blk in blocks(g):
            assert block_expansion_count(g, blk) == want
        checked += 1


# -- criterion 5: theorem suite ---------------------------------------------


def _assert_report(rep):
    bad = [f"{item.label}: {item.detail}" for item in rep.items if not item.passed]
    assert not bad, "\n".join(bad)


def test_c5_two_connected_vertex_floor():
    _assert_report(verify.verify_theorem("two-connected-vertex-floor", 8))


def test_c5_cycle_pair_count():
    _assert_report(verify.verify_theorem("cycle-pair-count", 12))


def test_c5_block_pair_floor():
    _assert_report(verify.verify_theorem("block-pair-floor", 8))


def test_c5_pendant_share_limit():
    _assert_report(verify.verify_theorem("pendant-share-limit", 9))


def test_c5_vertex_floor_nontree():
    _assert_report(verify.verify_theorem("vertex-floor-nontree", 9))


def test_c5_vertex_floor_three_regime():
    _assert_report(verify.verify_theorem("vertex-floor-three-regime", 9))


def test_c5_count_floor_girth_with_tie():
    rep = verify.verify_theorem("count-floor-girth", 9)
    _assert_report(rep)
    # the two-graph tie must actually have been exercised at n = 2k+1
    tie_labels = [item.label for item in rep.items if "n=7 k=3" in item.label or "n=9 k=4" in item.label]
    assert len(tie_labels) == 2


def test_c5_tree_floors():
    _assert_report(verify.verify_theorem("tree-vertex-floor", 9))
    _assert_report(verify.verify_theorem("tree-count-floor", 9))


# -- criterion 6: monotonicity ----------------------------------------------


def test_c6_edge_deletion_monotone():
    _assert_report(verify.verify_theorem("edge-monotonicity", 6))


def test_c6_branch_move_decrease():
    rep = verify.verify_theorem("branch-move-decrease")
    _assert_report(rep)
    assert "50" in rep.items[0].label or "60" in rep.items[0].label


# -- criterion 7: documented substitution for out-of-cap claims -------------


def test_c7_substitution_documented():
    report = verify.verify_table1(search_n_max=9)
    joined = " ".join(report.notes)
    assert "n >= 13" in joined and "n <= 9" in joined
    # rows 10..12 are still value-checked at tier (a)
    assert any(c.n >= 10 for c in report.tier_a)


# -- criterion 8: serialization and determinism ------------------------------


def test_c8_graph6_roundtrip_exhaustive():
    for n in range(1, 8):
        for g in connected_classes(n):
            assert parse_graph6(serialize_graph6(g)).edges == g.edges


# SHA-256 of the newline-joined report lines: each theorem check at n <= 7,
# and the formula suite at its default size
THEOREM_REPORT_DIGESTS = {
    "edge-monotonicity": "777ef9a001a2cdbbf95ba11f9d5c44790fd46a4ab1982f903cc99b226d1b6ea4",
    "two-connected-vertex-floor": "6037040e7fb55abdece786a455d7f13e634414d478dccab33a464ca9532f5307",
    "cycle-pair-count": "a12e790dfa578f7680dfad38ecccbc4cc9c91dfab4046c9c0ef77276c4d2e415",
    "block-pair-floor": "ee56730686e51f077374618fee82297df582af85180e59377fd536b6db430669",
    "pendant-share-limit": "ccc620ecc1637f0bd385dafe8d5ebcd37157b6fb32c7f053500ed20c433f82e7",
    "vertex-floor-nontree": "5ce06c65b2add2f60c1fa47b07fa5c290fb61bbd4929145439fa1a7a4b3bfa24",
    "vertex-floor-three-regime": "1c041f1f72482e66ce7c06552d2299988f9faeb1c04e0463b037032a2c8ef41b",
    "tree-vertex-floor": "cf6aea8cd5962dd4d11bb00f55777a18bac45c7e0b919d95dbd7331f263addc7",
    "tree-count-floor": "83e0a11de3979ddc1d612efe6e038127903002289be5a7efb1a100dda9c27268",
    "count-floor-girth": "b1daea24d1829b25297287f848d2a8215aba414e2433bed62d866ceb86d47f13",
    "girth-free-agreement": "9257b68353338b2d804924f465ad8f4346a5c717fcc2c2fe54ca67eb7b0b90cb",
    "branch-move-decrease": "9927fce59333c99bdab9bf2c7ecd9d34ad372c1aaa3241043a7134053bdabc74",
}
FORMULA_REPORT_DIGEST = "889c197fc223e86e0ac1245505a85ebf550b3712978c3aa7e0c4bf8b4b887c03"


def _digest(rep):
    return hashlib.sha256("\n".join(rep.lines()).encode()).hexdigest()


def test_c8_theorem_reports_are_pinned():
    got = {name: _digest(verify.verify_theorem(name, 7)) for name in verify.theorem_names()}
    assert got == THEOREM_REPORT_DIGESTS


def test_c8_formula_report_is_pinned():
    assert _digest(verify.verify_formulas()) == FORMULA_REPORT_DIGEST


def _run_search_subprocess(n, k, out_path):
    code = (
        "import sys; from connsub.cli import main; "
        f"sys.exit(main(['search','--n','{n}','--k','{k}','--objective','F',"
        f"'--out',r'{out_path}']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_c8_repeat_run_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    first = _run_search_subprocess(7, 2, a)
    second = _run_search_subprocess(7, 2, b)
    assert first == second
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    da["wall_time_ms"] = db["wall_time_ms"] = 0
    assert da == db
