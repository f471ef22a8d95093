import hashlib
import json
import subprocess
import sys

import pytest

from connsub import census, families
from connsub.cli import main
from connsub.families import build, parse_family_spec
from connsub.generate import connected_classes
from connsub.graph import Graph
from connsub.graphio import parse_graph6, serialize_graph6


def complete(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestCount:
    def test_cycle_total(self, capsys, monkeypatch, tmp_path):
        g6 = serialize_graph6(build(parse_family_spec("C:n=4")))
        rc, out, _ = run(capsys, ["count", "--in", "-"], stdin=g6 + "\n", monkeypatch=monkeypatch)
        assert rc == 0 and out.strip() == "17"

    def test_multiple_stdin_lines(self, capsys, monkeypatch):
        lines = "\n".join(
            serialize_graph6(build(parse_family_spec(t))) for t in ("C:n=4", "P:n=4")
        )
        rc, out, _ = run(capsys, ["count", "--in", "-"], stdin=lines + "\n", monkeypatch=monkeypatch)
        assert rc == 0 and out.split() == ["17", "10"]

    def test_vertex_flag(self, capsys, monkeypatch):
        g6 = serialize_graph6(build(parse_family_spec("P:n=3")))
        rc, out, _ = run(
            capsys,
            ["count", "--in", "-", "--vertex", "0", "--method", "both"],
            stdin=g6 + "\n",
            monkeypatch=monkeypatch,
        )
        assert rc == 0 and out.strip() == "3 3"

    def test_vertex_of_a_path_past_census(self, capsys, monkeypatch):
        # the product rule at the middle cut vertex; census alone cannot take P51
        g6 = serialize_graph6(build(parse_family_spec("P:n=51")))
        rc, out, _ = run(
            capsys, ["count", "--in", "-", "--vertex", "25"], stdin=g6 + "\n", monkeypatch=monkeypatch
        )
        assert rc == 0 and out.strip() == "676"

    def test_containing_flag(self, capsys, monkeypatch):
        g6 = serialize_graph6(build(parse_family_spec("C:n=6")))
        rc, out, _ = run(
            capsys,
            ["count", "--in", "-", "--containing", "0,1"],
            stdin=g6 + "\n",
            monkeypatch=monkeypatch,
        )
        assert rc == 0 and out.strip() == "17"

    def test_edgelist_file(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n=3\n0 1\n1 2\n")
        rc, out, _ = run(capsys, ["count", "--in", str(path), "--format", "edgelist"])
        assert rc == 0 and out.strip() == "6"

    def test_parse_error_exits_two(self, capsys, monkeypatch):
        rc, _, err = run(capsys, ["count", "--in", "-"], stdin="!!!\n", monkeypatch=monkeypatch)
        assert rc == 2 and "error" in err

    def test_missing_file_exits_two(self, capsys):
        rc, _, err = run(capsys, ["count", "--in", "/nonexistent/file"])
        assert rc == 2

    def test_decompose_past_census_names_its_limits(self, capsys, monkeypatch):
        # f(v) here needs census on a 14-vertex, 26-edge part
        rc, _, err = run(
            capsys,
            ["count", "--in", "-", "--vertex", "0", "--method", "decompose"],
            stdin="TNrTmad?G?_DO?O???G?C??K????_G?_K??F\n",
            monkeypatch=monkeypatch,
        )
        assert rc == 2
        assert "decompose it" not in err
        assert "n <= 13" in err and "m <= 25" in err

    def test_both_checks_required_sets_by_enumeration(self, capsys, monkeypatch):
        # K5 is no near-tree, so census counts it by the DP, not the enumerator
        g6 = serialize_graph6(complete(5))
        monkeypatch.setattr(census, "count_by_enumeration", lambda g, req=(): 0)
        rc, out, err = run(
            capsys,
            ["count", "--in", "-", "--containing", "0,2", "--method", "both"],
            stdin=g6 + "\n",
            monkeypatch=monkeypatch,
        )
        assert rc == 1
        assert out.split()[1] == "0" and err.startswith("MISMATCH ")
        assert err == f"MISMATCH brute={out.split()[0]} enumerate=0\n"

    @pytest.mark.parametrize(
        "flags, req",
        [([], ()), (["--vertex", "0"], (0,)), (["--containing", "0,3"], (0, 3))],
        ids=["total", "vertex", "pair"],
    )
    def test_both_checks_a_near_tree_by_the_table(self, flags, req, capsys, monkeypatch):
        # census counts the 8-cycle by the enumerator, and with no cut vertex
        # decomposition would only repeat it: the subset table checks it
        c8 = build(parse_family_spec("C:n=8"))
        want = census.count_containing(c8, req)
        monkeypatch.setattr(census, "count_by_enumeration", lambda g, req=(): 0)
        rc, out, err = run(
            capsys,
            ["count", "--in", "-", "--method", "both", *flags],
            stdin=serialize_graph6(c8) + "\n",
            monkeypatch=monkeypatch,
        )
        assert rc == 1
        assert out == f"0 {want}\n"
        assert err == f"MISMATCH brute=0 table={want}\n"

    def test_both_with_one_route_compares_it_with_itself(self, capsys, monkeypatch):
        # K8 is past the enumerator, and decomposition has no rule for a
        # pair: the subset table is its one route
        k8 = complete(8)
        want = census.count_containing(k8, (0, 1))
        rc, out, err = run(
            capsys,
            ["count", "--in", "-", "--containing", "0,1", "--method", "both"],
            stdin=serialize_graph6(k8) + "\n",
            monkeypatch=monkeypatch,
        )
        assert rc == 0 and out == f"{want} {want}\n" and err == ""

    @pytest.mark.parametrize(
        "flags, want", [([], "9"), (["--vertex", "1"], "4")], ids=["total", "vertex"]
    )
    def test_decompose_hands_a_disconnected_graph_to_census(self, flags, want, capsys, monkeypatch):
        # P3 + K2: decomposition has no rule for a disconnected graph, so its
        # route is census's, as brute force counts it
        for method in ("decompose", "brute"):
            argv = ["count", "--in", "-", "--method", method, *flags]
            rc, out, err = run(capsys, argv, stdin="DgC\n", monkeypatch=monkeypatch)
            assert (rc, out, err) == (0, want + "\n", "")

    def test_both_checks_a_disconnected_graph_by_census_routes(self, capsys, monkeypatch):
        # decomposition takes no disconnected graph; census's two routes do
        two_k2 = serialize_graph6(Graph.from_edges(4, [(0, 1), (2, 3)])) + "\n"
        argv = ["count", "--in", "-", "--method", "both"]
        rc, out, err = run(capsys, argv, stdin=two_k2, monkeypatch=monkeypatch)
        assert rc == 0 and out == "6 6\n" and err == ""
        monkeypatch.setattr(census, "count_by_enumeration", lambda g, req=(): 0)
        rc, out, err = run(capsys, argv, stdin=two_k2, monkeypatch=monkeypatch)
        assert rc == 1 and out == "0 6\n"
        assert err == "MISMATCH brute=0 table=6\n"


class TestFamily:
    def test_check_pass(self, capsys):
        rc, out, _ = run(capsys, ["family", "--spec", "L:n=12,g=11", "--check"])
        assert rc == 0
        assert "F=190" in out and "PASS" in out

    def test_check_double_broom(self, capsys):
        rc, out, _ = run(capsys, ["family", "--spec", "T:l=3,m=3,d=3", "--check"])
        assert rc == 0 and "F=103" in out

    def test_check_cycle_broom(self, capsys):
        rc, out, _ = run(capsys, ["family", "--spec", "Q:n=9,k=4", "--check"])
        assert rc == 0 and "F=100" in out

    def test_emit_graph6(self, capsys):
        rc, out, _ = run(capsys, ["family", "--spec", "C:n=4", "--emit", "graph6"])
        assert rc == 0 and "Cl" in out

    def test_emit_graph6_long_form(self, capsys):
        # past n = 62 graph6 writes n in the long form, '~' then 18 bits
        rc, out, _ = run(capsys, ["family", "--spec", "P:n=63", "--emit", "graph6"])
        assert rc == 0
        assert parse_graph6(out.splitlines()[-1]) == build(parse_family_spec("P:n=63"))

    def test_emit_dot(self, capsys):
        rc, out, _ = run(capsys, ["family", "--spec", "L:n=6,g=5", "--emit", "dot"])
        assert rc == 0 and "graph G {" in out

    @pytest.mark.parametrize(
        "spec, n", [("P:n=500000000", 500000000), ("PS:k=60,m=5", 65), ("T:l=1,m=1,d=63", 65)]
    )
    def test_too_many_vertices_exit_two_before_any_edge(self, spec, n, capsys, monkeypatch):
        # the vertex count is refused before the edge list is built, so half
        # a billion vertices cost no memory
        def unbuilt(*args):
            raise AssertionError("an edge list was built")

        for builder in ("_path", "_cycle", "_star"):
            monkeypatch.setattr(families, builder, unbuilt)
        rc, out, err = run(capsys, ["family", "--spec", spec])
        assert (rc, out, err) == (2, "", f"error: vertex count must be in 1..64, got {n}\n")

    def test_bad_spec_exits_two(self, capsys):
        rc, _, err = run(capsys, ["family", "--spec", "L:n=6,g=6"])
        assert rc == 2

    def test_unknown_family_exits_two(self, capsys):
        # the family is checked before its parameter names
        rc, _, err = run(capsys, ["family", "--spec", "Z:n=3"])
        assert rc == 2
        assert err == "error: unknown family 'Z'\n"

    def test_check_tags_counted_by_decomposition(self, capsys):
        # the 30-vertex lollipop is past census, but not its tag counts
        rc, out, _ = run(capsys, ["family", "--spec", "L:n=30,g=5", "--check"])
        assert rc == 0
        assert "check f[pendant]: predicted=41 computed=41 PASS\n" in out
        assert "check f[cut]: predicted=416 computed=416 PASS\n" in out

    def test_check_beyond_census_exits_two(self, capsys):
        rc, _, err = run(capsys, ["family", "--spec", "C:n=30", "--check"])
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestSearch:
    def test_summary_and_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        rc, out, _ = run(
            capsys,
            ["search", "--n", "6", "--k", "1", "--objective", "F", "--out", str(out_path)],
        )
        assert rc == 0
        assert out.startswith("min=37 ")
        doc = json.loads(out_path.read_text())
        assert doc["minimum"] == "37" and doc["class_size"] == 33

    def test_minf_objective(self, capsys):
        rc, out, _ = run(
            capsys,
            ["search", "--n", "7", "--k", "4", "--objective", "minf"],
        )
        assert rc == 0 and out.startswith("min=8 ")

    def test_empty_class(self, capsys):
        rc, out, _ = run(capsys, ["search", "--n", "5", "--k", "4"])
        assert rc == 0 and out.startswith("min=none minimizers= classes=0")

    def test_over_cap_exits_two(self, capsys):
        rc, _, err = run(capsys, ["search", "--n", "11", "--k", "1"])
        assert rc == 2

    def test_n10_over_cap_exits_two(self, capsys):
        rc, _, err = run(capsys, ["search", "--n", "10", "--k", "0"])
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1


class TestVerify:
    def test_formulas_pass(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--suite", "formulas", "--n-max", "8"])
        assert rc == 0
        assert "FAIL" not in out

    def test_formulas_beyond_census_exits_two(self, capsys):
        # F of the 26-cycle refuses: its one block is past census
        rc, _, err = run(capsys, ["verify", "--suite", "formulas", "--n-max", "27"])
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_n_max_below_one_exits_two(self, capsys):
        for suite in ("formulas", "theorems", "table1"):
            for n_max in ("-3", "0"):
                rc, out, err = run(capsys, ["verify", "--suite", suite, "--n-max", n_max])
                assert rc == 2 and out == ""
                assert err.startswith("error: ") and err.count("\n") == 1

    def test_theorems_below_a_first_n_print_nothing(self, capsys):
        # girth-free-agreement starts at n = 6: a run that would skip it
        # exits 2 before printing the lines of the checks that ran
        rc, out, err = run(capsys, ["verify", "--suite", "theorems", "--n-max", "5"])
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_formulas_past_the_vertex_bound_exit_two_before_listing_specs(
        self, capsys, monkeypatch
    ):
        # the bound is checked before the O(n_max^3) specs are listed
        def unlisted(n_max):
            raise AssertionError("the specs were listed")

        monkeypatch.setattr(families, "specs_up_to", unlisted)
        rc, out, err = run(capsys, ["verify", "--suite", "formulas", "--n-max", "100000"])
        assert (rc, out) == (2, "")
        assert err == "error: --n-max for formulas must be at most 64\n"

    def test_table1_over_cap_exits_two(self, capsys):
        rc, out, err = run(capsys, ["verify", "--suite", "table1", "--n-max", "10"])
        assert rc == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_table1_reports_known_conflicts(self, capsys):
        rc, out, _ = run(capsys, ["verify", "--suite", "table1", "--n-max", "7"])
        assert rc == 1
        fails = [ln for ln in out.splitlines() if ln.startswith("FAIL")]
        assert any("n=7, k=3" in ln for ln in fails)
        assert any("n=11, k=1" in ln for ln in fails)
        assert any("n=11, k=3" in ln for ln in fails)


class TestOracleDiff:
    def test_beyond_census_exits_two(self, capsys, monkeypatch):
        g6 = serialize_graph6(build(parse_family_spec("C:n=30")))
        rc, _, err = run(capsys, ["oracle-diff", "--in", "-"], stdin=g6 + "\n", monkeypatch=monkeypatch)
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_routes_agree(self, capsys, monkeypatch):
        lines = "\n".join(
            serialize_graph6(build(parse_family_spec(t)))
            for t in ("C:n=5", "T:l=2,m=2,d=2", "L:n=7,g=4")
        )
        rc, out, _ = run(capsys, ["oracle-diff", "--in", "-"], stdin=lines + "\n", monkeypatch=monkeypatch)
        assert rc == 0
        assert out.count("ok F=") == 3

    def test_a_near_tree_meets_both_census_routes(self, capsys, monkeypatch):
        c8 = g6("C:n=8")
        rc, out, _ = run(capsys, ["oracle-diff", "--in", "-"], stdin=c8, monkeypatch=monkeypatch)
        assert rc == 0 and out == "ok F=65 routes=enumerate,table\n"
        # a wrong enumerator shows against the table
        monkeypatch.setattr(census, "count_by_enumeration", lambda g, req=(): 0)
        rc, out, _ = run(capsys, ["oracle-diff", "--in", "-"], stdin=c8, monkeypatch=monkeypatch)
        assert rc == 1 and out == "MISMATCH enumerate=0 table=65\n"

    def test_each_route_counts_once(self, capsys, monkeypatch):
        # decomposition joins only where a cut vertex splits the graph;
        # without one it would hand the whole graph to census again
        rc, out, _ = run(capsys, ["oracle-diff", "--in", "-"], stdin=g6("P:n=5"), monkeypatch=monkeypatch)
        assert rc == 0 and out == "ok F=15 routes=decompose,enumerate,table\n"
        calls = []
        for attr in ("connected_set_table", "count_by_enumeration"):
            real = getattr(census, attr)
            monkeypatch.setattr(census, attr, lambda *a, _r=real, _n=attr: calls.append(_n) or _r(*a))
        for g in (complete(6), build(parse_family_spec("C:n=8"))):
            calls.clear()
            stdin = serialize_graph6(g) + "\n"
            rc, out, _ = run(capsys, ["oracle-diff", "--in", "-"], stdin=stdin, monkeypatch=monkeypatch)
            assert rc == 0 and out.endswith(" routes=enumerate,table\n")
            assert sorted(calls) == ["connected_set_table", "count_by_enumeration"]


# the cross-checks' graphs: every connected class with n <= 6, then larger
# graphs that one census route, two, or two and decomposition take
CROSS_CHECKED = [
    *(g for n in range(1, 7) for g in connected_classes(n)),
    *(build(parse_family_spec(t)) for t in ("C:n=13", "S:n=13", "L:n=12,g=11", "P:n=20", "C:n=24")),
    complete(8),
]


def test_cross_check_outputs_are_pinned(capsys, monkeypatch):
    # stdout, stderr and exit code of `count --method both` and `oracle-diff`
    # on each graph, as the CLI gave them while it chose the routes itself,
    # before decompose.routes; K8's pair count, which that list changed, is
    # left out
    digest = hashlib.sha256()
    for g in CROSS_CHECKED:
        flag_sets = [[], ["--vertex", "0"], ["--containing", "0,1"]]
        if g == complete(8):
            flag_sets.pop()
        argvs = [["count", "--in", "-", "--method", "both", *flags] for flags in flag_sets]
        for argv in [*argvs, ["oracle-diff", "--in", "-"]]:
            rc, out, err = run(capsys, argv, stdin=serialize_graph6(g) + "\n", monkeypatch=monkeypatch)
            digest.update(f"{rc}\0{out}\0{err}\0".encode())
    assert digest.hexdigest() == "9d23fcce4d0332e684707b10c12bacd83f4bfb52c84f9fe74733b8c49af04ae7"


class TestUsage:
    def test_unknown_command_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_conflicting_flags_exit_two(self, capsys, monkeypatch):
        g6 = serialize_graph6(build(parse_family_spec("P:n=3")))
        rc, _, _ = run(
            capsys,
            ["count", "--in", "-", "--vertex", "0", "--containing", "1,2"],
            stdin=g6 + "\n",
            monkeypatch=monkeypatch,
        )
        assert rc == 2


def g6(text):
    return serialize_graph6(build(parse_family_spec(text))) + "\n"


# Every input, usage or output error: argv (``{tmp}`` is a scratch directory)
# and the text fed to stdin.
EXIT_TWO = {
    "search-out-missing-dir": (["search", "--n", "4", "--k", "1", "--out", "{tmp}/no/x.json"], None),
    "search-out-is-dir": (["search", "--n", "3", "--k", "1", "--out", "{tmp}"], None),
    "count-non-ascii-file": (["count", "--in", "{tmp}/ff.g6"], None),
    "count-missing-file": (["count", "--in", "{tmp}/missing.g6"], None),
    "count-bad-graph6": (["count", "--in", "-"], "!!!\n"),
    "count-no-graphs": (["count", "--in", "-"], "\n"),
    "count-conflicting-flags": (["count", "--in", "-", "--vertex", "0", "--containing", "1,2"], g6("P:n=3")),
    "count-bad-containing": (["count", "--in", "-", "--containing", "a,b"], g6("P:n=3")),
    "count-conflicting-flags-missing-file": (
        ["count", "--in", "{tmp}/missing.g6", "--vertex", "0", "--containing", "1"],
        None,
    ),
    "count-bad-containing-missing-file": (["count", "--in", "{tmp}/missing.g6", "--containing", "a"], None),
    "count-empty-containing": (["count", "--in", "-", "--containing", ","], g6("P:n=3")),
    "count-blank-containing": (["count", "--in", "-", "--containing", ""], g6("P:n=3")),
    "count-empty-containing-missing-file": (["count", "--in", "{tmp}/missing.g6", "--containing", ","], None),
    "count-vertex-out-of-range": (["count", "--in", "-", "--vertex", "7"], g6("P:n=3")),
    "count-both-past-census": (["count", "--in", "-", "--vertex", "25", "--method", "both"], g6("P:n=51")),
    "family-bad-spec": (["family", "--spec", "L:n=6,g=6"], None),
    "family-repeated-parameter": (["family", "--spec", "P:n=3,n=4"], None),
    "family-check-past-census": (["family", "--spec", "C:n=30", "--check"], None),
    "search-n11": (["search", "--n", "11", "--k", "1"], None),
    "search-n10": (["search", "--n", "10", "--k", "0"], None),
    "verify-formulas-past-census": (["verify", "--suite", "formulas", "--n-max", "27"], None),
    "verify-formulas-n-max-0": (["verify", "--suite", "formulas", "--n-max", "0"], None),
    "verify-theorems-n-max-minus-3": (["verify", "--suite", "theorems", "--n-max", "-3"], None),
    "verify-theorems-n-max-one": (["verify", "--suite", "theorems", "--n-max", "1"], None),
    "verify-table1-n-max-0": (["verify", "--suite", "table1", "--n-max", "0"], None),
    "verify-table1-past-cap": (["verify", "--suite", "table1", "--n-max", "10"], None),
    "oracle-diff-past-census": (["oracle-diff", "--in", "-"], g6("C:n=30")),
}


# the error a case must report, where another error could also exit 2: the
# flags are checked before the input is read
EXIT_TWO_ERROR = {
    "count-conflicting-flags-missing-file": "error: --vertex and --containing are mutually exclusive\n",
    "count-bad-containing-missing-file": "error: bad --containing list: ",
    "count-empty-containing": "error: bad --containing list: ",
    "count-blank-containing": "error: bad --containing list: ",
    "count-empty-containing-missing-file": "error: bad --containing list: ",
}


@pytest.mark.parametrize("case", sorted(EXIT_TWO))
def test_exit_two_contract(case, capsys, monkeypatch, tmp_path):
    argv, stdin = EXIT_TWO[case]
    (tmp_path / "ff.g6").write_bytes(b"\xff\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    rc, _, err = run(capsys, argv, stdin=stdin, monkeypatch=monkeypatch)
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.startswith(EXIT_TWO_ERROR.get(case, "error: "))


def cli_process(argv, **kw):
    return subprocess.Popen([sys.executable, "-m", "connsub.cli", *argv], **kw)


def test_package_runs_as_a_module(capsys):
    # python -m connsub is the CLI, from a checkout with src on the path
    argv = ["search", "--n", "5", "--k", "1"]
    done = subprocess.run([sys.executable, "-m", "connsub", *argv], capture_output=True, check=True)
    assert done.stdout.decode() == run(capsys, argv)[1]


@pytest.mark.parametrize(
    "data, encoding",
    [
        (b"\xff\n", None),
        ("é\n".encode(), None),
        (b"A\x80_\n", None),
        # stdin is decoded as files are, not by the encoding the environment
        # sets for Python's own streams
        (b"\xff\n", "utf-8:strict"),
        ("é\n".encode(), "latin-1"),
    ],
    ids=["ff", "utf8", "80", "ff-strict", "utf8-latin1"],
)
def test_non_ascii_bytes_same_error_from_file_and_stdin(data, encoding, tmp_path, monkeypatch):
    if encoding is None:
        monkeypatch.delenv("PYTHONIOENCODING", raising=False)
    else:
        monkeypatch.setenv("PYTHONIOENCODING", encoding)
    path = tmp_path / "g.g6"
    path.write_bytes(data)
    errs = []
    for argv, given in ((["--in", str(path)], None), (["--in", "-"], data)):
        proc = cli_process(["count", *argv], stdin=subprocess.PIPE, stderr=subprocess.PIPE)
        _, err = proc.communicate(given, timeout=60)
        assert proc.returncode == 2
        errs.append(err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(b"error: bad input: ") and errs[0].count(b"\n") == 1


@pytest.mark.parametrize(
    "argv, data",
    [
        # the report of a closed pipe: a short output, so timing decides
        # whether any write comes after the close
        (["verify", "--suite", "formulas", "--n-max", "12"], None),
        # 245 KB of output, far past what the pipe can hold: a write always
        # meets the closed pipe
        (["oracle-diff", "--in", "-"], b"@\n" * 5000),
    ],
    ids=["verify-formulas", "oracle-diff-5000"],
)
def test_closed_stdout_ends_without_traceback(argv, data):
    proc = cli_process(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if data is not None:
        proc.stdin.write(data)
    proc.stdin.close()
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.wait(timeout=120)
    assert "Traceback" not in err and "Exception ignored" not in err
    if data is not None:
        assert proc.returncode == 2 and err == "error: [Errno 32] Broken pipe\n"
    else:
        assert proc.returncode in (0, 2)
