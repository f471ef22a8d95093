import json

from connsub.cli import main
from connsub.families import build, parse_family_spec
from connsub.graphio import serialize_graph6


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
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

    def test_emit_dot(self, capsys):
        rc, out, _ = run(capsys, ["family", "--spec", "L:n=6,g=5", "--emit", "dot"])
        assert rc == 0 and "graph G {" in out

    def test_bad_spec_exits_two(self, capsys):
        rc, _, err = run(capsys, ["family", "--spec", "L:n=6,g=6"])
        assert rc == 2

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
