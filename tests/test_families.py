import hashlib

import pytest

from connsub import census, decompose
from connsub.families import (
    balanced_double_broom_F,
    build,
    closed_form_F,
    closed_form_f,
    parse_family_spec,
    spec,
    special_tags,
    special_vertex,
    specs_up_to,
)
from connsub.graph import cut_vertices, girth
from connsub.graphio import serialize_graph6
from connsub.verify import verify_formulas

from helpers import canonical_key


class TestBuild:
    def test_lollipop_shape(self):
        g = build(spec("L", n=6, g=5))
        assert (g.n, g.m) == (6, 6)
        assert len(cut_vertices(g)) == 1
        assert girth(g) == 5

    def test_dumbbell_shared_vertex(self):
        g = build(spec("CC", n=5, m1=3, m2=3))
        assert (g.n, g.m) == (5, 6)
        assert g.adj[0].bit_count() == 4
        assert len(cut_vertices(g)) == 1

    def test_dumbbell_with_path(self):
        g = build(spec("CC", n=8, m1=3, m2=4))
        assert (g.n, g.m) == (8, 9)
        assert len(cut_vertices(g)) == 8 + 2 - 7

    def test_broom_degenerates_to_claw(self):
        g = build(spec("PS", k=2, m=2))
        assert canonical_key(g) == canonical_key(build(spec("S", n=4)))

    def test_broom_with_single_leaf_is_path(self):
        g = build(spec("PS", k=4, m=1))
        assert canonical_key(g) == canonical_key(build(spec("P", n=5)))

    def test_cycle_broom(self):
        g = build(spec("Q", n=9, k=4))
        assert (g.n, len(cut_vertices(g))) == (9, 4)
        assert girth(g) == 4

    def test_structural_certification_sweep(self):
        for n in range(4, 13):
            for gg in range(3, n):
                g = build(spec("L", n=n, g=gg))
                assert len(cut_vertices(g)) == n - gg
                assert girth(g) == gg
        for n in range(5, 13):
            for m1 in range(3, n):
                for m2 in range(m1, n):
                    if m1 + m2 - 1 > n:
                        continue
                    g = build(spec("CC", n=n, m1=m1, m2=m2))
                    assert len(cut_vertices(g)) == n + 2 - m1 - m2
                    assert girth(g) == min(m1, m2)
        for n in range(6, 13):
            for k in range(2, n - 3):
                g = build(spec("Q", n=n, k=k))
                assert len(cut_vertices(g)) == k
                assert girth(g) == n - k - 1

    def test_deterministic_labeling(self):
        a = build(spec("T", l=2, m=3, d=4))
        b = build(spec("T", l=2, m=3, d=4))
        assert a.edges == b.edges


class TestValidation:
    def test_cycle_needs_three(self):
        with pytest.raises(ValueError):
            spec("C", n=2)

    def test_lollipop_rejects_g_equal_n(self):
        with pytest.raises(ValueError):
            spec("L", n=6, g=6)

    def test_dumbbell_small_cycles(self):
        with pytest.raises(ValueError):
            spec("CC", n=6, m1=2, m2=4)

    def test_q_needs_triangle_or_bigger(self):
        with pytest.raises(ValueError):
            spec("Q", n=6, k=3)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_family_spec("X:n=5")

    def test_bad_grammar(self):
        with pytest.raises(ValueError):
            parse_family_spec("L;n=5")

    def test_wrong_params(self):
        with pytest.raises(ValueError):
            parse_family_spec("L:n=5,k=2")

    def test_repeated_param(self):
        # the last value must not silently win
        with pytest.raises(ValueError, match="parameter 'n' given twice"):
            parse_family_spec("P:n=3,n=4")

    def test_grammar_round_trip(self):
        fs = parse_family_spec("CC:n=8,m1=3,m2=4")
        assert str(fs) == "CC:n=8,m1=3,m2=4"


class TestClosedForms:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("C:n=9", 82),
            ("L:n=12,g=11", 190),
            ("CC:n=5,m1=3,m2=3", 55),
            ("T:l=3,m=3,d=3", 103),
            ("Q:n=9,k=4", 100),
            ("P:n=4", 10),
            ("S:n=6", 37),
        ],
    )
    def test_total_values(self, text, value):
        assert closed_form_F(parse_family_spec(text)) == value

    @pytest.mark.parametrize(
        "text,tag,value",
        [
            ("L:n=6,g=5", "pendant", 17),
            ("L:n=6,g=5", "cut", 32),
            ("S:n=6", "leaf", 17),
            ("S:n=6", "center", 32),
            ("PS:k=4,m=3", "path_end", 11),
            ("C:n=5", "any", 16),
            ("P:n=7", "end", 7),
        ],
    )
    def test_vertex_values(self, text, tag, value):
        assert closed_form_f(parse_family_spec(text), tag) == value

    def test_undefined_tag_rejected(self):
        with pytest.raises(ValueError):
            closed_form_f(spec("T", l=2, m=2, d=2), "pendant")

    def test_balanced_double_broom_matches_merge_route(self):
        for d in range(2, 9):
            for l in range(1, 6):
                for m in (l, l + 1):
                    if l + m + d > 12:
                        continue
                    fs = spec("T", l=l, m=m, d=d)
                    assert closed_form_F(fs) == balanced_double_broom_F(l + m + d, d)

    def test_formula_enumeration_agreement(self):
        rep = verify_formulas(12)
        bad = [item for item in rep.items if not item.passed]
        assert not bad, bad

    def test_tie_identity(self):
        for k in range(3, 9):
            q = closed_form_F(spec("Q", n=2 * k + 1, k=k))
            lol = closed_form_F(spec("L", n=2 * k + 1, g=k + 1))
            assert q == lol

    def test_cycle_attachment_counts_dominate_cycle(self):
        # at a shared vertex, a lollipop or dumbbell holds strictly more
        # subgraphs than the plain cycle on the same vertex count
        for n1 in range(5, 13):
            cyc = closed_form_f(spec("C", n=n1), "any")
            lol = closed_form_f(spec("L", n=n1, g=n1 - 1), "cut")
            assert cyc < lol
            for m1 in range(3, n1 - 2):
                m2 = n1 + 1 - m1
                if m2 < 3 or m2 < m1:
                    continue
                db = closed_form_f(spec("CC", n=n1, m1=m1, m2=m2), "cut")
                assert cyc < db

    def test_lollipop_cut_value_closed_form(self):
        for n in range(4, 13):
            got = closed_form_f(spec("L", n=n, g=n - 1), "cut")
            assert got == n * n - n + 2


class TestSpecialVertexAgreement:
    def test_special_vertices_match_census(self):
        for text in ["L:n=7,g=4", "CC:n=7,m1=3,m2=4", "PS:k=3,m=3", "Q:n=8,k=3"]:
            fs = parse_family_spec(text)
            g = build(fs)
            for tag in special_tags(fs.name):
                v = special_vertex(fs, tag)
                assert closed_form_f(fs, tag) == census.subgraph_number(g, v)
            assert closed_form_F(fs) == decompose.count_via_decomposition(g)


class TestByteStability:
    # an unknown name, wrong keys, bad grammar, then one violation of each
    # validity rule in table order (CC has two rules)
    INVALID = [
        "X:n=5", "L:n=5,k=2", "L;n=5", "P:n=0", "C:n=2", "S:n=1", "L:n=6,g=6",
        "CC:n=6,m1=2,m2=4", "CC:n=5,m1=3,m2=4", "PS:k=0,m=2", "T:l=1,m=1,d=1", "Q:n=6,k=3",
    ]

    def test_labelings_counts_and_messages_are_pinned(self):
        # the digest was taken before the families became table rows: every
        # spec's text, labelled graph, closed forms and special vertices, and
        # the error text of each invalid spec, keep their bytes; only the
        # unknown name's text has changed since, from "family X takes
        # parameters ()" to "unknown family 'X'"
        h = hashlib.sha256()
        specs = specs_up_to(10)
        for fs in specs:
            h.update(f"{fs} {serialize_graph6(build(fs))} F={closed_form_F(fs)}".encode())
            for tag in special_tags(fs.name):
                h.update(f" {tag}@{special_vertex(fs, tag)}={closed_form_f(fs, tag)}".encode())
            h.update(b"\n")
        for text in self.INVALID:
            with pytest.raises(ValueError) as exc:
                parse_family_spec(text)
            h.update(f"{text} -> {exc.value}\n".encode())
        assert len(specs) == 199
        assert h.hexdigest() == "0377d711dda38add7b118a8abe275a35348c11d5eb39b29d350321bd764b112c"

    def test_spec_accepts_any_parameter_order(self):
        assert spec("L", g=3, n=5) == spec("L", n=5, g=3)
        assert str(parse_family_spec("CC:m2=4,n=8,m1=3")) == "CC:n=8,m1=3,m2=4"
