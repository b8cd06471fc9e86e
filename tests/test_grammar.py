import pytest

import frameparse as fp
from frameparse.grammar import ADJUNCT, ARGUMENT, GrammarError

from oracles import language

MINI = """
terminals: det n v prep
verbs: v
start: S
S  -> NP VP(head)
NP -> det n(head)
VP -> v(head) NP : VSUBCAT=NP | gr: dobj(_, self, 2, _)
VP -> v(head)    : VSUBCAT=NONE
NP -> NP(head) PP
PP -> prep NP(head)
"""


def test_minimal_rule_head():
    g = fp.parse_grammar("terminals: a b\nstart: S\nS -> a b(head)\n")
    assert len(g.rules) == 1
    assert g.rules[0].head_index == 1
    assert g.rules[0].daughters == ("a", "b")


def test_verbal_rule_carries_vsubcat():
    g = fp.parse_grammar(MINI)
    rule = g.rule_by_shape("VP", ["v", "NP"])
    assert rule.features == (("VSUBCAT", "NP"),)
    assert g.instance_frames[rule.rule_id] == "NP"


def test_undeclared_symbol_is_named():
    text = "terminals: v\nstart: VP\nVP -> v(head) XYZ\n"
    with pytest.raises(GrammarError, match="XYZ"):
        fp.parse_grammar(text)


def test_syntax_error_reports_line_number():
    text = "terminals: a\nstart: S\nS -> a\nwhat is this\n"
    with pytest.raises(GrammarError, match="line 4"):
        fp.parse_grammar(text)


def test_unknown_vsubcat_value_rejected():
    text = "terminals: v\nstart: VP\nVP -> v : VSUBCAT=NP_QQ\n"
    with pytest.raises(GrammarError, match="NP_QQ"):
        fp.parse_grammar(text)


def test_duplicate_feature_rejected():
    # only the first value would ever be read or checked
    text = ("terminals: v n\nstart: VP\n"
            "VP -> v(head) n : VSUBCAT=NP, VSUBCAT=BOGUS\n")
    with pytest.raises(GrammarError,
                       match="^line 3: duplicate feature 'VSUBCAT'$"):
        fp.parse_grammar(text)


def test_missing_head_rejected():
    with pytest.raises(GrammarError, match="head"):
        fp.parse_grammar("terminals: a b\nstart: S\nS -> a b\n")


def test_two_heads_rejected():
    with pytest.raises(GrammarError, match="head"):
        fp.parse_grammar("terminals: a b\nstart: S\nS -> a(head) b(head)\n")


def test_duplicate_rule_rejected():
    text = "terminals: a b\nstart: S\nS -> a b(head)\nS -> a b(head)\n"
    with pytest.raises(GrammarError, match="duplicate"):
        fp.parse_grammar(text)


def test_unit_cycle_rejected():
    text = "terminals: a\nstart: S\nS -> A\nA -> S\nS -> a\nA -> a\n"
    with pytest.raises(GrammarError, match="cycle"):
        fp.parse_grammar(text)
    # a marker elsewhere defers the check to Kleene expansion, which must
    # not drop a written unit self-rule
    marked = fp.parse_grammar("terminals: a\nstart: S\nS -> a+ a(head)\nS -> S\n")
    with pytest.raises(GrammarError, match="cycle: S -> S"):
        fp.normalize_kleene(marked)


def test_missing_declarations_rejected():
    with pytest.raises(GrammarError, match="terminals"):
        fp.parse_grammar("start: S\nS -> S\n")
    with pytest.raises(GrammarError, match="start"):
        fp.parse_grammar("terminals: a\nS -> a\n")


def test_verb_tag_must_be_a_terminal():
    # a typo for "v" would leave the grammar with no verb instances
    text = fp.demo_path("demo.grammar").read_text().replace(
        "verbs: v\n", "verbs: vb\n")
    with pytest.raises(GrammarError,
                       match=r"^line 8: verb tag 'vb' is not a terminal$"):
        fp.parse_grammar(text)


@pytest.mark.parametrize("declaration, first", [
    ("terminals: det n v prep", 2), ("verbs: v", 3), ("start: S", 4)])
def test_duplicate_declaration_rejected(declaration, first):
    keyword = declaration.split(":")[0]
    text = MINI.replace("start: S\n", "start: S\n" + declaration + "\n")
    with pytest.raises(GrammarError, match=(
            rf"^line 5: duplicate '{keyword}:' declaration "
            rf"\(first on line {first}\)$")):
        fp.parse_grammar(text)


def test_template_index_out_of_range():
    text = "terminals: v n\nstart: VP\nVP -> v(head) n | gr: dobj(_, self, 3, _)\n"
    with pytest.raises(GrammarError, match="out of range"):
        fp.parse_grammar(text)


def test_reserved_prefix_rejected():
    with pytest.raises(GrammarError):
        fp.parse_grammar("terminals: a\nstart: @S\n@S -> a\n")


class TestKinds:
    def test_adjunct_rule_shape(self):
        g = fp.parse_grammar(MINI)
        assert g.rule_by_shape("NP", ["NP", "PP"]).kind == ADJUNCT
        assert g.rule_by_shape("NP", ["det", "n"]).kind == ARGUMENT

    def test_adjunct_mother_equals_head_label(self, demo_normalized):
        for rule in demo_normalized.rules:
            if rule.kind == ADJUNCT:
                assert rule.mother == rule.daughters[rule.head_index]

    def test_every_verbal_argument_rule_has_vsubcat(self, demo_normalized):
        verbal = [rule for rule in demo_normalized.rules
                  if rule.kind == ARGUMENT
                  and rule.daughters[rule.head_index] in demo_normalized.verb_tags]
        assert verbal
        assert [rule for rule in verbal
                if demo_normalized.instance_frames[rule.rule_id] is None] == []

    def test_vsubcat_of_nonverbal_rule_absent(self):
        g = fp.parse_grammar(MINI)
        for shape in (["det", "n"], ["NP", "PP"]):
            rule = g.rule_by_shape("NP", shape)
            assert g.instance_frames[rule.rule_id] is None
        # a VSUBCAT on a rule whose head is not a terminal assigns no frame
        phrasal = fp.parse_grammar(
            "terminals: v n\nstart: S\nS -> V(head) n : VSUBCAT=NP\nV -> v\n")
        assert phrasal.instance_frames[phrasal.rules[0].rule_id] is None

    def test_vsubcat_of_intransitive(self):
        g = fp.parse_grammar(MINI)
        rule = g.rule_by_shape("VP", ["v"])
        assert g.instance_frames[rule.rule_id] == "NONE"


def test_rules_and_grammars_compare_and_hash_without_lines():
    first, second = fp.parse_grammar(MINI), fp.parse_grammar("# moved\n" + MINI)
    assert first is not second
    for a, b in zip(first.rules, second.rules):
        assert a.line != b.line
        assert a == b and not a != b and hash(a) == hash(b)
    assert len(set(first.rules) | set(second.rules)) == len(first.rules)
    assert first.rules[2] != first.rules[3]
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    others = [fp.parse_grammar(MINI.replace("verbs: v\n", "")),
              fp.parse_grammar(MINI.replace("start: S\n", "start: VP\n")),
              fp.parse_grammar(MINI.replace("det n v prep", "det n v prep x")),
              fp.parse_grammar(MINI.replace("VSUBCAT=NONE", "VSUBCAT=NP"))]
    for other in others:
        assert first != other and not first == other
    assert len({first, *others}) == 5


class TestRoundTrip:
    def test_mini_round_trip(self):
        g = fp.parse_grammar(MINI)
        assert fp.parse_grammar(fp.render_grammar(g)) == g

    def test_demo_round_trip(self, demo_grammar):
        rendered = fp.render_grammar(demo_grammar)
        assert fp.parse_grammar(rendered) == demo_grammar

    def test_markers_survive_round_trip(self):
        text = "terminals: a b\nstart: S\nS -> a? b(head) a*\nS -> a+ b(head)\n"
        g = fp.parse_grammar(text)
        again = fp.parse_grammar(fp.render_grammar(g))
        assert again == g
        assert again.rules[0].markers == ("?", "", "*")
        assert again.rules[1].markers == ("+", "")


class TestNormalize:
    def test_no_markers_unchanged(self):
        g = fp.parse_grammar(MINI)
        assert fp.normalize_kleene(g) is g

    def test_idempotent(self, demo_grammar):
        once = fp.normalize_kleene(demo_grammar)
        assert fp.normalize_kleene(once) is once

    def test_optional_expands_to_rule_pair(self):
        g = fp.parse_grammar("terminals: b c\nstart: A\nA -> b? c(head)\n")
        n = fp.normalize_kleene(g)
        shapes = {r.daughters for r in n.rules}
        assert shapes == {("b", "c"), ("c",)}

    def test_star_adjunct_language_preserved(self):
        surface = ("terminals: x j\nstart: AP\n"
                   "AP -> AP(head) Adj*\nAP -> x\nAdj -> j\n")
        g = fp.parse_grammar(surface)
        n = fp.normalize_kleene(g)
        assert not n.has_repetition()
        assert language(g, 6) == language(n, 6)
        # the expansion keeps only the non-empty helper branch
        assert all(r.daughters != ("AP",) for r in n.rules)

    def test_plus_language_preserved(self):
        surface = "terminals: p q\nstart: S\nS -> p+ q(head)\n"
        g = fp.parse_grammar(surface)
        n = fp.normalize_kleene(g)
        assert language(g, 6) == language(n, 6)
        assert (
            "q",) not in {r.daughters for r in n.rules}

    def test_helper_names_are_prefixed(self, demo_normalized):
        helpers = [r for r in demo_normalized.rules
                   if r.mother.startswith("@")]
        assert helpers
        assert all(r.mother == "@rep_pn" for r in helpers)

    def test_templates_remap_and_drop(self):
        text = ("terminals: v n p\nstart: VP\n"
                "VP -> v(head) n? p | gr: dobj(_, self, 2, _) "
                "| gr: iobj(3, self, 3, _)\n")
        n = fp.normalize_kleene(fp.parse_grammar(text))
        with_n = n.rule_by_shape("VP", ["v", "n", "p"])
        without_n = n.rule_by_shape("VP", ["v", "p"])
        assert [t.relation for t in with_n.gr_templates] == ["dobj", "iobj"]
        # the dobj template referenced the omitted daughter and is dropped
        assert [t.relation for t in without_n.gr_templates] == ["iobj"]
        assert without_n.gr_templates[0].dependent_slot.value == 2
