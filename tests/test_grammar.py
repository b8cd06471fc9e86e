import re

import pytest

import frameparse as fp
from frameparse.grammar import (ADJUNCT, ARGUMENT, SLOT_NONE, Grammar,
                                GrammarError, GRTemplate, Rule, SlotRef)

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


@pytest.mark.parametrize("template, message", [
    # dobj has no type slot: a hidden "x" would fail every gold dobj
    ('dobj("x", self, 2)', "GR relation 'dobj' has no type slot"),
    ("dobj(2, self, 2)", "GR relation 'dobj' has no type slot"),
    ('iobj(_, self, 2, "obj")', "GR relation 'iobj' has no initial slot"),
    ("xcomp(self, self, 2)", "template type slot must be '_', a daughter "
                             "index or a quoted literal"),
    ("ncsubj(_, self, 2, 2)", "template initial slot must be '_' or a "
                              "quoted literal"),
    ("ncsubj(_, self, 2, self)", "template initial slot must be '_' or a "
                                 "quoted literal"),
])
def test_template_fills_only_its_relations_slots(template, message):
    text = f"terminals: v n\nstart: VP\nVP -> v(head) n | gr: {template}\n"
    with pytest.raises(GrammarError, match=rf"^line 3: {re.escape(message)}$"):
        fp.parse_grammar(text)


SELF, CONTROL = SlotRef("self"), SlotRef("control")
ONE, TWO = SlotRef("daughter", 1), SlotRef("daughter", 2)


@pytest.mark.parametrize("changes, message", [
    # a head index past the daughters once raised IndexError in ranking,
    # and markers that do not fit the daughters rendered a different rule
    ({"head_index": 5}, "rule 0 of 'VP' has head index 5, which names no daughter"),
    ({"head_index": -1},
     "rule 0 of 'VP' has head index -1, which names no daughter"),
    ({"markers": ("",)}, "rule 0 of 'VP' has markers ('',), not one of '', '?', "
                         "'*' or '+' per daughter"),
    ({"markers": ("", "x")}, "rule 0 of 'VP' has markers ('', 'x'), not one of "
                             "'', '?', '*' or '+' per daughter"),
    ({"markers": ("*", "")}, "the head daughter cannot carry a repetition marker"),
    ({"features": (("VSUBCAT", "NP"), ("VSUBCAT", "NP"))},
     "duplicate feature 'VSUBCAT'"),
    ({"gr_templates": (GRTemplate("bogus", SLOT_NONE, SELF, TWO, SLOT_NONE),)},
     "unknown GR relation 'bogus'"),
    ({"gr_templates": (GRTemplate("dobj", SLOT_NONE, SELF, SlotRef("daughter", 7),
                                  SLOT_NONE),)},
     "template daughter index 7 out of range"),
    ({"gr_templates": (GRTemplate("ncsubj", SLOT_NONE, CONTROL, TWO, SLOT_NONE),)},
     "'control' is only valid in the dependent slot"),
    ({"gr_templates": (GRTemplate("xcomp", SELF, SELF, TWO, SLOT_NONE),)},
     "template type slot must be '_', a daughter index or a quoted literal"),
    ({"gr_templates": (GRTemplate("ncsubj", SLOT_NONE, SLOT_NONE, TWO, SLOT_NONE),)},
     "template head slot must be a daughter index or 'self'"),
    ({"gr_templates": (GRTemplate("ncsubj", SLOT_NONE, SELF, SELF, SLOT_NONE),)},
     "template dependent slot must be a daughter index or 'control'"),
    ({"gr_templates": (GRTemplate("ncsubj", SLOT_NONE, SELF, TWO, ONE),)},
     "template initial slot must be '_' or a quoted literal"),
    ({"gr_templates": (GRTemplate("dobj", SlotRef("literal", "x"), SELF, TWO,
                                  SLOT_NONE),)},
     "GR relation 'dobj' has no type slot"),
    ({"gr_templates": (GRTemplate("iobj", SLOT_NONE, SELF, TWO,
                                  SlotRef("literal", "obj")),)},
     "GR relation 'iobj' has no initial slot"),
    # a value its kind does not take once built: a hidden type that no
    # gold matched, or a bare TypeError
    ({"gr_templates": (GRTemplate("ncsubj", SlotRef("none", "x"), SELF, TWO,
                                  SLOT_NONE),)},
     "template none slot takes no value, not 'x'"),
    ({"gr_templates": (GRTemplate("ncsubj", SLOT_NONE, SlotRef("self", 1), TWO,
                                  SLOT_NONE),)},
     "template self slot takes no value, not 1"),
    ({"gr_templates": (GRTemplate("xcomp", SLOT_NONE, SELF,
                                  SlotRef("control", "x"), SLOT_NONE),)},
     "template control slot takes no value, not 'x'"),
    ({"gr_templates": (GRTemplate("xcomp", SlotRef("literal"), SELF, TWO,
                                  SLOT_NONE),)},
     "template literal slot takes a string, not None"),
    ({"gr_templates": (GRTemplate("ncsubj", SLOT_NONE, SELF,
                                  SlotRef("daughter", "1"), SLOT_NONE),)},
     "template daughter slot takes an int, not '1'"),
    ({"gr_templates": (GRTemplate("ncsubj", SLOT_NONE, SELF,
                                  SlotRef("daughter", True), SLOT_NONE),)},
     "template daughter slot takes an int, not True"),
])
def test_constructor_checks_rules_and_templates(changes, message):
    # built in code, so no reader saw these rules: the constructor alone
    # rejects them, at the rule's line
    fields = {"head_index": 0, "markers": ("", ""), "features": (),
              "gr_templates": ()} | changes
    rule = Rule("VP", ("v", "n"), fields["head_index"], fields["markers"],
                fields["features"], fields["gr_templates"], 0, 7)
    with pytest.raises(GrammarError, match=rf"^line 7: {re.escape(message)}$"):
        Grammar((rule,), "VP", frozenset({"v", "n"}), frozenset())


def test_constructor_checks_verb_tags():
    # a verb tag outside the terminals once built, and lexical ranking
    # then found no verb instance
    rule = Rule("S", ("a",), 0, ("",), (), (), 0, 7)
    with pytest.raises(GrammarError, match=r"^verb tag 'x' is not a terminal$"):
        Grammar((rule,), "S", frozenset({"a"}), frozenset({"x", "a"}))


@pytest.mark.parametrize("terminals, verb_tags, message", [
    (frozenset({"a", 3}), frozenset(), "invalid symbol 3"),
    (frozenset({"a"}), frozenset({"a", 3}), "verb tag 3 is not a terminal"),
    (frozenset(), frozenset(), "grammar declares no terminals"),
], ids=["terminal", "verb-tag", "no-terminals"])
def test_constructor_checks_symbol_types(terminals, verb_tags, message):
    # a symbol set mixing types once raised a bare TypeError from the
    # sort that orders the checks; an empty terminal set is refused
    rule = Rule("S", ("a",), 0, ("",), (), (), 0, 7)
    with pytest.raises(GrammarError, match=rf"^{message}$"):
        Grammar((rule,), "S", terminals, verb_tags)


def _optional_daughters(k):
    return fp.parse_grammar(
        "terminals: a " + " ".join(f"t{i}" for i in range(k)) + "\nstart: S\n"
        "S -> " + " ".join(f"t{i}?" for i in range(k)) + " a(head)\n")


def test_kleene_expansion_is_bounded():
    # each '?' doubles the variants: twelve expand, thirteen are refused
    # before the expansion starts
    assert len(fp.normalize_kleene(_optional_daughters(12)).rules) == 4096
    for k in (13, 40):
        with pytest.raises(GrammarError,
                           match=rf"^line 3: rule 0 of 'S' has {k} optional "
                                 rf"daughters, which would expand into "
                                 rf"{2 ** k} variants, more than 4096$"):
            fp.normalize_kleene(_optional_daughters(k))


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


def test_unproductive_nonterminal_rejected():
    # B derives no terminal string, so its FIRST set is empty
    text = ("terminals: a b c\nstart: S\nS -> a\nS -> C B(head)\nC -> c\n"
            "B -> B(head) b\n")
    with pytest.raises(GrammarError, match=(
            r"^line 6: non-terminal 'B' derives no terminal string$")):
        fp.parse_grammar(text)


def _unit(mother, daughter, rule_id):
    return Rule(mother, (daughter,), 0, ("",), (), (), rule_id, None)


def test_constructor_rejects_a_derivation_cycle():
    # built by hand, not loaded: ranking such a grammar would recurse
    # without end
    rules = (_unit("S", "A", 0), _unit("A", "S", 1), _unit("S", "a", 2))
    with pytest.raises(GrammarError,
                       match="^grammar has a derivation cycle: A -> S -> A$"):
        Grammar(rules, "S", frozenset({"a"}), frozenset())


def test_constructor_rejects_an_unproductive_nonterminal():
    rules = (_unit("S", "a", 0), _unit("S", "B", 1),
             Rule("B", ("B", "a"), 0, ("", ""), (), (), 2, None))
    with pytest.raises(GrammarError,
                       match="^non-terminal 'B' derives no terminal string$"):
        Grammar(rules, "S", frozenset({"a"}), frozenset())


def test_optional_daughters_need_not_be_productive():
    # S derives "a" by leaving T out, and T then derives "a b"
    grammar = fp.parse_grammar(
        "terminals: a b\nstart: S\nS -> T* a(head)\nT -> S(head) b\n")
    assert fp.normalize_kleene(grammar).nonterminals == {"S", "T", "@rep_T"}
    with pytest.raises(GrammarError,
                       match="^line 3: non-terminal 'S' derives no"):
        fp.parse_grammar(
            "terminals: a b\nstart: S\nS -> T+ a(head)\nT -> S(head) b\n")
