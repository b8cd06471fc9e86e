import random
import time

import pytest

import frameparse as fp
from frameparse.frames import DEFAULT_FRAME_INVENTORY
from frameparse.grammar import END_MARKER, Grammar, GrammarError, Rule
from frameparse.lrtable import action_sort_key, parse_action, render_action

from oracles import (english_grammar, enumerate_parses, random_grammar,
                     random_sentences, wide_grammar)

PP_GRAMMAR = """
terminals: n v det prep
start: S
S  -> NP VP(head)
NP -> n
NP -> det n(head)
NP -> NP(head) PP
PP -> prep NP(head)
VP -> v(head) NP : VSUBCAT=NP
VP -> v(head) NP PP : VSUBCAT=NP_PP
VP -> VP(head) PP
"""


def test_singleton_language_table():
    g = fp.parse_grammar("terminals: a\nstart: S\nS -> a\n")
    table = fp.build_table(g)
    # shift a, reduce S -> a, accept
    shift = table.actions[(table.start_state, "a")]
    assert shift == (("shift", shift[0][1]),)
    after = shift[0][1]
    assert table.actions[(after, END_MARKER)] == (("reduce", 0),)
    goto = table.moves[table.start_state]["S"]
    assert table.actions[(goto, END_MARKER)] == (("accept",),)
    assert table.conflicts() == []


def test_empty_rule_set_rejected():
    with pytest.raises(GrammarError):
        fp.parse_grammar("terminals: a\nstart: S\n")


def test_empty_rule_rejected():
    # the grammar-file parser refuses empty rules, and so does a grammar
    # built by hand
    rules = (Rule("S", ("a",), 0, ("",), (), (), 0, None),
             Rule("S", (), 0, (), (), (), 1, None))
    with pytest.raises(GrammarError, match="rule 1 of 'S' has no daughters"):
        Grammar(rules, "S", frozenset({"a"}), frozenset())


def test_rule_id_other_than_its_position_rejected():
    # the rows hold grammar.rules[rule_id] for each reduce, so an id
    # must name its own rule
    rules = (Rule("S", ("a", "B"), 0, ("", ""), (), (), 1, 3),
             Rule("B", ("b",), 0, ("",), (), (), 0, 4))
    with pytest.raises(GrammarError,
                       match="line 3: rule 1 of 'S' is at position 0"):
        Grammar(rules, "S", frozenset({"a", "b"}), frozenset())


def test_terminal_left_hand_side_rejected():
    # one row per state holds both shifts and gotos, so a symbol may
    # not be both
    rules = (Rule("S", ("a",), 0, ("",), (), (), 0, 2),
             Rule("a", ("b",), 0, ("",), (), (), 1, 3))
    with pytest.raises(GrammarError,
                       match="line 3: terminal 'a' on a left-hand side"):
        Grammar(rules, "S", frozenset({"a", "b"}), frozenset())


def test_unnormalized_grammar_rejected():
    g = fp.parse_grammar("terminals: a b\nstart: S\nS -> a* b(head)\n")
    with pytest.raises(GrammarError, match="normalize"):
        fp.build_table(g)


def test_pp_attachment_conflict_on_prep():
    table = fp.build_table(fp.parse_grammar(PP_GRAMMAR))
    conflicts = table.conflicts()
    assert conflicts
    shift_reduce_on_prep = [
        (state, la, acts) for state, la, acts in conflicts
        if la == "prep" and any(a[0] == "shift" for a in acts)
        and any(a[0] == "reduce" for a in acts)]
    assert shift_reduce_on_prep


def test_demo_table_has_reduce_reduce_conflict(demo_table, demo_normalized):
    arg = demo_normalized.rule_by_shape("VP", ["v", "NP", "PP"]).rule_id
    mod = demo_normalized.rule_by_shape("NP", ["NP", "PP"]).rule_id
    found = [acts for _, la, acts in demo_table.conflicts()
             if la == END_MARKER and ("reduce", arg) in acts
             and ("reduce", mod) in acts]
    assert found


def test_gotos_deterministic(demo_table):
    # mapping keys are unique by construction; spot-check value stability
    rebuilt = fp.build_table(demo_table.grammar)
    assert rebuilt.moves == demo_table.moves
    assert rebuilt.actions == demo_table.actions
    assert rebuilt.n_states == demo_table.n_states


def test_action_keys_in_sorted_order(demo_table):
    # Item sets iterate in hash order; the table must not, or models
    # drawn over its classes would differ from run to run.
    assert list(demo_table.actions) == sorted(demo_table.actions)


def test_action_order_shift_before_reduce():
    actions = [("reduce", 7), ("accept",), ("shift", 3), ("reduce", 2)]
    assert sorted(actions, key=action_sort_key) == [
        ("shift", 3), ("reduce", 2), ("reduce", 7), ("accept",)]


def test_action_render_round_trip():
    for action in (("shift", 12), ("reduce", 0), ("accept",)):
        assert parse_action(render_action(action)) == action
    with pytest.raises(ValueError):
        parse_action("jump:3")


@pytest.mark.parametrize("seed", [None, *range(40)])
def test_compiled_steps_are_the_listed_actions(seed, demo_table):
    table = (demo_table if seed is None
             else fp.build_table(random_grammar(random.Random(seed))))
    # the moves rows' terminal entries are exactly the shift actions,
    # and the reduces rows the reduce actions, keyed as listed and in the
    # listed order
    shifts = {key: action[1] for key, acts in table.actions.items()
              for action in acts if action[0] == "shift"}
    reduces = [(key, action[1]) for key, acts in table.actions.items()
               for action in acts if action[0] == "reduce"]
    assert len(table.moves) == len(table.reduces) == table.n_states
    assert {(state, symbol): target
            for state, row in enumerate(table.moves)
            for symbol, target in row.items()
            if symbol not in table.grammar.nonterminals} == shifts
    assert [((state, lookahead), rule.rule_id)
            for state, row in enumerate(table.reduces)
            for lookahead, rules in row.items()
            for rule in rules] == reduces
    assert all(rule is table.grammar.rules[rule.rule_id]
               for row in table.reduces for rules in row.values()
               for rule in rules)


def test_wide_grammar_table_builds_in_seconds():
    # 100 rules over 12 non-terminals and 15 terminals, denser in
    # conflicts than a natural-language grammar of that size
    grammar = wide_grammar(random.Random(0), 100, 12, 15)
    started = time.perf_counter()
    table = fp.build_table(grammar)
    assert time.perf_counter() - started < 10
    assert table.n_states == 240


def test_english_grammar_forests_match_enumeration():
    grammar = english_grammar()
    assert grammar.has_repetition()
    normalized = fp.normalize_kleene(grammar)
    assert {frame for frame in normalized.instance_frames
            if frame is not None} == set(DEFAULT_FRAME_INVENTORY)
    table = fp.build_table(normalized)
    counts = []
    for tags in random_sentences(normalized, random.Random(0), 60, 8):
        count = fp.glr_parse(tags, table).derivation_count()
        assert count == len(enumerate_parses(normalized, tags)), tags
        counts.append(count)
    # sampled sentences parse, some of them ambiguously; noise does not
    assert max(counts) > 1 and counts.count(0) >= 30
