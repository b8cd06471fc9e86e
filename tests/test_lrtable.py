import pytest

import frameparse as fp
from frameparse.grammar import END_MARKER, GrammarError
from frameparse.lrtable import action_sort_key, parse_action, render_action

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
    goto = table.gotos[(table.start_state, "S")]
    assert table.actions[(goto, END_MARKER)] == (("accept",),)
    assert table.conflicts() == []


def test_empty_rule_set_rejected():
    with pytest.raises(GrammarError):
        fp.parse_grammar("terminals: a\nstart: S\n")


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
    assert rebuilt.gotos == demo_table.gotos
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
