import random
from collections import Counter

import pytest

import frameparse as fp
from frameparse.glr import ParseError

from oracles import (all_trees, canon, english_grammar, enumerate_parses,
                     first_conflict, random_grammar, random_sentences)

AMBIG = """
terminals: n v det prep
start: S
S  -> NP VP(head)
NP -> n
NP -> det n(head)
NP -> NP(head) PP
PP -> prep NP(head)
VP -> v(head) NP : VSUBCAT=NP
VP -> v(head) NP PP : VSUBCAT=NP_PP
"""


@pytest.fixture(scope="module")
def ambig_table():
    return fp.build_table(fp.parse_grammar(AMBIG))


def test_unambiguous_sentence(demo_table):
    forest = fp.glr_parse("det n v det n".split(), demo_table)
    assert forest.derivation_count() == 1
    assert len(all_trees(forest)) == 1


def test_pp_attachment_two_derivations(ambig_table):
    tokens = "n v det n prep n".split()
    forest = fp.glr_parse(tokens, ambig_table)
    trees = all_trees(forest)
    assert len(trees) == 2
    oracle = enumerate_parses(ambig_table.grammar, tokens)
    assert Counter(canon(t) for t in trees) == Counter(oracle)


def test_unknown_terminal_reports_position(demo_table):
    # the second parse would die at index 0
    for tokens in (["det", "n", "xyz"], ["v", "v", "xyz"]):
        with pytest.raises(ParseError, match="index 2"):
            fp.glr_parse(tokens, demo_table)


def test_out_of_coverage_is_empty(demo_table):
    # "det det" dies in the GSS; "det n" is read to the end as plain LR
    for tokens in (["det", "det"], ["det", "n"]):
        forest = fp.glr_parse(tokens, demo_table)
        assert forest.root is None
        assert forest.nodes == {}
        assert all_trees(forest) == []
        assert forest.derivation_count() == 0


LR_KEYS = [("det", 0, 1), ("n", 1, 2), ("NP", 0, 2), ("v", 2, 3),
           ("det", 3, 4), ("n", 4, 5)]


@pytest.mark.parametrize("tokens, keys", [
    # plain LR to the end
    ("det n v det n", LR_KEYS + [("NP", 3, 5), ("VP", 2, 5), ("S", 0, 5)]),
    # plain LR up to the attachment conflict at 5, the GSS from there on
    ("det n v det n prep det n",
     LR_KEYS + [("NP", 3, 5), ("VP", 2, 5), ("prep", 5, 6), ("det", 6, 7),
                ("n", 7, 8), ("NP", 6, 8), ("PP", 5, 8), ("VP", 2, 8),
                ("NP", 3, 8), ("S", 0, 8)]),
])
def test_forest_nodes_in_the_order_they_were_made(demo_table, tokens, keys):
    forest = fp.glr_parse(tokens.split(), demo_table)
    assert list(forest.nodes) == keys
    # each read assembles the same nodes afresh
    assert list(forest.nodes.items()) == list(forest.nodes.items())


def test_derivation_count_of_a_deep_unit_chain():
    # A0 -> A1, ..., A1199 -> A1200, A1200 -> a: the one-token forest
    # nests 1,201 levels deep
    depth = 1200
    rules = "".join(f"A{i} -> A{i + 1}\n" for i in range(depth))
    grammar = fp.parse_grammar(f"terminals: a\nstart: A0\n{rules}"
                               f"A{depth} -> a\n")
    forest = fp.glr_parse(["a"], fp.build_table(grammar))
    assert forest.derivation_count() == 1


def test_forest_spans_tile_parent():
    table = fp.build_table(fp.parse_grammar(AMBIG))
    forest = fp.glr_parse("n v det n prep n".split(), table)
    for node in forest.nodes.values():
        assert 0 <= node.start < node.end <= 6
        for _, children in node.alternatives:
            position = node.start
            for child in children:
                assert child.start == position
                position = child.end
            assert position == node.end


def _check_nodes(forest):
    # each node is filed under its (category, span), so no two share
    # one; a leaf, and only a leaf, has no alternatives
    terminals = forest.grammar.terminals
    for key, node in forest.nodes.items():
        assert key == (node.symbol, node.start, node.end)
        if node.symbol in terminals:
            assert node.alternatives == ()
        else:
            assert type(node.alternatives) is list and node.alternatives


def test_packed_nodes_unique_by_category_and_span(ambig_table):
    forest = fp.glr_parse("n v det n prep n".split(), ambig_table)
    _check_nodes(forest)
    # the object NP is shared between the two attachments
    assert ("NP", 2, 4) in forest.nodes


def test_oracle_equivalence_random_grammars():
    rng = random.Random(20260811)
    grammars = 0
    compared = 0
    while grammars < 5:
        grammar = random_grammar(rng)
        table = fp.build_table(grammar)
        for tokens in random_sentences(grammar, rng, 24):
            oracle = Counter(enumerate_parses(grammar, tokens))
            if sum(oracle.values()) > 300:
                continue
            forest = fp.glr_parse(tokens, table)
            _check_nodes(forest)
            mine = Counter(canon(t) for t in all_trees(forest))
            assert mine == oracle, (grammar.rules, tokens)
            compared += 1
        grammars += 1
    assert compared >= 100


def _hand_over_case(conflict, tokens):
    if conflict is None:
        return "none"
    # The start state holds only shifts, as no rule is empty, so the
    # earliest position a conflict can stop plain LR at is 1.
    assert conflict > 0
    if conflict == len(tokens):
        return "end"
    return "first" if conflict == 1 else "middle"


def test_hand_over_keeps_every_derivation(demo_table):
    # glr_parse runs plain LR up to the first conflicting position and
    # the GSS from there on; the inputs hand over at each kind of place
    inputs = [(demo_table, "det n v det n".split() + "prep det n".split() * k)
              for k in range(7)]
    rng = random.Random(20261020)
    english = fp.build_table(fp.normalize_kleene(english_grammar()))
    inputs += [(english, tokens)
               for tokens in random_sentences(english.grammar, rng, 60)]
    for _ in range(40):
        table = fp.build_table(random_grammar(rng))
        inputs += [(table, tokens)
                   for tokens in random_sentences(table.grammar, rng, 12)]
    cases = Counter()
    for table, tokens in inputs:
        oracle = Counter(enumerate_parses(table.grammar, tokens))
        if sum(oracle.values()) > 1000:
            continue
        forest = fp.glr_parse(tokens, table)
        _check_nodes(forest)
        assert Counter(canon(t) for t in all_trees(forest)) == oracle, tokens
        # A node that ends before the hand-over was made by plain LR and
        # never packed, so plain LR needs no packing index.
        conflict = first_conflict(table, tokens)
        assert all(len(node.alternatives) <= 1
                   for node in forest.nodes.values()
                   if conflict is None or node.end < conflict), tokens
        if oracle:
            cases[_hand_over_case(conflict, tokens)] += 1
    assert set(cases) == {"first", "middle", "end", "none"}, cases


def test_multi_word_name_parses_once(demo_table):
    forest = fp.glr_parse("pn pn pn v det n".split(), demo_table)
    trees = all_trees(forest)
    assert len(trees) == 1
    subject = trees[0].children[0]
    assert subject.label == "NP"
    assert subject.head_leaf().start == 2  # the final proper noun


def test_empty_input_out_of_coverage(demo_table):
    forest = fp.glr_parse([], demo_table)
    assert forest.root is None
    assert forest.nodes == {}
