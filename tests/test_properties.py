"""Randomized checks of the structural invariants that hold for every
input, not just the shipped data."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frameparse as fp
from frameparse.grammar import GRTemplate, Rule, SlotRef
from frameparse.grs import RELATION_SLOTS, GRError
from frameparse.lexicon import LexiconError
from frameparse.preprocess import WordlistError
from frameparse.treebank import TreebankError

from oracles import (all_trees, canon, random_grammar, random_sentences,
                     read_tree, replay_actions)

lemmas = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
fillers = st.one_of(st.none(), st.sampled_from(["from", "to", "obj", "in"]))


@st.composite
def relations(draw):
    name = draw(st.sampled_from(sorted(RELATION_SLOTS)))
    return fp.GR(relation=name, head=draw(lemmas), dependent=draw(lemmas),
                 gr_type=draw(fillers), initial=draw(fillers))


@st.composite
def bracketed(draw, depth=3):
    tag = draw(st.sampled_from(["a", "b", "c"]))
    if depth == 0 or draw(st.booleans()):
        return "(%s %s)" % (tag, draw(lemmas))
    children = draw(st.lists(bracketed(depth=depth - 1), min_size=1,
                             max_size=3))
    label = draw(st.sampled_from(["S", "NP", "VP", "@rep_x"]))
    return "(%s %s)" % (label, " ".join(children))


def trees():
    """Trees read from bracketed text, so the reader sets the spans."""
    return bracketed().map(read_tree)


@given(relations())
def test_gr_match_reflexive(gr):
    assert fp.gr_match(gr, gr)


@given(relations(), relations())
def test_gr_match_requires_slots(test_gr, gold_gr):
    if fp.gr_match(test_gr, gold_gr):
        assert test_gr.head == gold_gr.head
        assert test_gr.dependent == gold_gr.dependent


@given(trees())
def test_bracket_self_evaluation_identity(tree):
    scores = fp.bracket_scores(tree, tree)
    assert scores["matched"] == scores["test_total"] == scores["gold_total"]
    assert scores["crossings"] == 0
    report = fp.aggregate_brackets([scores])
    assert report.recall == 1.0 and report.precision == 1.0


@given(st.sets(relations(), max_size=8))
def test_gr_self_scores_perfect(grs):
    scores = fp.gr_scores(grs, grs)
    assert scores["matched"] == len(grs)


@given(st.sets(relations(), max_size=6), st.sets(relations(), max_size=6))
def test_gr_matched_bounded(test_set, gold_set):
    scores = fp.gr_scores(test_set, gold_set)
    assert scores["matched"] <= min(len(test_set), len(gold_set))


# A pool small enough that test and gold relations often match.
pooled_lemmas = st.sampled_from(["give", "Mary"])
pooled_fillers = st.sampled_from([None, "to"])


@st.composite
def pooled_relations(draw):
    return fp.GR(relation=draw(st.sampled_from(sorted(RELATION_SLOTS))),
                 head=draw(pooled_lemmas), dependent=draw(pooled_lemmas),
                 gr_type=draw(pooled_fillers), initial=draw(pooled_fillers))


def _largest_assignment(test_list, gold_list):
    """Brute force: the most pairs in any one-to-one assignment of test
    relations to gold relations they match."""
    if not test_list:
        return 0
    first, rest = test_list[0], test_list[1:]
    best = _largest_assignment(rest, gold_list)
    for j, gold in enumerate(gold_list):
        if fp.gr_match(first, gold):
            best = max(best, 1 + _largest_assignment(
                rest, gold_list[:j] + gold_list[j + 1:]))
    return best


def _gadgets(*texts):
    return {fp.parse_gr(text % pair) for text in texts
            for pair in (("give", "Mary"), ("Mary", "give"))}


@given(st.sets(pooled_relations(), max_size=5),
       st.sets(pooled_relations(), max_size=5))
# The wildcard test relation matches both gold ones; a matching that
# gives it the "to" one must re-assign it to reach the largest.
@example(_gadgets("iobj(_,%s,%s)", "iobj(to,%s,%s)"),
         _gadgets("iobj(to,%s,%s)", "iobj(_,%s,%s)"))
def test_gr_matched_is_largest_assignment(test_set, gold_set):
    assert fp.gr_scores(test_set, gold_set)["matched"] == \
        _largest_assignment(list(test_set), list(gold_set))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_random_grammar_round_trip(seed):
    grammar = random_grammar(random.Random(seed))
    assert fp.parse_grammar(fp.render_grammar(grammar)) == grammar


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_random_grammar_normalize_idempotent(seed):
    grammar = random_grammar(random.Random(seed))
    once = fp.normalize_kleene(grammar)
    assert fp.normalize_kleene(once) is once


# Tokens a grammar file can hold: symbols without the reserved "@", and
# symbol-like feature values and literals.  Symbols, feature names and
# values, literals, head indices, markers, slot kinds, slot values and
# verb tags are drawn freely, invalid ones included, but mostly valid,
# so that a fair share of the grammars builds.
TERMINALS = frozenset({"a", "b", "v"})
VALUES = st.sampled_from(["NP", "NONE", "PP", "x", "to"])
# Text that no symbol is, or that ends a field of a grammar line, or
# that the reader strips; some of it a feature value or literal may hold.
TEXT = st.sampled_from(["", " ", "a b", "x, y", " x", "x ", "a=b", "x|y",
                        "x#y", "x\ny", "x\ry", "1a", 'a"b', "v:x", "-"])


@st.composite
def mostly(draw, valid, free, odds=4):
    """A draw of ``free`` one time in ``odds``, else of ``valid``."""
    return draw(valid if draw(st.sampled_from([True] * (odds - 1) + [False]))
                else free)


@st.composite
def slots(draw, kinds, n_daughters):
    kind = draw(mostly(st.sampled_from(kinds), st.sampled_from(
        ["none", "self", "control", "literal", "daughter"])))
    valid = {"daughter": mostly(st.integers(1, n_daughters), st.integers(-1, 4)),
             "literal": mostly(VALUES, TEXT)}.get(kind, st.none())
    # now and then a value of another kind, or a bool
    return SlotRef(kind, draw(mostly(valid, st.one_of(
        st.none(), VALUES, st.integers(-1, 4), st.booleans()), odds=8)))


@st.composite
def built_rules(draw, rule_id):
    daughters = tuple(draw(st.lists(st.sampled_from(["S", *sorted(TERMINALS)]),
                                    min_size=1, max_size=3)))
    n = len(daughters)
    head_index = draw(mostly(st.integers(0, n - 1), st.integers(-1, 3)))
    markers = draw(mostly(
        st.tuples(*(st.just("") if i == head_index
                    else st.sampled_from(["", "", "?", "*", "+"])
                    for i in range(n))),
        st.lists(st.sampled_from(["", "?", "*", "+", "x"]), max_size=4)))
    features = draw(st.lists(st.tuples(
        mostly(st.sampled_from(["VSUBCAT", "AGR"]), TEXT, odds=8),
        mostly(VALUES, TEXT, odds=8)), max_size=2))
    templates = draw(st.lists(st.builds(
        GRTemplate, mostly(st.sampled_from(sorted(RELATION_SLOTS)),
                           st.just("bogus")),
        slots(["none"], n), slots(["daughter", "self"], n),
        slots(["daughter", "control"], n), slots(["none"], n)),
        max_size=2))
    mother = draw(mostly(st.just("S"), TEXT, odds=16))
    return Rule(mother, daughters, head_index, tuple(markers), tuple(features),
                tuple(templates), rule_id, None)


@st.composite
def built_grammars(draw):
    rules = (Rule("S", ("a",), 0, ("",), (), (), 0, None),)
    rules += tuple(draw(built_rules(rule_id))
                   for rule_id in range(1, draw(st.integers(2, 3))))
    verb_tags = draw(mostly(st.frozensets(st.sampled_from(sorted(TERMINALS))),
                            st.frozensets(st.sampled_from(["S", "a", "x"]))))
    terminals = draw(mostly(st.just(TERMINALS),
                            TEXT.map(lambda text: TERMINALS | {text}), odds=16))
    return rules, "S", terminals, verb_tags


def _vp(head_index, markers, *templates):
    rule = Rule("VP", ("v", "n"), head_index, markers, (), templates, 0, None)
    return (rule,), "VP", frozenset({"v", "n"}), frozenset()


NONE, SELF = SlotRef("none"), SlotRef("self")


@settings(max_examples=150, deadline=None)
@given(built_grammars())
# a type its relation lacks, a daughter past the rule's, and too few markers
@example(_vp(0, ("", ""), GRTemplate("dobj", SlotRef("literal", "x"), SELF,
                                     SlotRef("daughter", 2), NONE)))
@example(_vp(0, ("", ""), GRTemplate("dobj", NONE, SELF,
                                     SlotRef("daughter", 7), NONE)))
@example(_vp(0, ("",)))
# a verb tag that is no terminal, and slot values of another kind
@example(((Rule("S", ("a",), 0, ("",), (), (), 0, None),), "S",
          frozenset({"a"}), frozenset({"x"})))
@example(_vp(0, ("", ""), GRTemplate("ncsubj", SlotRef("none", "x"), SELF,
                                     SlotRef("daughter", 1), NONE)))
@example(_vp(0, ("", ""), GRTemplate("ncsubj", NONE, SELF,
                                     SlotRef("daughter", "1"), NONE)))
# a feature value, a symbol and a literal that the reader would split
@example(((Rule("S", ("a",), 0, ("",), (("AGR", "x, y"),), (), 0, None),), "S",
          frozenset({"a"}), frozenset()))
@example(((Rule("S", ("a b",), 0, ("",), (), (), 0, None),), "S",
          frozenset({"a b"}), frozenset()))
@example(_vp(0, ("", ""), GRTemplate("iobj", SlotRef("literal", "x, y"), SELF,
                                     SlotRef("daughter", 2), NONE)))
def test_built_grammar_is_rejected_or_round_trips(parts):
    try:
        grammar = fp.Grammar(*parts)
    except fp.GrammarError:
        return
    text = fp.render_grammar(grammar)
    try:
        reparsed = fp.parse_grammar(text)
    except fp.GrammarError as exc:
        pytest.fail(f"the reader rejects {text!r}: {exc}")
    assert reparsed == grammar


def _raw_copy(tree, target=None, label=None):
    """``tree`` without rules, as a treebank holds it, with the node
    ``target`` relabelled to ``label``."""
    children = tuple(_raw_copy(child, target, label) for child in tree.children)
    return fp.Tree(label if tree is target else tree.label, tree.start,
                   tree.end, children)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_tree_actions_traces_or_rejects_relabelled_trees(seed):
    rng = random.Random(seed)
    grammar = random_grammar(rng)
    table = fp.build_table(grammar)
    model = fp.ActionModel(table)
    symbols = sorted(grammar.terminals | grammar.nonterminals)
    others = sorted(grammar.nonterminals - {grammar.start_symbol})
    for tokens in random_sentences(grammar, rng, 8, max_len=6):
        for tree in all_trees(fp.glr_parse(tokens, table))[:20]:
            nodes = list(tree.iter_nodes())
            internal = [node for node in nodes[1:] if node.children]
            leaf = rng.choice([node for node in nodes if not node.children])
            copies = [_raw_copy(tree),
                      _raw_copy(tree, tree, rng.choice(others)),
                      _raw_copy(tree, leaf, rng.choice(symbols))]
            if internal:
                copies.append(_raw_copy(tree, rng.choice(internal),
                                        rng.choice(symbols)))
            for copy in copies:
                try:
                    trace = fp.tree_actions(copy, table)
                except fp.UnderivableTreeError:
                    # a tree the parser built is always derivable
                    assert copy is not copies[0]
                    continue
                # a root other than the start symbol never is
                assert copy is not copies[1]
                for step in trace:
                    model.prob(*step)
                assert canon(replay_actions(trace, table)) == canon(copy)


# The five tab-separated formats, the treebank and gold GRs: (sample
# text, loader taking a path, the loader's error type).  Each sample
# loads cleanly.
CLASS_MAP = "pp_from\tPP\npp_about\tPP  # two fine classes\nnp_plain\tNP\n"


@pytest.fixture(scope="module")
def table_formats(tmp_path_factory, demo_table, adversarial_model):
    model = tmp_path_factory.mktemp("formats") / "adv.model"
    fp.save_model(adversarial_model, model)
    return {
        "wordlist": (fp.demo_path("demo.wordlist").read_text(),
                     fp.load_wordlist, WordlistError),
        "lemma_exceptions": (fp.demo_path("demo.lemma_exceptions").read_text(),
                             fp.load_lemma_exceptions, WordlistError),
        "lexicon": (fp.demo_path("demo.lexicon").read_text(),
                    fp.load_lexicon, LexiconError),
        "model": (model.read_text(),
                  lambda path: fp.load_model(path, demo_table), ValueError),
        "class_map": (CLASS_MAP, fp.load_class_map, LexiconError),
        "treebank": (fp.demo_path("train.treebank").read_text(),
                     fp.load_treebank, TreebankError),
        "gold_gr": (fp.demo_path("ppsuite_gold.grs").read_text(),
                    lambda path: fp.read_gr_file(path.read_text()), GRError),
    }


stray = st.text(st.sampled_from("\t #.,-019xQé\n"), min_size=1, max_size=3) \
    | st.text(st.characters(blacklist_categories=("Cs",)), min_size=1,
              max_size=3)


@st.composite
def corruptions(draw, text):
    """``text`` with one line dropped a field, given a word for a field,
    duplicated, cut off mid-line (ending the file), or given stray
    characters."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split("\t")
    j = draw(st.integers(0, len(fields) - 1))
    kind = draw(st.sampled_from(["drop", "word", "duplicate", "truncate",
                                 "insert"]))
    if kind == "drop":
        del fields[j]
        lines[i] = "\t".join(fields)
    elif kind == "word":
        fields[j] = draw(st.sampled_from(["abc", "x1", "NP_QQ"]))
        lines[i] = "\t".join(fields)
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "truncate":
        lines[i:] = [lines[i][:draw(st.integers(0, len(lines[i])))]]
    else:
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(stray) + lines[i][at:]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", ["wordlist", "lemma_exceptions", "lexicon",
                                  "model", "class_map", "treebank", "gold_gr"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_corrupted_table_loads_or_names_line(table_formats, tmp_path_factory,
                                             name, data):
    text, load, error = table_formats[name]
    path = tmp_path_factory.getbasetemp() / f"corrupted.{name}"
    path.write_text(data.draw(corruptions(text)), encoding="utf-8")
    try:
        load(path)
    except error as exc:
        assert type(exc) is error
        assert "line " in str(exc)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupted_grammar_builds_or_raises_grammar_error(data):
    text = data.draw(corruptions(fp.demo_path("demo.grammar").read_text()))
    try:
        grammar = fp.parse_grammar(text)
        fp.build_table(fp.normalize_kleene(grammar))
    except fp.GrammarError as exc:
        assert type(exc) is fp.GrammarError
        return
    assert fp.parse_grammar(fp.render_grammar(grammar)) == grammar
