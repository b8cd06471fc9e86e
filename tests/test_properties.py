"""Randomized checks of the structural invariants that hold for every
input, not just the shipped data."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frameparse as fp
from frameparse.grs import RELATION_SLOTS, GRError
from frameparse.lexicon import LexiconError
from frameparse.preprocess import WordlistError
from frameparse.treebank import TreebankError

from oracles import random_grammar

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
    return bracketed().map(fp.parse_tree)


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
