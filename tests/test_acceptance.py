"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a PASS line on success (run with ``pytest -s`` to see
them); pytest's own reporting marks failures.  Criteria with stated
runtime budgets assert them with a wall clock.
"""

import math
import random
import time
from collections import Counter

import pytest

import frameparse as fp
from frameparse.actions import trace_sort_key

from oracles import (all_trees, canon, enumerate_parses, random_grammar,
                     random_sentences)

ARG_FRAGMENT = ("(VP (aux will) (v hear) (NP (det a) (n greeting)) "
                "(PP (prep from) (NP (pn Gov.) (pn Mark) (pn Hatfield))))")
MOD_FRAGMENT = ("(VP (aux will) (v hear) (NP (det a) (n greeting) "
                "(PP (prep from) (NP (pn Gov.) (pn Mark) (pn Hatfield)))))")


def _passed(number, message):
    print(f"ACCEPTANCE PASS criterion {number}: {message}")


def test_criterion_01_worked_bracket_example():
    started = time.perf_counter()
    scores = fp.bracket_scores(fp.parse_tree(ARG_FRAGMENT),
                               fp.parse_tree(MOD_FRAGMENT))
    report = fp.aggregate_brackets([scores])
    assert report.recall == 0.75
    assert report.precision == 0.75
    assert scores["crossings"] == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(1, "argument vs modification fragment scores 0.75/0.75 with "
               f"0 crossings in {elapsed:.3f}s")


def test_criterion_02_worked_gr_example():
    started = time.perf_counter()
    returned = {fp.parse_gr("ncsubj(hear,meeting,_)"),
                fp.parse_gr("dobj(hear,greeting,_)"),
                fp.parse_gr("iobj(from,hear,Hatfield)")}
    gold = {fp.parse_gr("ncsubj(hear,meeting,_)"),
            fp.parse_gr("dobj(hear,greeting,_)")}
    scores = fp.gr_scores(returned, gold)
    assert scores["matched"] == 2
    assert scores["test_total"] == 3
    precision = scores["matched"] / scores["test_total"]
    recall = scores["matched"] / scores["gold_total"]
    assert precision == pytest.approx(0.667, abs=1e-3)
    assert recall == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _passed(2, "2 correct of 3 returned scores precision 0.667, recall 1.0 "
               "(note: under the definitions used here the 2-of-3 figure is "
               "precision, not recall)")


def test_criterion_03_gr_markup_example(uniform_pipeline):
    result = uniform_pipeline.analyze("Paul intends to leave IBM")
    assert len(result.analyses) == 1
    grs = fp.extract_grs(result.analyses[0].derivation,
                         uniform_pipeline.grammar, result.tokens)
    expected = {fp.parse_gr("ncsubj(intend,Paul,_)"),
                fp.parse_gr("xcomp(to,intend,leave)"),
                fp.parse_gr("ncsubj(leave,Paul,_)"),
                fp.parse_gr("dobj(leave,IBM,_)")}
    assert grs == expected
    _passed(3, "the control sentence yields exactly its four relations")


def test_criterion_04_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(0xACCE55)
    grammars = 0
    compared = 0
    while grammars < 5:
        grammar = random_grammar(rng)
        table = fp.build_table(grammar)
        for tokens in random_sentences(grammar, rng, 24, max_len=10):
            oracle = Counter(enumerate_parses(grammar, tokens))
            if sum(oracle.values()) > 300:
                continue
            forest = fp.glr_parse(tokens, table)
            mine = Counter(canon(t) for t in all_trees(forest))
            assert mine == oracle, (grammar.rules, tokens)
            compared += 1
        grammars += 1
    elapsed = time.perf_counter() - started
    assert compared >= 100
    assert elapsed < 60.0
    _passed(4, f"GLR forests equal brute-force enumeration on {compared} "
               f"sentences over 5 random grammars in {elapsed:.2f}s")


def test_criterion_05_argmax_invariance(adversarial_pipeline, trained_model,
                                        suite_sentences):
    uniform_lexicon = fp.SubcatLexicon([])
    corpora = list(suite_sentences)
    corpora += [line for line in
                fp.demo_path("acquisition.txt").read_text().splitlines()
                if line.strip()]
    checked = 0
    for model in (adversarial_pipeline.model, trained_model):
        for sentence in corpora:
            tokens = adversarial_pipeline.tag(sentence)
            forest = adversarial_pipeline.parse_tags([t.tag for t in tokens])
            if forest.root is None:
                continue
            count = forest.derivation_count()
            structural = [trace_sort_key(a.derivation.actions) for a in
                          fp.unpack_n_best(forest, model, count)]
            lexicalized = [trace_sort_key(a.derivation.actions) for a in
                           fp.rank_analyses(forest, model, uniform_lexicon,
                                            tokens, count)]
            assert structural == lexicalized, sentence
            checked += 1
    assert checked == 2 * len(corpora)
    _passed(5, f"uniform lexicon preserves the structural ranking on all "
               f"{len(corpora)} shipped sentences under two models")


def test_criterion_06_smoothing_soundness(acquired_lexicon):
    lexica = {
        "demo": fp.load_lexicon(fp.demo_path("demo.lexicon")),
        "acquired": acquired_lexicon,
        "collapsed": fp.collapse_classes(
            [("v", f"c{i}", 1 / 8) for i in range(8)]
            + [("w", "c0", 0.25), ("w", "c1", 0.75)],
            {f"c{i}": frame for i, frame in enumerate(
                ["NP", "NP", "PP", "NONE", "VPINF", "SCOMP", "AP", "NP_PP"])}),
    }
    for name, lexicon in lexica.items():
        for lemma in {e.lemma for e in lexicon.entries()}:
            total = math.fsum(math.exp(lexicon.frame_logprob(lemma, frame))
                              for frame in fp.DEFAULT_FRAME_INVENTORY)
            assert abs(total - 1.0) <= 1e-9, (name, lemma)
    # mass preservation, exactly, on exactly-representable inputs
    fine = [("v", f"c{i}", 1 / 8) for i in range(8)]
    mapping = {f"c{i}": ("NP" if i < 5 else "PP") for i in range(8)}
    collapsed = fp.collapse_classes(fine, mapping)
    assert math.fsum(e.relfreq for e in collapsed.entries()) == 1.0
    assert [(e.lemma, e.frame, e.relfreq) for e in collapsed.entries()] == \
        [("v", "NP", 5 / 8), ("v", "PP", 3 / 8)]
    _passed(6, "add-1 distributions sum to 1 for every lemma of three "
               "lexicons; collapsing preserves per-lemma mass exactly")


def test_criterion_07_end_to_end_direction(adversarial_pipeline,
                                           lexicalized_pipeline,
                                           suite_sentences, suite_gold_grs):
    started = time.perf_counter()
    assert len(suite_sentences) == 20
    assert lexicalized_pipeline.lexicon is not None  # acquisition-derived

    def top_gr_sets(pipeline, lexicalized):
        sets = []
        for sentence in suite_sentences:
            result = pipeline.analyze(sentence, n=1, lexicalized=lexicalized)
            assert result.analyses, sentence
            sets.append(fp.extract_grs(result.analyses[0].derivation,
                                       pipeline.grammar, result.tokens))
        return sets

    base_report = fp.aggregate_grs(
        list(zip(top_gr_sets(adversarial_pipeline, False), suite_gold_grs)))
    lex_report = fp.aggregate_grs(
        list(zip(top_gr_sets(lexicalized_pipeline, True), suite_gold_grs)))
    assert lex_report.precision > base_report.precision
    t_test = fp.paired_t_test(lex_report.per_sentence_precision,
                              base_report.per_sentence_precision)
    assert t_test.p_two_sided < 0.05
    assert t_test.t > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _passed(7, f"lexicalized GR precision {lex_report.precision:.4f} beats "
               f"baseline {base_report.precision:.4f}; paired t = "
               f"{t_test.t:.2f}, df = {t_test.df}, p = "
               f"{t_test.p_two_sided:.2e} < 0.05 in {elapsed:.2f}s")


def test_criterion_08_acquisition_cap(adversarial_pipeline):
    transitive = "the child sees a dog"
    intransitive = "the child sees"
    pattern = [transitive, transitive, transitive, intransitive, intransitive]
    corpus = [pattern[i % 5] for i in range(1005)]
    expected_frames = ["NP" if i % 5 < 3 else "NONE" for i in range(1000)]
    store = fp.observe_corpus(corpus, adversarial_pipeline, cap=1000)
    assert store.frames["see"] == expected_frames
    assert len(store.frames["see"]) == 1000
    again = fp.observe_corpus(corpus, adversarial_pipeline, cap=1000)
    assert again.frames == store.frames
    _passed(8, "1005 observations of one verb cap at exactly the first "
               "1000, deterministically, in corpus order")


def test_criterion_09_t_test_correctness():
    identical = fp.paired_t_test([0.25, 0.5, 0.75, 1.0],
                                 [0.25, 0.5, 0.75, 1.0])
    assert identical.t == 0.0 and identical.p_two_sided == 1.0
    cases = [
        ((1.0, 2.0, 3.0, 4.0), (0.0, 2.0, 2.0, 4.0),
         1.73205080757, 3, 0.181690113816),
        ((2.0, 1.0, 4.0, 3.5, 2.5), (2.5, 1.5, 4.5, 5.0, 3.0),
         -3.5, 4, 0.0248961634602),
        ((0.9, 0.8, 0.95, 0.7, 0.85, 0.6), (0.8, 0.8, 0.9, 0.65, 0.8, 0.65),
         1.58113883008, 5, 0.174687814264),
    ]
    for a, b, t_expect, df_expect, p_expect in cases:
        result = fp.paired_t_test(a, b)
        assert abs(result.t - t_expect) <= 1e-6
        assert result.df == df_expect
        assert abs(result.p_two_sided - p_expect) <= 1e-6
    _passed(9, "t statistic and two-sided p match the closed-form oracle "
               "to 1e-6 on three fixed vector pairs")


def test_criterion_10_self_evaluation_identities(suite_gold_trees,
                                                 suite_gold_grs):
    trees = list(suite_gold_trees)
    trees += fp.load_treebank(fp.demo_path("train.treebank"))
    trees += fp.load_treebank(fp.demo_path("adversarial.treebank"))
    for tree in trees:
        scores = fp.bracket_scores(tree, tree)
        assert scores["matched"] == scores["test_total"] == scores["gold_total"]
        assert scores["crossings"] == 0
    bracket = fp.aggregate_brackets([fp.bracket_scores(t, t) for t in trees])
    assert bracket.recall == 1.0 and bracket.precision == 1.0
    assert bracket.zero_crossings_pct == 1.0
    gr_report = fp.aggregate_grs([(s, s) for s in suite_gold_grs])
    assert gr_report.recall == 1.0 and gr_report.precision == 1.0
    _passed(10, f"all {len(trees)} shipped gold trees and "
                f"{len(suite_gold_grs)} gold relation sets score 1/1 "
                "against themselves with zero crossings")
