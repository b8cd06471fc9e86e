import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import frameparse as fp
from frameparse.evaluation import EvaluationError
from frameparse.grs import GRError, _max_matching
from oracles import all_trees, read_tree

# The two readings of the "will hear a greeting from ..." fragment: the
# argument attachment on top, the (correct) modification attachment below.
ARG_FRAGMENT = ("(VP (aux will) (v hear) (NP (det a) (n greeting)) "
                "(PP (prep from) (NP (pn Gov.) (pn Mark) (pn Hatfield))))")
MOD_FRAGMENT = ("(VP (aux will) (v hear) (NP (det a) (n greeting) "
                "(PP (prep from) (NP (pn Gov.) (pn Mark) (pn Hatfield)))))")


def _gr(text):
    return fp.parse_gr(text)


def _grs(*texts):
    return {fp.parse_gr(t) for t in texts}


class TestBrackets:
    def test_flat_tree_single_span(self):
        tree = read_tree("(S (a w1) (b w2))")
        assert fp.extract_brackets(tree) == Counter({(0, 2): 1})

    def test_modification_fragment_has_four_spans(self):
        spans = fp.extract_brackets(read_tree(MOD_FRAGMENT))
        assert sum(spans.values()) == 4
        assert spans == Counter({(0, 8): 1, (2, 8): 1, (4, 8): 1, (5, 8): 1})

    def test_single_word_node_excluded(self):
        tree = read_tree("(S (NP (n dog)) (VP (v sleeps)))")
        assert fp.extract_brackets(tree) == Counter({(0, 2): 1})

    def test_helper_nodes_excluded(self, demo_table):
        forest = fp.glr_parse("pn pn pn v det n".split(), demo_table)
        tree = all_trees(forest)[0]
        spans = fp.extract_brackets(tree)
        assert (0, 2) not in spans  # the helper's span is not scored
        assert (0, 3) in spans      # the full name NP is

    def test_worked_example_75_percent(self):
        scores = fp.bracket_scores(read_tree(ARG_FRAGMENT),
                                   read_tree(MOD_FRAGMENT))
        assert scores == {"matched": 3, "test_total": 4, "gold_total": 4,
                          "crossings": 0}
        report = fp.aggregate_brackets([scores])
        assert report.recall == pytest.approx(0.75)
        assert report.precision == pytest.approx(0.75)
        assert report.mean_crossings == 0.0
        assert report.zero_crossings_pct == 1.0

    def test_self_evaluation_identity(self, suite_gold_trees):
        for tree in suite_gold_trees:
            scores = fp.bracket_scores(tree, tree)
            assert scores["matched"] == scores["test_total"] == \
                scores["gold_total"]
            assert scores["crossings"] == 0

    def test_crossing_by_hand(self):
        # test span [1,4) against gold [0,3): overlap, no containment
        test = read_tree("(S (x a) (Y (x b) (x c) (x d)))")
        gold = read_tree("(S (Z (x a) (x b) (x c)) (x d))")
        scores = fp.bracket_scores(test, gold)
        assert scores["crossings"] == 1

    def test_containment_is_not_crossing(self):
        test = read_tree("(S (x a) (Y (x b) (x c)) (x d))")
        gold = read_tree("(S (Z (x a) (x b) (x c)) (x d))")
        # [1,3) is properly contained in [0,3): no crossing
        assert fp.bracket_scores(test, gold)["crossings"] == 0

    def test_no_parse_has_no_brackets(self):
        gold = read_tree(MOD_FRAGMENT)
        assert fp.bracket_scores(None, gold) == {
            "matched": 0, "test_total": 0, "gold_total": 4, "crossings": 0}

    def test_token_count_mismatch_rejected(self):
        with pytest.raises(EvaluationError, match="token count"):
            fp.bracket_scores(read_tree("(S (a w) (b w))"),
                              read_tree("(S (a w) (b w) (c w))"))

    def test_micro_average(self):
        report = fp.aggregate_brackets([
            {"matched": 3, "test_total": 4, "gold_total": 4, "crossings": 0},
            {"matched": 1, "test_total": 2, "gold_total": 1, "crossings": 2},
        ])
        assert report.recall == pytest.approx(4 / 5)
        assert report.precision == pytest.approx(4 / 6)
        assert report.mean_crossings == pytest.approx(1.0)
        assert report.zero_crossings_pct == pytest.approx(0.5)

    def test_empty_aggregate_rejected(self):
        with pytest.raises(EvaluationError):
            fp.aggregate_brackets([])

    def test_duplicate_spans_matched_as_multiset(self):
        test = read_tree("(S (A (A (x a) (x b))) (x c))")
        gold = read_tree("(S (B (x a) (x b)) (x c))")
        scores = fp.bracket_scores(test, gold)
        # the two identical [0,2) test spans consume the one gold copy once
        assert scores == {"matched": 2, "test_total": 3, "gold_total": 2,
                          "crossings": 0}


class TestGRMatch:
    def test_reflexive(self):
        gr = _gr("dobj(hear,greeting,_)")
        assert fp.gr_match(gr, gr)

    def test_one_level_subsumption(self):
        assert fp.gr_match(_gr("clausal(_,open,admit)"),
                           _gr("xcomp(to,open,admit)"))
        assert fp.gr_match(_gr("clausal(_,open,admit)"),
                           _gr("ccomp(that,open,admit)"))
        assert fp.gr_match(_gr("subj(intend,Paul,_)"),
                           _gr("ncsubj(intend,Paul,_)"))

    def test_two_levels_rejected(self):
        assert not fp.gr_match(_gr("comp(open,admit)"),
                               _gr("xcomp(to,open,admit)"))
        assert not fp.gr_match(_gr("arg(open,admit)"),
                               _gr("obj(open,admit)"))

    def test_subsumption_not_symmetric(self):
        parent = _gr("clausal(_,open,admit)")
        leaf = _gr("xcomp(to,open,admit)")
        assert fp.gr_match(parent, leaf)
        assert not fp.gr_match(leaf, parent)

    def test_subj_or_dobj_parents(self):
        assert fp.gr_match(_gr("subj_or_dobj(eat,cake)"),
                           _gr("dobj(eat,cake,_)"))
        assert fp.gr_match(_gr("subj_or_dobj(eat,cake)"),
                           _gr("subj(eat,cake,_)"))
        assert not fp.gr_match(_gr("subj_or_dobj(eat,cake)"),
                               _gr("obj2(eat,cake)"))

    def test_wildcard_is_directional(self):
        assert fp.gr_match(_gr("iobj(_,hear,Hatfield)"),
                           _gr("iobj(from,hear,Hatfield)"))
        assert not fp.gr_match(_gr("iobj(from,hear,Hatfield)"),
                               _gr("iobj(_,hear,Hatfield)"))

    def test_slot_mismatch(self):
        assert not fp.gr_match(_gr("dobj(hear,greeting,_)"),
                               _gr("dobj(hear,speech,_)"))
        assert not fp.gr_match(_gr("ncsubj(hear,meeting,obj)"),
                               _gr("ncsubj(hear,meeting,_)"))

    def test_parse_and_render_round_trip(self):
        for text in ("ncsubj(intend,Paul,_)", "xcomp(to,intend,leave)",
                     "iobj(from,hear,Hatfield)", "dobj(leave,IBM,_)",
                     "arg_mod(by,kill,Brutus,subj)"):
            assert fp.parse_gr(text).render() == text

    def test_malformed_rejected(self):
        for text in ("dobj(a)", "frob(a,b)", "dobj a b", "dobj(,x,_)"):
            with pytest.raises(GRError):
                fp.parse_gr(text)

    def test_constructor_validates(self):
        with pytest.raises(GRError, match="unknown relation name 'nosuch'"):
            fp.GR("nosuch", "a", "b", None, None)
        with pytest.raises(GRError, match="must be non-empty"):
            fp.GR("dobj", "leave", "", None, None)

    def test_relations_compare_and_hash_by_their_fields(self):
        first = fp.parse_gr("iobj(from,hear,Hatfield)")
        second = fp.GR("iobj", "hear", "Hatfield", "from", None)
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        others = [fp.GR("ncmod", "hear", "Hatfield", "from", None),
                  fp.GR("iobj", "see", "Hatfield", "from", None),
                  fp.GR("iobj", "hear", "Mark", "from", None),
                  fp.GR("iobj", "hear", "Hatfield", None, None),
                  fp.GR("iobj", "hear", "Hatfield", "from", "obj")]
        for other in others:
            assert first != other and not first == other
        assert len({first, *others}) == 6
        assert repr(first) == ("GR(relation='iobj', head='hear', "
                               "dependent='Hatfield', gr_type='from', "
                               "initial=None)")

    def test_relations_are_tuples_of_their_fields(self):
        gr = fp.parse_gr("iobj(from,hear,Hatfield)")
        assert gr == ("iobj", "hear", "Hatfield", "from", None)
        relation, head, dependent, gr_type, initial = gr
        assert (relation, gr_type, initial) == ("iobj", "from", None)

    def test_gr_file_error_names_line(self):
        with pytest.raises(GRError, match=r"^line 4: cannot parse relation"):
            fp.read_gr_file("ncsubj(x,y,_)\n\n# gold\nbogus(x\n")

    def test_only_a_blank_line_ends_a_gr_block(self):
        # a comment line inside a block once split it in two
        assert fp.read_gr_file("ncsubj(see,child,_)\n# a note\n"
                               "dobj(see,dog,_)\n") == [
            _grs("ncsubj(see,child,_)", "dobj(see,dog,_)")]
        # blank lines around comment-only blocks add no empty set
        assert fp.read_gr_file("# head\n\n\nncsubj(see,child,_)  # a note\n"
                               "   \n# only\n\ndobj(see,dog,_)\n\n") == [
            _grs("ncsubj(see,child,_)"), _grs("dobj(see,dog,_)")]


class TestGRScores:
    def test_worked_example_two_of_three(self):
        returned = _grs("ncsubj(hear,meeting,_)", "dobj(hear,greeting,_)",
                        "iobj(from,hear,Hatfield)")
        gold = _grs("ncsubj(hear,meeting,_)", "dobj(hear,greeting,_)")
        scores = fp.gr_scores(returned, gold)
        assert scores == {"matched": 2, "test_total": 3, "gold_total": 2}
        report = fp.aggregate_grs([(returned, gold)])
        assert report.precision == pytest.approx(2 / 3, abs=1e-3)
        assert report.recall == pytest.approx(1.0)
        assert report == (1, 1.0, 2 / 3, {"ncsubj": 1, "dobj": 1, "iobj": 1},
                          {"ncsubj": 1, "dobj": 1}, 3.0, 2.0, (1.0,),
                          (2 / 3,))

    def test_identical_sets(self, suite_gold_grs):
        for gold in suite_gold_grs:
            scores = fp.gr_scores(gold, gold)
            assert scores["matched"] == len(gold)

    def test_disjoint_sets(self):
        a = _grs("dobj(a,b,_)")
        b = _grs("dobj(c,d,_)")
        assert fp.gr_scores(a, b)["matched"] == 0

    def test_one_to_one_assignment(self):
        # one test relation cannot consume two gold relations
        test = _grs("dobj(hear,greeting,_)")
        gold = {_gr("dobj(hear,greeting,_)"), _gr("subj_or_dobj(hear,greeting)")}
        scores = fp.gr_scores(test, gold)
        assert scores["matched"] == 1
        assert scores["matched"] <= min(scores["test_total"],
                                        scores["gold_total"])

    def test_exact_match_preferred_over_subsumption(self):
        # "clausal" matches gold clausal exactly; the xcomp gold must be
        # left for the exact xcomp test relation.
        test = _grs("clausal(_,open,admit)", "xcomp(to,open,admit)")
        gold = _grs("clausal(to,open,admit)", "xcomp(to,open,admit)")
        assert fp.gr_scores(test, gold)["matched"] == 2

    def test_wildcard_assignment_maximized(self):
        test = _grs("iobj(_,give,Mary)", "iobj(to,give,Mary)")
        gold = _grs("iobj(to,give,Mary)", "iobj(for,give,Mary)")
        # the specific test relation must take the "to" gold so the
        # wildcard can take "for"
        assert fp.gr_scores(test, gold)["matched"] == 2

    def test_augmenting_path_through_every_relation(self):
        # Left i matches right i + 1 first, so the last left's only
        # right is taken and its augmenting path shifts all 3,000.
        adjacency = [[i + 1, i] for i in range(2999)] + [[2999]]
        try:
            matched = _max_matching(adjacency, 3000)
        except RecursionError:  # its traceback would be thousands of frames
            matched = None
        assert matched == 3000, "the matching recursed once per path step"


class TestHistogram:
    def test_counts_and_mean(self):
        sets = [_grs("ncsubj(a,b,_)", "dobj(a,c,_)", "dobj(a,d,_)",
                     "xcomp(to,a,e)")]
        counts, mean = fp.relation_histogram(sets)
        assert counts == {"ncsubj": 1, "dobj": 2, "xcomp": 1}
        assert mean == pytest.approx(4.0)

    def test_empty_corpus(self):
        counts, mean = fp.relation_histogram([])
        assert counts == {}
        assert mean == 0.0

    def test_two_sentence_corpus(self):
        first = _grs("ncsubj(intend,Paul,_)", "xcomp(to,intend,leave)",
                     "ncsubj(leave,Paul,_)", "dobj(leave,IBM,_)")
        second = _grs("ncsubj(hear,meeting,_)", "dobj(hear,greeting,_)")
        counts, mean = fp.relation_histogram([first, second])
        assert counts == {"ncsubj": 3, "xcomp": 1, "dobj": 2}
        assert mean == pytest.approx(3.0)

    def test_totals_equal_sum_of_sizes(self, suite_gold_grs):
        counts, mean = fp.relation_histogram(suite_gold_grs)
        assert sum(counts.values()) == sum(len(s) for s in suite_gold_grs)
        assert mean == pytest.approx(sum(len(s) for s in suite_gold_grs)
                                     / len(suite_gold_grs))


class TestExtractGRs:
    def test_control_example(self, uniform_pipeline):
        result = uniform_pipeline.analyze("Paul intends to leave IBM")
        grs = fp.extract_grs(result.analyses[0].derivation,
                             uniform_pipeline.grammar, result.tokens)
        assert grs == _grs("ncsubj(intend,Paul,_)", "xcomp(to,intend,leave)",
                           "ncsubj(leave,Paul,_)", "dobj(leave,IBM,_)")

    def test_attachment_changes_iobj(self, uniform_pipeline):
        sentence = "the meeting will hear a greeting from the senator"
        result = uniform_pipeline.analyze(sentence, n=99)
        gr_sets = [fp.extract_grs(a.derivation, uniform_pipeline.grammar,
                                  result.tokens)
                   for a in result.analyses]
        with_iobj = [s for s in gr_sets
                     if _gr("iobj(from,hear,senator)") in s]
        without = [s for s in gr_sets
                   if _gr("iobj(from,hear,senator)") not in s]
        assert with_iobj and without
        for grs in without:
            assert grs == _grs("ncsubj(hear,meeting,_)",
                               "dobj(hear,greeting,_)")

    def test_multi_word_name_reduces_to_head(self, adversarial_pipeline):
        result = adversarial_pipeline.analyze("Mark Hatfield writes a letter")
        grs = fp.extract_grs(result.analyses[0].derivation,
                             adversarial_pipeline.grammar, result.tokens)
        assert grs == _grs("ncsubj(write,Hatfield,_)", "dobj(write,letter,_)")

    def test_verbless_fragment_empty(self, demo_table):
        forest = fp.glr_parse(["det", "n", "v"], demo_table)
        np = all_trees(forest)[0].children[0]
        tokens = [fp.Token("the", "det", "the"), fp.Token("dog", "n", "dog"),
                  fp.Token("sleeps", "v", "sleep")]
        grs = fp.extract_grs(fp.Derivation(np, ()), demo_table.grammar, tokens)
        assert grs == set()

    @staticmethod
    def _only_tree_grs(grammar_text, tokens):
        grammar = fp.parse_grammar(grammar_text)
        forest = fp.glr_parse([t.tag for t in tokens], fp.build_table(grammar))
        [tree] = all_trees(forest)
        return fp.extract_grs(fp.Derivation(tree, ()), grammar, tokens)

    def test_literal_type_slot_and_control_without_subject(self):
        # the quoted type fills gr_type as written; with no subject in
        # scope the control template is skipped
        grs = self._only_tree_grs(
            "terminals: v n\nstart: VP\n"
            'VP -> v(head) n : VSUBCAT=NP | gr: iobj("with", self, 2) '
            "| gr: ncsubj(_, self, control, _)\n",
            [fp.Token("sees", "v", "see"), fp.Token("dogs", "n", "dog")])
        assert grs == {fp.GR("iobj", "see", "dog", "with", None)}

    def test_subject_binds_only_under_its_head(self):
        # the subject relation's head is the X daughter's, so X's control
        # template takes Paul and Y's, under another head, is skipped
        grs = self._only_tree_grs(
            "terminals: n v\nstart: S\n"
            "S -> n X(head) Y | gr: ncsubj(_, 2, 1, _)\n"
            "X -> v(head) | gr: xsubj(_, self, control, _)\n"
            "Y -> v(head) | gr: xsubj(_, self, control, _)\n",
            [fp.Token("Paul", "n", "Paul"), fp.Token("runs", "v", "run"),
             fp.Token("sings", "v", "sing")])
        assert grs == _grs("ncsubj(run,Paul,_)", "xsubj(run,Paul,_)")


class TestPairedTTest:
    def test_identical_vectors(self):
        result = fp.paired_t_test([0.5, 0.7, 0.9], [0.5, 0.7, 0.9])
        assert result.t == 0.0
        assert result.df == 2
        assert result.p_two_sided == 1.0

    def test_zero_mean_difference_with_spread(self):
        # differences 1 and -1: mean 0 over a non-zero variance, so t = 0
        assert fp.paired_t_test([1.0, 0.0], [0.0, 1.0]) == (0.0, 1, 1.0)

    def test_constant_nonzero_difference(self):
        result = fp.paired_t_test([1.0, 1.0, 1.0], [0.5, 0.5, 0.5])
        assert result.t == math.inf
        assert result.p_two_sided == 0.0
        negative = fp.paired_t_test([0.5, 0.5, 0.5], [1.0, 1.0, 1.0])
        assert negative.t == -math.inf

    def test_against_closed_form_oracle(self):
        # expected values computed independently from the regularized
        # incomplete beta form of the t distribution
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
            assert result.t == pytest.approx(t_expect, abs=1e-6)
            assert result.df == df_expect
            assert result.p_two_sided == pytest.approx(p_expect, abs=1e-6)

    # Score vectors whose t statistic is about 1e-8, 1, 1e6 and 1e10:
    # (m+h, m-h) gives t = m/h with df = 1, (1+h, 1, 1-h) t = sqrt(3)/h
    # with df = 2.  At t = 1e10 both p are below 1e-10, so a tail formed
    # as 1 minus a number near 1 fails, and at t = 1e-8 so does 1 - x
    # formed by subtraction.
    @pytest.mark.parametrize("a", [
        (1e-8 + 1.0, 1e-8 - 1.0), (2.0, 0.0),
        (1.0 + 1e-6, 1.0 - 1e-6), (1.0 + 1e-10, 1.0 - 1e-10)])
    def test_df_one_matches_closed_form(self, a):
        result = fp.paired_t_test(a, [0.0, 0.0])
        assert result.df == 1
        t = abs(result.t)
        assert result.p_two_sided == pytest.approx(
            2.0 / math.pi * math.atan(1.0 / t), rel=1e-12)

    @pytest.mark.parametrize("h", [1.7e8, 1.7, 1.7e-6, 1.7e-10])
    def test_df_two_matches_closed_form(self, h):
        result = fp.paired_t_test([1.0 + h, 1.0, 1.0 - h], [0.0] * 3)
        assert result.df == 2
        t = abs(result.t)
        root = math.sqrt(2.0 + t * t)
        assert result.p_two_sided == pytest.approx(
            2.0 / (root * (root + t)), rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(EvaluationError):
            fp.paired_t_test([1.0], [1.0, 2.0])

    def test_too_short_rejected(self):
        with pytest.raises(EvaluationError):
            fp.paired_t_test([1.0], [2.0])


def test_gr_file_round_trip(suite_gold_grs):
    text = fp.render_gr_file(suite_gold_grs)
    assert fp.read_gr_file(text) == suite_gold_grs


def test_gr_file_cannot_hold_an_empty_set():
    # an empty block would read back as no block at all
    gr = fp.parse_gr("ncsubj(see,child,_)")
    with pytest.raises(ValueError, match="relation set 1 is empty"):
        fp.render_gr_file([{gr}, set(), {gr}])


def test_import_loads_no_scipy_or_numpy():
    # a fresh interpreter importing the same copy of the package under test
    root = str(Path(fp.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, %r); import frameparse; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'numpy')))" % root)
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Every frameparse process pays for its imports at start-up.  -S
    # skips site, so no .pth file outside the package decides the result.
    src = str(Path(fp.__file__).resolve().parent.parent)
    code = ("import frameparse.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"
