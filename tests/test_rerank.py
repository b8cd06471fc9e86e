import math

import pytest

import frameparse as fp
from frameparse.actions import trace_sort_key
from oracles import all_trees

HEAR = "the meeting will hear a greeting from the senator"


def _analysis_key(analysis):
    return trace_sort_key(analysis.derivation.actions)


class TestVerbFrames:
    def test_control_sentence_frames(self, uniform_pipeline):
        result = uniform_pipeline.analyze("Paul intends to leave IBM")
        top = result.analyses[0]
        frames = fp.verb_frames(top.derivation, uniform_pipeline.grammar,
                                result.tokens)
        assert [(f.lemma, f.frame) for f in frames] == \
            [("intend", "VPINF"), ("leave", "NP")]

    def test_verbless_fragment_empty(self, demo_table):
        forest = fp.glr_parse(["det", "n", "v"], demo_table)
        # take the NP subtree of the parse: no verbal rule inside
        tree = all_trees(forest)[0].children[0]
        derivation = fp.Derivation(tree, ())
        tokens = [fp.Token("the", "det", "the"), fp.Token("dog", "n", "dog")]
        assert fp.verb_frames(derivation, demo_table.grammar, tokens) == []

    def test_attachment_decides_frame(self, uniform_pipeline):
        result = uniform_pipeline.analyze(HEAR, n=99)
        by_frames = {}
        for analysis in result.analyses:
            frames = tuple(
                (f.lemma, f.frame)
                for f in fp.verb_frames(analysis.derivation,
                                        uniform_pipeline.grammar, result.tokens))
            by_frames.setdefault(frames, []).append(analysis)
        assert (("hear", "NP_PP"),) in by_frames
        assert (("hear", "NP"),) in by_frames


def _rank_all(pipeline, sentence, lexicon):
    tokens = pipeline.tag(sentence)
    forest = pipeline.parse_tags([t.tag for t in tokens])
    return tokens, fp.rank_analyses(forest, pipeline.model, lexicon, tokens,
                                    forest.derivation_count())


class TestLexicalizedScore:
    def test_no_verbs_means_structural_only(self):
        table = fp.build_table(fp.parse_grammar(
            "terminals: det n\nstart: NP\nNP -> det n(head)\n"))
        lexicon = fp.parse_lexicon("hear\tNP\t1\t1.0\n")
        forest = fp.glr_parse(["det", "n"], table)
        tokens = [fp.Token("the", "det", "the"), fp.Token("dog", "n", "dog")]
        [scored] = fp.rank_analyses(forest, fp.ActionModel(table), lexicon,
                                    tokens, 99)
        assert scored.lexical_logprob == 0.0
        assert isinstance(scored.lexical_logprob, float)
        assert scored.total_score == scored.structural_logprob

    def test_frame_term_summed_top_down(self, demo_grammar, demo_table,
                                        demo_wordlist):
        # Three nested verb instances: the reported term adds their
        # shares outermost first, as verb_frames lists them; adding them
        # in trace order (innermost first) gives -7.269515189205033.
        lexicon = fp.SubcatLexicon([
            fp.SubcatEntry("intend", "VPINF", 1, 1 / 12),
            fp.SubcatEntry("intend", "NP", 11, 11 / 12),
            fp.SubcatEntry("leave", "NP", 11, 11 / 12),
            fp.SubcatEntry("leave", "VPINF", 1, 1 / 12)])
        pipeline = fp.ParserPipeline(demo_grammar, table=demo_table,
                                     wordlist=demo_wordlist, lexicon=lexicon)
        result = pipeline.analyze("Paul intends to intend to leave IBM")
        [top] = result.analyses
        frames = fp.verb_frames(top.derivation, pipeline.grammar, result.tokens)
        assert [(f.lemma, f.frame) for f in frames] == \
            [("intend", "VPINF"), ("intend", "VPINF"), ("leave", "NP")]
        assert top.lexical_logprob == -7.269515189205032

    def test_uniform_lexicon_constant_shift(self, uniform_pipeline):
        empty = fp.SubcatLexicon([])
        tokens, ranked = _rank_all(uniform_pipeline, HEAR, empty)
        k = len(fp.DEFAULT_FRAME_INVENTORY)
        assert len(ranked) == 4
        for scored in ranked:
            n_verbs = len(fp.verb_frames(scored.derivation,
                                         uniform_pipeline.grammar, tokens))
            assert n_verbs == 1
            assert scored.lexical_logprob == pytest.approx(-math.log(k))

    def test_structurally_tied_pair_decided_by_lexicon(self, uniform_pipeline):
        lexicon = fp.parse_lexicon("hear\tNP\t7\t0.875\nhear\tNP_PP\t1\t0.125\n")
        tokens, scored = _rank_all(uniform_pipeline, HEAR, lexicon)
        tied = {}
        for analysis in scored:
            frames = fp.verb_frames(analysis.derivation,
                                    uniform_pipeline.grammar, tokens)
            tied[frames[0].frame] = analysis
        np_reading = tied["NP"]
        pp_reading = tied["NP_PP"]
        assert np_reading.structural_logprob == \
            pytest.approx(pp_reading.structural_logprob)
        # P(hear, NP) = 8/39, P(hear, NP_PP) = 2/39: log-ratio log 4
        assert np_reading.total_score - pp_reading.total_score == \
            pytest.approx(math.log(4))

    def test_tied_pair_separated_by_exactly_log_seven(self, uniform_pipeline):
        # With the 29-frame inventory and six NP observations for "hear",
        # smoothing gives P(hear, NP) = 7/35 and P(hear, NP_PP) = 1/35, so
        # the modification reading wins by exactly log 7.
        lexicon = fp.SubcatLexicon([fp.SubcatEntry("hear", "NP", 6, 1.0)])
        assert math.exp(lexicon.frame_logprob("hear", "NP")) == \
            pytest.approx(7 / 35)
        assert math.exp(lexicon.frame_logprob("hear", "NP_PP")) == \
            pytest.approx(1 / 35)
        tokens, ranked = _rank_all(uniform_pipeline, HEAR, lexicon)
        scored = {}
        for analysis in ranked:
            frames = fp.verb_frames(analysis.derivation,
                                    uniform_pipeline.grammar, tokens)
            scored[frames[0].frame] = analysis
        assert scored["NP"].structural_logprob == \
            pytest.approx(scored["NP_PP"].structural_logprob)
        assert scored["NP"].total_score - scored["NP_PP"].total_score == \
            pytest.approx(math.log(7))

    def test_score_decomposition_exact(self, lexicalized_pipeline):
        result = lexicalized_pipeline.analyze(HEAR, n=99)
        for analysis in result.analyses:
            lexical = sum(
                lexicalized_pipeline.lexicon.frame_logprob(f.lemma, f.frame)
                for f in fp.verb_frames(analysis.derivation,
                                        lexicalized_pipeline.grammar,
                                        result.tokens))
            assert analysis.lexical_logprob == lexical
            assert analysis.total_score == \
                analysis.structural_logprob + analysis.lexical_logprob


class TestRankAnalyses:
    def test_single_analysis_any_lexicon(self, adversarial_pipeline):
        lexicon = fp.parse_lexicon("sleep\tNP\t5\t1.0\n")
        tokens = adversarial_pipeline.tag("the child sleeps")
        forest = adversarial_pipeline.parse_tags([t.tag for t in tokens])
        ranked = fp.rank_analyses(forest, adversarial_pipeline.model, lexicon,
                                  tokens, 99)
        assert len(ranked) == 1

    def test_uniform_lexicon_matches_structural_order(self, adversarial_pipeline,
                                                      suite_sentences):
        empty = fp.SubcatLexicon([])
        for sentence in suite_sentences:
            tokens = adversarial_pipeline.tag(sentence)
            forest = adversarial_pipeline.parse_tags([t.tag for t in tokens])
            count = forest.derivation_count()
            structural = fp.unpack_n_best(forest, adversarial_pipeline.model,
                                          count)
            reranked = fp.rank_analyses(forest, adversarial_pipeline.model,
                                        empty, tokens, count)
            assert [_analysis_key(a) for a in structural] == \
                [_analysis_key(a) for a in reranked]

    def test_adversarial_model_flipped_by_lexicon(self, adversarial_pipeline,
                                                  lexicalized_pipeline):
        baseline = adversarial_pipeline.analyze(HEAR).analyses[0]
        lexical = lexicalized_pipeline.analyze(HEAR).analyses[0]
        tokens = adversarial_pipeline.tag(HEAR)
        base_frames = fp.verb_frames(baseline.derivation,
                                     adversarial_pipeline.grammar, tokens)
        lex_frames = fp.verb_frames(lexical.derivation,
                                    lexicalized_pipeline.grammar, tokens)
        assert [f.frame for f in base_frames] == ["NP_PP"]
        assert [f.frame for f in lex_frames] == ["NP"]

    def test_raising_frame_count_never_lowers_rank(self, uniform_pipeline):
        result = uniform_pipeline.analyze(HEAR)
        tokens = result.tokens

        def rank_of_np_reading(np_count):
            rows = "hear\tNP\t%d\t%s\nhear\tNP_PP\t2\t%s\n" % (
                np_count, np_count / (np_count + 2), 2 / (np_count + 2))
            lexicon = fp.parse_lexicon(rows)
            forest = uniform_pipeline.parse_tags([t.tag for t in tokens])
            ranked = fp.rank_analyses(forest, uniform_pipeline.model, lexicon,
                                      tokens, forest.derivation_count())
            for position, analysis in enumerate(ranked):
                frames = fp.verb_frames(analysis.derivation,
                                        uniform_pipeline.grammar, tokens)
                if frames and frames[0].frame == "NP_PP":
                    return position
            raise AssertionError("argument reading missing")

        ranks = [rank_of_np_reading(c) for c in (1, 2, 4, 8, 16)]
        # more NP evidence never improves the NP_PP reading's position
        assert ranks == sorted(ranks)
