import importlib.util
import math
import random
from collections import Counter
from pathlib import Path

import pytest

import frameparse as fp

from frameparse.actions import trace_sort_key
from oracles import (MAX_DERIVATIONS, all_trees, random_grammar,
                     random_sentences, rank_by_enumeration, replay_actions)


def test_default_model_is_uniform(demo_grammar, demo_wordlist):
    pipe = fp.ParserPipeline(demo_grammar, wordlist=demo_wordlist)
    result = pipe.analyze("the child sleeps")
    assert len(result.analyses) == 1


def test_out_of_coverage_result(uniform_pipeline):
    result = uniform_pipeline.analyze("the the the")
    assert result.analyses == []
    assert len(result.tokens) == 3
    # a named tuple, like the other records
    assert result == (result.tokens, [])


def test_baseline_mode_lexical_zero(adversarial_pipeline):
    result = adversarial_pipeline.analyze("the child sleeps")
    assert result.analyses[0].lexical_logprob == 0.0
    assert result.analyses[0].total_score == \
        result.analyses[0].structural_logprob


def test_lexicalized_flag_forced_off(lexicalized_pipeline):
    tokens = lexicalized_pipeline.tag("the child sees a dog in the park")
    forest = lexicalized_pipeline.parse_tags([token.tag for token in tokens])
    [base] = lexicalized_pipeline.rank(forest, tokens, 1, False)
    assert base.lexical_logprob == 0.0
    [lex] = lexicalized_pipeline.rank(forest, tokens, 1, True)
    assert lex.lexical_logprob < 0.0


def test_unlisted_punctuation_dropped(adversarial_pipeline):
    plain = adversarial_pipeline.analyze("the child sees a dog in the park")
    comma = adversarial_pipeline.analyze("the child sees a dog, in the park")
    assert comma.analyses
    assert comma.tokens == plain.tokens

    def top_grs(result):
        top = result.analyses[0].derivation
        return fp.extract_grs(top, adversarial_pipeline.grammar, result.tokens)
    assert top_grs(comma) == top_grs(plain)


def test_listed_punctuation_kept(demo_grammar):
    pipe = fp.ParserPipeline(demo_grammar,
                             wordlist=fp.parse_wordlist("the\tdet\n,\tdet\n"))
    assert [t.surface for t in pipe.tag("the , the ;")] == ["the", ",", "the"]


def test_listed_tokens_memoized(demo_grammar, demo_table, demo_wordlist,
                                demo_lemmatizer):
    pipe = fp.ParserPipeline(demo_grammar, table=demo_table,
                             wordlist=demo_wordlist, lemmatizer=demo_lemmatizer)
    # "The" is listed through its lowercase form; "Zork" and "blorf" are
    # unlisted, and the comma and the full stop are dropped
    sentence = "The child sees Zork, the blorf."
    expected = fp.tag_tokens(["The", "child", "sees", "Zork", "the", "blorf"],
                             demo_wordlist, demo_lemmatizer)
    # tagged afresh, then partly from the memo
    assert pipe.tag(sentence) == expected
    assert pipe.tag(sentence) == expected
    assert set(pipe._listed_tokens) == {"The", "child", "sees", "the"}
    assert pipe._listed_tokens["The"].lemma == "the"


def test_wordlist_tag_outside_terminals_rejected(demo_grammar):
    wl = fp.parse_wordlist("weird\tzz\n")
    with pytest.raises(ValueError, match="^wordlist tag 'zz' is not a grammar "
                                         "terminal$"):
        fp.ParserPipeline(demo_grammar, wordlist=wl)
    # neither unknown-word tag is a terminal: the first in sorted order
    # is named, whatever the string hash seed
    without_nouns = fp.parse_grammar("terminals: a\nstart: S\nS -> a\n")
    with pytest.raises(ValueError, match="^unknown-word tag 'n' is not a "
                                         "grammar terminal$"):
        fp.ParserPipeline(without_nouns)


def test_mismatched_table_rejected(demo_grammar):
    other = fp.build_table(fp.parse_grammar("terminals: a\nstart: S\nS -> a\n"))
    with pytest.raises(ValueError, match="not built from"):
        fp.ParserPipeline(demo_grammar, table=other)


def test_table_taken_from_the_model(demo_grammar, demo_wordlist):
    # a model over a second normalization once met a table the pipeline
    # built itself, and every analysis raised
    table = fp.build_table(fp.normalize_kleene(demo_grammar))
    pipe = fp.ParserPipeline(demo_grammar, model=fp.ActionModel(table),
                             wordlist=demo_wordlist)
    assert pipe.table is table and pipe.grammar is table.grammar
    assert pipe.analyze("the child sees a dog in the park").analyses


def test_model_over_another_table_rejected(demo_grammar):
    first, second = (fp.build_table(fp.normalize_kleene(demo_grammar))
                     for _ in range(2))
    with pytest.raises(ValueError, match="^model/table mismatch: "):
        fp.ParserPipeline(demo_grammar, table=first,
                          model=fp.ActionModel(second))
    # the model's table is checked against the grammar like a given one
    other = fp.build_table(fp.parse_grammar("terminals: a\nstart: S\nS -> a\n"))
    with pytest.raises(ValueError, match="not built from"):
        fp.ParserPipeline(demo_grammar, model=fp.ActionModel(other))


def test_table_of_an_equal_grammar_accepted(demo_grammar):
    # A leading comment moves every rule's line, which grammars do not
    # compare.
    text = fp.demo_path("demo.grammar").read_text(encoding="utf-8")
    moved = fp.parse_grammar("# moved\n" + text)
    assert all(a.line != b.line
               for a, b in zip(moved.rules, demo_grammar.rules))
    table = fp.build_table(fp.normalize_kleene(moved))
    assert fp.ParserPipeline(demo_grammar, table=table).table is table


def test_n_limits_analyses(uniform_pipeline):
    sentence = "the meeting will hear a greeting from the senator"
    assert len(uniform_pipeline.analyze(sentence, n=2).analyses) == 2
    assert len(uniform_pipeline.analyze(sentence, n=99).analyses) == 4


def _assert_rank_matches_enumeration(pipeline, forest, tokens, lexicalized):
    """Checks ``pipeline.rank`` at n = 1, 2, count and count + 1; returns
    the enumerated ranking."""
    lexicon = pipeline.lexicon if lexicalized else None
    expected = rank_by_enumeration(forest, pipeline.model, lexicon, tokens)
    count = len(expected)
    for n in {1, 2, max(count, 1), count + 1}:
        ranked = pipeline.rank(forest, tokens, n, lexicalized)
        assert [(a.derivation.actions, a.structural_logprob,
                 a.lexical_logprob) for a in ranked] == expected[:n]
    return expected


def _has_tie(expected):
    totals = [structural + lexical for _, structural, lexical in expected]
    return len(set(totals)) < len(totals)


def test_rank_matches_enumeration_on_random_grammars():
    rng = random.Random(0x5C0DE)
    ambiguous = tied = 0
    for _ in range(200):
        # the pipeline requires the unknown-word tags as terminals
        text = fp.render_grammar(random_grammar(rng))
        grammar = fp.parse_grammar(text.replace("terminals:",
                                                "terminals: n pn", 1))
        table = fp.build_table(grammar)
        counts = {key: Counter({action: rng.randint(0, 3)
                                for action in actions})
                  for key, actions in table.actions.items()}
        for model in (fp.ActionModel(table), fp.ActionModel(table, counts)):
            pipeline = fp.ParserPipeline(grammar, table=table, model=model)
            for tags in random_sentences(grammar, rng, 8):
                forest = pipeline.parse_tags(tags)
                if forest.derivation_count() > 300:
                    continue
                tokens = [fp.Token(tag, tag, tag) for tag in tags]
                expected = _assert_rank_matches_enumeration(
                    pipeline, forest, tokens, False)
                ambiguous += len(expected) > 1
                tied += _has_tie(expected)
    assert ambiguous >= 100 and tied >= 40


def test_rank_matches_enumeration_with_demo_lexicon(
        demo_grammar, demo_table, adversarial_model, demo_wordlist,
        demo_lemmatizer, suite_sentences):
    pipeline = fp.ParserPipeline(
        demo_grammar, table=demo_table, model=adversarial_model,
        wordlist=demo_wordlist, lemmatizer=demo_lemmatizer,
        lexicon=fp.load_lexicon(fp.demo_path("demo.lexicon")))
    sentences = list(suite_sentences)
    sentences += [line for line in
                  fp.demo_path("acquisition.txt").read_text().splitlines()
                  if line.strip()]
    sentences += ["the child sees a dog" + " in the park" * k
                  for k in range(7)]
    for sentence in sentences:
        tokens = pipeline.tag(sentence)
        forest = pipeline.parse_tags([token.tag for token in tokens])
        for lexicalized in (False, True):
            assert _assert_rank_matches_enumeration(
                pipeline, forest, tokens, lexicalized), sentence


def _ladder(pipeline, k):
    tokens = pipeline.tag("the child sees a dog" + " in the park" * k)
    return tokens, pipeline.parse_tags([token.tag for token in tokens])


def test_rank_long_ladder_without_enumeration(lexicalized_pipeline):
    # About 3.7e17 derivations: only a search of the packed forest
    # finishes, so ranking must never unpack it.
    pipeline = lexicalized_pipeline
    tokens, forest = _ladder(pipeline, 32)
    assert len(tokens) == 101 and forest.derivation_count() > 10 ** 17
    for lexicalized in (False, True):
        [top] = pipeline.rank(forest, tokens, 1, lexicalized)
        ranked = pipeline.rank(forest, tokens, 10, lexicalized)
        assert ranked[0] == top
        assert len({a.derivation.actions for a in ranked}) == 10
        keys = [(-a.total_score, trace_sort_key(a.derivation.actions))
                for a in ranked]
        assert keys == sorted(keys)
        for analysis in ranked:
            actions = analysis.derivation.actions
            assert analysis.structural_logprob == sum(
                math.log(pipeline.model.prob(*step)) for step in actions)
            assert replay_actions(actions, pipeline.table) == \
                analysis.derivation.tree
        if lexicalized:
            grs = fp.extract_grs(top.derivation, pipeline.grammar, tokens)
            assert {gr.render() for gr in grs} == \
                {"ncsubj(see,child,_)", "dobj(see,dog,_)"}


def test_oracle_refuses_exponential_forest(lexicalized_pipeline):
    tokens, forest = _ladder(lexicalized_pipeline, 12)
    count = forest.derivation_count()
    assert count > MAX_DERIVATIONS
    with pytest.raises(ValueError, match=f"forest has {count} derivations"):
        all_trees(forest)
    with pytest.raises(ValueError, match=f"forest has {count} derivations"):
        rank_by_enumeration(forest, lexicalized_pipeline.model,
                            lexicalized_pipeline.lexicon, tokens)


@pytest.mark.parametrize("n", [0, -1, None, True])
def test_n_below_one_rejected(uniform_pipeline, n):
    with pytest.raises(ValueError, match="at least 1"):
        uniform_pipeline.analyze("the child sees a dog", n=n)


def test_benchmark_tracer_installs(demo_grammar, demo_table, adversarial_model,
                                   demo_wordlist, demo_lemmatizer,
                                   acquired_lexicon, uniform_pipeline):
    # perfbench/tracing.py wraps functions under the names their callers
    # look up, so renaming one of them breaks every traced benchmark run.
    # A fresh pipeline has tagged no word yet, so tag_tokens runs inside
    # the traced window.
    lexicalized_pipeline = fp.ParserPipeline(
        demo_grammar, table=demo_table, model=adversarial_model,
        wordlist=demo_wordlist, lemmatizer=demo_lemmatizer,
        lexicon=acquired_lexicon)
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    analyze = fp.ParserPipeline.analyze
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        result = lexicalized_pipeline.analyze("the child sees a dog in the park")
        # lexicalized ranking never lists verb frames; acquisition does,
        # from a full ranking only at a near tie, such as the uniform
        # model makes of the second sentence
        fp.observe_corpus(["the child sees a dog"], lexicalized_pipeline)
        fp.observe_corpus(["the child sees a dog in the park in the park"],
                          uniform_pipeline)
    finally:
        uninstall()
    assert result.analyses
    assert {"pipeline.ParserPipeline.analyze", "preprocess.tokenize",
            "preprocess.tag_tokens", "glr.glr_parse", "rerank.rank_analyses",
            "actions.unpack_n_best", "rerank.verb_frames"} <= set(tracer.by_name)
    assert fp.ParserPipeline.analyze is analyze
