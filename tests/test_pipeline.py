import importlib.util
from pathlib import Path

import pytest

import frameparse as fp


def test_default_model_is_uniform(demo_grammar, demo_wordlist):
    pipe = fp.ParserPipeline(demo_grammar, wordlist=demo_wordlist)
    result = pipe.analyze("the child sleeps")
    assert len(result.analyses) == 1


def test_out_of_coverage_result(uniform_pipeline):
    result = uniform_pipeline.analyze("the the the")
    assert result.analyses == []
    assert len(result.tokens) == 3


def test_baseline_mode_lexical_zero(adversarial_pipeline):
    result = adversarial_pipeline.analyze("the child sleeps")
    assert result.analyses[0].lexical_logprob == 0.0
    assert result.analyses[0].total_score == \
        result.analyses[0].structural_logprob


def test_lexicalized_flag_forced_off(lexicalized_pipeline):
    sentence = "the child sees a dog in the park"
    base = lexicalized_pipeline.analyze(sentence, lexicalized=False)
    assert base.analyses[0].lexical_logprob == 0.0
    lex = lexicalized_pipeline.analyze(sentence, lexicalized=True)
    assert lex.analyses[0].lexical_logprob < 0.0


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


def test_n_limits_analyses(uniform_pipeline):
    sentence = "the meeting will hear a greeting from the senator"
    assert len(uniform_pipeline.analyze(sentence, n=2).analyses) == 2
    assert len(uniform_pipeline.analyze(sentence, n=None).analyses) == 4


@pytest.mark.parametrize("n", [0, -1])
def test_n_below_one_rejected(uniform_pipeline, n):
    with pytest.raises(ValueError, match="at least 1"):
        uniform_pipeline.analyze("the child sees a dog", n=n)


def test_benchmark_tracer_installs(lexicalized_pipeline):
    # perfbench/tracing.py wraps functions under the names their callers
    # look up, so renaming one of them breaks every traced benchmark run.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    analyze = fp.ParserPipeline.analyze
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        result = lexicalized_pipeline.analyze("the child sees a dog in the park")
    finally:
        uninstall()
    assert result.analyses
    assert {"pipeline.ParserPipeline.analyze", "preprocess.tokenize",
            "preprocess.tag_tokens", "glr.glr_parse", "rerank.rank_analyses",
            "actions.unpack_n_best", "rerank.verb_frames"} <= set(tracer.by_name)
    assert fp.ParserPipeline.analyze is analyze
