"""The benchmark's tracer patches frameparse's call sites by name, so a
rename in the program would break ``perfbench/run.py --trace 1`` without
a test of its own failing; this runs the tracer over the program as it
is."""

import importlib.util
from pathlib import Path

import frameparse as fp
from frameparse import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_parse_and_ranking_spans(adversarial_pipeline):
    tracing = _tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        result = adversarial_pipeline.analyze("the child sees a dog")
        store = fp.observe_corpus(["the child sees a dog in the park",
                                   "Paul intends to leave IBM"],
                                  adversarial_pipeline, cap=10)
    finally:
        uninstall()
    assert len(result.analyses) == 1
    assert store.parsed_sentences == 2
    spans = tracer.by_name
    # calls, total and self time per span name
    assert spans["glr.glr_parse"][0] == 3
    # acquisition reads the top analysis off the Viterbi pass, and
    # neither sentence is a near tie under this model
    assert spans["actions.unpack_n_best"][0] == 1
    assert spans["pipeline.ParserPipeline.analyze"][0] == 1
    assert spans["acquire.observe_corpus"][0] == 1
    # uninstalling restores the program's own functions
    assert fp.observe_corpus.__module__ == "frameparse.acquire"


def test_tracer_counts_acquisition_frames(adversarial_pipeline):
    tracing = _tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        fp.observe_corpus(["Paul intends to sleep", "Paul intends to leave IBM",
                           "Paul intends to sleep"],
                          adversarial_pipeline, cap=1)
    finally:
        uninstall()
    metrics = tracing.layer_metrics(tracer.by_name, tracer.counters, 1, 1, {})
    # the second sentence's "intend" instance is dropped by the cap, and
    # the third sentence, whose verbs are both full, is not ranked
    assert metrics["acquire.capped"]["value"] == 1
    assert metrics["rerank.verb_frames_calls"]["value"] == 2


def test_tracer_records_the_cli_call_sites(tmp_path, adversarial_model,
                                           capsys):
    model = tmp_path / "adv.model"
    fp.save_model(adversarial_model, model)
    tracing = _tracing()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        code = cli.main(["compare", "--grammar", "@demo/demo.grammar",
                         "--wordlist", "@demo/demo.wordlist",
                         "--lemma-exceptions", "@demo/demo.lemma_exceptions",
                         "--model", str(model),
                         "--lexicon", "@demo/demo.lexicon",
                         "--corpus", "@demo/ppsuite.txt",
                         "--gold-gr", "@demo/ppsuite_gold.grs",
                         "--treebank", "@demo/ppsuite_gold.treebank"])
    finally:
        uninstall()
    assert code == 0
    assert capsys.readouterr().out.startswith("sentences\t20\n")
    calls = {name: entry[0] for name, entry in tracer.by_name.items()}
    # 20 sentences, each parsed once and ranked once per column
    for name in ("evaluation.extract_grs", "evaluation.bracket_scores",
                 "grs.gr_scores", "actions.unpack_n_best"):
        assert calls[name] == 40, name
    assert calls["glr.glr_parse"] == 20
    assert calls["rerank.rank_analyses"] == 20
    assert calls["evaluation.paired_t_test"] == 2
    for name in ("lrtable.build_table", "actions.load_model",
                 "lexicon.load_lexicon"):
        assert calls[name] == 1, name
    assert cli.extract_grs.__module__ == "frameparse.evaluation"
