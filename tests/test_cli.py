import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frameparse as fp
from frameparse.cli import build_arg_parser, main

from oracles import read_tree, replay_actions


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "adv.model"
    code = main(["train", "--grammar", "@demo/demo.grammar",
                 "--treebank", "@demo/adversarial.treebank",
                 "--model", str(path)])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def lexicon_file(tmp_path_factory, model_file):
    path = tmp_path_factory.mktemp("lexica") / "acq.lexicon"
    code = main(["acquire", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--lemma-exceptions", "@demo/demo.lemma_exceptions",
                 "--model", str(model_file),
                 "--corpus", "@demo/acquisition.txt",
                 "--out", str(path)])
    assert code == 0
    return path


def test_build_table_reports_conflicts(capsys):
    assert main(["build-table", "--grammar", "@demo/demo.grammar"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("states\t")
    assert "conflict\t" in out


def test_build_table_on_a_deep_unit_chain(tmp_path, capsys):
    # 1,200 nested unit rules: the cycle check walks them without
    # recursing once per rule
    depth = 1200
    rules = "".join(f"A{i} -> A{i + 1}\n" for i in range(depth))
    grammar = tmp_path / "deep.grammar"
    grammar.write_text(f"terminals: a\nstart: A0\n{rules}A{depth} -> a\n")
    assert main(["build-table", "--grammar", str(grammar)]) == 0
    assert capsys.readouterr().out.startswith("states\t")


def test_module_runs_as_a_script(tmp_path):
    # python -m frameparse.cli exits with main()'s status; the child
    # keeps any PYTHONPATH entries after the package's own directory
    src = str(Path(fp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}

    def run(grammar):
        return subprocess.run([sys.executable, "-m", "frameparse.cli",
                               "build-table", "--grammar", grammar],
                              capture_output=True, text=True, env=env)
    built = run("@demo/demo.grammar")
    assert built.returncode == 0
    golden = Path(__file__).resolve().parent / "golden" / "build-table.out"
    assert built.stdout == golden.read_text(encoding="utf-8")
    missing = run(str(tmp_path / "missing.grammar"))
    assert missing.returncode == 2
    assert "missing.grammar" in missing.stderr


def test_missing_grammar_file_exit_2(capsys):
    code = main(["train", "--grammar", "/nowhere/missing.grammar",
                 "--treebank", "@demo/train.treebank", "--model", "/tmp/x"])
    assert code == 2
    assert "missing.grammar" in capsys.readouterr().err


def test_train_writes_model(model_file, capsys):
    text = model_file.read_text()
    assert text
    grammar = fp.normalize_kleene(fp.load_grammar(fp.demo_path("demo.grammar")))
    table = fp.build_table(grammar)
    model = fp.load_model(model_file, table)
    assert model.counts


def test_train_skips_underivable_tree(tmp_path, capsys):
    treebank = tmp_path / "bad.treebank"
    treebank.write_text(
        "(S (NP (det the) (n child)) (VP (v sleeps)))\n"
        "(S (VP (v sleeps)) (NP (det the) (n child)))\n")
    model_path = tmp_path / "m.model"
    code = main(["train", "--grammar", "@demo/demo.grammar",
                 "--treebank", str(treebank), "--model", str(model_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert "trained\t1" in captured.out
    assert "skipped\t1" in captured.out
    assert "warning" in captured.err


def test_parse_baseline_and_lexicalized(model_file, lexicon_file, capsys):
    sentence = "the child sees a dog in the park"
    assert main(["parse", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--lemma-exceptions", "@demo/demo.lemma_exceptions",
                 "--model", str(model_file), sentence]) == 0
    baseline_out = capsys.readouterr().out
    assert "iobj(in,see,park)" in baseline_out

    assert main(["parse", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--lemma-exceptions", "@demo/demo.lemma_exceptions",
                 "--model", str(model_file), "--lexicon", str(lexicon_file),
                 sentence]) == 0
    lexical_out = capsys.readouterr().out
    assert "iobj" not in lexical_out
    assert "dobj(see,dog,_)" in lexical_out


def test_parse_rejects_zero_analyses_exit_2(model_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--grammar", "@demo/demo.grammar",
              "--wordlist", "@demo/demo.wordlist",
              "--model", str(model_file), "--n", "0", "the child sees a dog"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--n" in captured.err


def test_parse_sentences_and_corpus_exit_2(model_file, capsys):
    code = main(["parse", "--grammar", "@demo/demo.grammar",
                 "--model", str(model_file), "--corpus", "@demo/ppsuite.txt",
                 "the child sleeps"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: give sentences as arguments or --corpus, "
                            "not both\n")


def test_parse_machine_readable(model_file, capsys):
    assert main(["parse", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--model", str(model_file), "--format", "machine-readable",
                 "--n", "2", "Paul intends to leave IBM"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["sentence"] == "Paul intends to leave IBM"
    assert len(payload[0]["analyses"]) == 1
    assert payload[0]["analyses"][0]["grs"] == [
        "dobj(leave,IBM,_)", "ncsubj(intend,Paul,_)", "ncsubj(leave,Paul,_)",
        "xcomp(to,intend,leave)"]


def test_parse_verbless_lexical_term_is_float(tmp_path, capsys):
    grammar = tmp_path / "np.grammar"
    grammar.write_text("terminals: pn n det\nstart: NP\n"
                       "NP -> det n(head)\nNP -> pn\n")
    wordlist = tmp_path / "np.wordlist"
    wordlist.write_text("the\tdet\ndog\tn\nKim\tpn\n")
    treebank = tmp_path / "empty.treebank"
    treebank.write_text("")
    lexicon = tmp_path / "np.lexicon"
    lexicon.write_text("hear\tNP\t1\t1.0\n")
    model = tmp_path / "np.model"
    assert main(["train", "--grammar", str(grammar), "--treebank",
                 str(treebank), "--model", str(model)]) == 0
    capsys.readouterr()
    assert main(["parse", "--grammar", str(grammar), "--wordlist",
                 str(wordlist), "--model", str(model), "--lexicon",
                 str(lexicon), "--format", "machine-readable",
                 "the dog", "Kim"]) == 0
    out = capsys.readouterr().out
    assert out.count('"lexical": 0.0') == 2
    for record in json.loads(out):
        [analysis] = record["analyses"]
        assert isinstance(analysis["lexical"], float)


def test_parse_out_of_coverage_continues(model_file, capsys):
    code = main(["parse", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--model", str(model_file),
                 "the the the", "the child sleeps"])
    captured = capsys.readouterr()
    assert code == 0
    assert "out of coverage" in captured.err
    assert "coverage\tnone" in captured.out
    assert "(S (NP (det the) (n child)) (VP (v sleeps)))" in captured.out


@pytest.mark.parametrize("fmt, expected", [("text", ""),
                                           ("machine-readable", "[]\n")])
def test_parse_empty_corpus(tmp_path, model_file, capsys, fmt, expected):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("")
    code = main(["parse", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--model", str(model_file), "--format", fmt,
                 "--corpus", str(corpus)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == expected
    assert captured.err == ""


def _control_chain(clauses, tail):
    """A derivable demo-grammar record: "Paul intends" and ``clauses``
    nested "to intend" clauses, ending in the VP ``tail``."""
    text = tail
    for _ in range(clauses):
        text = "(VP (v intend) (VPto (to to) %s))" % text
    return "(S (NP (pn Paul)) %s)" % text.replace("(v intend)",
                                                  "(v intends)", 1)


def _nesting(text):
    depth = deepest = 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        deepest = max(deepest, depth)
    return deepest


def test_train_and_eval_bracket_at_803_tokens(tmp_path, capsys):
    record = _control_chain(400, "(VP (v leave) (NP (pn IBM)))")
    treebank = tmp_path / "deep.treebank"
    treebank.write_text(record + "\n")
    model = tmp_path / "deep.model"
    assert main(["train", "--grammar", "@demo/demo.grammar",
                 "--treebank", str(treebank), "--model", str(model)]) == 0
    assert "trained\t1\nskipped\t0\n" in capsys.readouterr().out
    sentence = "Paul intends" + " to intend" * 399 + " to leave IBM"
    assert len(sentence.split()) == 803
    corpus = tmp_path / "deep.txt"
    corpus.write_text(sentence + "\n")
    code = main(["eval-bracket", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist", "--model", str(model),
                 "--corpus", str(corpus), "--treebank", str(treebank)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.startswith("sentences\t1\nrecall\t1.0000\n"
                                   "precision\t1.0000\n")


def test_train_and_treebank_round_trip_at_2003_levels(tmp_path, capsys):
    # derivable: 999 control clauses ending in VP -> v NP PP
    record = _control_chain(999, "(VP (v leave) (NP (pn IBM)) "
                                 "(PP (prep in) (NP (n park))))")
    assert _nesting(record) == 2003
    treebank = tmp_path / "deep.treebank"
    treebank.write_text(record + "\n")
    assert main(["train", "--grammar", "@demo/demo.grammar",
                 "--treebank", str(treebank),
                 "--model", str(tmp_path / "deep.model")]) == 0
    assert "trained\t1\nskipped\t0\n" in capsys.readouterr().out
    trees = fp.load_treebank(treebank)
    out = tmp_path / "written.treebank"
    fp.write_treebank(trees, out)
    assert out.read_text() == record + "\n"
    assert fp.read_treebank(out.read_text())[0].render() == record


def test_2003_level_records_compare_and_hash():
    # Both walk the two trees down to the deepest word.
    def read(word):
        [tree] = fp.read_treebank(_control_chain(
            999, "(VP (v leave) (NP (pn IBM)) (PP (prep in) (NP (n %s))))"
            % word))
        return tree
    first, second = read("park"), read("park")
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    changed = read("garden")
    assert first != changed and not first == changed


def test_tree_walks_on_the_2005_token_control_chain(adversarial_pipeline):
    # "Paul intends" + " to intend" * 1000 + " to leave IBM"
    record = _control_chain(1001, "(VP (v leave) (NP (pn IBM)))")
    first, second = read_tree(record), read_tree(record)
    assert first.end == 2005
    try:
        rendered = first.render()
        text = repr(first)
        equal = first == second and hash(first) == hash(second)
        trace = fp.tree_actions(first, adversarial_pipeline.table)
    except RecursionError:  # its traceback would be thousands of frames
        rendered = None
    assert rendered is not None, "a tree walk recursed once per level"
    assert rendered == record
    nodes = sum(1 for _ in first.iter_nodes())
    assert text.count("Tree(") == nodes
    assert text.startswith("Tree(label='S', start=0, end=2005, children=(")
    assert equal
    assert len(trace) == nodes + 1 and trace[-1][2] == ("accept",)


def test_extract_grs_on_a_2001_token_chain(adversarial_pipeline):
    # The derivation comes from the gold record's trace, since the
    # search would overflow on it first.
    def grs(clauses):
        record = _control_chain(clauses, "(VP (v leave) (NP (pn IBM)))")
        table = adversarial_pipeline.table
        trace = fp.tree_actions(read_tree(record), table)
        sentence = "Paul intends" + " to intend" * (clauses - 1) \
            + " to leave IBM"
        tokens = adversarial_pipeline.tag(sentence)
        assert len(tokens) == 2 * clauses + 3
        derivation = fp.Derivation(replay_actions(trace, table), trace)
        return fp.extract_grs(derivation, adversarial_pipeline.grammar,
                              tokens)
    assert grs(999) == grs(2)


def test_parse_805_token_sentence(model_file, capsys):
    # The top tree nests 806 levels deep, past Python's recursion limit
    # for any walker that recurses once per level.
    sentence = "Paul intends" + " to intend" * 400 + " to leave IBM"
    args = ["parse", "--grammar", "@demo/demo.grammar",
            "--wordlist", "@demo/demo.wordlist",
            "--model", str(model_file), "--n", "5", sentence]
    expected = _control_chain(401, "(VP (v leave) (NP (pn IBM)))")
    assert _nesting(expected) == 806
    assert main(args) == 0
    assert "\ntree\t%s\n" % expected in capsys.readouterr().out
    assert main(args + ["--format", "machine-readable"]) == 0
    [record] = json.loads(capsys.readouterr().out)
    assert len(record["tokens"]) == 805
    assert [analysis["tree"] for analysis in record["analyses"]] == [expected]


def test_acquire_summary(lexicon_file):
    lex = fp.load_lexicon(lexicon_file)
    assert lex.count("hear", "NP") == 9
    assert lex.count("see", "NP") == 7


def test_acquire_empty_corpus(tmp_path, model_file, capsys):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("")
    out = tmp_path / "empty.lexicon"
    code = main(["acquire", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--model", str(model_file),
                 "--corpus", str(corpus), "--out", str(out)])
    assert code == 0
    assert out.read_text() == ""
    assert len(fp.load_lexicon(out)) == 0
    assert "entries\t0" in capsys.readouterr().out


def test_acquire_cap_one(tmp_path, model_file):
    out = tmp_path / "capped.lexicon"
    code = main(["acquire", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--lemma-exceptions", "@demo/demo.lemma_exceptions",
                 "--model", str(model_file),
                 "--corpus", "@demo/acquisition.txt",
                 "--cap", "1", "--out", str(out)])
    assert code == 0
    lex = fp.load_lexicon(out)
    for lemma in {e.lemma for e in lex.entries()}:
        assert sum(e.count for e in lex.entries() if e.lemma == lemma) == 1


def test_acquire_on_the_2005_token_control_chain(tmp_path, model_file,
                                                capsys):
    corpus = tmp_path / "deep.txt"
    corpus.write_text("Paul intends" + " to intend" * 1000
                      + " to leave IBM\n")
    out = tmp_path / "deep.lexicon"
    try:
        code = main(["acquire", "--grammar", "@demo/demo.grammar",
                     "--wordlist", "@demo/demo.wordlist",
                     "--lemma-exceptions", "@demo/demo.lemma_exceptions",
                     "--model", str(model_file),
                     "--corpus", str(corpus), "--out", str(out)])
    except RecursionError:  # its traceback would be thousands of frames
        code = None
    assert code == 0, "acquisition recursed once per level"
    assert "parsed\t1\n" in capsys.readouterr().out
    lexicon = fp.load_lexicon(out)
    assert lexicon.count("intend", "VPINF") == 1000
    assert lexicon.count("leave", "NP") == 1


def test_eval_bracket_self_is_perfect(tmp_path, model_file, capsys):
    # evaluating gold-as-corpus against itself through the lexicalized
    # parser is not guaranteed perfect; instead check the report shape
    code = main(["eval-bracket", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--lemma-exceptions", "@demo/demo.lemma_exceptions",
                 "--model", str(model_file),
                 "--corpus", "@demo/ppsuite.txt",
                 "--treebank", "@demo/ppsuite_gold.treebank"])
    out = capsys.readouterr().out
    assert code == 0
    for field in ("sentences", "recall", "precision", "mean_crossings",
                  "zero_crossings_pct"):
        assert field in out


def test_eval_gr_alignment_mismatch_aborts(tmp_path, model_file, capsys):
    bad_gold = tmp_path / "short.grs"
    bad_gold.write_text("ncsubj(sleep,child,_)\n")
    code = main(["eval-gr", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--model", str(model_file),
                 "--corpus", "@demo/ppsuite.txt",
                 "--gold-gr", str(bad_gold)])
    assert code == 1
    assert "20 sentences" in capsys.readouterr().err


def test_eval_bracket_token_count_mismatch_exit_1(tmp_path, model_file,
                                                 capsys):
    corpus = tmp_path / "two.txt"
    corpus.write_text("the child sleeps\nthe child sees a dog\n")
    treebank = tmp_path / "two.treebank"
    treebank.write_text("(S (NP (det the) (n child)) (VP (v sleeps)))\n"
                        "(S (NP (det the) (n child)) (VP (v sees) "
                        "(NP (det a) (n big) (n dog))))\n")
    code = main(["eval-bracket", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--model", str(model_file), "--corpus", str(corpus),
                 "--treebank", str(treebank)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: sentence 1: token count mismatch: "
                            "test 5, gold 6\n")


def test_compare_reports_a_treebank_fault_before_the_t_tests(tmp_path,
                                                            model_file,
                                                            capsys):
    # One sentence is too few for a t-test, but the gold tree's token
    # count is the first fault found.
    corpus = tmp_path / "one.txt"
    corpus.write_text("the child sees a dog\n")
    treebank = tmp_path / "one.treebank"
    treebank.write_text("(S (NP (det the) (n child)) (VP (v sleeps)))\n")
    gold_gr = tmp_path / "one.grs"
    gold_gr.write_text("ncsubj(see,child,_)\n")
    code = main(["compare", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--model", str(model_file), "--lexicon", "@demo/demo.lexicon",
                 "--corpus", str(corpus), "--gold-gr", str(gold_gr),
                 "--treebank", str(treebank)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == ("error: sentence 0: token count mismatch: "
                            "test 5, gold 3\n")


def test_compare_reports_models_and_tests(model_file, lexicon_file, capsys):
    code = main(["compare", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--lemma-exceptions", "@demo/demo.lemma_exceptions",
                 "--model", str(model_file), "--lexicon", str(lexicon_file),
                 "--corpus", "@demo/ppsuite.txt",
                 "--gold-gr", "@demo/ppsuite_gold.grs",
                 "--treebank", "@demo/ppsuite_gold.treebank"])
    out = capsys.readouterr().out
    assert code == 0
    assert "baseline\t" in out and "lexicalized\t" in out
    for field in ("recall_t", "recall_df", "recall_p",
                  "precision_t", "precision_df", "precision_p"):
        assert field in out


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_compare_json_holds_no_infinity(tmp_path, model_file, capsys):
    # One sentence twice: the lexicon's precision gain is the same on
    # both, so the paired differences have no variance and t is infinite.
    sentence = "the meeting will hear a greeting from the senator\n"
    gold = "ncsubj(hear,meeting,_)\ndobj(hear,greeting,_)\n"
    corpus = tmp_path / "two.txt"
    corpus.write_text(sentence * 2)
    gold_gr = tmp_path / "two.grs"
    gold_gr.write_text(gold + "\n" + gold)
    argv = ["compare", "--grammar", "@demo/demo.grammar",
            "--wordlist", "@demo/demo.wordlist",
            "--lemma-exceptions", "@demo/demo.lemma_exceptions",
            "--model", str(model_file), "--lexicon", "@demo/demo.lexicon",
            "--corpus", str(corpus), "--gold-gr", str(gold_gr)]
    assert main(argv) == 0
    assert "precision_t\tinf\n" in capsys.readouterr().out
    assert main(argv + ["--format", "machine-readable"]) == 0
    payload = json.loads(capsys.readouterr().out,
                         parse_constant=_refuse_constant)
    assert payload["precision_t"] == "inf"
    assert payload["precision_p"] == 0.0


def test_compare_reports_one_sentence_without_t_tests(tmp_path, model_file,
                                                      capsys):
    # One sentence is too few for a t-test: compare prints its columns
    # and writes the statistics as undefined.
    corpus = tmp_path / "one.txt"
    corpus.write_text("the meeting will hear a greeting from the senator\n")
    gold_gr = tmp_path / "one.grs"
    gold_gr.write_text("ncsubj(hear,meeting,_)\ndobj(hear,greeting,_)\n")
    argv = ["compare", "--grammar", "@demo/demo.grammar",
            "--wordlist", "@demo/demo.wordlist",
            "--lemma-exceptions", "@demo/demo.lemma_exceptions",
            "--model", str(model_file), "--lexicon", "@demo/demo.lexicon",
            "--corpus", str(corpus), "--gold-gr", str(gold_gr)]
    stats = {"recall_t": "nan", "recall_df": 0, "recall_p": "nan",
             "precision_t": "nan", "precision_df": 0, "precision_p": "nan"}
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[:2] == ["sentences\t1",
                         "model\trecall\tprecision\tmean_returned"]
    assert lines[-6:] == ["%s\t%s" % item for item in stats.items()]
    assert main(argv + ["--format", "machine-readable"]) == 0
    payload = json.loads(capsys.readouterr().out,
                         parse_constant=_refuse_constant)
    assert payload["sentences"] == 1 and "bracket" not in payload
    assert {key: payload[key] for key in stats} == stats


def test_reports_byte_identical(tmp_path, model_file, lexicon_file):
    args = ["compare", "--grammar", "@demo/demo.grammar",
            "--wordlist", "@demo/demo.wordlist",
            "--lemma-exceptions", "@demo/demo.lemma_exceptions",
            "--model", str(model_file), "--lexicon", str(lexicon_file),
            "--corpus", "@demo/ppsuite.txt",
            "--gold-gr", "@demo/ppsuite_gold.grs",
            "--format", "machine-readable"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


BOM_RUNS = {
    "compare": {"--grammar": "demo.grammar", "--wordlist": "demo.wordlist",
                "--lemma-exceptions": "demo.lemma_exceptions",
                "--model": None, "--lexicon": "demo.lexicon",
                "--corpus": "ppsuite.txt", "--gold-gr": "ppsuite_gold.grs",
                "--treebank": "ppsuite_gold.treebank"},
    "parse": {"--grammar": "demo.grammar", "--model": None,
              "--corpus": "acquisition.txt"},
    "train": {"--grammar": "demo.grammar",
              "--treebank": "adversarial.treebank"},
}


@pytest.mark.parametrize("command, option", [
    *(("compare", option) for option in BOM_RUNS["compare"]),
    ("parse", "--corpus"), ("train", "--treebank")])
def test_byte_order_mark_is_ignored(tmp_path, model_file, command, option):
    # every input file may start with a UTF-8 byte-order mark
    files = {name: fp.demo_path(value) if value else model_file
             for name, value in BOM_RUNS[command].items()}
    marked = tmp_path / f"marked-{files[option].name}"
    marked.write_bytes(b"\xef\xbb\xbf" + files[option].read_bytes())
    outputs = []
    for path in (files[option], marked):
        argv = [command]
        for name, value in {**files, option: path}.items():
            argv += [name, str(value)]
        out = tmp_path / f"{len(outputs)}.out"
        argv += ["--model" if command == "train" else "--out", str(out)]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


MALFORMED = [
    # option, malformed text, start of the message after the path
    pytest.param("--model", None, "line 2: ", id="--model"),  # second row cut short
    pytest.param("--model", "0\tdet\tshift:4\t7\t1.0\n0\tn\tshift:5\t-1\t0.0\n",
                 "line 2: negative count\n", id="--model-negative-count"),
    pytest.param("--lexicon", "hear\tNP\t9\t0.9\nhear\tPP\tone\t0.1\n",
                 "line 2: ", id="--lexicon"),
    pytest.param("--lexicon", "see\tNP\t0\t0.0\n",
                 "line 1: lemma 'see' has zero total count\n",
                 id="--lexicon-zero-total"),
    pytest.param("--wordlist", "the\tdet\nchild\n", "line 2: ", id="--wordlist"),
    pytest.param("--wordlist", "the\tdet\ndog\t,\n", "line 2: no tags for 'dog'\n",
                 id="--wordlist-no-tags"),
    pytest.param("--lemma-exceptions", "meeting\tn\tmeeting\nMeeting\tn\tmeet\n",
                 "line 2: ", id="--lemma-exceptions"),
    pytest.param("--gold-gr", "ncsubj(sleep,child,_)\nbogus(x\n", "line 2: ",
                 id="--gold-gr"),
    # grammar faults that only Kleene expansion finds
    pytest.param("--grammar", "terminals: a b\nstart: S\nS -> a\nS -> X\n"
                 "X -> S(head) Y?\nY -> b\n",
                 "grammar has a derivation cycle: S -> X -> S\n", id="--grammar-cycle"),
    pytest.param("--grammar", "terminals: a\nstart: X\nX -> a? a(head)\n"
                 "X -> a(head) a?\n", "line 4: duplicate rule X -> a a\n",
                 id="--grammar-duplicate"),
    pytest.param("--grammar", "terminals: v n\nstart: VP\n"
                 "VP -> v(head) n : VSUBCAT=NP, VSUBCAT=BOGUS\n",
                 "line 3: duplicate feature 'VSUBCAT'\n",
                 id="--grammar-duplicate-feature"),
]


@pytest.mark.parametrize("option, text, message", MALFORMED)
def test_malformed_input_file_exit_2(tmp_path, model_file, lexicon_file,
                                     option, text, message, capsys):
    files = {"--grammar": "@demo/demo.grammar",
             "--model": str(model_file), "--lexicon": str(lexicon_file),
             "--wordlist": "@demo/demo.wordlist",
             "--lemma-exceptions": "@demo/demo.lemma_exceptions",
             "--gold-gr": "@demo/ppsuite_gold.grs"}
    bad = tmp_path / "bad.input"
    if text is None:
        lines = model_file.read_text().splitlines()
        text = "\n".join([lines[0], lines[1].rsplit("\t", 1)[0]]) + "\n"
    bad.write_text(text)
    files[option] = str(bad)
    argv = ["eval-gr", "--corpus", "@demo/ppsuite.txt"]
    for name, value in files.items():
        argv += [name, value]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: {message}")
    assert captured.err.count("\n") == 1


def test_wordlist_tag_outside_grammar_exit_2(tmp_path, model_file, capsys):
    wordlist = tmp_path / "odd.wordlist"
    wordlist.write_text("weird\tzz\n")
    code = main(["parse", "--grammar", "@demo/demo.grammar",
                 "--model", str(model_file), "--wordlist", str(wordlist),
                 "the child sleeps"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: {wordlist}: wordlist tag 'zz' is not a "
                            f"grammar terminal\n")


def test_grammar_without_unknown_word_tags_exit_2(tmp_path, capsys):
    grammar = tmp_path / "tiny.grammar"
    grammar.write_text("terminals: a\nstart: S\nS -> a\n")
    treebank = tmp_path / "tiny.treebank"
    treebank.write_text("(S (a x))\n")
    model = tmp_path / "tiny.model"
    assert main(["train", "--grammar", str(grammar), "--treebank",
                 str(treebank), "--model", str(model)]) == 0
    capsys.readouterr()
    code = main(["parse", "--grammar", str(grammar), "--model", str(model),
                 "x"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: {grammar}: unknown-word tag 'n' is not "
                            f"a grammar terminal\n")


def test_unknown_demo_file_exit_2(capsys):
    code = main(["build-table", "--grammar", "@demo/absent.grammar"])
    assert code == 2
    assert "absent.grammar" in capsys.readouterr().err


# a file of the package outside data/, and data/ itself, are no demo files
@pytest.mark.parametrize("name", ["../cli.py", ""])
def test_demo_file_outside_data_exit_2(capsys, name):
    code = main(["build-table", "--grammar", f"@demo/{name}"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        f"error: no demo file {name!r}; available: acquisition.txt, ")


class RecordingNamespace(argparse.Namespace):
    """Parsed arguments that remember which of them were read."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.__dict__["read"] = set()

    def __getattribute__(self, name):
        if name in object.__getattribute__(self, "__dict__"):
            object.__getattribute__(self, "read").add(name)
        return object.__getattribute__(self, name)


DEMO = ["--grammar", "@demo/demo.grammar", "--wordlist", "@demo/demo.wordlist",
        "--lemma-exceptions", "@demo/demo.lemma_exceptions"]
COMMANDS = {
    "build-table": ["--grammar", "@demo/demo.grammar", "--out", "{out}"],
    "train": ["--grammar", "@demo/demo.grammar",
              "--treebank", "@demo/adversarial.treebank", "--model", "{out}"],
    "parse": DEMO + ["--model", "{model}", "--lexicon", "{lexicon}",
                     "--format", "machine-readable", "--out", "{out}",
                     "the child sees a dog in the park"],
    "acquire": DEMO + ["--model", "{model}", "--corpus", "@demo/ppsuite.txt",
                       "--out", "{out}"],
    "eval-bracket": DEMO + ["--model", "{model}", "--corpus",
                            "@demo/ppsuite.txt", "--treebank",
                            "@demo/ppsuite_gold.treebank", "--out", "{out}"],
    "eval-gr": DEMO + ["--model", "{model}", "--corpus", "@demo/ppsuite.txt",
                       "--gold-gr", "@demo/ppsuite_gold.grs", "--out", "{out}"],
    "compare": DEMO + ["--model", "{model}", "--lexicon", "{lexicon}",
                       "--corpus", "@demo/ppsuite.txt",
                       "--gold-gr", "@demo/ppsuite_gold.grs",
                       "--treebank", "@demo/ppsuite_gold.treebank",
                       "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_reads_every_option(tmp_path, model_file, lexicon_file,
                                    command):
    out = tmp_path / "output"
    argv = [command] + [arg.format(model=model_file, lexicon=lexicon_file,
                                   out=out) for arg in COMMANDS[command]]
    parsed = build_arg_parser().parse_args(argv)
    args = RecordingNamespace(**vars(parsed))
    assert parsed.func(args) == 0
    assert out.exists()
    assert set(vars(parsed)) - {"command", "func"} - args.read == set()


@pytest.mark.parametrize("value", ["-0.1", "nan", "inf"])
def test_acquire_rejects_non_finite_min_relfreq_exit_2(model_file, tmp_path,
                                                      capsys, value):
    out = tmp_path / "acq.lexicon"
    with pytest.raises(SystemExit) as exc:
        main(["acquire", "--grammar", "@demo/demo.grammar",
              "--model", str(model_file), "--corpus", "@demo/acquisition.txt",
              "--min-relfreq", value, "--out", str(out)])
    assert exc.value.code == 2
    assert "--min-relfreq" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", ["--cap", "--min-count"])
def test_acquire_rejects_negative_counts_exit_2(model_file, tmp_path, capsys,
                                                option):
    out = tmp_path / "acq.lexicon"
    with pytest.raises(SystemExit) as exc:
        main(["acquire", "--grammar", "@demo/demo.grammar",
              "--model", str(model_file), "--corpus", "@demo/acquisition.txt",
              option, "-1", "--out", str(out)])
    assert exc.value.code == 2
    assert f"argument {option}: must be non-negative" in \
        capsys.readouterr().err
    assert not out.exists()


def test_acquire_min_relfreq_drops_rare_frames(tmp_path, model_file, capsys):
    out = tmp_path / "acq.lexicon"
    code = main(["acquire", "--grammar", "@demo/demo.grammar",
                 "--wordlist", "@demo/demo.wordlist",
                 "--lemma-exceptions", "@demo/demo.lemma_exceptions",
                 "--model", str(model_file),
                 "--corpus", "@demo/acquisition.txt",
                 "--min-relfreq", "0.2", "--out", str(out)])
    assert code == 0
    assert "entries\t10\n" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert len(lines) == 10
    assert "hear\tNP\t9\t1.0000000000" in lines
    assert not any(line.startswith("hear\tPP\t") for line in lines)


def test_acquire_without_out_exits_2_before_reading_corpus(model_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["acquire", "--grammar", "@demo/demo.grammar",
              "--model", str(model_file), "--corpus", "/nowhere/corpus.txt"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--out" in err
    assert "corpus.txt" not in err


@pytest.mark.parametrize("argv", [
    ["acquire", "--grammar", "@demo/demo.grammar", "--model", "{model}",
     "--corpus", "@demo/ppsuite.txt", "--out", "@demo/demo.lexicon"],
    ["train", "--grammar", "@demo/demo.grammar",
     "--treebank", "@demo/train.treebank", "--model", "@demo/demo.lexicon"],
], ids=["acquire --out", "train --model"])
def test_output_path_is_not_a_demo_file(tmp_path, monkeypatch, model_file,
                                        argv, capsys):
    shipped = fp.demo_path("demo.lexicon").read_bytes()
    monkeypatch.chdir(tmp_path)
    code = main([arg.format(model=model_file) for arg in argv])
    assert code == 2
    assert "@demo/demo.lexicon" in capsys.readouterr().err
    assert fp.demo_path("demo.lexicon").read_bytes() == shipped


OUTPUTS = {
    "acquire --out": ["acquire", "--grammar", "@demo/demo.grammar",
                      "--model", "{model}", "--corpus", "{input}",
                      "--out", "{out}"],
    "train --model": ["train", "--grammar", "@demo/demo.grammar",
                      "--treebank", "{input}", "--model", "{out}"],
    "compare --out": ["compare", "--grammar", "@demo/demo.grammar",
                      "--model", "{model}", "--lexicon", "{lexicon}",
                      "--corpus", "{input}",
                      "--gold-gr", "@demo/ppsuite_gold.grs", "--out", "{out}"],
}


@pytest.mark.parametrize("command", sorted(OUTPUTS))
def test_unwritable_output_exits_2_before_any_work(tmp_path, model_file,
                                                   lexicon_file, command,
                                                   capsys):
    def run(out):
        # the input is missing too: it would be reported if read first
        code = main([arg.format(model=model_file, lexicon=lexicon_file,
                                input="/nowhere/input", out=out)
                     for arg in OUTPUTS[command]])
        return code, capsys.readouterr()

    unwritable = tmp_path / "nodir" / "output"
    code, captured = run(unwritable)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {unwritable}: No such file or directory\n"
    # a writable path is checked without being left behind or changed
    existing = tmp_path / "existing"
    existing.write_bytes(b"kept\n")
    for out in (tmp_path / "fresh", existing):
        code, captured = run(out)
        assert code == 2
        assert captured.err == "error: file not found: /nowhere/input\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing"]
    assert existing.read_bytes() == b"kept\n"


def test_build_table_rejects_unproductive_nonterminal(tmp_path, capsys):
    grammar = tmp_path / "dead.grammar"
    grammar.write_text("terminals: a b c\nstart: S\nS -> a\nS -> C B(head)\n"
                       "C -> c\nB -> B(head) b\n")
    assert main(["build-table", "--grammar", str(grammar)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {grammar}: line 6: non-terminal 'B' "
                            f"derives no terminal string\n")
