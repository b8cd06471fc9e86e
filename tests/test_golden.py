"""CLI outputs pinned byte for byte.

Every command below runs in-process through ``cli.main``, in order, in
one fresh working directory: the ``train`` and ``acquire`` commands at
the top write the model and lexicon the later ones read, under
relative names, so no temporary path reaches an output.  The treebank
and grammar files of the error repros, an empty corpus and a corpus
with gold whose second sentence is out of coverage are written there
the same way, and so is a one-sentence corpus with its gold.
The expected stdout (``<name>.out``), stderr (``<name>.err``), exit
status (``status.tsv``) and written files are under ``tests/golden/``.
After a deliberate output change, rewrite them with
``PYTHONPATH=src python tests/golden/regenerate.py`` and name each
changed file and the reason in CHANGES.md.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from frameparse.cli import main
from frameparse.demofiles import demo_path

GOLDEN = Path(__file__).resolve().parent / "golden"

PIPELINE = ["--grammar", "@demo/demo.grammar",
            "--wordlist", "@demo/demo.wordlist",
            "--lemma-exceptions", "@demo/demo.lemma_exceptions",
            "--model", "adv.model"]
SUITE = ["--corpus", "@demo/ppsuite.txt"]
LADDER = ["the child sees a dog" + " in the park" * k for k in range(7)]
# Three nested verbs: adding the acquired lexicon's frame shares of the
# second sentence in any order but preorder changes the last bit.
NESTED = ["Paul intends to intend to leave IBM",
          "Paul intends to see to hear a story"]
# Larger forests: k = 12 packs 1.3e6 derivations.
LONG = ["the child sees a dog" + " in the park" * k for k in (9, 12)]
INPUTS = {"suite": SUITE, "ladder": LADDER + NESTED, "long": LONG}
LEXICONS = {"baseline": [], "acquired": ["--lexicon", "acq.lexicon"],
            "demo": ["--lexicon", "@demo/demo.lexicon"]}
FORMATS = {"text": [], "json": ["--format", "machine-readable"]}
# One treebank file per fault that stops reading (exit 2), and one
# whose underivable trees are skipped with a warning.
TREEBANKS = {
    "junk-before-tree": "abc (S (NP (pn Paul)) (VP (v sleeps)))\n",
    "missing-label": "(S (NP (pn Paul)) ())\n",
    "leaf-two-words": "(S (NP pn Paul) (VP (v sleeps)))\n",
    "word-before-child": "(S (NP Paul (n x)) (VP (v sleeps)))\n",
    "empty-node": "(S (NP) (VP (v sleeps)))\n",
    "unbalanced-close": "(S (NP (pn Paul)) (VP (v sleeps))))\n",
    "unbalanced-open": "(S (NP (pn Paul))\n   (VP (v sleeps))\n",
    "text-outside": "(S (NP (pn Paul)) (VP (v sleeps)))\nsleeps\n",
    "underivable": "(S (NP (pn Paul)) (VP (v sleeps)))\n"
                   "(S (VP (v sleeps)) (NP (pn Paul)))\n"
                   "(S (NP Paul) (VP (v sleeps)))\n"
                   "(NP (pn Paul))\n",
}
# One grammar file per grammar fault that ``build-table`` reports (exit 2).
AB = "terminals: a b\nstart: S\n"
GRAMMARS = {
    "duplicate-feature": "terminals: v n\nstart: VP\n"
                         "VP -> v(head) n : VSUBCAT=NP, VSUBCAT=BOGUS\n",
    "cycle": "terminals: a b\nstart: S\n"
             "S -> T(head) a?\nT -> S(head) b?\nT -> b\n",
    # a typo for "v" that once left every verb without a frame
    "verb-not-terminal": demo_path("demo.grammar").read_text(
        encoding="utf-8").replace("verbs: v\n", "verbs: vb\n"),
    "duplicate-terminals": "terminals: a b\nstart: S\nterminals: a\n"
                           "S -> a b(head)\n",
    "empty-terminals": "terminals:\nstart: S\nS -> a\n",
    "start-without-rule": "terminals: a b\nstart: T\nS -> a b(head)\n",
    "terminal-mother": AB + "S -> a\na -> b\n",
    "arrow-after-bar": AB + "S | -> a b(head)\n",
    "no-daughters": AB + "S -> a\nS ->\n",
    "marked-head": AB + "S -> a b*(head)\n",
    "feature-without-value": AB + "S -> a b(head) : VSUBCAT\n",
    "feature-empty-value": AB + "S -> a b(head) : VSUBCAT=\n",
    "bar-without-gr": AB + "S -> a b(head) | ncsubj(_, 2, 1)\n",
    "template-unparsable": AB + "S -> a b(head) | gr: ncsubj\n",
    "template-unknown-relation": AB + "S -> a b(head) | gr: bogus(_, 2, 1)\n",
    "template-slot-count": AB + "S -> a b(head) | gr: ncsubj(_, 2)\n",
    "template-slot-unparsable": AB + "S -> a b(head) | gr: ncsubj(_, 2, x)\n",
    "template-daughter-range": AB + "S -> a b(head) | gr: ncsubj(_, 2, 3)\n",
    "template-control-outside-dependent":
        AB + "S -> a b(head) | gr: ncsubj(_, control, 1)\n",
    "template-head-slot": AB + "S -> a b(head) | gr: ncsubj(_, _, 1)\n",
    "template-dependent-slot": AB + "S -> a b(head) | gr: ncsubj(_, 2, self)\n",
    "template-type-slot-absent": AB + 'S -> a b(head) | gr: dobj("x", 2, 1)\n',
    "template-initial-slot-absent":
        AB + 'S -> a b(head) | gr: iobj(_, 2, 1, "obj")\n',
    "template-type-slot": AB + "S -> a b(head) | gr: xcomp(self, 2, 1)\n",
    "template-initial-slot": AB + "S -> a b(head) | gr: ncsubj(_, 2, 1, 2)\n",
    # only Kleene expansion meets the second rule's template-less twin
    "kleene-conflict": AB + "S -> a(head) b? | gr: dobj(_, 1, 2)\n"
                            "S -> a(head) b\n",
    # 2^40 variants: refused before expansion, which would never end
    "kleene-too-many": "terminals: a " + " ".join(f"t{k}" for k in range(40))
                       + "\nstart: S\nS -> "
                       + " ".join(f"t{k}?" for k in range(40)) + " a(head)\n",
}
# Two sentences, the second out of coverage, with gold for both: the
# reports count its gold and warn.
OUT_OF_COVERAGE = {
    "ooc.txt": "the child sees a dog in the park\nthe in the\n",
    "ooc.treebank": "(S (NP (det the) (n child)) (VP (v sees) (NP (NP (det a) "
                    "(n dog)) (PP (prep in) (NP (det the) (n park))))))\n"
                    "(NP (det the) (PP (prep in) (NP (det the))))\n",
    "ooc.grs": "ncsubj(see,child,_)\ndobj(see,dog,_)\n\nncsubj(in,the,_)\n",
    # the same gold with a comment line inside the first block, which
    # once split it in two
    "ooc-commented.grs": "ncsubj(see,child,_)\n# the PP attaches to the noun\n"
                         "dobj(see,dog,_)\n\nncsubj(in,the,_)\n",
}
OOC = ["--corpus", "ooc.txt"]
# One sentence with its gold: compare prints its columns, and no t-test
# can be run.
ONE_SENTENCE = {
    "one.txt": "the meeting will hear a greeting from the senator\n",
    "one.treebank": "(S (NP (det the) (n meeting)) (VP (aux will) (VP (v hear) "
                    "(NP (NP (det a) (n greeting)) (PP (prep from) "
                    "(NP (det the) (n senator)))))))\n",
    "one.grs": "ncsubj(hear,meeting,_)\ndobj(hear,greeting,_)\n",
}
# A comma must not put a sentence out of coverage, nor a non-ASCII
# letter split a word.
TOKENIZING = ["the child sees a dog, in the park", "the naïve child sleeps"]
EMPTY = ["--corpus", "empty.txt"]


def _commands():
    yield "train-train", ["train", "--grammar", "@demo/demo.grammar",
                          "--treebank", "@demo/train.treebank",
                          "--model", "train.model"]
    yield "train-adversarial", ["train", "--grammar", "@demo/demo.grammar",
                                "--treebank", "@demo/adversarial.treebank",
                                "--model", "adv.model"]
    for name in TREEBANKS:
        yield f"train-{name}", ["train", "--grammar", "@demo/demo.grammar",
                                "--treebank", f"{name}.treebank",
                                "--model", f"{name}.model"]
    yield "build-table", ["build-table", "--grammar", "@demo/demo.grammar"]
    for name in GRAMMARS:
        yield f"build-table-{name}", ["build-table",
                                      "--grammar", f"{name}.grammar"]
    yield "acquire", ["acquire", *PIPELINE, "--corpus", "@demo/acquisition.txt",
                      "--out", "acq.lexicon"]
    # An unwritable output exits 2 before the corpus is read.
    yield "acquire-no-dir", ["acquire", *PIPELINE,
                             "--corpus", "@demo/acquisition.txt",
                             "--out", "nodir/x.lexicon"]
    yield "parse-missing-corpus", ["parse", *PIPELINE,
                                   "--corpus", "missing.txt"]
    yield "parse-tokenizing", ["parse", *PIPELINE, *TOKENIZING]
    # An empty corpus: parse prints nothing, the reports exit 1.
    yield "empty-parse", ["parse", *PIPELINE, *EMPTY]
    yield "empty-eval-bracket", ["eval-bracket", *PIPELINE, *EMPTY,
                                 "--treebank", "empty.txt"]
    yield "empty-eval-gr", ["eval-gr", *PIPELINE, *EMPTY,
                            "--gold-gr", "empty.txt"]
    yield "empty-compare", ["compare", *PIPELINE, *LEXICONS["acquired"],
                            *EMPTY, "--gold-gr", "empty.txt"]
    yield "ooc-eval-bracket", ["eval-bracket", *PIPELINE, *OOC,
                               "--treebank", "ooc.treebank"]
    yield "ooc-eval-gr", ["eval-gr", *PIPELINE, *OOC, "--gold-gr", "ooc.grs"]
    yield "eval-gr-commented-gold", ["eval-gr", *PIPELINE, *OOC,
                                     "--gold-gr", "ooc-commented.grs"]
    yield "ooc-compare", ["compare", *PIPELINE, *LEXICONS["acquired"], *OOC,
                          "--gold-gr", "ooc.grs", "--treebank", "ooc.treebank"]
    for fmt, fmt_args in FORMATS.items():
        for n in (1, 5):
            for lexicon, lexicon_args in LEXICONS.items():
                for source, source_args in INPUTS.items():
                    yield (f"parse-{source}-{lexicon}-n{n}-{fmt}",
                           ["parse", *PIPELINE, *lexicon_args, *fmt_args,
                            "--n", str(n), *source_args])
        for lexicon in ("baseline", "acquired"):
            yield (f"eval-bracket-{lexicon}-{fmt}",
                   ["eval-bracket", *PIPELINE, *LEXICONS[lexicon], *fmt_args,
                    *SUITE, "--treebank", "@demo/ppsuite_gold.treebank"])
            yield (f"eval-gr-{lexicon}-{fmt}",
                   ["eval-gr", *PIPELINE, *LEXICONS[lexicon], *fmt_args,
                    *SUITE, "--gold-gr", "@demo/ppsuite_gold.grs"])
        compare = ["compare", *PIPELINE, *LEXICONS["acquired"], *fmt_args,
                   *SUITE, "--gold-gr", "@demo/ppsuite_gold.grs"]
        yield f"compare-{fmt}", compare
        yield (f"compare-treebank-{fmt}",
               compare + ["--treebank", "@demo/ppsuite_gold.treebank"])
        yield (f"one-compare-{fmt}",
               ["compare", *PIPELINE, *LEXICONS["acquired"], *fmt_args,
                "--corpus", "one.txt", "--gold-gr", "one.grs",
                "--treebank", "one.treebank"])


COMMANDS = dict(_commands())
WRITTEN = ("train.model", "adv.model", "acq.lexicon", "underivable.model")


def run_commands(workdir: Path) -> dict[str, str]:
    """Run every command in ``workdir``; the golden files' contents by
    file name."""
    outputs = {}
    status = []
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in TREEBANKS.items():
            Path(f"{name}.treebank").write_text(text, encoding="utf-8")
        for name, text in GRAMMARS.items():
            Path(f"{name}.grammar").write_text(text, encoding="utf-8")
        Path("empty.txt").write_text("", encoding="utf-8")
        for name, text in {**OUT_OF_COVERAGE, **ONE_SENTENCE}.items():
            Path(name).write_text(text, encoding="utf-8")
        for name, argv in COMMANDS.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            outputs[name + ".out"] = stdout.getvalue()
            outputs[name + ".err"] = stderr.getvalue()
            status.append(f"{name}\t{code}\n")
        for name in WRITTEN:
            outputs[name] = (workdir / name).read_text(encoding="utf-8")
    finally:
        os.chdir(previous)
    outputs["status.tsv"] = "".join(status)
    return outputs


def _expected(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_commands(tmp_path_factory.mktemp("golden"))


def test_golden_files_are_the_outputs(outputs):
    # differential.tsv holds the digests of tests/test_differential.py
    stored = {path.name for path in GOLDEN.iterdir()
              if path.name not in ("regenerate.py", "differential.tsv")}
    assert stored == set(outputs)
    assert outputs["status.tsv"] == _expected("status.tsv")


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_output(outputs, name):
    assert outputs[name + ".out"] == _expected(name + ".out")
    assert outputs[name + ".err"] == _expected(name + ".err")


def test_comment_line_separates_no_gold_blocks(outputs):
    status = dict(line.split("\t") for line in
                  outputs["status.tsv"].splitlines())
    assert status["eval-gr-commented-gold"] == status["ooc-eval-gr"]
    for suffix in (".out", ".err"):
        assert outputs["eval-gr-commented-gold" + suffix] == \
            outputs["ooc-eval-gr" + suffix]


def test_compare_columns_are_the_eval_reports(outputs):
    # eval-gr and eval-bracket print compare's lexicalized column, or its
    # baseline column without --lexicon
    compare = json.loads(outputs["compare-treebank-json.out"])
    for column, lexicon in (("lexicalized", "acquired"),
                            ("baseline", "baseline")):
        eval_gr = json.loads(outputs[f"eval-gr-{lexicon}-json.out"])
        relations = eval_gr.pop("relations")
        assert compare["gr"][column] == eval_gr
        assert compare["gr"]["relations"][column] == relations
        assert compare["bracket"][column] == json.loads(
            outputs[f"eval-bracket-{lexicon}-json.out"])


@pytest.mark.parametrize("name", WRITTEN)
def test_written_file(outputs, name):
    assert outputs[name] == _expected(name)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("name", sorted(path.name for path in
                                        GOLDEN.glob("*-json.out")))
def test_json_golden_is_strict_json(name):
    # RFC 8259 has no Infinity or NaN, which json.loads would accept
    json.loads(_expected(name), parse_constant=_refuse_constant)
