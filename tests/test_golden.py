"""CLI outputs pinned byte for byte.

Every command below runs in-process through ``cli.main``, in order, in
one fresh working directory: the ``train`` and ``acquire`` commands at
the top write the model and lexicon the later ones read, under
relative names, so no temporary path reaches an output.  The treebank
and grammar files of the error repros and an empty corpus are written
there the same way.
The expected stdout (``<name>.out``), stderr (``<name>.err``), exit
status (``status.tsv``) and written files are under ``tests/golden/``.
After a deliberate output change, rewrite them with
``PYTHONPATH=src python tests/golden/regenerate.py`` and name each
changed file and the reason in CHANGES.md.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from frameparse.cli import main

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
GRAMMARS = {
    "duplicate-feature": "terminals: v n\nstart: VP\n"
                         "VP -> v(head) n : VSUBCAT=NP, VSUBCAT=BOGUS\n",
    "cycle": "terminals: a b\nstart: S\n"
             "S -> T(head) a?\nT -> S(head) b?\nT -> b\n",
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
    stored = {path.name for path in GOLDEN.iterdir()
              if path.name != "regenerate.py"}
    assert stored == set(outputs)
    assert outputs["status.tsv"] == _expected("status.tsv")


@pytest.mark.parametrize("name", list(COMMANDS))
def test_command_output(outputs, name):
    assert outputs[name + ".out"] == _expected(name + ".out")
    assert outputs[name + ".err"] == _expected(name + ".err")


@pytest.mark.parametrize("name", WRITTEN)
def test_written_file(outputs, name):
    assert outputs[name] == _expected(name)
