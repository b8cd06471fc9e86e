"""CLI outputs pinned byte for byte.

Every command below runs in-process through ``cli.main``, in order, in
one fresh working directory: the ``train`` and ``acquire`` commands at
the top write the model and lexicon the later ones read, under
relative names, so no temporary path reaches an output.  The expected
stdout (``<name>.out``), stderr (``<name>.err``), exit status
(``status.tsv``) and written files are under ``tests/golden/``.  After
a deliberate output change, rewrite them with
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
INPUTS = {"suite": SUITE, "ladder": LADDER + NESTED}
LEXICONS = {"baseline": [], "acquired": ["--lexicon", "acq.lexicon"],
            "demo": ["--lexicon", "@demo/demo.lexicon"]}
FORMATS = {"text": [], "json": ["--format", "machine-readable"]}


def _commands():
    yield "train-train", ["train", "--grammar", "@demo/demo.grammar",
                          "--treebank", "@demo/train.treebank",
                          "--model", "train.model"]
    yield "train-adversarial", ["train", "--grammar", "@demo/demo.grammar",
                                "--treebank", "@demo/adversarial.treebank",
                                "--model", "adv.model"]
    yield "acquire", ["acquire", *PIPELINE, "--corpus", "@demo/acquisition.txt",
                      "--out", "acq.lexicon"]
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
WRITTEN = ("train.model", "adv.model", "acq.lexicon")


def run_commands(workdir: Path) -> dict[str, str]:
    """Run every command in ``workdir``; the golden files' contents by
    file name."""
    outputs = {}
    status = []
    previous = os.getcwd()
    os.chdir(workdir)
    try:
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
