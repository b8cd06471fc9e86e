"""Paths and the pipeline set-up shared by the benchmark and its child
processes.  Imports only the standard library until a function asks for
frameparse, so a child's start-up time is the program's own."""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
ORACLES = ROOT / "tests" / "oracles.py"


def missing_sources():
    """Files of the checkout the benchmark needs and cannot find."""
    return [str(path.relative_to(ROOT))
            for path in (SRC / "frameparse" / "__init__.py", ORACLES)
            if not path.is_file()]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def build_pipeline(model_path, lexicon_path):
    """The in-process workloads' set-up: load every input file and build
    the table, through the names a library user would call."""
    import frameparse as fp

    grammar = fp.load_grammar(fp.demo_path("demo.grammar"))
    table = fp.build_table(fp.normalize_kleene(grammar))
    model = fp.load_model(model_path, table)
    lexicon = fp.load_lexicon(lexicon_path)
    wordlist = fp.load_wordlist(fp.demo_path("demo.wordlist"))
    lemmatizer = fp.Lemmatizer(fp.load_lemma_exceptions(
        fp.demo_path("demo.lemma_exceptions")))
    return fp.ParserPipeline(grammar, table=table, model=model,
                             wordlist=wordlist, lemmatizer=lemmatizer,
                             lexicon=lexicon)
