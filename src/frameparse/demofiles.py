"""Access to the shipped demo data files."""

from __future__ import annotations

from pathlib import Path

DEMO_FILES = (
    "demo.grammar",
    "demo.wordlist",
    "demo.lemma_exceptions",
    "demo.lexicon",
    "train.treebank",
    "adversarial.treebank",
    "ppsuite.txt",
    "ppsuite_gold.treebank",
    "ppsuite_gold.grs",
    "acquisition.txt",
)


def demo_path(name: str) -> Path:
    """Filesystem path of a shipped demo file.

    The CLI accepts ``@demo/<name>`` in any path argument as shorthand
    for these.  The files sit next to this module, so the package must be
    installed or run from a directory, not imported from a zip archive.
    """
    if name not in DEMO_FILES:
        raise FileNotFoundError(
            f"no demo file {name!r}; available: {', '.join(DEMO_FILES)}")
    return Path(__file__).parent / "data" / name
