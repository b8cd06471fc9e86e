"""Subcategorisation acquisition from a raw corpus.

Each corpus sentence is parsed with the baseline (purely structural)
model; the verb frames of the top-ranked analysis are recorded per
lemma, in corpus order, keeping only the first ``cap`` cases per verb.
Frames with enough evidence are then hypothesized into lexicon entries,
with relative frequencies renormalised over the surviving entries.

Observations are deterministic in corpus order; parsing sentences
concurrently is fine as long as appends stay serialized per lemma,
since the cap semantics depend on that order.
"""

from __future__ import annotations

import math
from typing import Iterable

from .lexicon import SubcatEntry, SubcatLexicon
from .rerank import verb_frames


class ObservationStore:
    """Per-lemma frame observations, capped and in corpus order."""

    __slots__ = ("cap", "frames", "parsed_sentences", "skipped_sentences")

    def __init__(self, cap: int):
        self.cap = cap
        self.frames: dict[str, list[str]] = {}
        self.parsed_sentences = 0
        self.skipped_sentences = 0

    def add(self, lemma: str, frame: str) -> bool:
        observed = self.frames.setdefault(lemma, [])
        if len(observed) >= self.cap:
            return False
        observed.append(frame)
        return True

    def total_observations(self) -> int:
        return sum(len(v) for v in self.frames.values())


def observe_corpus(sentences: Iterable[str], pipeline, cap: int = 1000
                   ) -> ObservationStore:
    """Run the acquisition pass over raw sentences.

    ``pipeline`` is a :class:`frameparse.pipeline.ParserPipeline`; the
    structural top parse is used regardless of any attached lexicon.
    Out-of-coverage sentences are skipped and counted.
    """
    if cap < 0:
        raise ValueError("cap must be non-negative")
    store = ObservationStore(cap=cap)
    for sentence in sentences:
        result = pipeline.analyze(sentence, n=1, lexicalized=False)
        if not result.analyses:
            store.skipped_sentences += 1
            continue
        store.parsed_sentences += 1
        top = result.analyses[0]
        for instance in verb_frames(top.derivation, pipeline.grammar,
                                    result.tokens):
            store.add(instance.lemma, instance.frame)
    return store


def hypothesize_entries(store: ObservationStore, min_count: int = 1,
                        min_relfreq: float = 0.0) -> SubcatLexicon:
    """Threshold observed frames into lexicon entries.

    A frame survives when its raw count is at least ``min_count`` and
    its raw relative frequency at least ``min_relfreq``; surviving
    relative frequencies are renormalised so each lemma's entries sum
    to one.
    """
    if min_count < 0 or not 0 <= min_relfreq < math.inf:
        raise ValueError("thresholds must be finite and non-negative")
    entries = []
    for lemma in sorted(store.frames):
        observed = store.frames[lemma]
        if not observed:
            continue
        counts: dict[str, int] = {}
        for frame in observed:
            counts[frame] = counts.get(frame, 0) + 1
        total = len(observed)
        survivors = {frame: count for frame, count in counts.items()
                     if count >= min_count and count / total >= min_relfreq}
        surviving_total = sum(survivors.values())
        for frame in sorted(survivors):
            count = survivors[frame]
            entries.append(SubcatEntry(lemma, frame, count,
                                       count / surviving_total))
    return SubcatLexicon(entries)
