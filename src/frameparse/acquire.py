"""Subcategorisation acquisition from a raw corpus.

Each corpus sentence is parsed; the verb frames of its top analysis
under the baseline (purely structural) model are recorded per lemma, in
corpus order, keeping only the first ``cap`` cases per verb.  The frames
are read off the rule applications of that analysis, as
:func:`~frameparse.actions.top_applications` lists them.  A parsed
sentence is ranked only if one of its verb tokens (a token whose tag
heads a frame-assigning rule) has a lemma that is not yet full: the
frames of any other sentence would all be dropped by the cap.  Frames
with enough evidence are then hypothesized into lexicon entries, with
relative frequencies renormalised over the surviving entries.

Observations are deterministic in corpus order.  Tagging and parsing
sentences concurrently is fine, but whether a sentence is ranked reads
the store, so that decision and the appends must be made in corpus
order, since the cap semantics depend on that order.
"""

from __future__ import annotations

import math
from typing import Iterable

from .actions import top_applications
from .lexicon import SubcatEntry, SubcatLexicon
from .rerank import verb_frames


class ObservationStore:
    """Per-lemma frame observations, capped and in corpus order."""

    __slots__ = ("cap", "frames", "parsed_sentences", "skipped_sentences")

    def __init__(self, cap: int):
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
            raise ValueError(f"cap must be a non-negative int, got {cap!r}")
        self.cap = cap
        self.frames: dict[str, list[str]] = {}
        self.parsed_sentences = 0
        self.skipped_sentences = 0

    def full(self, lemma: str) -> bool:
        """True iff ``lemma`` is registered and holds ``cap`` frames, so
        that :meth:`add` for it changes nothing."""
        observed = self.frames.get(lemma)
        return observed is not None and len(observed) >= self.cap

    def add(self, lemma: str, frame: str) -> None:
        observed = self.frames.setdefault(lemma, [])
        if len(observed) < self.cap:
            observed.append(frame)

    def total_observations(self) -> int:
        return sum(len(v) for v in self.frames.values())


def observe_corpus(sentences: Iterable[str], pipeline, cap: int = 1000
                   ) -> ObservationStore:
    """Run the acquisition pass over raw sentences.

    ``pipeline`` is a :class:`frameparse.pipeline.ParserPipeline`; the
    structural top parse is used regardless of any attached lexicon.
    Out-of-coverage sentences are skipped and counted.  A parsed
    sentence is ranked only if some token whose tag heads a rule with a
    frame (see :attr:`~frameparse.grammar.Grammar.instance_frames`) has
    a lemma the store does not yet hold ``cap`` frames for; a sentence
    without one could add no observation.  ``cap`` must be an int >= 0.
    """
    store = ObservationStore(cap=cap)
    grammar = pipeline.grammar
    # verb_frames reads the lemma of a frame rule's head daughter, a
    # terminal, so only tokens with these tags can yield an observation.
    verb_tags = {rule.daughters[rule.head_index]
                 for rule, frame in zip(grammar.rules, grammar.instance_frames)
                 if frame is not None}
    for sentence in sentences:
        tokens = pipeline.tag(sentence)
        forest = pipeline.parse_tags([token.tag for token in tokens])
        if forest.root is None:
            store.skipped_sentences += 1
            continue
        store.parsed_sentences += 1
        if all(token.tag not in verb_tags or store.full(token.lemma)
               for token in tokens):
            continue
        for instance in verb_frames(top_applications(forest, pipeline.model),
                                    grammar, tokens):
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
    if not (0 <= min_count < math.inf and 0 <= min_relfreq < math.inf):
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
