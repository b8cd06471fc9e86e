"""Per-verb subcategorisation frame lexicons.

Entries record, per verb lemma, how often each complement frame of the
closed inventory in :mod:`frameparse.frames` was observed, plus the
relative frequency normalised over the lemma's entries.  Frame
probabilities for scoring are add-1 smoothed over that whole inventory,
giving a proper distribution that reserves mass for unseen frames;
verbs absent from the lexicon fall back to the uniform distribution so
reranking stays neutral for them.

Counts are integers for acquired lexicons.  Lexicons produced by
collapsing fine-grained class probabilities carry probability mass in
the count field instead (smoothing is applied after collapsing), so
``count`` is typed as a float throughout.

Lexicons are immutable after loading and shareable.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .frames import FRAMES
from .preprocess import _read_table


_K = len(FRAMES)
_UNKNOWN_LOGPROB = -math.log(_K)


class LexiconError(ValueError):
    """Malformed lexicon data."""


class SubcatEntry(NamedTuple):
    lemma: str
    frame: str
    count: float
    relfreq: float


class SubcatLexicon:
    def __init__(self, entries: Iterable[SubcatEntry] = ()):
        self._index: dict[tuple[str, str], SubcatEntry] = {}
        self._totals: dict[str, float] = {}
        for entry in entries:
            self._add(entry)

    def _add(self, entry: SubcatEntry) -> None:
        if entry.frame not in FRAMES:
            raise LexiconError(f"unknown frame {entry.frame!r} for {entry.lemma!r}")
        if entry.count < 0:
            raise LexiconError(f"negative count for {entry.lemma!r}/{entry.frame}")
        key = (entry.lemma, entry.frame)
        if key in self._index:
            raise LexiconError(f"duplicate entry {entry.lemma!r}/{entry.frame}")
        self._index[key] = entry
        self._totals[entry.lemma] = self._totals.get(entry.lemma, 0.0) + entry.count

    def __len__(self) -> int:
        return len(self._index)

    def entries(self) -> list[SubcatEntry]:
        return sorted(self._index.values(), key=lambda e: (e.lemma, e.frame))

    def count(self, lemma: str, frame: str) -> float:
        entry = self._index.get((lemma, frame))
        return entry.count if entry else 0.0

    def frame_logprob(self, lemma: str, frame: str) -> float:
        """Add-1-smoothed log probability of ``frame`` for ``lemma``.

        Known lemma with total N and frame count c over the inventory's
        K = 29 frames: log((c + 1) / (N + K)).  Unknown lemma:
        log(1 / K).  Total: never fails for an in-inventory frame.
        """
        if frame not in FRAMES:
            raise LexiconError(f"frame {frame!r} not in inventory")
        if lemma not in self._totals:
            return _UNKNOWN_LOGPROB
        total = self._totals[lemma]
        count = self.count(lemma, frame)
        return math.log((count + 1.0) / (total + _K))


def _format_count(count: float) -> str:
    if float(count).is_integer():
        return str(int(count))
    return repr(count)


def parse_lexicon(text: str) -> SubcatLexicon:
    """Parse ``lemma<TAB>FRAME<TAB>count<TAB>relfreq`` lines.

    Relative frequencies are recomputed from the counts and must agree
    with the stored values within 1e-6.
    """
    totals: dict[str, float] = {}

    def row(fields):
        lemma, frame = fields[0], fields[1]
        count, relfreq = float(fields[2]), float(fields[3])
        if frame not in FRAMES:
            raise ValueError(f"unknown frame {frame!r} for {lemma!r}")
        if not 0 <= count < math.inf:
            raise ValueError(f"count {fields[2]} for {lemma!r}/{frame} is "
                             "negative or not finite")
        totals[lemma] = totals.get(lemma, 0.0) + count
        return (lemma, frame), (count, relfreq)
    rows = _read_table(text, ("lemma", "frame", "count", "relfreq"), row,
                       LexiconError)
    entries = []
    for (lemma, frame), (lineno, (count, relfreq)) in rows.items():
        if totals[lemma] <= 0:
            raise LexiconError(
                f"line {lineno}: lemma {lemma!r} has zero total count")
        recomputed = count / totals[lemma]
        if not abs(recomputed - relfreq) <= 1e-6:
            raise LexiconError(
                f"line {lineno}: stored relfreq {relfreq} disagrees with "
                f"count-derived {recomputed:.6f}")
        entries.append(SubcatEntry(lemma, frame, count, recomputed))
    return SubcatLexicon(entries)


def load_lexicon(path) -> SubcatLexicon:
    return parse_lexicon(Path(path).read_text(encoding="utf-8"))


def save_lexicon(lexicon: SubcatLexicon, path) -> None:
    lines = ["%s\t%s\t%s\t%.10f" % (e.lemma, e.frame, _format_count(e.count),
                                    e.relfreq)
             for e in lexicon.entries()]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")


def collapse_classes(fine: Iterable[tuple[str, str, float]],
                     class_map: Mapping[str, str]) -> SubcatLexicon:
    """Collapse fine-grained class probabilities onto inventory frames.

    ``fine`` holds (lemma, fine class id, probability) triples and
    ``class_map`` a many-to-one mapping from fine ids to frames; the
    collapsed probability of a frame is the sum of its classes'
    probabilities, so per-lemma mass is preserved.  The summed mass is
    stored in both the count and relfreq fields; smoothing over such a
    lexicon therefore operates on the collapsed distribution.
    """
    grouped: dict[tuple[str, str], list[float]] = {}
    order: list[tuple[str, str]] = []
    for lemma, fine_id, prob in fine:
        frame = class_map.get(fine_id)
        if frame is None:
            raise LexiconError(f"fine class {fine_id!r} has no mapping")
        if not 0 <= prob < math.inf:
            raise LexiconError(f"probability {prob} for {lemma!r}/{fine_id} "
                               "is negative or not finite")
        key = (lemma, frame)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(prob)
    entries = []
    for lemma, frame in sorted(order):
        mass = math.fsum(grouped[(lemma, frame)])
        entries.append(SubcatEntry(lemma, frame, mass, mass))
    return SubcatLexicon(entries)


def load_class_map(path) -> dict[str, str]:
    """Read a ``fine_id<TAB>FRAME`` mapping file."""
    rows = _read_table(Path(path).read_text(encoding="utf-8"),
                       ("fine_id", "FRAME"), tuple, LexiconError)
    return {fine_id: frame for fine_id, (_, frame) in rows.items()}
