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


def _check_entry(lemma: str, frame: str, count: float, shown: str) -> None:
    """Reject an entry that no lexicon holds, read or built; ``shown``
    is the count as the message writes it."""
    if frame not in FRAMES:
        raise LexiconError(f"unknown frame {frame!r} for {lemma!r}")
    if not 0 <= count < math.inf:
        raise LexiconError(f"count {shown} for {lemma!r}/{frame} is "
                           "negative or not finite")


class SubcatLexicon:
    """Entries by (lemma, frame).  The constructor rejects what
    :func:`parse_lexicon` rejects, so that every lexicon saves to a file
    that loads: an unknown frame, a negative or non-finite count, a
    duplicate entry, a lemma whose counts total 0, and a relfreq more
    than 1e-6 from count / total."""

    def __init__(self, entries: Iterable[SubcatEntry] = ()):
        self._index: dict[tuple[str, str], SubcatEntry] = {}
        self._totals: dict[str, float] = {}
        for entry in entries:
            lemma, frame, count = entry.lemma, entry.frame, entry.count
            _check_entry(lemma, frame, count, _format_count(count))
            if (lemma, frame) in self._index:
                raise LexiconError(f"duplicate entry {lemma!r}/{frame}")
            self._index[(lemma, frame)] = entry
            self._totals[lemma] = self._totals.get(lemma, 0.0) + count
        for entry in self._index.values():
            _check_relfreq(entry, self._totals[entry.lemma])

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


def _check_relfreq(entry: SubcatEntry, total: float) -> float:
    """The relfreq that ``entry``'s count gives over its lemma's
    ``total``; raise if it has none or the stored one disagrees."""
    if total <= 0:
        raise LexiconError(f"lemma {entry.lemma!r} has zero total count")
    recomputed = entry.count / total
    if not abs(recomputed - entry.relfreq) <= 1e-6:
        raise LexiconError(f"stored relfreq {entry.relfreq} disagrees with "
                           f"count-derived {recomputed:.6f}")
    return recomputed


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
        _check_entry(lemma, frame, count, fields[2])
        totals[lemma] = totals.get(lemma, 0.0) + count
        return (lemma, frame), (count, relfreq)
    rows = _read_table(text, ("lemma", "frame", "count", "relfreq"), row,
                       LexiconError)
    entries = []
    for (lemma, frame), (lineno, (count, relfreq)) in rows.items():
        entry = SubcatEntry(lemma, frame, count, relfreq)
        try:
            recomputed = _check_relfreq(entry, totals[lemma])
        except LexiconError as exc:
            raise LexiconError(f"line {lineno}: {exc}") from exc
        entries.append(entry._replace(relfreq=recomputed))
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
    stored in the count field, so smoothing over such a lexicon operates
    on the collapsed distribution, and relfreq is the mass over the
    lemma's total mass, which is the mass itself when the lemma's fine
    probabilities sum to 1.  A lemma with no mass is left out: it scores
    as an unknown lemma does.
    """
    grouped: dict[tuple[str, str], list[float]] = {}
    totals: dict[str, list[float]] = {}
    for lemma, fine_id, prob in fine:
        frame = class_map.get(fine_id)
        if frame is None:
            raise LexiconError(f"fine class {fine_id!r} has no mapping")
        if not 0 <= prob < math.inf:
            raise LexiconError(f"probability {prob} for {lemma!r}/{fine_id} "
                               "is negative or not finite")
        grouped.setdefault((lemma, frame), []).append(prob)
        totals.setdefault(lemma, []).append(prob)
    entries = []
    for lemma, frame in sorted(grouped):
        mass = math.fsum(grouped[(lemma, frame)])
        total = math.fsum(totals[lemma])
        if total > 0:
            entries.append(SubcatEntry(lemma, frame, mass, mass / total))
    return SubcatLexicon(entries)


def load_class_map(path) -> dict[str, str]:
    """Read a ``fine_id<TAB>FRAME`` mapping file."""
    rows = _read_table(Path(path).read_text(encoding="utf-8"),
                       ("fine_id", "FRAME"), tuple, LexiconError)
    return {fine_id: frame for fine_id, (_, frame) in rows.items()}
