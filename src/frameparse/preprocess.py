"""Minimal text front end: tokenizer, dictionary PoS tagger, suffix-rule
lemmatizer.

The tagger is a wordlist lookup with two heuristics for unknown words
(capitalised forms become proper nouns, anything else a common noun);
corpora are expected to ship with wordlists that cover them.  The
lemmatizer runs an exception table first and then a small ordered suffix
rule set, iterated to a fixed point so lemmatization is idempotent.
Everything here is pure and safe to use concurrently.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Sequence

_TOKEN_RE = re.compile(r"[^\W_]+(?:['’-][^\W_]+)*|\S")

# The tags of the unknown-word rule: capitalised words become proper
# nouns, anything else a common noun.  The lemmatizer keeps proper nouns'
# case and strips suffixes from common nouns and verbs.
PROPER_TAG = "pn"
COMMON_TAG = "n"
_SUFFIX_TAGS = frozenset({"v", COMMON_TAG})

_DOUBLED = set("bdfgklmnprstz")


class WordlistError(ValueError):
    pass


class Token(NamedTuple):
    surface: str
    tag: str
    lemma: str


def tokenize(sentence: str) -> list[str]:
    """Whitespace and punctuation splitting; punctuation tokens are kept."""
    return _TOKEN_RE.findall(sentence)


def _check_tags(surface: str, tags: tuple[str, ...]) -> None:
    """Reject an entry that no wordlist holds, read or built."""
    if not tags:
        raise WordlistError(f"no tags for {surface!r}")


class Wordlist:
    """Surface form to PoS tags; the first listed tag is the single-best
    choice."""

    __slots__ = ("tags",)

    def __init__(self, tags: Mapping[str, tuple[str, ...]]):
        for surface, found in tags.items():
            _check_tags(surface, found)
        self.tags = tags

    def lookup(self, surface: str) -> Optional[tuple[str, ...]]:
        found = self.tags.get(surface)
        if found is None:
            found = self.tags.get(surface.lower())
        return found

    def all_tags(self) -> set[str]:
        return {tag for tags in self.tags.values() for tag in tags}


def _read_table(text: str, columns: Sequence[str], row,
                error: type[ValueError] = ValueError) -> dict:
    """``{key: (line number, value)}`` for a tab-separated table: ``#``
    starts a comment, blank lines are skipped, and ``row(fields)`` maps a
    row of ``len(columns)`` fields to ``(key, value)`` or raises
    ValueError.  A bad row or a repeated key raises ``error("line N: ...")``.
    """
    table: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            fields = line.split("\t")
            if len(fields) != len(columns):
                raise ValueError("expected " + "<TAB>".join(columns))
            key, value = row(fields)
            if key in table:
                raise ValueError(f"duplicate of line {table[key][0]}")
        except ValueError as exc:
            raise error(f"line {lineno}: {exc}") from exc
        table[key] = lineno, value
    return table


def parse_wordlist(text: str) -> Wordlist:
    """Parse ``surface<TAB>tag[,tag...]`` lines."""
    def row(fields):
        surface, tag_text = fields
        tags = tuple(t.strip() for t in tag_text.split(",") if t.strip())
        _check_tags(surface, tags)
        return surface, tags
    rows = _read_table(text, ("surface", "tags"), row, WordlistError)
    return Wordlist({surface: tags for surface, (_, tags) in rows.items()})


def load_wordlist(path) -> Wordlist:
    return parse_wordlist(Path(path).read_text(encoding="utf-8-sig"))


def load_lemma_exceptions(path) -> dict[tuple[str, str], str]:
    """Read ``surface<TAB>tag<TAB>lemma`` lines, keyed on the lowercased
    surface form."""
    rows = _read_table(Path(path).read_text(encoding="utf-8-sig"),
                       ("surface", "tag", "lemma"),
                       lambda fields: ((fields[0].lower(), fields[1]),
                                       fields[2]),
                       WordlistError)
    return {key: lemma for key, (_, lemma) in rows.items()}


def _undouble(stem: str) -> str:
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] in _DOUBLED:
        return stem[:-1]
    return stem


def _apply_suffix_rules(word: str) -> str:
    """One pass of the ordered suffix rules; ``word`` itself when none
    applies."""
    if word.endswith("ies") and len(word) >= 5:
        return word[:-3] + "y"
    for suffix in ("ches", "shes", "xes", "ses", "zes", "oes"):
        if word.endswith(suffix) and len(word) - 2 >= 2:
            return word[:-2]
    if word.endswith("s") and not word.endswith("ss") and len(word) - 1 >= 3:
        return word[:-1]
    if word.endswith("eed"):
        return word[:-1]
    if word.endswith("ied") and len(word) >= 5:
        return word[:-3] + "y"
    if word.endswith("ed") and len(word) - 2 >= 3:
        return _undouble(word[:-2])
    if word.endswith("ing") and len(word) - 3 >= 3:
        return _undouble(word[:-3])
    return word


class Lemmatizer:
    """Exception table first, then suffix rules for common nouns and
    verbs; identity elsewhere.  Lowercases everything except proper
    nouns."""

    __slots__ = ("exceptions",)

    def __init__(self,
                 exceptions: Optional[Mapping[tuple[str, str], str]] = None):
        self.exceptions = {} if exceptions is None else exceptions

    def lemmatize(self, surface: str, tag: str) -> str:
        if not surface:
            return surface
        if tag == PROPER_TAG:
            return self.exceptions.get((surface.lower(), tag), surface)
        word = surface.lower()
        if tag not in _SUFFIX_TAGS:
            return self.exceptions.get((word, tag), word)
        while True:
            exception = self.exceptions.get((word, tag))
            if exception is not None:
                return exception
            stripped = _apply_suffix_rules(word)
            if stripped == word:
                return word
            word = stripped


def tag_tokens(words: Sequence[str], wordlist: Wordlist,
               lemmatizer: Lemmatizer = Lemmatizer()) -> list[Token]:
    """Single-best tagging: the first listed tag, or the unknown-word
    heuristics."""
    tokens = []
    for word in words:
        listed = wordlist.lookup(word)
        if listed:
            tag = listed[0]
        elif word[:1].isupper():
            tag = PROPER_TAG
        else:
            tag = COMMON_TAG
        tokens.append(Token(word, tag, lemmatizer.lemmatize(word, tag)))
    return tokens

