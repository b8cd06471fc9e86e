"""End-to-end parser pipeline: tokenize, tag, parse, rank.

Bundles the immutable components (grammar, table, action model,
wordlist, lemmatizer, optional frame lexicon) behind one object so the
CLI, acquisition, and evaluation drive the same code path; its only
mutable state is a memo of the listed words' tokens.  Distinct
sentences may be analyzed concurrently; a single analysis is sequential.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import preprocess
from .actions import ActionModel, RankedAnalysis, unpack_n_best
from .glr import Forest, glr_parse
from .grammar import Grammar, normalize_kleene
from .lexicon import SubcatLexicon
from .lrtable import LRTable, build_table
from .preprocess import (COMMON_TAG, PROPER_TAG, Lemmatizer, Token, Wordlist,
                         tag_tokens)
from .rerank import rank_analyses


UNKNOWN_WORD_TAGS = frozenset({PROPER_TAG, COMMON_TAG})


def check_tags(grammar: Grammar, tags, kind: str) -> None:
    """Raise ValueError naming the first of ``tags`` in sorted order that
    is not a terminal of ``grammar``; ``kind`` says what asks for it."""
    for tag in sorted(tags):
        if tag not in grammar.terminals:
            raise ValueError(f"{kind} tag {tag!r} is not a grammar terminal")


class SentenceResult(NamedTuple):
    """Ranked analyses for one sentence; empty iff out of coverage."""

    tokens: list[Token]
    analyses: list[RankedAnalysis]


class ParserPipeline:
    def __init__(self, grammar: Grammar, table: Optional[LRTable] = None,
                 model: Optional[ActionModel] = None,
                 wordlist: Optional[Wordlist] = None,
                 lemmatizer: Optional[Lemmatizer] = None,
                 lexicon: Optional[SubcatLexicon] = None):
        normalized = normalize_kleene(grammar)
        if table is None:
            table = model.table if model is not None else build_table(normalized)
        if table.grammar != normalized:
            raise ValueError("table was not built from this grammar")
        # Adopt the table's grammar so rule identity is shared with the
        # forest nodes the table produces.
        self.grammar = table.grammar
        self.table = table
        # An untrained model is uniform within every class, so a pipeline
        # without a model still ranks deterministically.
        self.model = model if model is not None else ActionModel(table)
        # Ranking takes a forest only over the model's own grammar object.
        if self.model.table.grammar is not self.grammar:
            raise ValueError("model/table mismatch: model built from a "
                             "different grammar")
        self.wordlist = wordlist if wordlist is not None else Wordlist({})
        self.lemmatizer = lemmatizer if lemmatizer is not None else Lemmatizer()
        self.lexicon = lexicon
        check_tags(self.grammar, UNKNOWN_WORD_TAGS, "unknown-word")
        check_tags(self.grammar, self.wordlist.all_tags(), "wordlist")
        # The token of each listed surface form seen: tagging is per
        # word, so it is the same in every sentence.  Unlisted forms are
        # tagged afresh, so this holds at most the wordlist's forms and
        # the case variants seen of them.
        self._listed_tokens: dict[str, Token] = {}

    def tag(self, sentence: str) -> list[Token]:
        # ``tokenize`` is looked up on its module at call time, where
        # ``perfbench/tracing`` patches it after this module is loaded.
        memo = self._listed_tokens
        tokens = []
        for word in preprocess.tokenize(sentence):
            token = memo.get(word)
            if token is None:
                listed = self.wordlist.lookup(word)
                # Unlisted punctuation would be tagged a noun by the
                # unknown-word rule and put the sentence out of coverage,
                # so it is dropped.
                if not (listed or any(c.isalnum() for c in word)):
                    continue
                token = tag_tokens([word], self.wordlist, self.lemmatizer)[0]
                if listed:
                    memo[word] = token
            tokens.append(token)
        return tokens

    def parse_tags(self, tags: Sequence[str]) -> Forest:
        return glr_parse(tags, self.table)

    def analyze(self, sentence: str, n: int = 1) -> SentenceResult:
        """Tokenize, tag, parse, and rank one sentence (see :meth:`rank`),
        with the attached lexicon's frame term if there is one."""
        tokens = self.tag(sentence)
        forest = self.parse_tags([token.tag for token in tokens])
        return SentenceResult(tokens, self.rank(forest, tokens, n))

    def rank(self, forest: Forest, tokens: Sequence[Token], n: int = 1,
             lexicalized: bool = True) -> list[RankedAnalysis]:
        """The ``n`` best analyses of a parsed sentence (``n`` a positive
        int), empty iff the forest is, from the one scorer
        :func:`~frameparse.actions.unpack_n_best`.  The attached lexicon's
        frame term is added unless ``lexicalized=False`` forces baseline
        (structural) ranking."""
        if lexicalized and self.lexicon is not None:
            return rank_analyses(forest, self.model, self.lexicon, tokens, n)
        return unpack_n_best(forest, self.model, n)
