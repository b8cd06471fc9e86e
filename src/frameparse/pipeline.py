"""End-to-end parser pipeline: tokenize, tag, parse, rank.

Bundles the immutable components (grammar, table, action model,
wordlist, lemmatizer, optional frame lexicon) behind one object so the
CLI, acquisition, and evaluation drive the same code path.  Distinct
sentences may be analyzed concurrently; a single analysis is sequential.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .actions import ActionModel, RankedAnalysis, unpack_n_best
from .glr import Forest, glr_parse
from .grammar import Grammar, normalize_kleene
from .lexicon import SubcatLexicon
from .lrtable import LRTable, build_table
from .preprocess import (COMMON_TAG, PROPER_TAG, Lemmatizer, Token, Wordlist,
                         tag_tokens)
from .rerank import rank_analyses


class SentenceResult:
    """Ranked analyses for one sentence; empty iff out of coverage."""

    __slots__ = ("sentence", "tokens", "analyses")

    def __init__(self, sentence: str, tokens: list[Token],
                 analyses: list[RankedAnalysis]):
        self.sentence = sentence
        self.tokens = tokens
        self.analyses = analyses


class ParserPipeline:
    def __init__(self, grammar: Grammar, table: Optional[LRTable] = None,
                 model: Optional[ActionModel] = None,
                 wordlist: Optional[Wordlist] = None,
                 lemmatizer: Optional[Lemmatizer] = None,
                 lexicon: Optional[SubcatLexicon] = None):
        normalized = normalize_kleene(grammar)
        if table is not None:
            if table.grammar != normalized:
                raise ValueError("table was not built from this grammar")
            # Adopt the table's grammar so rule identity is shared with
            # the forest nodes the table produces.
            self.grammar = table.grammar
            self.table = table
        else:
            self.grammar = normalized
            self.table = build_table(normalized)
        # An untrained model is uniform within every class, so a pipeline
        # without a model still ranks deterministically.
        self.model = model if model is not None else ActionModel(self.table)
        self.wordlist = wordlist if wordlist is not None else Wordlist({})
        self.lemmatizer = lemmatizer if lemmatizer is not None else Lemmatizer()
        self.lexicon = lexicon
        unknown_word_tags = {PROPER_TAG, COMMON_TAG}
        for tag in sorted(self.wordlist.all_tags() | unknown_word_tags):
            if tag not in self.grammar.terminals:
                kind = "unknown-word" if tag in unknown_word_tags else "wordlist"
                raise ValueError(f"{kind} tag {tag!r} is not a grammar terminal")

    def tag(self, sentence: str) -> list[Token]:
        # Looked up at call time: ``perfbench/tracing`` patches
        # ``preprocess.tokenize`` after this module is loaded.
        from .preprocess import tokenize
        # Unlisted punctuation would be tagged a noun by the unknown-word
        # rule and put the sentence out of coverage, so it is dropped
        # (``isalnum`` first: it settles most words without the scan).
        words = [word for word in tokenize(sentence)
                 if word.isalnum() or any(c.isalnum() for c in word)
                 or self.wordlist.lookup(word)]
        return tag_tokens(words, self.wordlist, self.lemmatizer)

    def parse_tags(self, tags: Sequence[str]) -> Forest:
        return glr_parse(tags, self.table)

    def analyze(self, sentence: str, n: int = 1,
                lexicalized: bool = True) -> SentenceResult:
        """Tokenize, tag, parse, and rank one sentence (see :meth:`rank`)."""
        tokens = self.tag(sentence)
        forest = self.parse_tags([token.tag for token in tokens])
        return SentenceResult(sentence, tokens,
                              self.rank(forest, tokens, n, lexicalized))

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
