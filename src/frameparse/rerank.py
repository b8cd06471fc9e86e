"""Rank analyses by structural derivation probability combined with
per-verb frame probabilities.

The combined score is the log-space sum of the derivation's action-model
score and, for every verb instance in the derivation, the smoothed
probability of the frame the analysis assigns to it (located through the
VSUBCAT value of the immediately dominating verbal rule).  The sum is a
ranking score, not a probability, and is never renormalised.

Verb tokens dominated by rules without a VSUBCAT value contribute
nothing; such verbs pick up no lexical information at parse time.  All
functions here are pure over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .actions import ActionModel, Derivation, trace_sort_key, unpack_n_best
from .glr import Forest, TreeNode
from .grammar import Grammar, vsubcat_of
from .lexicon import SubcatLexicon
from .preprocess import Token


@dataclass(frozen=True)
class FrameInstance:
    """One verb token together with the frame its analysis consumes."""

    lemma: str
    frame: str
    node: TreeNode


@dataclass(frozen=True)
class RankedAnalysis:
    derivation: Derivation
    structural_logprob: float
    lexical_logprob: float

    @property
    def total_score(self) -> float:
        return self.structural_logprob + self.lexical_logprob


def verb_frames(derivation: Derivation, grammar: Grammar,
                tokens: Sequence[Token]) -> list[FrameInstance]:
    """One instance per verb token dominated by a verbal argument rule,
    in leaf order; the lemma comes from the token's lemmatized form."""
    instances = []
    for node in derivation.tree.iter_nodes():
        if node.rule is None:
            continue
        frame = vsubcat_of(node.rule)
        if frame is None:
            continue
        head = node.children[node.rule.head_index]
        if grammar.verb_tags and head.tag not in grammar.verb_tags:
            continue
        instances.append(FrameInstance(tokens[head.start].lemma, frame, node))
    instances.sort(key=lambda inst: inst.node.start)
    return instances


def rank_analyses(forest: Forest, model: ActionModel,
                  lexicon: SubcatLexicon, grammar: Grammar,
                  tokens: Sequence[Token],
                  n: Optional[int] = None) -> list[RankedAnalysis]:
    """All analyses scored and sorted by total score, descending; ties
    broken on the action trace exactly as in structural ranking."""
    ranked = []
    for derivation, structural in unpack_n_best(forest, model, None):
        lexical = sum(lexicon.frame_logprob(inst.lemma, inst.frame)
                      for inst in verb_frames(derivation, grammar, tokens))
        ranked.append(RankedAnalysis(derivation, structural, lexical))
    ranked.sort(key=lambda a: (-a.total_score, trace_sort_key(a.derivation.actions)))
    return ranked[:n] if n is not None else ranked
