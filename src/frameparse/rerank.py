"""Verb-frame instances and the frame term of lexicalized ranking.

The frame term of a derivation is the log-space sum, over its verb
instances, of the smoothed probability of the frame the analysis assigns
to each (located through the VSUBCAT value of the immediately dominating
verbal rule).  :func:`rank_analyses` adds it to the action-model score
through :func:`~frameparse.actions.unpack_n_best`, the one scorer; the
sum is a ranking score, not a probability, and is never renormalised.

Verb tokens dominated by rules without a VSUBCAT value contribute
nothing; such verbs pick up no lexical information at parse time.  All
functions here are pure over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .actions import ActionModel, Derivation, RankedAnalysis, unpack_n_best
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


def verb_frames(derivation: Derivation, grammar: Grammar,
                tokens: Sequence[Token]) -> list[FrameInstance]:
    """One instance per verb token dominated by a verbal argument rule,
    in leaf order; the lemma comes from the token's lemmatized form."""
    instances = []
    for node in derivation.tree.iter_nodes():
        if node.rule is None:
            continue
        frame = vsubcat_of(node.rule, grammar)
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
                  tokens: Sequence[Token], n: int) -> list[RankedAnalysis]:
    """The ``n`` best analyses with the frame term as the lexical term
    of :func:`~frameparse.actions.unpack_n_best`: ranked by total score,
    ties broken on the action trace exactly as in structural ranking."""
    def frame_term(derivation: Derivation) -> float:
        return sum(lexicon.frame_logprob(inst.lemma, inst.frame)
                   for inst in verb_frames(derivation, grammar, tokens))
    return unpack_n_best(forest, model, n, frame_term)
