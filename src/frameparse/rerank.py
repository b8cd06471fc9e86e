"""Verb-frame instances and the frame term of lexicalized ranking.

The frame term of a derivation is the log-space sum, over its verb
instances, of the smoothed probability of the frame the analysis assigns
to each (located through the VSUBCAT value of the immediately dominating
verbal rule).  A verb instance is one rule application, so the frame
term is a sum of per-rule-application shares: :func:`rank_analyses`
hands the share to :func:`~frameparse.actions.unpack_n_best`, the one
scorer, which both searches the forest and reports the term with it.
The sum is a ranking score, not a probability, and is never
renormalised.  :func:`verb_frames` lists the instances of one
derivation, for acquisition.

Verb tokens dominated by rules without a VSUBCAT value contribute
nothing; such verbs pick up no lexical information at parse time.  All
functions here are pure over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .actions import ActionModel, Derivation, RankedAnalysis, unpack_n_best
from .glr import Forest, ForestNode
from .grammar import Grammar, Rule, vsubcat_of
from .lexicon import SubcatLexicon
from .preprocess import Token


@dataclass(frozen=True)
class FrameInstance:
    """One verb token together with the frame its analysis consumes."""

    lemma: str
    frame: str


def _instance_frame(rule: Rule, grammar: Grammar) -> Optional[str]:
    """The frame of the verb instance an application of ``rule`` makes,
    or ``None`` if it makes none.

    An instance is a verbal argument rule (see
    :func:`~frameparse.grammar.vsubcat_of`, whose head daughter is then
    a leaf) whose head tag is a verb tag, when the grammar declares any;
    its lemma is that of the head token.
    """
    frame = vsubcat_of(rule, grammar)
    if frame is None or (grammar.verb_tags and rule.daughters[rule.head_index]
                         not in grammar.verb_tags):
        return None
    return frame


def verb_frames(derivation: Derivation, grammar: Grammar,
                tokens: Sequence[Token]) -> list[FrameInstance]:
    """One instance per verb token dominated by a verbal argument rule,
    in preorder, hence left to right; the lemma comes from the token's
    lemmatized form."""
    instances = []
    for node in derivation.tree.iter_nodes():
        if node.rule is None:
            continue
        frame = _instance_frame(node.rule, grammar)
        if frame is None:
            continue
        head = node.children[node.rule.head_index]
        instances.append(FrameInstance(tokens[head.start].lemma, frame))
    return instances


def rank_analyses(forest: Forest, model: ActionModel,
                  lexicon: SubcatLexicon, tokens: Sequence[Token],
                  n: int) -> list[RankedAnalysis]:
    """The ``n`` best analyses with the frame term as the lexical term
    of :func:`~frameparse.actions.unpack_n_best`: ranked by total score,
    ties broken on the action trace exactly as in structural ranking;
    verb instances are those of the model's grammar."""
    grammar = model.table.grammar

    def instance_term(rule: Rule, daughters: tuple[ForestNode, ...]) -> float:
        frame = _instance_frame(rule, grammar)
        if frame is None:
            return 0.0
        head = daughters[rule.head_index]
        return lexicon.frame_logprob(tokens[head.start].lemma, frame)
    return unpack_n_best(forest, model, n, instance_term)
