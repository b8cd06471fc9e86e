"""Verb-frame instances and the frame term of lexicalized ranking.

The frame term of a derivation is the log-space sum, over its verb
instances, of the smoothed probability of the frame the analysis assigns
to each (located through the VSUBCAT value of the immediately dominating
verbal rule).  A verb instance is one rule application, so the frame
term is a sum of per-rule-application shares: :func:`rank_analyses`
hands the share to :func:`~frameparse.actions.unpack_n_best`, the one
scorer, which both searches the forest and reports the term with it.
The sum is a ranking score, not a probability, and is never
renormalised.  For acquisition, :func:`verb_frames` lists the instances
of an analysis's rule applications.

Verb tokens dominated by rules without a VSUBCAT value contribute
nothing; such verbs pick up no lexical information at parse time.  All
functions here are pure over immutable inputs.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .actions import ActionModel, RankedAnalysis, unpack_n_best
from .glr import Forest, ForestNode
from .grammar import Grammar, Rule
from .lexicon import SubcatLexicon
from .preprocess import Token


class FrameInstance(NamedTuple):
    """One verb token together with the frame its analysis consumes."""

    lemma: str
    frame: str


def verb_frames(applications: Iterable[tuple], grammar: Grammar,
                tokens: Sequence[Token]) -> list[FrameInstance]:
    """One instance per rule application ``(rule, daughters)`` whose rule
    has a frame in :attr:`~frameparse.grammar.Grammar.instance_frames`,
    in order, with the lemma of the token where its head daughter starts.
    Over the applications of an analysis in preorder, as
    :func:`~frameparse.actions.top_applications` lists them, the
    instances come left to right."""
    frames = grammar.instance_frames
    instances = []
    for rule, daughters in applications:
        frame = frames[rule.rule_id]
        if frame is not None:
            head = daughters[rule.head_index]
            instances.append(FrameInstance(tokens[head.start].lemma, frame))
    return instances


def rank_analyses(forest: Forest, model: ActionModel,
                  lexicon: SubcatLexicon, tokens: Sequence[Token],
                  n: int) -> list[RankedAnalysis]:
    """The ``n`` best analyses with the frame term as the lexical term
    of :func:`~frameparse.actions.unpack_n_best`: ranked by total score,
    ties broken on the action trace exactly as in structural ranking;
    verb instances are those of the model's grammar."""
    frames = model.table.grammar.instance_frames

    def instance_term(rule: Rule, daughters: tuple[ForestNode, ...]) -> float:
        frame = frames[rule.rule_id]
        if frame is None:
            return 0.0
        head = daughters[rule.head_index]
        return lexicon.frame_logprob(tokens[head.start].lemma, frame)
    return unpack_n_best(forest, model, n, instance_term)
