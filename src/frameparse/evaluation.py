"""Scoring parser output against gold annotations.

Two schemes are supported.  Unlabelled bracketing compares the token
spans of the two trees: recall and precision over matched spans, the
number of test spans that cross a gold span (overlap with neither
containing the other), and the percentage of sentences with zero
crossings.  Grammatical-relation scoring compares per-sentence relation
sets under one-level subsumption matching (see :mod:`frameparse.grs`).
Two systems' per-sentence scores are compared with a paired t-test,
whose Student-t tail is computed here from the incomplete beta.

Spans of length one are not scored, and brackets introduced by Kleene
helper non-terminals (labels under the ``@`` prefix) are excluded, so
normalization does not perturb bracket counts.

All scoring functions are pure; corpus-level aggregation just folds the
per-sentence results.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple, Optional, Sequence

from .actions import Derivation
from .grammar import HELPER_PREFIX, Grammar
from .grs import GR, SUBJECT_RELATIONS, gr_scores, relation_histogram
from .preprocess import Token
from .treebank import Tree


class EvaluationError(ValueError):
    pass


def extract_brackets(tree: Tree) -> Counter:
    """Multiset of unlabelled spans for bracket scoring: one per node
    covering at least two tokens, excluding Kleene helper nodes."""
    return Counter((node.start, node.end) for node in tree.iter_nodes()
                   if node.end - node.start >= 2
                   and not node.label.startswith(HELPER_PREFIX))


def _crosses(test: tuple[int, int], gold: tuple[int, int]) -> bool:
    return (test[0] < gold[0] < test[1] < gold[1]
            or gold[0] < test[0] < gold[1] < test[1])


def bracket_scores(test: Tree, gold: Tree) -> dict:
    """Per-sentence bracket counts for one test/gold tree pair."""
    test_tokens = test.end - test.start
    gold_tokens = gold.end - gold.start
    if test_tokens != gold_tokens:
        raise EvaluationError(
            f"token count mismatch: test {test_tokens}, gold {gold_tokens}")
    test_spans = extract_brackets(test)
    gold_spans = extract_brackets(gold)
    matched = sum((test_spans & gold_spans).values())
    crossings = sum(count for span, count in test_spans.items()
                    if any(_crosses(span, gspan) for gspan in gold_spans))
    return {"matched": matched, "test_total": sum(test_spans.values()),
            "gold_total": sum(gold_spans.values()), "crossings": crossings}


def _ratio(numerator: float, denominator: float) -> float:
    # 0/0 counts as perfect agreement so self-evaluation identities hold
    # even for span-less trees.
    return numerator / denominator if denominator else 1.0


class BracketReport(NamedTuple):
    sentences: int
    recall: float
    precision: float
    mean_crossings: float
    zero_crossings_pct: float

    def fields(self) -> dict:
        return {"sentences": self.sentences, "recall": self.recall,
                "precision": self.precision,
                "mean_crossings": self.mean_crossings,
                "zero_crossings_pct": self.zero_crossings_pct}


def aggregate_brackets(per_sentence: Sequence[dict]) -> BracketReport:
    """Micro-averaged recall/precision; crossings averaged per sentence."""
    if not per_sentence:
        raise EvaluationError("no sentences to aggregate")
    matched = sum(s["matched"] for s in per_sentence)
    test_total = sum(s["test_total"] for s in per_sentence)
    gold_total = sum(s["gold_total"] for s in per_sentence)
    crossings = [s["crossings"] for s in per_sentence]
    return BracketReport(
        sentences=len(per_sentence),
        recall=_ratio(matched, gold_total),
        precision=_ratio(matched, test_total),
        mean_crossings=sum(crossings) / len(crossings),
        zero_crossings_pct=sum(1 for c in crossings if c == 0) / len(crossings),
    )


class GRReport:
    __slots__ = ("sentences", "recall", "precision", "returned_by_relation",
                 "gold_by_relation", "mean_returned", "mean_gold",
                 "per_sentence_recall", "per_sentence_precision")

    def __init__(self, sentences: int, recall: float, precision: float,
                 returned_by_relation: dict[str, int],
                 gold_by_relation: dict[str, int], mean_returned: float,
                 mean_gold: float, per_sentence_recall: tuple[float, ...],
                 per_sentence_precision: tuple[float, ...]):
        self.sentences = sentences
        self.recall = recall
        self.precision = precision
        self.returned_by_relation = returned_by_relation
        self.gold_by_relation = gold_by_relation
        self.mean_returned = mean_returned
        self.mean_gold = mean_gold
        self.per_sentence_recall = per_sentence_recall
        self.per_sentence_precision = per_sentence_precision

    def fields(self) -> dict:
        return {"sentences": self.sentences, "recall": self.recall,
                "precision": self.precision,
                "mean_returned": self.mean_returned,
                "mean_gold": self.mean_gold}


def aggregate_grs(pairs: Sequence[tuple[set[GR], set[GR]]]) -> GRReport:
    """Fold (test set, gold set) pairs into a corpus report with the
    per-sentence score vectors needed for significance testing."""
    if not pairs:
        raise EvaluationError("no sentences to aggregate")
    per_sentence = [gr_scores(test, gold) for test, gold in pairs]
    matched = sum(s["matched"] for s in per_sentence)
    test_total = sum(s["test_total"] for s in per_sentence)
    gold_total = sum(s["gold_total"] for s in per_sentence)
    returned_hist, mean_returned = relation_histogram([t for t, _ in pairs])
    gold_hist, mean_gold = relation_histogram([g for _, g in pairs])
    return GRReport(
        sentences=len(pairs),
        recall=_ratio(matched, gold_total),
        precision=_ratio(matched, test_total),
        returned_by_relation=returned_hist,
        gold_by_relation=gold_hist,
        mean_returned=mean_returned,
        mean_gold=mean_gold,
        per_sentence_recall=tuple(_ratio(s["matched"], s["gold_total"])
                                  for s in per_sentence),
        per_sentence_precision=tuple(_ratio(s["matched"], s["test_total"])
                                     for s in per_sentence),
    )


def extract_grs(derivation: Derivation, grammar: Grammar,
                tokens: Sequence[Token]) -> set[GR]:
    """Instantiate the GR templates of every rule application.

    Head and dependent slots are filled with the lemmatized head word of
    the referenced daughter, so multi-word names reduce to their final
    head word.  A type slot referencing a daughter takes the lemma of
    that daughter's leftmost leaf (the introducing function word).  A
    ``control`` dependent slot takes the subject in scope: emitting a
    subject relation for a daughter's head binds that relation's
    dependent as the subject throughout the daughter's subtree.
    Templates whose slots cannot be filled are skipped.
    """
    del grammar  # templates travel on the rules inside the derivation
    out: set[GR] = set()

    def instantiate(tpl, node: Tree, subject: Optional[Tree]):
        if tpl.type_slot.kind == "daughter":
            child = node.children[tpl.type_slot.value - 1]
            gr_type = tokens[child.leftmost_leaf().start].lemma
        elif tpl.type_slot.kind == "literal":
            gr_type = tpl.type_slot.value
        else:
            gr_type = None
        if tpl.head_slot.kind == "self":
            head_leaf = node.head_leaf()
        else:
            head_leaf = node.children[tpl.head_slot.value - 1].head_leaf()
        if tpl.dependent_slot.kind == "control":
            dep_leaf = subject
        else:
            dep_leaf = node.children[tpl.dependent_slot.value - 1].head_leaf()
        if dep_leaf is None:
            return None, None
        initial = tpl.initial_slot.value if tpl.initial_slot.kind == "literal" \
            else None
        gr = GR(relation=tpl.relation, head=tokens[head_leaf.start].lemma,
                dependent=tokens[dep_leaf.start].lemma, gr_type=gr_type,
                initial=initial)
        return gr, (head_leaf, dep_leaf)

    # Preorder over an explicit stack of (node, subject in scope), since
    # derivations may be deeper than Python's recursion limit.
    stack: list[tuple[Tree, Optional[Tree]]] = [(derivation.tree, None)]
    while stack:
        node, subject = stack.pop()
        if node.rule is None:
            continue
        subject_bindings: list[tuple[Tree, Tree]] = []
        for tpl in node.rule.gr_templates:
            gr, leaves = instantiate(tpl, node, subject)
            if gr is None:
                continue
            out.add(gr)
            if tpl.relation in SUBJECT_RELATIONS:
                subject_bindings.append(leaves)
        for child in reversed(node.children):
            child_subject = subject
            child_head = child.head_leaf()
            for head_leaf, dep_leaf in subject_bindings:
                if head_leaf is child_head:
                    child_subject = dep_leaf
            stack.append((child, child_subject))
    return out


class TTestResult(NamedTuple):
    t: float
    df: int
    p_two_sided: float


def paired_t_test(scores_a: Sequence[float],
                  scores_b: Sequence[float]) -> TTestResult:
    """Paired t-test over two per-sentence score vectors.

    Zero-variance differences yield t = 0, p = 1 when all differences
    are zero, and a signed infinity with p = 0 otherwise, so batch
    comparisons never abort.
    """
    if len(scores_a) != len(scores_b):
        raise EvaluationError(
            f"length mismatch: {len(scores_a)} vs {len(scores_b)}")
    n = len(scores_a)
    if n < 2:
        raise EvaluationError("need at least two paired observations")
    diffs = [a - b for a, b in zip(scores_a, scores_b)]
    mean = sum(diffs) / n
    variance = sum((d - mean) ** 2 for d in diffs) / (n - 1)
    df = n - 1
    if variance == 0.0:
        if mean == 0.0:
            return TTestResult(0.0, df, 1.0)
        return TTestResult(math.copysign(math.inf, mean), df, 0.0)
    t_stat = mean / math.sqrt(variance / n)
    return TTestResult(t_stat, df, min(_t_two_sided(t_stat, df), 1.0))


def _t_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom.

    This is the regularised incomplete beta I_x(df/2, 1/2) at
    x = df/(df+t^2), evaluated by its continued fraction on the side of
    I_x(a, b) = 1 - I_{1-x}(b, a) where the fraction converges fast.
    1 - x is formed as t^2/(df+t^2), never by subtraction, so neither a
    tiny t nor a far tail loses precision.
    """
    q = t * t
    if q == 0.0:
        return 1.0
    a, b = df / 2.0, 0.5
    x, y = df / (df + q), q / (df + q)
    log_front = (-a * math.log1p(q / df) + b * math.log(y)
                 + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) by the modified Lentz method
    (Numerical Recipes' betacf).  With one parameter 1/2 and x on the
    convergent side it settles within a few dozen terms."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for numerator in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                          -(a + m) * (a + b + m) * x
                          / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + numerator * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + numerator / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-16:
            break
    return h
