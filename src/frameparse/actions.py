"""Probabilistic model over LR parse actions.

Actions are conditioned on (state, lookahead) and normalized within that
class; training accumulates counts along the unique action trace of each
gold tree and probabilities are add-1-smoothed relative frequencies, so
an untrained model is uniform within every class.  Scores are kept in
log space throughout.

The action trace of a derivation is a deterministic function of its tree
given the table (shifts in leaf order, each reduce as soon as its
daughters are complete), which is also how gold treebank trees are
turned into training events.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .grammar import END_MARKER
from .glr import Forest, TreeNode
from .lrtable import LRTable, action_sort_key, parse_action, render_action
from .preprocess import _read_table
from .treebank import Tree, UnderivableTreeError, to_derivation_tree


def tree_actions(tree: TreeNode, table: LRTable) -> tuple[tuple[int, str, tuple], ...]:
    """The (state, lookahead, action) trace that builds ``tree``."""
    ops: list[tuple] = []

    def linearize(node: TreeNode) -> None:
        if node.is_leaf:
            ops.append(("shift", node.tag))
            return
        for child in node.children:
            linearize(child)
        ops.append(("reduce", node.rule))

    linearize(tree)
    tags = [leaf.tag for leaf in tree.leaves()]
    states = [table.start_state]
    trace: list[tuple[int, str, tuple]] = []
    consumed = 0
    for op in ops:
        state = states[-1]
        if op[0] == "shift":
            lookahead = op[1]
            target = table.shift_target(state, lookahead)
            if target is None:
                raise UnderivableTreeError(
                    f"no shift on {lookahead!r} from state {state}")
            trace.append((state, lookahead, ("shift", target)))
            states.append(target)
            consumed += 1
        else:
            rule = op[1]
            lookahead = tags[consumed] if consumed < len(tags) else END_MARKER
            action = ("reduce", rule.rule_id)
            if action not in table.actions.get((state, lookahead), ()):
                raise UnderivableTreeError(
                    f"no reduce by rule {rule.rule_id} "
                    f"({rule.mother.label} -> {' '.join(rule.daughter_labels())}) "
                    f"in state {state} on {lookahead!r}")
            trace.append((state, lookahead, action))
            del states[len(states) - len(rule.daughters):]
            goto = table.gotos.get((states[-1], rule.mother.label))
            if goto is None:
                raise UnderivableTreeError(
                    f"no goto on {rule.mother.label!r} from state {states[-1]}")
            states.append(goto)
    state = states[-1]
    if ("accept",) not in table.actions.get((state, END_MARKER), ()):
        raise UnderivableTreeError(f"state {state} does not accept at end of input")
    trace.append((state, END_MARKER, ("accept",)))
    return tuple(trace)


def trace_sort_key(trace: Sequence[tuple[int, str, tuple]]) -> tuple:
    """Deterministic tie-break for equal scores: lexicographic over the
    trace under the fixed action order (shift < reduce, lower rule id
    first)."""
    return tuple(action_sort_key(action) for _, _, action in trace)


@dataclass(frozen=True)
class Derivation:
    """A single parse tree plus the action trace that built it."""

    tree: TreeNode
    actions: tuple[tuple[int, str, tuple], ...]


@dataclass(frozen=True)
class RankedAnalysis:
    """A derivation with the two terms of its ranking score."""

    derivation: Derivation
    structural_logprob: float
    lexical_logprob: float

    @property
    def total_score(self) -> float:
        return self.structural_logprob + self.lexical_logprob


class ActionModel:
    """Trained action distributions bound to the table they condition on.

    Immutable in use: training happens through the constructor (see
    :func:`train_actions`), after which instances are safely shared
    across concurrent parses.
    """

    def __init__(self, table: LRTable,
                 counts: dict[tuple[int, str], Counter] | None = None):
        self.table = table
        self.counts: dict[tuple[int, str], Counter] = {}
        if counts:
            for key, counter in counts.items():
                if key not in table.actions:
                    raise ValueError(
                        f"model/table mismatch: no actions for state {key[0]} "
                        f"on {key[1]!r}")
                available = set(table.actions[key])
                kept = Counter()
                for action, count in counter.items():
                    if action not in available:
                        raise ValueError(
                            f"model/table mismatch: action {render_action(action)} "
                            f"unavailable in state {key[0]} on {key[1]!r}")
                    if count:
                        kept[action] = count
                if kept:
                    self.counts[key] = kept
        # Floor used for (state, lookahead) pairs outside the table, so
        # scoring foreign traces degrades instead of failing.
        total_available = sum(len(v) for v in table.actions.values())
        self._floor = 1.0 / (1 + total_available)

    def prob(self, state: int, lookahead: str, action: tuple) -> float:
        available = self.table.actions.get((state, lookahead))
        if not available:
            return self._floor
        class_counts = self.counts.get((state, lookahead))
        total = sum(class_counts.values()) if class_counts else 0
        count = class_counts.get(action, 0) if class_counts else 0
        return (count + 1) / (total + len(available))

    def logprob(self, state: int, lookahead: str, action: tuple) -> float:
        return math.log(self.prob(state, lookahead, action))

    def trace_logprob(self, trace: Sequence[tuple[int, str, tuple]]) -> float:
        return sum(self.logprob(*step) for step in trace)

    def distribution(self, state: int, lookahead: str) -> dict[tuple, float]:
        available = self.table.actions.get((state, lookahead), ())
        return {action: self.prob(state, lookahead, action) for action in available}

    def classes(self) -> list[tuple[int, str]]:
        return sorted(self.table.actions)


def train_actions(trees: Iterable[Tree], table: LRTable
                  ) -> tuple[ActionModel, list[tuple[int, str]]]:
    """Train from raw gold trees, counting the actions along each one's
    trace; returns the model and the ``(index, reason)`` of every tree
    the grammar/table cannot derive, which is left out."""
    counts: dict[tuple[int, str], Counter] = {}
    skipped = []
    for index, tree in enumerate(trees):
        try:
            trace = tree_actions(to_derivation_tree(tree, table.grammar), table)
        except UnderivableTreeError as exc:
            skipped.append((index, str(exc)))
            continue
        for state, lookahead, action in trace:
            counts.setdefault((state, lookahead), Counter())[action] += 1
    return ActionModel(table, counts), skipped


def unpack_n_best(forest: Forest, model: ActionModel, n: int,
                  lexical: Optional[Callable[[Derivation], float]] = None
                  ) -> list[RankedAnalysis]:
    """The ``min(n, total)`` best analyses by total score, descending,
    with ties broken by :func:`trace_sort_key`.  The total is the
    derivation's action-model log-probability plus ``lexical(derivation)``,
    or plus nothing without a lexical term."""
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an int of at least 1, got {n!r}")
    grammar = model.table.grammar
    scored = []
    for tree in forest.all_trees():
        if tree.rule is not None and (
                tree.rule.rule_id >= len(grammar.rules)
                or grammar.rules[tree.rule.rule_id] is not tree.rule):
            raise ValueError("model/table mismatch: forest built from a "
                             "different grammar")
        derivation = Derivation(tree, tree_actions(tree, model.table))
        scored.append((derivation, model.trace_logprob(derivation.actions),
                       lexical(derivation) if lexical is not None else 0.0))
    scored.sort(key=lambda item: (-(item[1] + item[2]),
                                  trace_sort_key(item[0].actions)))
    return [RankedAnalysis(*item) for item in scored[:n]]


def save_model(model: ActionModel, path) -> None:
    """Persist as ``state<TAB>lookahead<TAB>action<TAB>count<TAB>prob``.

    Every action available in the table is written, including unseen
    ones, so the file alone determines the distributions.
    """
    lines = []
    for state, lookahead in model.classes():
        for action in model.table.actions[(state, lookahead)]:
            count = model.counts.get((state, lookahead), {}).get(action, 0)
            prob = model.prob(state, lookahead, action)
            lines.append("%d\t%s\t%s\t%d\t%.10f" % (
                state, lookahead, render_action(action), count, prob))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_model(path, table: LRTable) -> ActionModel:
    """Load a persisted model and bind it to ``table``.

    Stored probabilities are recomputed from the counts and must agree
    within 1e-6; every action must be available in the table.
    """
    counts: dict[tuple[int, str], Counter] = {}

    def row(fields):
        state, lookahead = int(fields[0]), fields[1]
        action = parse_action(fields[2])
        count = int(fields[3])
        if count < 0:
            raise ValueError("negative count")
        if action not in table.actions.get((state, lookahead), ()):
            raise ValueError(
                f"model/table mismatch: action {fields[2]} unavailable in "
                f"state {state} on {lookahead!r}")
        counts.setdefault((state, lookahead), Counter())[action] = count
        return (state, lookahead, action), float(fields[4])
    rows = _read_table(Path(path).read_text(encoding="utf-8"),
                       ("state", "lookahead", "action", "count", "prob"), row)
    model = ActionModel(table, counts)
    for (state, lookahead, action), (lineno, prob) in rows.items():
        recomputed = model.prob(state, lookahead, action)
        if not abs(recomputed - prob) <= 1e-6:
            raise ValueError(
                f"line {lineno}: stored probability {prob} disagrees with "
                f"recomputed {recomputed:.10f}")
    return model
