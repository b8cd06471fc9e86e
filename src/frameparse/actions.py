"""Probabilistic model over LR parse actions, and ranking of a packed forest.

Actions are conditioned on (state, lookahead) and normalized within that
class; training accumulates counts along the unique action trace of each
gold tree and probabilities are add-1-smoothed relative frequencies, so
an untrained model is uniform within every class.  The model is one
table over the (state, lookahead, action) steps the LR table lists,
the only steps a derivation can take.  Scores are kept in log space
throughout.

The action trace of a derivation is a deterministic function of its tree
given the table (shifts in leaf order, each reduce as soon as its
daughters are complete), which is also how gold treebank trees are
turned into training events.

Ranking never unpacks the forest.  An action's probability depends only
on (state, lookahead); a forest node's final reduce reads the token at
its end, and a node entered from state ``s`` leaves in ``goto(s, label)``
whichever alternative built it.  So a derivation's score is a sum over
the vertices ``(forest node, entry state)`` of a hypergraph, and
:func:`unpack_n_best` finds the best one with one Viterbi pass and the
next ones with lazy k-best search (Huang & Chiang 2005, "Better k-best
parsing", Algorithm 3).  Its cost is polynomial in the forest, plus
``O(n log n)`` heap work for ``n`` analyses; only the analyses returned
are built as trees.  An optional lexical term is a share per rule
application: the search adds each share to its edge's weight, and the
term reported for an analysis is the sum of the same shares.

The search trusts the forest: it holds exactly the grammar's
derivations, and over an LALR(1) table that keeps every conflict each is
a valid action sequence (a canonical LR(1) reduce item is valid for every
viable prefix it completes; merging states only adds lookaheads).  So
every shift, goto and reduce it looks up exists; its one check, once per
forest, is that the forest's rules are the model's own rule objects.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from .grammar import END_MARKER, Rule
from .glr import Forest, ForestNode
from .lrtable import LRTable, action_sort_key, parse_action, render_action
from .preprocess import _read_table
from .treebank import Tree, UnderivableTreeError, to_derivation_tree


def tree_actions(tree: Tree, table: LRTable) -> tuple[tuple[int, str, tuple], ...]:
    """The (state, lookahead, action) trace that builds the derivation
    tree ``tree``."""
    ops: list[tuple] = []

    def linearize(node: Tree) -> None:
        if not node.children:
            ops.append(("shift", node.label))
            return
        for child in node.children:
            linearize(child)
        ops.append(("reduce", node.rule))

    linearize(tree)
    tags = [leaf.label for leaf in tree.leaves()]
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
                    f"({rule.mother} -> {' '.join(rule.daughters)}) "
                    f"in state {state} on {lookahead!r}")
            trace.append((state, lookahead, action))
            del states[len(states) - len(rule.daughters):]
            goto = table.gotos.get((states[-1], rule.mother))
            if goto is None:
                raise UnderivableTreeError(
                    f"no goto on {rule.mother!r} from state {states[-1]}")
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

    tree: Tree
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
        # One add-1-smoothed probability per available (state, lookahead,
        # action), and its log; every step the program scores is one.
        self._probs: dict[tuple[int, str, tuple], float] = {}
        for (state, lookahead), available in table.actions.items():
            class_counts = self.counts.get((state, lookahead), {})
            total = sum(class_counts.values())
            for action in available:
                count = class_counts.get(action, 0)
                self._probs[(state, lookahead, action)] = \
                    (count + 1) / (total + len(available))
        self._logprobs = {step: math.log(prob)
                          for step, prob in self._probs.items()}

    def prob(self, state: int, lookahead: str, action: tuple) -> float:
        """Raises ``KeyError`` for a step the table does not list."""
        return self._probs[(state, lookahead, action)]

    def logprob(self, state: int, lookahead: str, action: tuple) -> float:
        """Raises ``KeyError`` for a step the table does not list."""
        return self._logprobs[(state, lookahead, action)]

    def trace_logprob(self, trace: Sequence[tuple[int, str, tuple]]) -> float:
        return sum(self.logprob(*step) for step in trace)

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


# The search sums a derivation's log-probabilities in tree order, the
# rescoring in trace order and the lexical shares in preorder, so the
# two totals of one derivation can differ in the last bits.  Each is a
# sum of m terms of one sign (all at most 0), hence within
# m * 2**-53 * |total| of the real sum, and the two within twice that.
# A derivation left out of the search holds a score more than
# _TIE_BAND * |score| below the n-th best's; for m under 10**6 steps
# that exceeds the rounding of both sides, so its exact total is below
# the n-th best's and no tie is lost before the final sort.
_TIE_BAND = 1e-9


class _Vertex:
    """A (forest node, entry state) vertex of the ranking hypergraph.

    Each edge is ``(rule, tails, step, weight, share)``: the rule
    applied (``None`` for a leaf's shift), the daughter vertices, the
    action step it ends with, that step's log-probability plus the
    lexical share, and the share alone.  ``derivations`` lists
    ``(score, edge index, tail ranks)`` best first, as far as they have
    been found.
    """

    __slots__ = ("node", "exit", "edges", "ambiguous", "derivations",
                 "candidates", "seen")

    def __init__(self, node: ForestNode, exit_state: int, edges: list,
                 best: int, score: float, ambiguous: bool):
        self.node = node
        self.exit = exit_state
        self.edges = edges
        self.ambiguous = ambiguous
        self.derivations = [(score, best, (0,) * len(edges[best][1]))]
        self.candidates: Optional[list] = None
        self.seen: set = set()


def _edge_score(edge: tuple, ranks: tuple[int, ...]) -> float:
    score = 0.0
    for tail, rank in zip(edge[1], ranks):
        score += tail.derivations[rank][0]
    return score + edge[3]


class _ForestSearch:
    """Viterbi and lazy k-best search over one forest's hypergraph."""

    def __init__(self, forest: Forest, model: ActionModel,
                 lexical: Optional[Callable[[Rule, tuple[ForestNode, ...]],
                                            float]]):
        self.tokens = forest.tokens
        self.model = model
        self.lexical = lexical
        self.vertices: dict[tuple[ForestNode, int], _Vertex] = {}

    def visit(self, node: ForestNode, state: int) -> _Vertex:
        """The vertex of ``node`` entered from ``state``, with its best
        derivation."""
        key = (node, state)
        vertex = self.vertices.get(key)
        if vertex is not None:
            return vertex
        table = self.model.table
        if node.leaf:
            target = table.shift_target(state, node.symbol)
            step = (state, node.symbol, ("shift", target))
            weight = self.model.logprob(*step)
            vertex = _Vertex(node, target, [(None, (), step, weight, 0.0)],
                             0, weight, False)
            self.vertices[key] = vertex
            return vertex
        lookahead = (self.tokens[node.end] if node.end < len(self.tokens)
                     else END_MARKER)
        edges = []
        scores = []
        ambiguous = len(node.alternatives) > 1
        for rule, daughters in node.alternatives:
            tails = []
            entry = state
            score = 0.0
            for daughter in daughters:
                tail = self.visit(daughter, entry)
                tails.append(tail)
                score += tail.derivations[0][0]
                entry = tail.exit
                ambiguous = ambiguous or tail.ambiguous
            step = (entry, lookahead, ("reduce", rule.rule_id))
            share = (self.lexical(rule, daughters)
                     if self.lexical is not None else 0.0)
            weight = self.model.logprob(*step) + share
            edges.append((rule, tuple(tails), step, weight, share))
            scores.append(score + weight)
        best = max(range(len(edges)), key=scores.__getitem__)
        vertex = _Vertex(node, table.gotos[(state, node.symbol)], edges,
                         best, scores[best], ambiguous)
        self.vertices[key] = vertex
        return vertex

    def has_derivation(self, vertex: _Vertex, k: int) -> bool:
        """Whether ``vertex`` has a derivation of rank ``k`` (0 is the
        best), finding it lazily: Huang & Chiang's ``LazyKthBest``."""
        found = vertex.derivations
        if k < len(found):
            return True
        if not vertex.ambiguous:
            return False
        heap = vertex.candidates
        if heap is None:
            # GetCandidates: every other edge's best derivation
            heap = vertex.candidates = []
            for index, edge in enumerate(vertex.edges):
                ranks = (0,) * len(edge[1])
                vertex.seen.add((index, ranks))
                if index != found[0][1]:
                    heap.append((-_edge_score(edge, ranks), index, ranks))
            heapq.heapify(heap)
        while len(found) <= k:
            # LazyNext: the neighbours of the last derivation found
            _, index, ranks = found[-1]
            edge = vertex.edges[index]
            for i, tail in enumerate(edge[1]):
                successor = ranks[:i] + (ranks[i] + 1,) + ranks[i + 1:]
                if ((index, successor) not in vertex.seen
                        and self.has_derivation(tail, successor[i])):
                    vertex.seen.add((index, successor))
                    heapq.heappush(heap, (-_edge_score(edge, successor),
                                          index, successor))
            if not heap:
                return False
            score, index, ranks = heapq.heappop(heap)
            found.append((-score, index, ranks))
        return True

    def build(self, vertex: _Vertex, k: int, trace: list,
              shares: list) -> Tree:
        """The tree of ``vertex``'s rank-``k`` derivation; its action
        steps are appended to ``trace`` in trace order and the lexical
        shares of its rule applications to ``shares`` in preorder."""
        _, index, ranks = vertex.derivations[k]
        rule, tails, step, _, share = vertex.edges[index]
        node = vertex.node
        if rule is None:
            trace.append(step)
            return Tree(node.symbol, node.start, node.end)
        shares.append(share)
        children = []
        for tail, rank in zip(tails, ranks):
            children.append(self.build(tail, rank, trace, shares))
        trace.append(step)
        return Tree(node.symbol, node.start, node.end, tuple(children), rule)


def unpack_n_best(forest: Forest, model: ActionModel, n: int,
                  lexical: Optional[Callable[[Rule, tuple[ForestNode, ...]],
                                             float]] = None
                  ) -> list[RankedAnalysis]:
    """The ``min(n, total)`` best analyses by total score, descending,
    with ties broken by :func:`trace_sort_key`.  The total is the
    derivation's action-model log-probability plus its lexical term:
    the sum, in preorder, of ``lexical(rule, daughters)`` over its rule
    applications, each a log-probability (at most 0) given the forest
    nodes the application combines; ``0.0`` without ``lexical``.

    The forest is searched, not unpacked: see the module docstring.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an int of at least 1, got {n!r}")
    if forest.root is None:
        return []
    # The search trusts the forest once its rules are the model's own.
    grammar = model.table.grammar
    for node in forest.nodes.values():
        for rule, _ in node.alternatives:
            if (rule.rule_id >= len(grammar.rules)
                    or grammar.rules[rule.rule_id] is not rule):
                raise ValueError("model/table mismatch: forest built from a "
                                 "different grammar")
    search = _ForestSearch(forest, model, lexical)
    root = search.visit(forest.root, model.table.start_state)
    accept = (root.exit, END_MARKER, ("accept",))
    accept_logprob = model.logprob(*accept)
    popped = 0
    floor = None
    while search.has_derivation(root, popped):
        score = root.derivations[popped][0] + accept_logprob
        if floor is not None and score < floor:
            break
        popped += 1
        if popped == n:
            floor = score - _TIE_BAND * abs(score)
    scored = []
    for k in range(popped):
        trace: list = []
        shares: list = []
        tree = search.build(root, k, trace, shares)
        trace.append(accept)
        derivation = Derivation(tree, tuple(trace))
        scored.append((derivation, model.trace_logprob(derivation.actions),
                       sum(shares, 0.0)))
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
