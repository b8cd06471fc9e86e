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
turned into training events: :func:`tree_actions` binds a raw tree's
nodes to grammar rules by their labels and traces the result, reading
the table's per-state ``moves`` and trusting it as the search below
does.

Ranking never unpacks the forest.  An action's probability depends only
on (state, lookahead); a forest node's final reduce reads the token at
its end, and a node entered from state ``s`` leaves in ``goto(s, label)``
whichever alternative built it.  So a derivation's score is a sum over
the vertices ``(forest node, entry state)`` of a hypergraph, and
:func:`unpack_n_best` finds the best one with one Viterbi pass and the
next ones with lazy k-best search (Huang & Chiang 2005, "Better k-best
parsing", Algorithm 3).  Its cost is polynomial in the forest, plus
``O(n log n)`` heap work for ``n`` analyses.  The same pass gives each
vertex its margin, its best score less its runner-up's: the runner-up
takes another edge's best derivation or the best edge with one tail's
runner-up, so the margin is the smaller of the best edge's lead over
the other edges and its tails' margins (``inf`` with one derivation).
For ``n = 1`` a root margin beyond the tie band (see ``_TIE_BAND``)
proves that no other derivation can tie, and the Viterbi derivation is
returned without a lazy search; a near-tie, and every ``n > 1``, runs
the lazy search, whose final sort settles ties on the trace.  Where
only the rule applications of the structural top analysis are wanted,
as in acquisition, :func:`top_applications` reads a forest of one
derivation straight off its nodes, with no pass at all; otherwise it
follows the best edges of that one pass, and at a near-tie reads them
off the tree that :func:`unpack_n_best` would build from the same
pass, so the tie rule lives here alone.

The search reads the table's per-state ``moves`` and the model's
per-state reduce rows, ``reduce_rows[state][lookahead][rule id]``, each
entry a reduce's log-probability and its ``(state, lookahead, action)``
step, built once per model and taken once per search; a vertex keeps
its best score beside its derivations, for the vertices above it.  A
leaf's vertex depends only on its entry state and tag, so the model
builds one per listed shift, whose one edge holds that shift's
log-probability and step, and every search shares them read-only: a
leaf has one derivation, so the lazy search never extends it, and a
tree takes a leaf's span from the forest node that the parent's
alternative names.  An edge records its action's prebuilt step, and the
trees and traces are built for the analyses returned alone, from those
steps.  Each term reported is a sum of what its edges hold: the steps'
log-probabilities, and an optional lexical term's share per rule
application, which the search adds to the edge's weight.

The search trusts the forest: it holds exactly the grammar's
derivations, and over an LALR(1) table that keeps every conflict each is
a valid action sequence (a canonical LR(1) reduce item is valid for every
viable prefix it completes, and the LALR(1) lookaheads computed over the
LR(0) automaton are those of the canonical states with the same core
joined, so they only add lookaheads).  So
every shift, goto and reduce it looks up exists; its one check, once per
forest, is that the forest was parsed over the model's grammar, so that
its rules are the model's own rule objects.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .grammar import END_MARKER, Rule
from .glr import Forest, ForestNode
from .lrtable import LRTable, action_sort_key, parse_action, render_action
from .preprocess import _read_table
from .treebank import Tree, UnderivableTreeError


def tree_actions(tree: Tree, table: LRTable) -> tuple[tuple[int, str, tuple], ...]:
    """The (state, lookahead, action) trace that builds the gold tree
    ``tree``, as read from a treebank.

    Its nodes are bound to the table's grammar in postorder: a leaf's
    tag must be a terminal, each other node's label and daughters'
    labels must name a rule, and the root must be the start symbol;
    otherwise :class:`UnderivableTreeError` is raised.  The bound tree
    is a derivation of the grammar, so, as in ranking, every step it
    takes exists in the table.
    """
    grammar = table.grammar
    nodes = [node for node, entering in tree.walk() if not entering]
    rules: list[Optional[Rule]] = []
    for node in nodes:
        if not node.children:
            if node.label not in grammar.terminals:
                raise UnderivableTreeError(
                    f"leaf tag {node.label!r} is not a grammar terminal")
            rules.append(None)
            continue
        shape = [child.label for child in node.children]
        rule = grammar.rule_by_shape(node.label, shape)
        if rule is None:
            raise UnderivableTreeError(
                f"no rule {node.label} -> {' '.join(shape)}")
        rules.append(rule)
    if tree.label != grammar.start_symbol:
        raise UnderivableTreeError(f"root {tree.label!r} is not the start "
                                   f"symbol {grammar.start_symbol!r}")
    tags = [node.label for node in nodes if not node.children]
    states = [table.start_state]
    trace: list[tuple[int, str, tuple]] = []
    consumed = 0
    for node, rule in zip(nodes, rules):
        state = states[-1]
        if rule is None:
            target = table.moves[state][node.label]
            trace.append((state, node.label, ("shift", target)))
            states.append(target)
            consumed += 1
        else:
            lookahead = tags[consumed] if consumed < len(tags) else END_MARKER
            trace.append((state, lookahead, ("reduce", rule.rule_id)))
            del states[len(states) - len(rule.daughters):]
            states.append(table.moves[states[-1]][rule.mother])
    trace.append((states[-1], END_MARKER, ("accept",)))
    return tuple(trace)


def trace_sort_key(trace: Sequence[tuple[int, str, tuple]]) -> tuple:
    """Deterministic tie-break for equal scores: lexicographic over the
    trace under the fixed action order (shift < reduce, lower rule id
    first)."""
    return tuple(action_sort_key(action) for _, _, action in trace)


class Derivation(NamedTuple):
    """A single parse tree plus the action trace that built it."""

    tree: Tree
    actions: tuple[tuple[int, str, tuple], ...]


class RankedAnalysis(NamedTuple):
    """A derivation with the two terms of its ranking score."""

    derivation: Derivation
    structural_logprob: float
    lexical_logprob: float

    @property
    def total_score(self) -> float:
        return self.structural_logprob + self.lexical_logprob


def _check_count(count) -> None:
    """Reject a count that no model file holds: model files hold
    integers of at least 0, and smoothing divides by their sum."""
    if count < 0:
        raise ValueError("negative count")
    if not (count < math.inf and count == int(count)):
        raise ValueError(f"count {count!r} is not an integer")


class ActionModel:
    """Trained action distributions bound to the table they condition on.

    Immutable in use: training happens through the constructor (see
    :func:`train_actions`), after which instances are safely shared
    across concurrent parses.  :meth:`prob` gives each listed step's
    probability.  For the search, built once per model:
    ``reduce_rows[state][lookahead][rule id]`` is a reduce's
    ``(log-probability, step)``, the step its ``(state, lookahead,
    action)`` trace entry; ``accept_logprobs`` holds each accept's
    log-probability by state; and ``leaves[state][tag]`` is the shared
    hypergraph vertex of a leaf ``tag`` entered from ``state``, whose
    one edge holds its shift's log-probability and step.  No flat map
    keyed by whole steps is kept beside ``prob``.
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
                    _check_count(count)
                    if action not in available:
                        raise ValueError(
                            f"model/table mismatch: action {render_action(action)} "
                            f"unavailable in state {key[0]} on {key[1]!r}")
                    if count:
                        kept[action] = count
                if kept:
                    self.counts[key] = kept
        # An add-1-smoothed probability per listed step (every step the
        # program scores is one), and for the search each step's log and
        # the step itself, built once.
        self._probs: dict[tuple[int, str, tuple], float] = {}
        self.reduce_rows: list[dict[str, dict[int, tuple[float, tuple]]]] = [
            {} for _ in range(table.n_states)]
        self.accept_logprobs: dict[int, float] = {}
        self.leaves: list[dict[str, _Vertex]] = [
            {} for _ in range(table.n_states)]
        for (state, lookahead), available in table.actions.items():
            class_counts = self.counts.get((state, lookahead), {})
            total = sum(class_counts.values())
            for action in available:
                count = class_counts.get(action, 0)
                prob = (count + 1) / (total + len(available))
                step = (state, lookahead, action)
                self._probs[step] = prob
                logprob = math.log(prob)
                if action[0] == "shift":
                    # a leaf's one edge is its shift
                    self.leaves[state][lookahead] = _Vertex(
                        None, action[1],
                        [(None, (), logprob, 0.0, logprob, step)], 0,
                        logprob, False, math.inf)
                elif action[0] == "reduce":
                    self.reduce_rows[state].setdefault(lookahead, {})[
                        action[1]] = (logprob, step)
                else:
                    self.accept_logprobs[state] = logprob

    def prob(self, state: int, lookahead: str, action: tuple) -> float:
        """Raises ``KeyError`` for a step the table does not list."""
        return self._probs[(state, lookahead, action)]


def train_actions(trees: Iterable[Tree], table: LRTable
                  ) -> tuple[ActionModel, list[tuple[int, str]]]:
    """Train from raw gold trees, counting the actions along each one's
    :func:`tree_actions` trace; returns the model and the ``(index,
    reason)`` of every tree the grammar cannot derive (a tag, shape or
    root fault), which is left out."""
    counts: dict[tuple[int, str], Counter] = {}
    skipped = []
    for index, tree in enumerate(trees):
        try:
            trace = tree_actions(tree, table)
        except UnderivableTreeError as exc:
            skipped.append((index, str(exc)))
            continue
        for state, lookahead, action in trace:
            counts.setdefault((state, lookahead), Counter())[action] += 1
    return ActionModel(table, counts), skipped


# The search sums a derivation's log-probabilities in tree order, its
# report in trace order and the lexical shares in preorder, so the two
# totals of one derivation can differ in the last bits.  Each is a
# sum of m terms of one sign (all at most 0), hence within
# m * 2**-53 * |total| of the real sum, and the two within twice that.
# A derivation left out of the search holds a score more than
# _TIE_BAND * |score| below the n-th best's; for m under 10**6 steps
# that exceeds the rounding of both sides, so its exact total is below
# the n-th best's and no tie is lost before the final sort.
#
# A vertex's margin is a difference of two such sums (or a tail's
# margin), so it is within 2 * m * 2**-53 * |total| + (m + 1) * 2**-53
# * margin of the exact gap to the runner-up, and the reported totals of
# the two best derivations differ by the margin within _TIE_BAND *
# (|first| + |second|).  The lazy search's score of each derivation is
# within m * 2**-53 times its magnitude of the exact one, so a root
# margin above 2 * _TIE_BAND * |total| puts every other derivation's
# search score more than _TIE_BAND * |total| below the best's: the
# search would pop none of them at n = 1, and unpack_n_best skips it.
_TIE_BAND = 1e-9


class _Vertex:
    """A (forest node, entry state) vertex of the ranking hypergraph; a
    leaf's, shared by every forest, has no node.

    Each edge is ``(rule, tails, weight, share, logprob, step)``: the
    rule applied (``None`` for a leaf's shift), the daughter vertices,
    the closing action's log-probability plus the lexical share, the
    share alone, the log-probability alone and the ``(state, lookahead,
    action)`` step of that action (the shift, or the rule's reduce).
    ``derivations`` lists ``(score, edge index, tail ranks)`` best
    first, as far as found; ``score`` is the best one's score, and
    ``margin`` is that less the runner-up's, ``inf`` with one
    derivation.
    """

    __slots__ = ("node", "exit", "edges", "ambiguous", "score", "margin",
                 "derivations", "candidates", "seen")

    def __init__(self, node: Optional[ForestNode], exit_state: int,
                 edges: list, best: int, score: float, ambiguous: bool,
                 margin: float):
        self.node = node
        self.exit = exit_state
        self.edges = edges
        self.ambiguous = ambiguous
        self.score = score
        self.margin = margin
        self.derivations = [(score, best, (0,) * len(edges[best][1]))]
        # both made when a second derivation is first asked for
        self.candidates: Optional[list] = None
        self.seen: Optional[set] = None


def _edge_score(edge: tuple, ranks: tuple[int, ...]) -> float:
    score = 0.0
    for tail, rank in zip(edge[1], ranks):
        score += tail.derivations[rank][0]
    return score + edge[2]


class _ForestSearch:
    """Viterbi and lazy k-best search over one parsed forest's
    hypergraph, whose grammar the caller has checked.  It is made with
    its Viterbi pass run: ``root`` is the root vertex, ``accept_logprob``
    the accept's log-probability, and ``clear`` whether the root margin
    clears the tie band, so that no derivation ties the best."""

    __slots__ = ("lookaheads", "leaves", "reduce_rows", "moves", "lexical",
                 "vertices", "root", "accept_logprob", "clear")

    def __init__(self, forest: Forest, model: ActionModel,
                 lexical: Optional[Callable[[Rule, tuple[ForestNode, ...]],
                                            float]]):
        # the lookahead of a node's final reduce, by the node's end
        self.lookaheads = forest.tokens + (END_MARKER,)
        self.leaves = model.leaves
        self.reduce_rows = model.reduce_rows
        self.moves = model.table.moves
        self.lexical = lexical
        self.vertices: dict[tuple[ForestNode, int], _Vertex] = {}
        self.root = root = self.visit(forest.root, model.table.start_state)
        self.accept_logprob = model.accept_logprobs[root.exit]
        self.clear = (root.margin
                      > 2 * _TIE_BAND * abs(root.score + self.accept_logprob))

    def visit(self, node: ForestNode, state: int) -> _Vertex:
        """The vertex of the non-leaf ``node`` entered from ``state``, not
        made yet, with its best derivation and its margin."""
        vertices = self.vertices
        leaves = self.leaves
        lookahead = self.lookaheads[node.end]
        reduce_rows = self.reduce_rows
        lexical = self.lexical
        edges = []
        best = -1
        best_score = runner = -math.inf
        ambiguous = len(node.alternatives) > 1
        for rule, daughters in node.alternatives:
            tails = []
            entry = state
            score = 0.0
            for daughter in daughters:
                if not daughter.alternatives:
                    tail = leaves[entry][daughter.symbol]
                else:
                    tail = vertices.get((daughter, entry))
                    if tail is None:
                        tail = self.visit(daughter, entry)
                    ambiguous = ambiguous or tail.ambiguous
                tails.append(tail)
                score += tail.score
                entry = tail.exit
            share = lexical(rule, daughters) if lexical is not None else 0.0
            logprob, step = reduce_rows[entry][lookahead][rule.rule_id]
            weight = logprob + share
            score += weight
            if best < 0 or score > best_score:  # the first of the best
                best = len(edges)
                runner = best_score
                best_score = score
            elif score > runner:
                runner = score
            edges.append((rule, tuple(tails), weight, share, logprob, step))
        # The runner-up takes another edge's best derivation, or the best
        # edge with one tail's runner-up.
        margin = math.inf
        if ambiguous:
            margin = best_score - runner
            for tail in edges[best][1]:
                if tail.margin < margin:
                    margin = tail.margin
        vertex = vertices[(node, state)] = _Vertex(
            node, self.moves[state][node.symbol], edges, best,
            best_score, ambiguous, margin)
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
            seen = vertex.seen = set()
            for index, edge in enumerate(vertex.edges):
                ranks = (0,) * len(edge[1])
                seen.add((index, ranks))
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

    def build(self, vertex: _Vertex, k: int, trace: list, logprobs: list,
              shares: list) -> Tree:
        """The tree of the non-leaf ``vertex``'s rank-``k`` derivation; its
        action steps and their log-probabilities are appended to ``trace``
        and ``logprobs`` in trace order, and the lexical shares of its rule
        applications to ``shares`` in preorder."""
        _, index, ranks = vertex.derivations[k]
        rule, tails, _, share, logprob, step = vertex.edges[index]
        node = vertex.node
        shares.append(share)
        children = []
        # edges[index] was made from alternatives[index]
        daughters = node.alternatives[index][1]
        for tail, rank, daughter in zip(tails, ranks, daughters):
            if not daughter.alternatives:
                shift = tail.edges[0]
                trace.append(shift[5])
                logprobs.append(shift[4])
                children.append(Tree(daughter.symbol, daughter.start,
                                     daughter.end))
            else:
                children.append(self.build(tail, rank, trace, logprobs,
                                           shares))
        trace.append(step)
        logprobs.append(logprob)
        return Tree(node.symbol, node.start, node.end, tuple(children), rule)


def _check_grammar(forest: Forest, model: ActionModel) -> None:
    # The search trusts the forest once it was parsed over the model's
    # grammar, whose rule objects the model's table holds.
    if forest.grammar is not model.table.grammar:
        raise ValueError("model/table mismatch: forest built from a "
                         "different grammar")


def top_applications(forest: Forest, model: ActionModel
                     ) -> list[tuple[Rule, tuple]]:
    """The rule applications ``(rule, daughters)`` of the structural top
    analysis ``unpack_n_best(forest, model, 1)[0]`` of the parsed
    ``forest``, in preorder; ``[]`` for an empty forest.  A forest of
    one derivation is that analysis, so its one alternative per node is
    read straight off it, with no Viterbi pass.  Otherwise, off a near
    tie, they are read off the Viterbi pass by following each vertex's
    best edge, with no tree, trace or score built; either way the
    daughters are forest nodes.  When the root margin is within the tie
    band only the trace sort of :func:`unpack_n_best` picks the top
    analysis, so they are read off the tree it builds from the same
    pass, and the daughters are tree nodes."""
    _check_grammar(forest, model)
    if forest.root is None:
        return []
    # Every node of a forest of one derivation has one alternative, so
    # that derivation is read off in the order of the best-edge walk
    # below; the first node with two alternatives hands over to the pass.
    applications = []
    stack = [forest.root]
    while stack:
        node = stack.pop()
        if len(node.alternatives) > 1:
            break
        rule, daughters = node.alternatives[0]
        applications.append((rule, daughters))
        for daughter in reversed(daughters):
            if daughter.alternatives:
                stack.append(daughter)
    else:
        return applications
    search = _ForestSearch(forest, model, None)
    if not search.clear:
        [top] = _best_analyses(search, 1)
        return [(node.rule, node.children)
                for node in top.derivation.tree.iter_nodes() if node.children]
    applications = []
    stack = [search.root]
    while stack:
        vertex = stack.pop()
        index = vertex.derivations[0][1]
        rule, tails = vertex.edges[index][:2]
        # edges[index] was made from alternatives[index]
        applications.append((rule, vertex.node.alternatives[index][1]))
        for tail in reversed(tails):
            if tail.node is not None:  # not a leaf's
                stack.append(tail)
    return applications


def unpack_n_best(forest: Forest, model: ActionModel, n: int,
                  lexical: Optional[Callable[[Rule, tuple[ForestNode, ...]],
                                             float]] = None
                  ) -> list[RankedAnalysis]:
    """The ``min(n, total)`` best analyses by total score, descending,
    with ties broken by :func:`trace_sort_key`.  The total is the sum,
    in trace order, of the derivation's step log-probabilities plus its
    lexical term: the sum, in preorder, of ``lexical(rule, daughters)``
    over its rule applications, each a log-probability (at most 0) given
    the forest nodes the application combines; ``0.0`` without ``lexical``.

    The forest is searched, not unpacked: see the module docstring.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be an int of at least 1, got {n!r}")
    _check_grammar(forest, model)
    if forest.root is None:
        return []
    return _best_analyses(_ForestSearch(forest, model, lexical), n)


def _best_analyses(search: _ForestSearch, n: int) -> list[RankedAnalysis]:
    """The ``n`` best analyses of :func:`unpack_n_best`, from the search
    after its Viterbi pass."""
    root = search.root
    accept = (root.exit, END_MARKER, ("accept",))
    if n == 1 and search.clear:
        popped = 1
    else:
        popped = 0
        floor = None
        while search.has_derivation(root, popped):
            score = root.derivations[popped][0] + search.accept_logprob
            if floor is not None and score < floor:
                break
            popped += 1
            if popped == n:
                floor = score - _TIE_BAND * abs(score)
    scored = []
    for k in range(popped):
        trace: list = []
        logprobs: list = []
        shares: list = []
        tree = search.build(root, k, trace, logprobs, shares)
        trace.append(accept)
        logprobs.append(search.accept_logprob)
        scored.append((Derivation(tree, tuple(trace)), sum(logprobs),
                       sum(shares, 0.0)))
    if len(scored) > 1:
        scored.sort(key=lambda item: (-(item[1] + item[2]),
                                      trace_sort_key(item[0].actions)))
    return [RankedAnalysis(*item) for item in scored[:n]]


def save_model(model: ActionModel, path) -> None:
    """Persist as ``state<TAB>lookahead<TAB>action<TAB>count<TAB>prob``.

    Every action available in the table is written, including unseen
    ones, so the file alone determines the distributions.
    """
    lines = []
    for (state, lookahead), available in model.table.actions.items():
        for action in available:
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
        _check_count(count)
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
