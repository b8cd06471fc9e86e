"""Generalized-LR parsing over a graph-structured stack into a packed forest.

The graph-structured stack merges the parallel LR stacks that conflicts
spawn: one node per (state, input position), edges labelled with forest
nodes.  Ambiguity is packed in the forest by (category, span); each
packed node holds the alternative daughter sequences found for it, so
the forest holds exactly the grammar's derivations of the input in
space polynomial in its length, however many there are.  Ranking
searches it without unpacking (see :mod:`frameparse.actions`).

The grammar excludes empty rules after normalization, so every stack
edge spans at least one token and reductions never loop within a
position; a newly added edge only ever re-triggers reductions of the
node that received it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .grammar import END_MARKER, Rule
from .lrtable import LRTable


class ParseError(ValueError):
    """Input token outside the grammar's terminal set."""


class ForestNode:
    """Packed node for one (category, span); ambiguity lives in
    ``alternatives``, each a (rule, daughter forest nodes) pair."""

    __slots__ = ("symbol", "start", "end", "leaf", "alternatives", "_alt_keys")

    def __init__(self, symbol: str, start: int, end: int, leaf: bool = False):
        self.symbol = symbol
        self.start = start
        self.end = end
        self.leaf = leaf
        self.alternatives: list[tuple[Rule, tuple["ForestNode", ...]]] = []
        self._alt_keys: set = set()

    def key(self) -> tuple[str, int, int]:
        return (self.symbol, self.start, self.end)

    def add_alternative(self, rule: Rule, children: tuple["ForestNode", ...]) -> bool:
        # Nodes are unique per (symbol, start, end) within one parse, so
        # the daughters' identity tells alternatives apart.
        alt_key = (rule.rule_id, children)
        if alt_key in self._alt_keys:
            return False
        self._alt_keys.add(alt_key)
        self.alternatives.append((rule, children))
        return True

    def __repr__(self):
        return "ForestNode(%s, %d, %d, alts=%d)" % (
            self.symbol, self.start, self.end, len(self.alternatives))


class Forest:
    """Packed parse forest; empty (``root is None``) iff the input is out
    of coverage."""

    __slots__ = ("tokens", "root", "nodes")

    def __init__(self, tokens: tuple[str, ...], root: Optional[ForestNode],
                 nodes: dict[tuple[str, int, int], ForestNode]):
        self.tokens = tokens
        self.root = root
        self.nodes = nodes

    def derivation_count(self) -> int:
        if self.root is None:
            return 0
        # A node is counted once all its non-leaf daughters are.
        counts: dict[tuple, int] = {}
        stack = [self.root]
        while stack:
            node = stack[-1]
            if node.key() in counts:
                stack.pop()
                continue
            pending = [child for _, children in node.alternatives
                       for child in children
                       if not child.leaf and child.key() not in counts]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            total = 0
            for _, children in node.alternatives:
                product = 1
                for child in children:
                    if not child.leaf:
                        product *= counts[child.key()]
                total += product
            counts[node.key()] = total
        return counts[self.root.key()]


class _GssNode:
    __slots__ = ("state", "pos", "edges")

    def __init__(self, state: int, pos: int):
        self.state = state
        self.pos = pos
        # Edges run backwards in the input: (forest label, earlier node)
        # keys, in insertion order.  Both are compared by identity.
        self.edges: dict[tuple[ForestNode, "_GssNode"], None] = {}


def _paths(node: _GssNode, length: int,
           via: Optional[tuple[ForestNode, _GssNode]]):
    """All backward paths of exactly ``length`` edges from ``node``.

    When ``via`` is given the first step is pinned to that edge, which
    restricts a re-run reduction to paths through a newly added edge.
    Returns (daughter forest nodes left-to-right, path base node) pairs.
    """
    # Extending every path by one edge at a time, in edge order, lists
    # them in the order of a depth-first walk.
    paths = [((), node)] if via is None else [((via[0],), via[1])]
    for _ in range(length - len(paths[0][0])):
        paths = [((label,) + labels, target) for labels, base in paths
                 for label, target in base.edges]
    return paths


def glr_parse(tokens: Sequence[str], table: LRTable) -> Forest:
    """Parse a PoS-tag sequence into a packed forest.

    Unknown terminals raise :class:`ParseError` with the offending
    position; an in-vocabulary sentence outside the grammar's coverage
    yields an empty forest.
    """
    grammar = table.grammar
    for i, tok in enumerate(tokens):
        if tok not in grammar.terminals:
            raise ParseError(f"unknown terminal {tok!r} at index {i}")

    nodes: dict[tuple[str, int, int], ForestNode] = {}
    n = len(tokens)
    frontier: dict[int, _GssNode] = {
        table.start_state: _GssNode(table.start_state, 0)}

    def schedule(node: _GssNode, via: Optional[tuple] = None) -> None:
        # queue node's reductions on the lookahead, pinned to a new edge
        for rule in table.reduces.get((node.state, lookahead), ()):
            work.append((node, rule, via))

    for i in range(n + 1):
        lookahead = tokens[i] if i < n else END_MARKER
        work: list[tuple[_GssNode, Rule, Optional[tuple]]] = []
        for state in sorted(frontier):
            schedule(frontier[state])
        cursor = 0
        while cursor < len(work):
            node, rule, via = work[cursor]
            cursor += 1
            lhs = rule.mother
            for children, base in _paths(node, len(rule.daughters), via):
                key = (lhs, base.pos, i)
                packed = nodes.get(key)
                if packed is None:
                    packed = nodes[key] = ForestNode(lhs, base.pos, i)
                packed.add_alternative(rule, children)
                target_state = table.gotos[(base.state, lhs)]
                edge = (packed, base)
                existing = frontier.get(target_state)
                if existing is None:
                    fresh = _GssNode(target_state, i)
                    frontier[target_state] = fresh
                    fresh.edges[edge] = None
                    schedule(fresh)
                elif edge not in existing.edges:
                    existing.edges[edge] = None
                    schedule(existing, edge)
        if i == n:
            break
        # no node ends past i yet, so the leaf is new
        leaf = nodes[(lookahead, i, i + 1)] = ForestNode(lookahead, i, i + 1,
                                                         leaf=True)
        next_frontier: dict[int, _GssNode] = {}
        for state in sorted(frontier):
            target = table.shifts.get((state, lookahead))
            if target is None:
                continue
            shifted = next_frontier.get(target)
            if shifted is None:
                shifted = _GssNode(target, i + 1)
                next_frontier[target] = shifted
            shifted.edges[(leaf, frontier[state])] = None
        frontier = next_frontier
        if not frontier:
            return Forest(tuple(tokens), None, {})

    # No accept flag: with no empty rules only the start state lives at
    # position 0, so a start-symbol node over the input was reduced onto
    # it, entering goto(start, S), the only state with the accept item.
    root = nodes.get((grammar.start_symbol, 0, n))
    return Forest(tuple(tokens), root, nodes if root is not None else {})
