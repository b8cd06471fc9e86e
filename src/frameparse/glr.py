"""Generalized-LR parsing over a graph-structured stack into a packed forest.

The graph-structured stack (GSS) merges the parallel LR stacks that
conflicts spawn: one node per (state, input position), edges labelled
with forest nodes.  Ambiguity is packed in the forest by (category,
span); each packed node holds the alternative daughter sequences found
for it, so the forest holds exactly the grammar's derivations of the
input in space polynomial in its length, however many there are.
Ranking searches it without unpacking (see :mod:`frameparse.actions`).

Most positions meet no conflict, so a parse starts as plain LR over a
list stack of states and edge labels (McPeak & Necula 2004, "Elkhound").
Each position is decided on states alone before any node is made: its
reductions run on the state they push over a depth into the stack, and
each must be its cell's only rule with no shift on the lookahead.  A
position that passes is built; at the first that does not, or where
the parse dies, the stack becomes a chain of GSS nodes and the GSS loop
runs from that position on.  So nothing is rolled back, and since the
GSS would run a passing position's reductions one by one in the same
order, the forest's nodes and alternatives come out in the order it
alone would make them.  A state entered twice at one position needs no
check: it holds a reduce and no shift on the lookahead, else the chain
would have stopped the first time, so the GSS would use the edge
merged into it only for one reduction pinned to that edge, which is
what LR does.

The grammar excludes empty rules after normalization, so every stack
edge spans at least one token and reductions never loop within a
position; a newly added edge only ever re-triggers reductions of the
node that received it.  Each step reads the table's per-state rows:
``reduces[state]`` for the rules to reduce on the lookahead and
``moves[state]`` for the state a shift or goto enters.  A reduction
lists its backward paths, in the order of a depth-first walk in edge
order, before it adds any edge: a right-recursive rule's goto can land
on the very node being reduced.  A rule of one to three daughters lists
them in one comprehension; a longer rule extends them one edge at a
time.  A forest records the grammar it was parsed over, so ranking
checks once per forest that it is the model's.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .grammar import END_MARKER, Grammar, Rule
from .lrtable import LRTable


class ParseError(ValueError):
    """Input token outside the grammar's terminal set."""


class ForestNode:
    """Packed node for one (category, span); ambiguity lives in
    ``alternatives``, each a (rule, daughter forest nodes) pair.  A leaf
    has none: its ``alternatives`` is ``()``."""

    __slots__ = ("symbol", "start", "end", "alternatives")

    def __init__(self, symbol: str, start: int, end: int, alternatives:
                 list[tuple[Rule, tuple["ForestNode", ...]]] | tuple[()]):
        self.symbol = symbol
        self.start = start
        self.end = end
        self.alternatives = alternatives


class Forest:
    """Packed parse forest over ``grammar``, whose rule objects its
    alternatives hold; empty (``root is None``) iff the input is out of
    coverage."""

    __slots__ = ("tokens", "root", "nodes", "grammar")

    def __init__(self, tokens: tuple[str, ...], root: Optional[ForestNode],
                 nodes: dict[tuple[str, int, int], ForestNode],
                 grammar: Grammar):
        self.tokens = tokens
        self.root = root
        self.nodes = nodes
        self.grammar = grammar

    def derivation_count(self) -> int:
        if self.root is None:
            return 0
        # A node is counted once all its non-leaf daughters are.
        counts: dict[ForestNode, int] = {}
        stack = [self.root]
        while stack:
            node = stack[-1]
            if node in counts:
                stack.pop()
                continue
            pending = [child for _, children in node.alternatives
                       for child in children
                       if child.alternatives and child not in counts]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            total = 0
            for _, children in node.alternatives:
                product = 1
                for child in children:
                    if child.alternatives:
                        product *= counts[child]
                total += product
            counts[node] = total
        return counts[self.root]


class _GssNode:
    """A GSS node: an LR state, at the input position where its edges'
    labels end."""

    __slots__ = ("state", "edges")

    def __init__(self, state: int,
                 edges: dict[tuple[ForestNode, "_GssNode"], None]):
        self.state = state
        # Edges run backwards in the input: (forest label, earlier node)
        # keys, in insertion order.  Both are compared by identity.
        self.edges = edges


def glr_parse(tokens: Sequence[str], table: LRTable) -> Forest:
    """Parse a PoS-tag sequence into a packed forest.

    Unknown terminals raise :class:`ParseError` with the offending
    position; an in-vocabulary sentence outside the grammar's coverage
    yields an empty forest.
    """
    grammar = table.grammar
    terminals = grammar.terminals
    if not terminals.issuperset(tokens):
        for i, tok in enumerate(tokens):
            if tok not in terminals:
                raise ParseError(f"unknown terminal {tok!r} at index {i}")

    nodes: dict[tuple[str, int, int], ForestNode] = {}
    # (packed node, rule id, daughters) of every alternative added:
    # nodes are unique per (symbol, start, end) within one parse, so the
    # daughters' identity tells alternatives apart.
    added: set[tuple[ForestNode, int, tuple[ForestNode, ...]]] = set()
    moves = table.moves
    reduces = table.reduces
    n = len(tokens)
    # Plain LR while each position is deterministic, over a list stack:
    # each entry's state, and the forest node on the edge into it.
    states, labels = [table.start_state], [None]
    padded = [*tokens, END_MARKER]
    for i, lookahead in enumerate(padded):
        # Decide the position on states alone: its (rule, goto) steps,
        # each of which pops the top state and the rest of its rule from
        # the ``depth`` entries under it.  No rule is empty, so the top is
        # the one state a step pushes and all under it are the stack's.
        state, depth, chain = states[-1], len(states) - 1, []
        rules = reduces[state].get(lookahead)
        while rules and len(rules) == 1 and lookahead not in moves[state]:
            rule = rules[0]
            depth -= len(rule.daughters) - 1
            state = moves[states[depth - 1]][rule.mother]
            chain.append((rule, state))
            rules = reduces[state].get(lookahead)
        target = moves[state].get(lookahead)
        if rules or target is None and i < n:  # a conflict or a dead end
            below = _GssNode(table.start_state, {})
            for state, label in zip(states[1:], labels[1:]):
                below = _GssNode(state, {(label, below): None})
            frontier = {below.state: below}
            break
        for rule, state in chain:
            children = tuple(labels[-len(rule.daughters):])
            del states[-len(children):], labels[-len(children):]
            packed = ForestNode(rule.mother, children[0].start, i,
                                [(rule, children)])
            nodes[(rule.mother, packed.start, i)] = packed
            states.append(state)
            labels.append(packed)
        if i == n:
            i += 1  # parsed to the end: no position is left for the GSS
            break
        states.append(target)
        labels.append(ForestNode(lookahead, i, i + 1, ()))
        nodes[(lookahead, i, i + 1)] = labels[-1]

    for i in range(i, n + 1):
        lookahead = padded[i]
        # (node, rule, edge): a reduction of node on the lookahead, its
        # paths pinned to a newly added first edge when one is given.
        # The loop below runs the reductions it appends as well.
        work: list[tuple[_GssNode, Rule, Optional[tuple]]] = []
        # states in sorted order; most frontiers hold one
        for state in (sorted(frontier) if len(frontier) > 1 else frontier):
            node = frontier[state]
            for rule in reduces[state].get(lookahead, ()):
                work.append((node, rule, None))
        for node, rule, via in work:
            lhs = rule.mother
            # Every backward path of the rule's length, as (daughters
            # left to right, base node), listed in full before the loop
            # below can add an edge to node.  No rule is empty, so the
            # first edge is the pinned one or one of the node's own.
            first = node.edges if via is None else (via,)
            length = len(rule.daughters)
            if length == 2:
                paths = [((label2, label), target) for label, base in first
                         for label2, target in base.edges]
            elif length == 3:
                paths = [((label3, label2, label), target)
                         for label, base in first
                         for label2, base2 in base.edges
                         for label3, target in base2.edges]
            else:  # one daughter, or four and more: edge by edge
                paths = [((label,), target) for label, target in first]
                for _ in range(length - 1):
                    paths = [((label,) + tail, target)
                             for tail, base in paths
                             for label, target in base.edges]
            for children, base in paths:
                key = (lhs, children[0].start, i)
                packed = nodes.get(key)
                if packed is None:
                    packed = nodes[key] = ForestNode(lhs, key[1], i,
                                                     [(rule, children)])
                    added.add((packed, rule.rule_id, children))
                else:
                    alternative = (packed, rule.rule_id, children)
                    if alternative not in added:
                        added.add(alternative)
                        packed.alternatives.append((rule, children))
                target_state = moves[base.state][lhs]
                edge = (packed, base)
                existing = frontier.get(target_state)
                if existing is None:
                    fresh = _GssNode(target_state, {edge: None})
                    frontier[target_state] = fresh
                    for next_rule in reduces[target_state].get(lookahead, ()):
                        work.append((fresh, next_rule, None))
                elif edge not in existing.edges:
                    existing.edges[edge] = None
                    for next_rule in reduces[target_state].get(lookahead, ()):
                        work.append((existing, next_rule, edge))
        if i == n:
            break
        # no node ends past i yet, so the leaf is new
        leaf = nodes[(lookahead, i, i + 1)] = ForestNode(lookahead, i, i + 1,
                                                         ())
        next_frontier: dict[int, _GssNode] = {}
        for state in (sorted(frontier) if len(frontier) > 1 else frontier):
            target = moves[state].get(lookahead)
            if target is None:
                continue
            shifted = next_frontier.get(target)
            if shifted is None:
                shifted = next_frontier[target] = _GssNode(target, {})
            shifted.edges[(leaf, frontier[state])] = None
        frontier = next_frontier
        if not frontier:
            return Forest(tuple(tokens), None, {}, grammar)

    # No accept flag: with no empty rules only the start state lives at
    # position 0, so a start-symbol node over the input was reduced onto
    # it, entering goto(start, S), the only state with the accept item.
    root = nodes.get((grammar.start_symbol, 0, n))
    return Forest(tuple(tokens), root, nodes if root is not None else {},
                  grammar)
