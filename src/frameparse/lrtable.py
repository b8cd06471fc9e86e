"""LALR(1) parse tables with all conflicts retained.

The table drives a generalized-LR parser, so shift/reduce and
reduce/reduce conflicts are not resolved: every action admissible for a
(state, lookahead) pair is stored, sorted under a fixed action order
(shifts before reduces, reduces by rule id, accept last) that also
serves as the deterministic tie-break for equal derivation scores.

Construction builds the canonical LR(1) collection and merges states
with equal cores.  Tables are immutable once built and shareable across
concurrent parses.  State numbering depends only on the grammar, never
on hash order, so persisted action models remain valid across runs.

``actions`` is the table as listed and persisted.  The parser, the
forest search and training read its compiled form, built once with it:
``shifts`` maps (state, terminal) to the shift target and ``reduces``
maps (state, lookahead) to the rules to reduce, in ``actions`` order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .grammar import END_MARKER, Grammar, GrammarError, Rule

# Actions are plain tuples: ("shift", state), ("reduce", rule_id), ("accept",).
_AUGMENTED = -1  # virtual rule id for  @S -> start-symbol


def action_sort_key(action: tuple) -> tuple[int, int]:
    if action[0] == "shift":
        return (0, action[1])
    if action[0] == "reduce":
        return (1, action[1])
    return (2, 0)


def render_action(action: tuple) -> str:
    if action[0] == "shift":
        return "shift:%d" % action[1]
    if action[0] == "reduce":
        return "reduce:%d" % action[1]
    return "accept"


def parse_action(text: str) -> tuple:
    if text == "accept":
        return ("accept",)
    kind, _, arg = text.partition(":")
    if kind in ("shift", "reduce") and arg.lstrip("-").isdigit():
        return (kind, int(arg))
    raise ValueError(f"cannot parse action {text!r}")


@dataclass(frozen=True)
class LRTable:
    grammar: Grammar
    n_states: int
    actions: dict[tuple[int, str], tuple[tuple, ...]] = field(compare=False)
    gotos: dict[tuple[int, str], int] = field(compare=False)
    shifts: dict[tuple[int, str], int] = field(compare=False)
    reduces: dict[tuple[int, str], tuple[Rule, ...]] = field(compare=False)
    start_state: int = 0

    def conflicts(self) -> list[tuple[int, str, tuple[tuple, ...]]]:
        """All (state, lookahead) pairs admitting more than one action."""
        found = [(state, la, acts) for (state, la), acts in self.actions.items()
                 if len(acts) > 1]
        found.sort()
        return found


def _first_sets(grammar: Grammar) -> dict[str, frozenset[str]]:
    # No empty rules, hence no nullable symbols: FIRST of a sequence is
    # the FIRST set of its first symbol.
    first: dict[str, set[str]] = {t: {t} for t in grammar.terminals}
    for nt in grammar.nonterminals:
        first.setdefault(nt, set())
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            lead = rule.daughters[0]
            target = first[rule.mother]
            before = len(target)
            target |= first.get(lead, set())
            changed = changed or len(target) != before
    return {k: frozenset(v) for k, v in first.items()}


def build_table(grammar: Grammar) -> LRTable:
    """Build the LALR(1) table for a normalized grammar.

    The grammar must be free of repetition markers (see
    :func:`frameparse.grammar.normalize_kleene`) and cycle-free.
    """
    if not grammar.rules:
        raise GrammarError("cannot build a table for an empty rule set")
    if not grammar.terminals:
        raise GrammarError("grammar declares no terminals")
    if grammar.has_repetition():
        raise GrammarError("grammar contains repetition markers; normalize first")
    if grammar.start_symbol not in grammar.nonterminals:
        raise GrammarError(f"start symbol {grammar.start_symbol!r} has no rule")

    rules = grammar.rules
    rules_by_lhs = grammar.rules_by_lhs
    first = _first_sets(grammar)
    nonterminals = grammar.nonterminals

    def rhs(rule_id: int) -> tuple[str, ...]:
        if rule_id == _AUGMENTED:
            return (grammar.start_symbol,)
        return rules[rule_id].daughters

    def closure(items: frozenset) -> frozenset:
        out = set(items)
        queue = deque(items)
        while queue:
            rule_id, dot, la = queue.popleft()
            body = rhs(rule_id)
            if dot >= len(body):
                continue
            symbol = body[dot]
            if symbol not in nonterminals:
                continue
            lookaheads = first[body[dot + 1]] if dot + 1 < len(body) else (la,)
            for sub in rules_by_lhs[symbol]:
                for la2 in lookaheads:
                    item = (sub.rule_id, 0, la2)
                    if item not in out:
                        out.add(item)
                        queue.append(item)
        return frozenset(out)

    # Canonical LR(1) collection, explored in sorted-symbol order so the
    # numbering is reproducible.
    initial = closure(frozenset({(_AUGMENTED, 0, END_MARKER)}))
    lr1_states: list[frozenset] = [initial]
    lr1_index = {initial: 0}
    lr1_moves: list[dict[str, int]] = [{}]
    queue = deque([0])
    while queue:
        state_id = queue.popleft()
        grouped: dict[str, set] = {}
        for rule_id, dot, la in lr1_states[state_id]:
            body = rhs(rule_id)
            if dot < len(body):
                grouped.setdefault(body[dot], set()).add((rule_id, dot + 1, la))
        for symbol in sorted(grouped):
            target = closure(frozenset(grouped[symbol]))
            target_id = lr1_index.get(target)
            if target_id is None:
                target_id = len(lr1_states)
                lr1_states.append(target)
                lr1_index[target] = target_id
                lr1_moves.append({})
                queue.append(target_id)
            lr1_moves[state_id][symbol] = target_id

    # Merge states with equal cores (LALR).  States sharing a core also
    # share per-symbol successors up to core equality, so transitions
    # survive the merge unchanged.
    def core_of(items: frozenset) -> frozenset:
        return frozenset((rule_id, dot) for rule_id, dot, _ in items)

    merged_of: dict[int, int] = {}
    core_index: dict[frozenset, int] = {}
    merged_items: list[set] = []
    for state_id, items in enumerate(lr1_states):
        core = core_of(items)
        merged_id = core_index.get(core)
        if merged_id is None:
            merged_id = len(merged_items)
            core_index[core] = merged_id
            merged_items.append(set())
        merged_of[state_id] = merged_id
        merged_items[merged_id] |= items

    actions: dict[tuple[int, str], set] = {}
    gotos: dict[tuple[int, str], int] = {}
    for state_id, moves in enumerate(lr1_moves):
        merged_id = merged_of[state_id]
        for symbol, target in moves.items():
            if symbol in nonterminals:
                gotos[(merged_id, symbol)] = merged_of[target]
            else:
                actions.setdefault((merged_id, symbol), set()).add(
                    ("shift", merged_of[target]))
    for merged_id, items in enumerate(merged_items):
        for rule_id, dot, la in items:
            if dot < len(rhs(rule_id)):
                continue
            if rule_id == _AUGMENTED:
                actions.setdefault((merged_id, END_MARKER), set()).add(("accept",))
            else:
                actions.setdefault((merged_id, la), set()).add(("reduce", rule_id))

    # Sorted keys: the item sets above iterate in hash order.
    frozen_actions = {key: tuple(sorted(acts, key=action_sort_key))
                      for key, acts in sorted(actions.items())}
    shifts: dict[tuple[int, str], int] = {}
    reduces: dict[tuple[int, str], tuple[Rule, ...]] = {}
    for key, acts in frozen_actions.items():
        for action in acts:
            if action[0] == "shift":
                shifts[key] = action[1]
        reducible = tuple(rules[action[1]] for action in acts
                          if action[0] == "reduce")
        if reducible:
            reduces[key] = reducible
    return LRTable(grammar=grammar, n_states=len(merged_items),
                   actions=frozen_actions, gotos=gotos, shifts=shifts,
                   reduces=reduces, start_state=merged_of[0])
