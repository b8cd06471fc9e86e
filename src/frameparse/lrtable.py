"""LALR(1) parse tables with all conflicts retained.

The table drives a generalized-LR parser, so shift/reduce and
reduce/reduce conflicts are not resolved: every action admissible for a
(state, lookahead) pair is stored, sorted under a fixed action order
(shifts before reduces, reduces by rule id, accept last) that also
serves as the deterministic tie-break for equal derivation scores.

Construction walks the LR(0) kernels and propagates lookahead sets
along their transitions until none grows (Aho, Sethi & Ullman 1986,
section 4.7), so the canonical LR(1) collection is never built.  Tables
are immutable once built and shareable across concurrent parses.  State
numbering depends only on the grammar, never on hash order, so persisted
action models remain valid across runs.

``actions`` is the table as listed and persisted.  The parser, the
forest search and training read its compiled form, built once with it:
``shifts`` maps (state, terminal) to the shift target and ``reduces``
maps (state, lookahead) to the rules to reduce, in ``actions`` order.
"""

from __future__ import annotations

from collections import deque

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


class LRTable:
    __slots__ = ("grammar", "n_states", "actions", "gotos", "shifts",
                 "reduces", "start_state")

    def __init__(self, grammar: Grammar, n_states: int,
                 actions: dict[tuple[int, str], tuple[tuple, ...]],
                 gotos: dict[tuple[int, str], int],
                 shifts: dict[tuple[int, str], int],
                 reduces: dict[tuple[int, str], tuple[Rule, ...]],
                 start_state: int):
        self.grammar = grammar
        self.n_states = n_states
        self.actions = actions
        self.gotos = gotos
        self.shifts = shifts
        self.reduces = reduces
        self.start_state = start_state

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
    :func:`frameparse.grammar.normalize_kleene`) and cycle-free, and each
    of its non-terminals must derive a terminal string, as loading checks.
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

    def closure(kernel: dict) -> dict:
        # An added dot-0 item takes FIRST of what follows the non-terminal
        # it expands, or, when nothing follows, the expanding item's own
        # lookaheads; an item is expanded again whenever its set grows.
        items = {item: set(las) for item, las in kernel.items()}
        work = list(items)
        while work:
            rule_id, dot = item = work.pop()
            body = rhs(rule_id)
            if dot >= len(body) or body[dot] not in nonterminals:
                continue
            las = first[body[dot + 1]] if dot + 1 < len(body) else items[item]
            for sub in rules_by_lhs[body[dot]]:
                added = (sub.rule_id, 0)
                target = items.setdefault(added, set())
                if not las <= target:
                    target |= las
                    work.append(added)
        return items

    # One worklist over LR(0) kernels whose items hold lookahead sets.  A
    # state's successors are made on its first visit, in sorted-symbol
    # order, so states are numbered in LR(0) breadth-first order and the
    # numbering is reproducible.  Each visit pushes every item's set into
    # its shifted item, and a successor whose set grew is visited again.
    kernels: list[dict] = [{(_AUGMENTED, 0): {END_MARKER}}]
    index = {frozenset(kernels[0]): 0}
    moves: list[dict[str, int]] = []
    queue, queued = deque([0]), {0}
    while queue:
        state_id = queue.popleft()
        queued.discard(state_id)
        grouped: dict[str, dict] = {}
        for (rule_id, dot), las in closure(kernels[state_id]).items():
            body = rhs(rule_id)
            if dot < len(body):
                grouped.setdefault(body[dot], {})[(rule_id, dot + 1)] = las
        if state_id == len(moves):
            successors = {}
            for symbol in sorted(grouped):
                core = frozenset(grouped[symbol])
                target_id = index.get(core)
                if target_id is None:
                    target_id = index[core] = len(kernels)
                    kernels.append({item: set() for item in grouped[symbol]})
                    queue.append(target_id)
                    queued.add(target_id)
                successors[symbol] = target_id
            moves.append(successors)
        for symbol, target_id in moves[state_id].items():
            kernel = kernels[target_id]
            for item, las in grouped[symbol].items():
                if not las <= kernel[item]:
                    kernel[item] |= las
                    if target_id not in queued:
                        queue.append(target_id)
                        queued.add(target_id)

    # Closure adds only dot-0 items and no rule is empty, so every reduce
    # and accept item is a kernel item.
    actions: dict[tuple[int, str], set] = {}
    gotos: dict[tuple[int, str], int] = {}
    for state_id, successors in enumerate(moves):
        for symbol, target_id in successors.items():
            if symbol in nonterminals:
                gotos[(state_id, symbol)] = target_id
            else:
                actions.setdefault((state_id, symbol), set()).add(
                    ("shift", target_id))
        for (rule_id, dot), las in kernels[state_id].items():
            if dot < len(rhs(rule_id)):
                continue
            if rule_id == _AUGMENTED:
                actions.setdefault((state_id, END_MARKER), set()).add(("accept",))
            else:
                for la in las:
                    actions.setdefault((state_id, la), set()).add(
                        ("reduce", rule_id))

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
    return LRTable(grammar=grammar, n_states=len(kernels),
                   actions=frozen_actions, gotos=gotos, shifts=shifts,
                   reduces=reduces, start_state=0)
