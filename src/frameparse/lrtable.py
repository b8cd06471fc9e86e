"""LALR(1) parse tables with all conflicts retained.

The table drives a generalized-LR parser, so shift/reduce and
reduce/reduce conflicts are not resolved: every action admissible for a
(state, lookahead) pair is stored, sorted under a fixed action order
(shifts before reduces, reduces by rule id, accept last) that also
serves as the deterministic tie-break for equal derivation scores.

Construction builds the LR(0) automaton, closing each state once, and
then computes the LALR(1) lookaheads on it by DeRemer & Pennello's
includes and lookback relations ("Efficient computation of LALR(1)
look-ahead sets", 1982); no rule is empty, so their reads relation is
not needed.  The canonical LR(1) collection is never built.  Tables
are immutable once built and shareable across concurrent parses.  State
numbering depends only on the grammar, never on hash order, so persisted
action models remain valid across runs.

``actions`` is the table as listed, which model files and
``conflicts`` read.  The parser, the forest search and training read
its steps compiled into one row per state, built once with it:
``moves[state]`` maps a symbol, terminal or non-terminal, to the state
that shifting it or going to it enters, and ``reduces[state]`` maps a
lookahead to the rules to reduce, in ``actions`` order.  A rule's id is
its position in the grammar's rules, as every ``Grammar`` ensures, so
``reduces`` holds the grammar's own rule objects.
"""

from __future__ import annotations

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
    __slots__ = ("grammar", "actions", "moves", "reduces")

    # State 0 holds the augmented start item; the build numbers it first.
    start_state = 0

    def __init__(self, grammar: Grammar,
                 actions: dict[tuple[int, str], tuple[tuple, ...]],
                 moves: list[dict[str, int]],
                 reduces: list[dict[str, tuple[Rule, ...]]]):
        self.grammar = grammar
        self.actions = actions
        self.moves = moves
        self.reduces = reduces

    @property
    def n_states(self) -> int:
        return len(self.moves)

    def conflicts(self) -> list[tuple[int, str, tuple[tuple, ...]]]:
        """All (state, lookahead) pairs admitting more than one action."""
        found = [(state, la, acts) for (state, la), acts in self.actions.items()
                 if len(acts) > 1]
        found.sort()
        return found


def build_table(grammar: Grammar) -> LRTable:
    """Build the LALR(1) table for a normalized grammar.

    The grammar must be free of repetition markers (see
    :func:`frameparse.grammar.normalize_kleene`); the rest the table
    relies on, a ``Grammar`` ensures when it is made: no rule is empty,
    none is headed by a terminal (``moves`` holds shifts and gotos in one
    map per state), there is no derivation cycle and each non-terminal
    derives a terminal string.
    """
    if grammar.has_repetition():
        raise GrammarError("grammar contains repetition markers; normalize first")

    rules = grammar.rules
    rules_by_lhs = grammar.rules_by_lhs
    nonterminals = grammar.nonterminals
    start = grammar.start_symbol
    # An item is (rule id, dot); the augmented rule's body is last, so
    # that _AUGMENTED indexes it.
    bodies = [rule.daughters for rule in rules] + [(start,)]

    # The LR(0) automaton, breadth first.  A state's closure adds the
    # dot-0 items of each non-terminal after a dot once, and its
    # successors are made in sorted-symbol order, so the numbering is
    # reproducible.
    kernels = [frozenset({(_AUGMENTED, 0)})]
    index = {kernels[0]: 0}
    moves: list[dict[str, int]] = []
    actions: dict[tuple[int, str], set] = {}
    # the loop also visits the kernels it appends
    for state_id, kernel in enumerate(kernels):
        items = list(kernel)
        expanded = set()
        grouped: dict[str, list] = {}
        for rule_id, dot in items:  # likewise for the items
            body = bodies[rule_id]
            if dot < len(body):
                symbol = body[dot]
                grouped.setdefault(symbol, []).append((rule_id, dot + 1))
                if symbol in nonterminals and symbol not in expanded:
                    expanded.add(symbol)
                    items.extend((sub.rule_id, 0) for sub in rules_by_lhs[symbol])
        successors = {}
        for symbol in sorted(grouped):
            core = frozenset(grouped[symbol])
            target_id = index.get(core)
            if target_id is None:
                target_id = index[core] = len(kernels)
                kernels.append(core)
            successors[symbol] = target_id
            if symbol not in nonterminals:
                actions[(state_id, symbol)] = {("shift", target_id)}
        moves.append(successors)

    # LALR(1) lookaheads by DeRemer & Pennello (1982).  No rule is empty,
    # so no symbol is nullable: the follow set of a goto (p, A) holds the
    # terminals goto(p, A) shifts, joined with the follow set of (p', B)
    # for each rule B -> ... A walked from p' to p, and a rule of B
    # walked from p to q reduces in q on the follow sets of (p, B).
    follow = {(state_id, symbol): {successor for successor in moves[target_id]
                                   if successor not in nonterminals}
              for state_id, row in enumerate(moves)
              for symbol, target_id in row.items() if symbol in nonterminals}
    follow[(0, start)].add(END_MARKER)
    includes: list[tuple[set, set]] = []
    lookback: dict[tuple[int, int], list[set]] = {}
    for (state_id, mother), source in follow.items():
        for rule in rules_by_lhs[mother]:
            state = state_id
            for symbol in rule.daughters[:-1]:
                state = moves[state][symbol]
            last = rule.daughters[-1]
            if last in nonterminals:
                includes.append((follow[(state, last)], source))
            lookback.setdefault((moves[state][last], rule.rule_id),
                                []).append(source)
    changed = True
    while changed:
        changed = False
        for target, source in includes:
            if not source <= target:
                target |= source
                changed = True
    actions.setdefault((moves[0][start], END_MARKER), set()).add(("accept",))
    for (state_id, rule_id), sources in lookback.items():
        for lookahead in set().union(*sources):
            actions.setdefault((state_id, lookahead), set()).add(
                ("reduce", rule_id))

    # Sorted keys: the sets above iterate in hash order.
    frozen_actions = {key: tuple(sorted(acts, key=action_sort_key))
                      for key, acts in sorted(actions.items())}
    reduces: list[dict[str, tuple[Rule, ...]]] = [{} for _ in kernels]
    for (state_id, lookahead), acts in frozen_actions.items():
        reducible = tuple(rules[action[1]] for action in acts
                          if action[0] == "reduce")
        if reducible:
            reduces[state_id][lookahead] = reducible
    return LRTable(grammar=grammar, actions=frozen_actions, moves=moves,
                   reduces=reduces)
