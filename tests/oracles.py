"""Independent reference implementations used only to check the parser.

Nothing here touches the GLR machinery: parses are enumerated by
exhaustive span tiling (CYK style, generalized to n-ary epsilon-free rules),
string languages by a bottom-up fixpoint that interprets repetition
markers directly, and action traces are replayed onto trees with a plain
shift/reduce stack.  Ranking is checked against every tree of
:func:`all_trees` scored on its own and sorted.
"""

import itertools
import random

from frameparse import (Derivation, Grammar, Tree, UnderivableTreeError,
                        parse_grammar, tree_actions, verb_frames)
from frameparse.actions import trace_sort_key


def canon(tree):
    """Canonical tuple form shared by oracle trees and GLR trees."""
    if isinstance(tree, Tree):
        if not tree.children:
            return ("leaf", tree.label, tree.start)
        return (tree.label, tuple(canon(c) for c in tree.children))
    return tree


# Forests with more derivations than this are refused by ``all_trees``,
# so a test that strays onto an exponential forest fails at once
# instead of unpacking it for hours.
MAX_DERIVATIONS = 100_000


def all_trees(forest):
    """Unpack every derivation of ``forest``, in a deterministic order:
    alternatives by rule id and daughter keys, daughters' trees in
    product order."""
    count = forest.derivation_count()
    if count > MAX_DERIVATIONS:
        raise ValueError(f"forest has {count} derivations, more than the "
                         f"oracle's limit of {MAX_DERIVATIONS}")
    if forest.root is None:
        return []
    memo = {}

    def unpack(node):
        key = node.key()
        cached = memo.get(key)
        if cached is not None:
            return cached
        if node.leaf:
            trees = (Tree(node.symbol, node.start, node.end),)
        else:
            ordered = sorted(
                node.alternatives,
                key=lambda alt: (alt[0].rule_id,
                                 tuple(c.key() for c in alt[1])))
            built = []
            for rule, children in ordered:
                for combo in itertools.product(*(unpack(c) for c in children)):
                    built.append(Tree(node.symbol, node.start, node.end, combo,
                                      rule))
            trees = tuple(built)
        memo[key] = trees
        return trees

    return list(unpack(forest.root))


def replay_actions(trace, table):
    """Rebuild the tree an action trace describes: the reference inverse
    of :func:`frameparse.tree_actions`."""
    stack = []
    position = 0
    for _state, lookahead, action in trace:
        if action[0] == "shift":
            stack.append(Tree(lookahead, position, position + 1))
            position += 1
        elif action[0] == "reduce":
            rule = table.grammar.rules[action[1]]
            arity = len(rule.daughters)
            children = tuple(stack[len(stack) - arity:])
            del stack[len(stack) - arity:]
            stack.append(Tree(rule.mother, children[0].start,
                              children[-1].end, children, rule))
    if len(stack) != 1:
        raise UnderivableTreeError("trace does not reduce to a single tree")
    return stack[0]


def rank_by_enumeration(forest, model, lexicon=None, tokens=()):
    """Every derivation of ``forest`` as (trace, structural, lexical),
    best first: each tree is traced and scored step by step on its own,
    the lexical term is the frame term of ``lexicon`` (0.0 without one),
    and ties in the total go to the lower :func:`trace_sort_key`."""
    grammar = model.table.grammar
    ranked = []
    for tree in all_trees(forest):
        trace = tree_actions(tree, model.table)
        structural = sum(model.logprob(*step) for step in trace)
        lexical = 0.0
        if lexicon is not None:
            instances = verb_frames(Derivation(tree, trace), grammar, tokens)
            lexical = sum(lexicon.frame_logprob(inst.lemma, inst.frame)
                          for inst in instances)
        ranked.append((trace, structural, lexical))
    ranked.sort(key=lambda item: (-(item[1] + item[2]),
                                  trace_sort_key(item[0])))
    return ranked


def enumerate_parses(grammar: Grammar, tokens):
    """Every derivation tree of ``tokens``, as canonical tuples."""
    memo = {}

    def parses(symbol, i, j):
        key = (symbol, i, j)
        if key in memo:
            return memo[key]
        if symbol in grammar.terminals:
            result = (("leaf", symbol, i),) if j == i + 1 and tokens[i] == symbol \
                else ()
            memo[key] = result
            return result
        out = []
        for rule in grammar.rules_by_lhs.get(symbol, ()):
            labels = rule.daughters
            for split in _tilings(i, j, len(labels)):
                child_sets = [parses(label, a, b)
                              for label, (a, b) in zip(labels, split)]
                if any(not s for s in child_sets):
                    continue
                combos = [()]
                for child_set in child_sets:
                    combos = [prefix + (child,)
                              for prefix in combos for child in child_set]
                out.extend((symbol, combo) for combo in combos)
        memo[key] = tuple(out)
        return memo[key]

    return list(parses(grammar.start_symbol, 0, len(tokens)))


def _tilings(i, j, parts):
    """All ways to split [i, j) into ``parts`` non-empty adjacent spans."""
    if parts == 1:
        yield ((i, j),)
        return
    for k in range(i + 1, j - parts + 2):
        for rest in _tilings(k, j, parts - 1):
            yield ((i, k),) + rest


def language(grammar: Grammar, max_len: int):
    """All terminal strings of length <= max_len, honouring repetition
    markers on the surface grammar."""
    lang = {t: {(t,)} for t in grammar.terminals}
    for nt in grammar.nonterminals:
        lang.setdefault(nt, set())
    concrete = {rule.rule_id: list(_concrete_sequences(rule, max_len))
                for rule in grammar.rules}
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            target = lang[rule.mother]
            for sequence in concrete[rule.rule_id]:
                strings = {()}
                for symbol in sequence:
                    strings = {prefix + s for prefix in strings
                               for s in lang[symbol]
                               if len(prefix) + len(s) <= max_len}
                    if not strings:
                        break
                new = strings - target
                if new:
                    target |= new
                    changed = True
    return frozenset(lang[grammar.start_symbol])


def _concrete_sequences(rule, max_len):
    options = []
    for label, marker in zip(rule.daughters, rule.markers):
        if marker == "":
            options.append([(label,)])
        elif marker == "?":
            options.append([(), (label,)])
        elif marker == "*":
            options.append([(label,) * k for k in range(max_len + 1)])
        elif marker == "+":
            options.append([(label,) * k for k in range(1, max_len + 1)])
    sequences = [()]
    for opts in options:
        sequences = [seq + opt for seq in sequences for opt in opts
                     if len(seq) + len(opt) <= max_len]
    return sequences


def random_grammar(rng: random.Random) -> Grammar:
    """A small random epsilon-free, cycle-free grammar, built through the
    grammar-file parser so it is validated like any other grammar."""
    while True:
        terminals = rng.sample(["a", "b", "c", "d"], rng.randint(2, 3))
        nonterminals = ["S"] + rng.sample(["A", "B"], rng.randint(1, 2))
        lines = ["terminals: " + " ".join(terminals), "start: S"]
        shapes = set()
        for nt in nonterminals:
            # one all-terminal rule keeps every non-terminal productive
            base = tuple(rng.choice(terminals)
                         for _ in range(rng.randint(1, 2)))
            shapes.add((nt, base))
        for _ in range(rng.randint(2, 5)):
            nt = rng.choice(nonterminals)
            rhs = tuple(rng.choice(terminals + nonterminals)
                        for _ in range(rng.randint(1, 3)))
            if len(rhs) == 1 and rhs[0] == nt:
                continue
            shapes.add((nt, rhs))
        for nt, rhs in sorted(shapes):
            head = rng.randrange(len(rhs))
            parts = [sym + "(head)" if k == head and len(rhs) > 1 else sym
                     for k, sym in enumerate(rhs)]
            lines.append("%s -> %s" % (nt, " ".join(parts)))
        try:
            return parse_grammar("\n".join(lines))
        except Exception:
            continue  # e.g. a unit cycle through two non-terminals


def random_sentences(grammar: Grammar, rng: random.Random, count: int,
                     max_len: int = 10):
    """Half sampled from the grammar, half uniform noise."""
    terminals = sorted(grammar.terminals)
    sentences = []
    attempts = 0
    while len(sentences) < count // 2 and attempts < count * 40:
        attempts += 1
        derived = _derive(grammar, rng, max_len)
        if derived is not None and 0 < len(derived) <= max_len:
            sentences.append(derived)
    while len(sentences) < count:
        sentences.append([rng.choice(terminals)
                          for _ in range(rng.randint(1, max_len))])
    return sentences


def _derive(grammar: Grammar, rng: random.Random, max_len: int):
    def expand(symbol, budget):
        if symbol in grammar.terminals:
            return [symbol]
        rules = grammar.rules_by_lhs.get(symbol, ())
        if not rules:
            return None
        if budget <= 0:
            rules = [r for r in rules
                     if all(d in grammar.terminals for d in r.daughters)] or list(rules)
        rule = rng.choice(list(rules))
        out = []
        for daughter in rule.daughters:
            part = expand(daughter, budget - 1)
            if part is None or len(out) + len(part) > max_len + 4:
                return None
            out.extend(part)
        return out

    return expand(grammar.start_symbol, rng.randint(2, 5))
