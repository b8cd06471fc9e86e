"""The tree type, and bracketed treebank files.

One sentence per record in the usual notation, e.g.
``(S (NP (n Paul)) (VP (v intends) ...))`` with ``(tag word)`` leaves.
Records may span lines; they are delimited by bracket balance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .grammar import Grammar, Rule

_SEXP_TOKEN = re.compile(r"\(|\)|[^\s()]+")

# Reading and training on a tree recurse once or twice per level, so
# deeper records would exhaust Python's stack.
MAX_DEPTH = 300


class TreebankError(ValueError):
    """Malformed bracketed-tree text."""


class UnderivableTreeError(ValueError):
    """A gold tree that the grammar/table cannot derive."""


@dataclass(frozen=True)
class Tree:
    """A tree over a token sequence: a gold tree as read, or a
    derivation tree bound to grammar rules.

    A node is a leaf iff it has no children, and a leaf's ``label`` is
    its PoS tag; ``word`` is set on the leaves of a tree read from
    text.  ``rule`` is the grammar rule that built an internal node of
    a derivation tree.  Spans are half-open token intervals.
    """

    label: str
    start: int
    end: int
    children: tuple["Tree", ...] = ()
    rule: Optional[Rule] = None
    word: Optional[str] = None

    def head_leaf(self) -> "Tree":
        """The lexical head reached by following head daughters."""
        node = self
        while node.rule is not None:
            node = node.children[node.rule.head_index]
        return node

    def leftmost_leaf(self) -> "Tree":
        node = self
        while node.children:
            node = node.children[0]
        return node

    def iter_nodes(self) -> Iterator["Tree"]:
        """Every node, in preorder."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> Iterator["Tree"]:
        return (node for node in self.iter_nodes() if not node.children)

    def render(self, words: Optional[Sequence[str]] = None) -> str:
        """Bracketed text with ``(tag word)`` leaves, the words taken
        from ``words`` by position when given."""
        parts: list[str] = []
        stack: list[Optional[Tree]] = [self]
        while stack:
            node = stack.pop()
            if node is None:  # the end of an internal node
                parts[-1] += ")"
            elif node.children:
                parts.append("(" + node.label)
                stack.append(None)
                stack.extend(reversed(node.children))
            else:
                word = node.word if words is None else words[node.start]
                parts.append("(%s %s)" % (node.label, word))
        return " ".join(parts)


def parse_tree(text: str) -> Tree:
    tokens = _SEXP_TOKEN.findall(text)
    if not tokens:
        raise TreebankError("empty tree text")
    pos = 0
    position = 0  # tokens read so far

    def parse_node() -> Tree:
        nonlocal pos, position
        if tokens[pos] != "(":
            raise TreebankError(f"expected '(' at token {pos}: {tokens[pos]!r}")
        pos += 1
        if pos >= len(tokens) or tokens[pos] in "()":
            raise TreebankError("missing node label")
        label = tokens[pos]
        pos += 1
        start = position
        children: list[Tree] = []
        word = None
        while pos < len(tokens) and tokens[pos] != ")":
            if tokens[pos] == "(":
                children.append(parse_node())
            else:
                if word is not None or children:
                    raise TreebankError(
                        f"leaf {label!r} must dominate exactly one word")
                word = tokens[pos]
                pos += 1
                position += 1
        if pos >= len(tokens):
            raise TreebankError("unbalanced brackets")
        pos += 1  # closing paren
        if word is None and not children:
            raise TreebankError(f"empty node {label!r}")
        return Tree(label, start, position, tuple(children), word=word)

    tree = parse_node()
    if pos != len(tokens):
        raise TreebankError("trailing text after tree")
    return tree


def read_treebank(text: str) -> list[Tree]:
    """Split on bracket balance and parse each record; ``#`` comments.
    Errors read ``line N: ...``, N being the line of the stray ``)``,
    of the ``(`` nested deeper than :data:`MAX_DEPTH`, or the line the
    faulty record starts on."""
    trees = []
    depth = 0
    buffer: list[str] = []
    start = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        for ch in line.split("#", 1)[0]:
            if depth == 0 and ch.isspace():
                continue
            if not buffer:
                start = lineno
            buffer.append(ch)
            if ch == "(":
                depth += 1
                if depth > MAX_DEPTH:
                    raise TreebankError(f"line {lineno}: brackets nest deeper "
                                        f"than {MAX_DEPTH}")
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise TreebankError(f"line {lineno}: unbalanced ')'")
                if depth == 0:
                    try:
                        trees.append(parse_tree("".join(buffer)))
                    except TreebankError as exc:
                        raise TreebankError(f"line {start}: {exc}") from exc
                    buffer = []
        if depth:
            buffer.append("\n")
    if depth != 0:
        raise TreebankError(f"line {start}: unbalanced '(' at end of input")
    if buffer:
        raise TreebankError(f"line {start}: text outside brackets")
    return trees


def load_treebank(path) -> list[Tree]:
    return read_treebank(Path(path).read_text(encoding="utf-8"))


def write_treebank(trees, path) -> None:
    Path(path).write_text(
        "\n".join(t.render() for t in trees) + "\n", encoding="utf-8")


def to_derivation_tree(tree: Tree, grammar: Grammar) -> Tree:
    """Bind a raw tree to grammar rules, producing a derivation tree
    with the same labels, spans and leaves.

    Node labels plus daughter-label sequences must name existing rules;
    anything else raises :class:`UnderivableTreeError`.
    """

    def convert(node: Tree) -> Tree:
        if not node.children:
            if node.label not in grammar.terminals:
                raise UnderivableTreeError(
                    f"leaf tag {node.label!r} is not a grammar terminal")
            return node
        children = tuple(convert(child) for child in node.children)
        rule = grammar.rule_by_shape(node.label,
                                     [child.label for child in children])
        if rule is None:
            shape = " ".join(child.label for child in children)
            raise UnderivableTreeError(f"no rule {node.label} -> {shape}")
        return Tree(node.label, node.start, node.end, children, rule)

    return convert(tree)
