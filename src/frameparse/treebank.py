"""Bracketed treebank files.

One sentence per record in the usual notation, e.g.
``(S (NP (n Paul)) (VP (v intends) ...))`` with ``(tag word)`` leaves.
Records may span lines; they are delimited by bracket balance.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from .glr import TreeNode
from .grammar import Grammar

_SEXP_TOKEN = re.compile(r"\(|\)|[^\s()]+")

# Reading, training on and evaluating a tree recurse once or twice per
# level, so deeper records would exhaust Python's stack.
MAX_DEPTH = 300


class TreebankError(ValueError):
    """Malformed bracketed-tree text."""


class UnderivableTreeError(ValueError):
    """A gold tree that the grammar/table cannot derive."""


@dataclass(frozen=True)
class Tree:
    """A raw bracketed tree: labels and words only, no grammar binding.

    Leaves are ``(tag word)`` nodes with ``children == ()`` and ``word``
    set; internal nodes have at least one child and no word.
    """

    label: str
    children: tuple["Tree", ...] = ()
    word: Optional[str] = None

    @property
    def is_leaf(self) -> bool:
        return self.word is not None

    def leaves(self) -> Iterator["Tree"]:
        if self.is_leaf:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()

    def tags(self) -> list[str]:
        return [leaf.label for leaf in self.leaves()]

    def words(self) -> list[str]:
        return [leaf.word for leaf in self.leaves()]

    def render(self) -> str:
        if self.is_leaf:
            return "(%s %s)" % (self.label, self.word)
        return "(%s %s)" % (self.label, " ".join(c.render() for c in self.children))


def parse_tree(text: str) -> Tree:
    tokens = _SEXP_TOKEN.findall(text)
    if not tokens:
        raise TreebankError("empty tree text")
    pos = 0

    def parse_node() -> Tree:
        nonlocal pos
        if tokens[pos] != "(":
            raise TreebankError(f"expected '(' at token {pos}: {tokens[pos]!r}")
        pos += 1
        if pos >= len(tokens) or tokens[pos] in "()":
            raise TreebankError("missing node label")
        label = tokens[pos]
        pos += 1
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
        if pos >= len(tokens):
            raise TreebankError("unbalanced brackets")
        pos += 1  # closing paren
        if word is None and not children:
            raise TreebankError(f"empty node {label!r}")
        return Tree(label, tuple(children), word)

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


def to_derivation_tree(tree: Tree, grammar: Grammar) -> TreeNode:
    """Bind a raw tree to grammar rules, producing a derivation tree.

    Node labels plus daughter-label sequences must name existing rules;
    anything else raises :class:`UnderivableTreeError`.
    """
    position = 0

    def convert(node: Tree) -> TreeNode:
        nonlocal position
        if node.is_leaf:
            if node.label not in grammar.terminals:
                raise UnderivableTreeError(
                    f"leaf tag {node.label!r} is not a grammar terminal")
            leaf = TreeNode(None, position, position + 1, (), node.label)
            position += 1
            return leaf
        children = tuple(convert(child) for child in node.children)
        rule = grammar.rule_by_shape(node.label,
                                     [child.label for child in children])
        if rule is None:
            shape = " ".join(child.label for child in children)
            raise UnderivableTreeError(f"no rule {node.label} -> {shape}")
        return TreeNode(rule, children[0].start, children[-1].end, children)

    return convert(tree)


def from_derivation_tree(node: TreeNode, words=None) -> Tree:
    """Render a derivation tree as a raw tree; leaf words come from
    ``words`` by position when given, else the tag is repeated."""

    def convert(inner: TreeNode) -> Tree:
        if inner.is_leaf:
            word = words[inner.start] if words is not None else inner.tag
            return Tree(inner.tag, (), word)
        return Tree(inner.label, tuple(convert(c) for c in inner.children))

    return convert(node)
