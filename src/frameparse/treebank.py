"""The tree type, and bracketed treebank files.

One sentence per record in the usual notation, e.g.
``(S (NP (n Paul)) (VP (v intends) ...))`` with ``(tag word)`` leaves.
Records may span lines: the text is split into brackets and words once,
and those tokens into records on bracket balance.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .grammar import Rule, _Value

_SEXP_TOKEN = re.compile(r"\(|\)|[^\s()]+")


class TreebankError(ValueError):
    """Malformed bracketed-tree text."""


class UnderivableTreeError(ValueError):
    """A gold tree that the grammar/table cannot derive."""


class Tree(_Value):
    """A tree over a token sequence: a gold tree as read, or a
    derivation tree bound to grammar rules.

    A node is a leaf iff it has no children, and a leaf's ``label`` is
    its PoS tag; ``word`` is set on the leaves of a tree read from
    text.  ``rule`` is the grammar rule that built an internal node of
    a derivation tree.  Spans are half-open token intervals.  Trees
    are not changed once built; two are equal, and hash alike, when
    all six fields are.
    """

    __slots__ = ("label", "start", "end", "children", "rule", "word")

    def __init__(self, label: str, start: int, end: int,
                 children: tuple["Tree", ...] = (),
                 rule: Optional[Rule] = None, word: Optional[str] = None):
        self.label = label
        self.start = start
        self.end = end
        self.children = children
        self.rule = rule
        self.word = word

    def _key(self) -> tuple:
        # Each node's own fields and child count, in preorder: two trees
        # are equal exactly when these are, and no walk recurses.
        return tuple((node.label, node.start, node.end, len(node.children),
                      node.rule, node.word) for node in self.iter_nodes())

    def __repr__(self):
        # The children's text is that of their tuple's repr: a node
        # entered right after one was left is a later sibling.
        parts = []
        left = False
        for node, entering in self.walk():
            if entering:
                parts.append("%sTree(label=%r, start=%r, end=%r, children=(" % (
                    ", " if left else "", node.label, node.start, node.end))
            else:
                parts.append("%s), rule=%r, word=%r)" % (
                    "," if len(node.children) == 1 else "", node.rule, node.word))
            left = not entering
        return "".join(parts)

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

    def walk(self) -> Iterator[tuple["Tree", bool]]:
        """``(node, True)`` as each node is entered and ``(node, False)``
        as it is left, entered in preorder, so that nodes are left in
        postorder."""
        stack = [(self, True)]
        while stack:
            event = stack.pop()
            yield event
            node, entering = event
            if entering:
                stack.append((node, False))
                stack.extend((child, True) for child in reversed(node.children))

    def render(self, words: Optional[Sequence[str]] = None) -> str:
        """Bracketed text with ``(tag word)`` leaves, the words taken
        from ``words`` by position when given."""
        parts: list[str] = []
        for node, entering in self.walk():
            if node.children:
                if entering:
                    parts.append("(" + node.label)
                else:
                    parts[-1] += ")"
            elif entering:
                word = node.word if words is None else words[node.start]
                parts.append("(%s %s)" % (node.label, word))
        return " ".join(parts)


def _record_tree(tokens: list[str]) -> Tree:
    """The tree of one record's ``tokens``, which are not empty and
    whose brackets first balance at the last, a ``)``."""
    if tokens[0] != "(":
        raise TreebankError(f"expected '(' at token 0: {tokens[0]!r}")
    # One [label, start, children, word] per bracket still open.
    open_nodes: list[list] = []
    position = 0  # words read so far
    pos = 0
    while pos < len(tokens):
        token = tokens[pos]
        pos += 1
        if token == "(":
            if open_nodes and open_nodes[-1][3] is not None:
                raise TreebankError(
                    f"leaf {open_nodes[-1][0]!r} must dominate exactly one word")
            if tokens[pos] in "()":
                raise TreebankError("missing node label")
            open_nodes.append([tokens[pos], position, [], None])
            pos += 1
        elif token == ")":
            label, start, children, word = open_nodes.pop()
            if word is None and not children:
                raise TreebankError(f"empty node {label!r}")
            tree = Tree(label, start, position, tuple(children), word=word)
            if open_nodes:
                open_nodes[-1][2].append(tree)
        else:
            node = open_nodes[-1]
            if node[3] is not None or node[2]:
                raise TreebankError(
                    f"leaf {node[0]!r} must dominate exactly one word")
            node[3] = token
            position += 1
    return tree


def read_treebank(text: str) -> list[Tree]:
    """Split the text's brackets and words into records on bracket
    balance and build each record's tree; ``#`` comments.  Errors read ``line N: ...``, N being
    the line of the stray ``)`` or the line the faulty record starts on."""
    trees = []
    depth = 0
    record: list[str] = []
    start = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        for token in _SEXP_TOKEN.findall(line.split("#", 1)[0]):
            if not record:
                start = lineno
            record.append(token)
            if token == "(":
                depth += 1
            elif token == ")":
                depth -= 1
                if depth < 0:
                    raise TreebankError(f"line {lineno}: unbalanced ')'")
                if depth == 0:
                    try:
                        trees.append(_record_tree(record))
                    except TreebankError as exc:
                        raise TreebankError(f"line {start}: {exc}") from exc
                    record = []
    if depth != 0:
        raise TreebankError(f"line {start}: unbalanced '(' at end of input")
    if record:
        raise TreebankError(f"line {start}: text outside brackets")
    return trees


def load_treebank(path) -> list[Tree]:
    return read_treebank(Path(path).read_text(encoding="utf-8-sig"))


def write_treebank(trees, path) -> None:
    Path(path).write_text(
        "\n".join(t.render() for t in trees) + "\n", encoding="utf-8")
