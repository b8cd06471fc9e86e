import pytest

import frameparse as fp
from frameparse.treebank import TreebankError

from oracles import read_tree, replay_actions


def _leaves(tree):
    return [node for node in tree.iter_nodes() if not node.children]


def test_parse_leaf_and_node():
    tree = read_tree("(S (NP (n Paul)) (VP (v sleeps)))")
    assert tree.label == "S"
    assert [leaf.word for leaf in _leaves(tree)] == ["Paul", "sleeps"]
    assert [leaf.label for leaf in _leaves(tree)] == ["n", "v"]


def test_render_round_trip():
    text = "(S (NP (pn Paul)) (VP (v intends) (VPto (to to) (VP (v leave) (NP (pn IBM))))))"
    tree = read_tree(text)
    assert tree.render() == text
    assert read_tree(tree.render()) == tree


def test_multiline_records_and_comments():
    text = """
# two records
(S (NP (n a))
   (VP (v b)))
(S (NP (n c)) (VP (v d)))
"""
    trees = fp.read_treebank(text)
    assert len(trees) == 2
    assert [leaf.word for leaf in _leaves(trees[0])] == ["a", "b"]


@pytest.mark.parametrize("bad", [
    "(S", "(S (NP n Paul))", "(S ())", "()", "(S (n a) extra junk",
    "(S (n a))) ", "(S (n a))\nabc"])
def test_malformed_trees_rejected(bad):
    with pytest.raises(TreebankError):
        fp.read_treebank(bad)


def test_words_outside_brackets_are_not_joined_across_lines():
    # the error names a token the file holds, not "abcdef"
    with pytest.raises(TreebankError,
                       match=r"^line 1: expected '\(' at token 0: 'abc'$"):
        fp.read_treebank("abc\ndef (S (n a))")


def test_word_before_a_child_rejected():
    # the word would be dropped and the tree would cover three tokens
    # with two leaves
    with pytest.raises(TreebankError, match="line 1: leaf 'NP' must "
                       "dominate exactly one word"):
        fp.read_treebank("(S (NP Paul (n x)) (VP (v sleeps)))")


def test_walk_enters_in_preorder_and_leaves_in_postorder():
    tree = read_tree("(S (NP (det a) (n b)) (v c))")
    events = [(node.label, entering) for node, entering in tree.walk()]
    assert events == [
        ("S", True), ("NP", True), ("det", True), ("det", False),
        ("n", True), ("n", False), ("NP", False), ("v", True),
        ("v", False), ("S", False)]
    assert [id(node) for node, entering in tree.walk() if entering] == \
        [id(node) for node in tree.iter_nodes()]


def _mirror_postorder(tree):
    # The reverse of a preorder that pushes children left to right.
    nodes = []
    stack = [tree]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children)
    return nodes[::-1]


@pytest.mark.parametrize("name", [
    "train.treebank", "adversarial.treebank", "ppsuite_gold.treebank"])
def test_walk_leaves_nodes_in_the_mirror_preorder_reversed(name):
    trees = fp.load_treebank(fp.demo_path(name))
    assert trees
    for tree in trees:
        left = [node for node, entering in tree.walk() if not entering]
        expected = _mirror_postorder(tree)
        assert len(left) == len(expected)
        assert all(a is b for a, b in zip(left, expected))


def test_trees_compare_and_hash_by_their_fields(demo_normalized):
    rule = demo_normalized.rule_by_shape("NP", ["pn"])

    def build(**changed):
        fields = dict(label="NP", start=0, end=1,
                      children=(fp.Tree("pn", 0, 1, word="Paul"),),
                      rule=rule, word=None)
        fields.update(changed)
        return fp.Tree(**fields)
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    others = [build(label="VP"), build(start=1), build(end=2),
              build(children=(fp.Tree("pn", 0, 1, word="IBM"),)),
              build(rule=None), build(word="Paul")]
    for other in others:
        assert first != other and not first == other
    assert len({first, *others}) == 7
    assert repr(first).startswith("Tree(label='NP', start=0, end=1, children=(")


def test_tree_actions_binds_rules(demo_normalized, demo_table):
    tree = read_tree("(S (NP (det the) (n child)) (VP (v sleeps)))")
    bound = replay_actions(fp.tree_actions(tree, demo_table), demo_table)
    assert bound.rule is demo_normalized.rule_by_shape("S", ["NP", "VP"])
    assert [leaf.label for leaf in _leaves(bound)] == ["det", "n", "v"]
    assert bound.start == 0 and bound.end == 3


def test_tree_actions_unknown_shape(demo_table):
    tree = read_tree("(S (VP (v sleeps)))")
    with pytest.raises(fp.UnderivableTreeError, match="no rule S -> VP"):
        fp.tree_actions(tree, demo_table)


def test_tree_actions_unknown_tag(demo_table):
    tree = read_tree("(S (NP (xx the)) (VP (v sleeps)))")
    with pytest.raises(fp.UnderivableTreeError, match="xx"):
        fp.tree_actions(tree, demo_table)


def test_derivation_tree_render_round_trip(demo_table):
    text = "(S (NP (det the) (n child)) (VP (v sleeps)))"
    bound = replay_actions(fp.tree_actions(read_tree(text), demo_table),
                           demo_table)
    assert bound.render(["the", "child", "sleeps"]) == text


def test_load_and_write(tmp_path):
    trees = fp.load_treebank(fp.demo_path("train.treebank"))
    assert len(trees) == 6
    out = tmp_path / "tb.treebank"
    fp.write_treebank(trees, out)
    assert fp.load_treebank(out) == trees


class _Nested:
    """A tree whose repr is the one-call-per-level formula, the children
    written by their tuple's own repr."""

    def __init__(self, tree):
        self.tree = tree

    def __repr__(self):
        tree = self.tree
        return ("Tree(label=%r, start=%r, end=%r, children=%r, rule=%r, "
                "word=%r)" % (tree.label, tree.start, tree.end,
                              tuple(_Nested(child) for child in tree.children),
                              tree.rule, tree.word))


def test_repr_is_the_nested_formula_without_recursion(lexicalized_pipeline):
    trees = list(fp.load_treebank(fp.demo_path("train.treebank")))
    for k in range(7):
        result = lexicalized_pipeline.analyze(
            "the child sees a dog" + " in the park" * k)
        trees.append(result.analyses[0].derivation.tree)
    trees.append(fp.Tree("n", 0, 1, word="it's"))
    for tree in trees:
        assert repr(tree) == repr(_Nested(tree))
    # a unary chain far deeper than the interpreter's recursion limit
    deep = fp.Tree("a", 0, 1, word="x")
    for _ in range(5000):
        deep = fp.Tree("A", 0, 1, (deep,))
    try:
        text = repr(deep)
    except RecursionError:  # left here: its traceback is 5,000 frames
        text = None
    assert text is not None, "repr recursed once per tree level"
    assert text.count("Tree(") == 5001
    assert text.startswith("Tree(label='A', start=0, end=1, children=(Tree(")
    assert text.endswith("word='x'),), rule=None, word=None)" +
                         ",), rule=None, word=None)" * 4999)
