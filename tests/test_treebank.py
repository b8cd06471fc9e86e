import pytest

import frameparse as fp
from frameparse.treebank import TreebankError, parse_tree


def test_parse_leaf_and_node():
    tree = parse_tree("(S (NP (n Paul)) (VP (v sleeps)))")
    assert tree.label == "S"
    assert tree.words() == ["Paul", "sleeps"]
    assert tree.tags() == ["n", "v"]


def test_render_round_trip():
    text = "(S (NP (pn Paul)) (VP (v intends) (VPto (to to) (VP (v leave) (NP (pn IBM))))))"
    tree = parse_tree(text)
    assert tree.render() == text
    assert parse_tree(tree.render()) == tree


def test_multiline_records_and_comments():
    text = """
# two records
(S (NP (n a))
   (VP (v b)))
(S (NP (n c)) (VP (v d)))
"""
    trees = fp.read_treebank(text)
    assert len(trees) == 2
    assert trees[0].words() == ["a", "b"]


@pytest.mark.parametrize("bad", [
    "(S", "(S (NP n Paul))", "(S ())", "()", "(S (n a) extra junk",
    "(S (n a))) ", "(S (n a))\nabc"])
def test_malformed_trees_rejected(bad):
    with pytest.raises(TreebankError):
        fp.read_treebank(bad)


def test_to_derivation_tree_binds_rules(demo_normalized):
    tree = parse_tree("(S (NP (det the) (n child)) (VP (v sleeps)))")
    bound = fp.to_derivation_tree(tree, demo_normalized)
    assert bound.rule is demo_normalized.rule_by_shape("S", ["NP", "VP"])
    assert [leaf.tag for leaf in bound.leaves()] == ["det", "n", "v"]
    assert bound.start == 0 and bound.end == 3


def test_to_derivation_tree_unknown_shape(demo_normalized):
    tree = parse_tree("(S (VP (v sleeps)))")
    with pytest.raises(fp.UnderivableTreeError, match="no rule S -> VP"):
        fp.to_derivation_tree(tree, demo_normalized)


def test_to_derivation_tree_unknown_tag(demo_normalized):
    tree = parse_tree("(S (NP (xx the)) (VP (v sleeps)))")
    with pytest.raises(fp.UnderivableTreeError, match="xx"):
        fp.to_derivation_tree(tree, demo_normalized)


def test_from_derivation_tree_round_trip(demo_normalized, demo_table):
    text = "(S (NP (det the) (n child)) (VP (v sleeps)))"
    bound = fp.to_derivation_tree(parse_tree(text), demo_normalized)
    back = fp.from_derivation_tree(bound, ["the", "child", "sleeps"])
    assert back.render() == text


def test_load_and_write(tmp_path):
    trees = fp.load_treebank(fp.demo_path("train.treebank"))
    assert len(trees) == 6
    out = tmp_path / "tb.treebank"
    fp.write_treebank(trees, out)
    assert fp.load_treebank(out) == trees
