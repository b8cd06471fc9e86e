import math

import pytest

import frameparse as fp
from frameparse.actions import trace_sort_key
from frameparse.grammar import END_MARKER
from oracles import all_trees, replay_actions

MOD_TREEBANK = """
(S (NP (det the) (n child)) (VP (v sees) (NP (NP (det a) (n dog)) (PP (prep in) (NP (det the) (n park))))))
(S (NP (det the) (n man)) (VP (v hears) (NP (NP (det a) (n story)) (PP (prep about) (NP (det the) (n garden))))))
(S (NP (det the) (n woman)) (VP (v reads) (NP (NP (det a) (n report)) (PP (prep from) (NP (det the) (n senator))))))
"""


def _distribution(model, state, lookahead):
    return {action: model.prob(state, lookahead, action)
            for action in model.table.actions[(state, lookahead)]}


def test_empty_treebank_is_uniform(demo_table):
    model, skipped = fp.train_actions([], demo_table)
    assert skipped == []
    for state, lookahead in model.classes():
        dist = _distribution(model, state, lookahead)
        k = len(dist)
        assert all(abs(p - 1.0 / k) < 1e-12 for p in dist.values())


def test_class_distributions_sum_to_one(demo_table, adversarial_model):
    for model in (fp.ActionModel(demo_table), adversarial_model):
        for state, lookahead in model.classes():
            total = sum(_distribution(model, state, lookahead).values())
            assert abs(total - 1.0) <= 1e-9


def _mod_model(table):
    model, skipped = fp.train_actions(fp.read_treebank(MOD_TREEBANK), table)
    assert skipped == []
    return model


def test_modification_treebank_trains_that_reduce(demo_normalized, demo_table):
    model = _mod_model(demo_table)
    mod = demo_normalized.rule_by_shape("NP", ["NP", "PP"]).rule_id
    arg = demo_normalized.rule_by_shape("VP", ["v", "NP", "PP"]).rule_id
    conflict = [key for key in model.classes()
                if ("reduce", mod) in demo_table.actions[key]
                and ("reduce", arg) in demo_table.actions[key]]
    assert conflict
    for state, lookahead in conflict:
        if model.counts.get((state, lookahead)):
            assert model.prob(state, lookahead, ("reduce", mod)) > \
                model.prob(state, lookahead, ("reduce", arg))


def test_hand_counted_smoothing(demo_normalized, demo_table):
    # Three modification trees reduce NP -> NP PP three times in the
    # two-action conflict class: add-1 gives 4/5 against 1/5.
    model = _mod_model(demo_table)
    mod = demo_normalized.rule_by_shape("NP", ["NP", "PP"]).rule_id
    arg = demo_normalized.rule_by_shape("VP", ["v", "NP", "PP"]).rule_id
    for (state, lookahead), counter in model.counts.items():
        if counter.get(("reduce", mod)) and lookahead == END_MARKER:
            assert counter[("reduce", mod)] == 3
            assert len(demo_table.actions[(state, lookahead)]) == 2
            assert model.prob(state, lookahead, ("reduce", mod)) == \
                pytest.approx(4 / 5)
            assert model.prob(state, lookahead, ("reduce", arg)) == \
                pytest.approx(1 / 5)
            break
    else:
        pytest.fail("conflict class not trained")


def test_modification_trained_model_ranks_modification_first(demo_normalized,
                                                             demo_table):
    model = _mod_model(demo_table)
    forest = fp.glr_parse("det n v det n prep det n".split(), demo_table)
    ranked = fp.unpack_n_best(forest, model, forest.derivation_count())
    # exhaustive scoring oracle: sorting all scored derivations agrees
    scores = [(a.structural_logprob, trace_sort_key(a.derivation.actions))
              for a in ranked]
    assert scores == sorted(scores, key=lambda pair: (-pair[0], pair[1]))
    mod = demo_normalized.rule_by_shape("NP", ["NP", "PP"])
    top = ranked[0].derivation
    assert any(node.rule is mod for node in top.tree.iter_nodes())


def test_underivable_tree_reports_sentence(demo_normalized, demo_table):
    good = fp.read_treebank("(S (NP (pn Paul)) (VP (v sleeps)))")[0]
    bad = fp.read_treebank("(S (VP (v sleeps)) (NP (pn Paul)))")[0]
    with pytest.raises(fp.UnderivableTreeError, match="no rule"):
        fp.to_derivation_tree(bad, demo_normalized)
    # training leaves the underivable tree out and names it
    model, skipped = fp.train_actions([good, bad], demo_table)
    alone, none_skipped = fp.train_actions([good], demo_table)
    assert skipped == [(1, "no rule S -> VP NP")]
    assert none_skipped == []
    assert model.counts == alone.counts and model.counts
    # a tree bound to a different grammar cannot replay against this table
    other = fp.parse_grammar(
        "terminals: pn v\nstart: S\nS -> NP VP(head)\nNP -> pn\nVP -> v\n")
    foreign = fp.to_derivation_tree(good, other)
    with pytest.raises(fp.UnderivableTreeError,
                       match=r"no reduce by rule 1 \(NP -> pn\)"):
        fp.tree_actions(foreign, demo_table)


def test_trace_replay_round_trip(demo_table):
    forest = fp.glr_parse("det n aux v det n prep det n".split(), demo_table)
    for tree in all_trees(forest):
        assert replay_actions(fp.tree_actions(tree, demo_table),
                              demo_table) == tree


def test_single_action_probability_one_scores_zero(demo_table):
    model = fp.ActionModel(demo_table)
    for (state, lookahead), actions in demo_table.actions.items():
        if len(actions) == 1:
            assert model.logprob(state, lookahead, actions[0]) == 0.0
            break


def test_two_halves_product():
    g = fp.parse_grammar("terminals: a b\nstart: S\nS -> a b(head)\nS -> a+ b(head)\n")
    table = fp.build_table(fp.normalize_kleene(g))
    model = fp.ActionModel(table)
    forest = fp.glr_parse(["a", "b"], table)
    ranked = fp.unpack_n_best(forest, model, forest.derivation_count())
    assert len(ranked) == 2
    for analysis in ranked:
        halves = [model.prob(*step) for step in analysis.derivation.actions
                  if model.prob(*step) < 1.0]
        assert analysis.structural_logprob == \
            pytest.approx(sum(math.log(p) for p in halves))


def test_derivation_logprob_matches_hand_product(demo_table, adversarial_model):
    forest = fp.glr_parse("det n v det n prep det n".split(), demo_table)
    [top] = fp.unpack_n_best(forest, adversarial_model, 1)
    derivation, logprob = top.derivation, top.structural_logprob
    assert len(derivation.actions) >= 8
    by_hand = 1.0
    for state, lookahead, action in derivation.actions:
        by_hand *= adversarial_model.prob(state, lookahead, action)
    assert logprob == pytest.approx(math.log(by_hand))
    assert logprob <= 0.0


def test_forest_from_other_grammar_rejected(demo_table):
    forest = fp.glr_parse("det n v".split(), demo_table)
    other = fp.build_table(fp.parse_grammar(
        "terminals: det n v\nstart: S\nS -> det n v(head)\n"))
    with pytest.raises(ValueError, match="forest built from a different "
                                         "grammar"):
        fp.unpack_n_best(forest, fp.ActionModel(other), 1)


def test_forest_from_equal_but_distinct_grammar_rejected(demo_grammar,
                                                         demo_table):
    # Equal rules make equal tables, so only rule identity tells the
    # two grammars apart; the search itself would run.
    forest = fp.glr_parse("det n v det n prep det n".split(), demo_table)
    twin = fp.build_table(fp.normalize_kleene(demo_grammar))
    assert twin.grammar == demo_table.grammar
    assert twin.grammar.rules[0] is not demo_table.grammar.rules[0]
    for rank in (fp.unpack_n_best,
                 lambda forest, model, n: fp.rank_analyses(
                     forest, model, fp.SubcatLexicon([]), [], n)):
        with pytest.raises(ValueError, match="model/table mismatch"):
            rank(forest, fp.ActionModel(twin), 5)


def test_logprob_is_log_of_prob_exactly(demo_table, adversarial_model):
    # the precomputed table must hold the very floats prob() gives
    for (state, lookahead), actions in demo_table.actions.items():
        for action in actions:
            assert adversarial_model.logprob(state, lookahead, action) == \
                math.log(adversarial_model.prob(state, lookahead, action))


def test_step_outside_table_raises(demo_table):
    model = fp.ActionModel(demo_table)
    for step in ((demo_table.n_states + 7, "det", ("shift", 1)),
                 (demo_table.start_state, "det", ("reduce", 10 ** 6))):
        with pytest.raises(KeyError):
            model.prob(*step)
        with pytest.raises(KeyError):
            model.logprob(*step)


def test_nbest_ordering_monotone(demo_table):
    forest = fp.glr_parse("det n aux v det n prep det n".split(), demo_table)
    model = fp.ActionModel(demo_table)
    ranked = fp.unpack_n_best(forest, model, forest.derivation_count())
    scores = [a.structural_logprob for a in ranked]
    assert scores == sorted(scores, reverse=True)


def test_uniform_model_tie_break():
    grammar = fp.parse_grammar("""
terminals: a b c
start: S
S -> X c(head)
S -> a(head) Y
X -> a(head) b
Y -> b(head) c
""")
    table = fp.build_table(grammar)
    model = fp.ActionModel(table)
    forest = fp.glr_parse("a b c".split(), table)
    # enumeration yields the rule-0 reading first, so only the trace
    # tie-break can put the rule-1 reading on top
    assert [tree.rule.rule_id for tree in all_trees(forest)] == [0, 1]
    ranked = fp.unpack_n_best(forest, model, forest.derivation_count())
    assert len(ranked) == 2
    # each reading takes one side of the same shift/reduce conflict
    assert ranked[0].structural_logprob == ranked[1].structural_logprob \
        == pytest.approx(math.log(0.5))
    keys = [trace_sort_key(a.derivation.actions) for a in ranked]
    assert keys == sorted(keys)
    # shifting c sorts before reducing X -> a b, so rule 1 ranks first
    assert [a.derivation.tree.rule for a in ranked] == \
        [grammar.rules[1], grammar.rules[0]]


def test_nbest_cap(demo_table):
    forest = fp.glr_parse("det n aux v det n prep det n".split(), demo_table)
    model = fp.ActionModel(demo_table)
    assert len(fp.unpack_n_best(forest, model, 2)) == 2
    assert len(fp.unpack_n_best(forest, model, 99)) == \
        forest.derivation_count()


def test_exponentiated_scores_finite_positive(demo_table, trained_model):
    forest = fp.glr_parse("det n aux v det n prep det n".split(), demo_table)
    ranked = fp.unpack_n_best(forest, trained_model, forest.derivation_count())
    total = sum(math.exp(a.structural_logprob) for a in ranked)
    assert 0.0 < total < math.inf


class TestPersistence:
    def test_round_trip(self, tmp_path, demo_table, adversarial_model):
        path = tmp_path / "m.model"
        fp.save_model(adversarial_model, path)
        loaded = fp.load_model(path, demo_table)
        assert loaded.counts == adversarial_model.counts
        for state, lookahead in adversarial_model.classes():
            assert _distribution(loaded, state, lookahead) == pytest.approx(
                _distribution(adversarial_model, state, lookahead))

    def test_file_format(self, tmp_path, demo_table, adversarial_model):
        path = tmp_path / "m.model"
        fp.save_model(adversarial_model, path)
        for line in path.read_text().splitlines():
            fields = line.split("\t")
            assert len(fields) == 5
            int(fields[0]), int(fields[3]), float(fields[4])

    def test_mismatched_table_rejected(self, tmp_path, adversarial_model):
        small = fp.build_table(
            fp.parse_grammar("terminals: a\nstart: S\nS -> a\n"))
        path = tmp_path / "m.model"
        fp.save_model(adversarial_model, path)
        with pytest.raises(ValueError, match="mismatch"):
            fp.load_model(path, small)

    def test_tampered_probability_rejected(self, tmp_path, demo_table,
                                           adversarial_model):
        path = tmp_path / "m.model"
        fp.save_model(adversarial_model, path)
        lines = path.read_text().splitlines()
        fields = lines[0].split("\t")
        fields[4] = "0.1234567890"
        lines[0] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="disagrees"):
            fp.load_model(path, demo_table)

    def test_comments_accepted(self, tmp_path, demo_table, adversarial_model):
        path = tmp_path / "m.model"
        fp.save_model(adversarial_model, path)
        lines = path.read_text().splitlines()
        lines[0] += "  # note"
        path.write_text("# header\n" + "\n".join(lines) + "\n")
        assert fp.load_model(path, demo_table).counts == \
            adversarial_model.counts

    def test_duplicate_row_rejected(self, tmp_path, demo_table,
                                    adversarial_model):
        path = tmp_path / "m.model"
        fp.save_model(adversarial_model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0]] + lines) + "\n")
        with pytest.raises(ValueError, match="line 2: duplicate of line 1"):
            fp.load_model(path, demo_table)
