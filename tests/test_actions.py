import math
import random
from collections import Counter

import pytest

import frameparse as fp
from frameparse.actions import (_TIE_BAND, _ForestSearch, top_applications,
                                trace_sort_key)
from frameparse.grammar import END_MARKER
from oracles import (all_trees, applications, english_grammar,
                     random_grammar, random_sentences, replay_actions)

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
    for state, lookahead in demo_table.actions:
        dist = _distribution(model, state, lookahead)
        k = len(dist)
        assert all(abs(p - 1.0 / k) < 1e-12 for p in dist.values())


def test_class_distributions_sum_to_one(demo_table, adversarial_model):
    for model in (fp.ActionModel(demo_table), adversarial_model):
        for state, lookahead in demo_table.actions:
            total = sum(_distribution(model, state, lookahead).values())
            assert abs(total - 1.0) <= 1e-9


def test_flat_log_probabilities_are_the_models(demo_table, adversarial_model):
    # the leaves and the reduce rows must hold every listed shift's and
    # reduce's step, and no other, with the very float math.log(prob())
    # gives
    for model in (fp.ActionModel(demo_table), adversarial_model):
        shifts, reduces = {}, {}
        for (state, lookahead), actions in demo_table.actions.items():
            for action in actions:
                entry = (math.log(model.prob(state, lookahead, action)),
                         (state, lookahead, action))
                if action[0] == "shift":
                    shifts[(state, lookahead)] = entry
                elif action[0] == "reduce":
                    reduces[(state, lookahead, action[1])] = entry
        assert {(state, tag): leaf.edges[0][4:]
                for state, row in enumerate(model.leaves)
                for tag, leaf in row.items()} == shifts
        assert {(state, lookahead, rule_id): entry
                for state, row in enumerate(model.reduce_rows)
                for lookahead, rules in row.items()
                for rule_id, entry in rules.items()} == reduces


def _mod_model(table):
    model, skipped = fp.train_actions(fp.read_treebank(MOD_TREEBANK), table)
    assert skipped == []
    return model


def test_modification_treebank_trains_that_reduce(demo_normalized, demo_table):
    model = _mod_model(demo_table)
    mod = demo_normalized.rule_by_shape("NP", ["NP", "PP"]).rule_id
    arg = demo_normalized.rule_by_shape("VP", ["v", "NP", "PP"]).rule_id
    conflict = [key for key in demo_table.actions
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


def test_underivable_tree_reports_sentence(demo_table):
    good = fp.read_treebank("(S (NP (pn Paul)) (VP (v sleeps)))")[0]
    bad = fp.read_treebank("(S (VP (v sleeps)) (NP (pn Paul)))")[0]
    with pytest.raises(fp.UnderivableTreeError, match="no rule"):
        fp.tree_actions(bad, demo_table)
    # training leaves the underivable tree out and names it
    model, skipped = fp.train_actions([good, bad], demo_table)
    alone, none_skipped = fp.train_actions([good], demo_table)
    assert skipped == [(1, "no rule S -> VP NP")]
    assert none_skipped == []
    assert model.counts == alone.counts and model.counts
    # a tree whose root is not the start symbol is no sentence
    with pytest.raises(fp.UnderivableTreeError,
                       match=r"^root 'NP' is not the start symbol 'S'$"):
        fp.tree_actions(good.children[0], demo_table)


def test_trace_replay_round_trip(demo_table):
    forest = fp.glr_parse("det n aux v det n prep det n".split(), demo_table)
    for tree in all_trees(forest):
        assert replay_actions(fp.tree_actions(tree, demo_table),
                              demo_table) == tree


def test_single_action_probability_one_scores_zero(demo_table):
    model = fp.ActionModel(demo_table)
    for (state, lookahead), actions in demo_table.actions.items():
        if len(actions) == 1:
            assert math.log(model.prob(state, lookahead, actions[0])) == 0.0
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
    # two grammars apart; the search itself would run.  A forest of one
    # derivation, which top_applications reads with no search, too, and
    # an empty forest, which has no analysis to rank.
    twin = fp.build_table(fp.normalize_kleene(demo_grammar))
    assert twin.grammar == demo_table.grammar
    assert twin.grammar.rules[0] is not demo_table.grammar.rules[0]
    for tags in ("det n v det n prep det n", "det n v det n", "det n"):
        forest = fp.glr_parse(tags.split(), demo_table)
        for rank in (fp.unpack_n_best,
                     lambda forest, model, n: fp.rank_analyses(
                         forest, model, fp.SubcatLexicon([]), [], n),
                     lambda forest, model, n: top_applications(forest,
                                                               model)):
            with pytest.raises(ValueError, match="model/table mismatch"):
                rank(forest, fp.ActionModel(twin), 5)


def test_constructor_rejects_counts_the_table_does_not_list(demo_table):
    with pytest.raises(ValueError, match="model/table mismatch: no actions "
                                         "for state 0 on 'zz'"):
        fp.ActionModel(demo_table, {(0, "zz"): Counter({("shift", 4): 1})})
    with pytest.raises(ValueError, match="model/table mismatch: action "
                                         "shift:5 unavailable in state 0 "
                                         "on 'det'"):
        fp.ActionModel(demo_table, {(0, "det"): Counter({("shift", 5): 1})})


@pytest.mark.parametrize("key, count, message", [
    ((0, "det"), -1, "negative count"),  # a one-action class
    ((6, "pn"), -1, "negative count"),   # a two-action class
    ((0, "det"), math.inf, "count inf is not an integer"),
    ((0, "det"), math.nan, "count nan is not an integer"),
    ((0, "det"), 0.5, "count 0.5 is not an integer"),
])
def test_constructor_rejects_what_load_model_rejects(demo_table, key, count,
                                                     message):
    action = demo_table.actions[key][0]
    # a bad count must fail here, not as a ZeroDivisionError or a math
    # domain error from the smoothing
    with pytest.raises(Exception) as info:
        fp.ActionModel(demo_table, {key: Counter({action: count})})
    assert (info.type, str(info.value)) == (ValueError, message)


def test_model_from_second_table_over_same_grammar_ranks(demo_table,
                                                         adversarial_model):
    # the forest was parsed over the very grammar the second table holds
    forest = fp.glr_parse("det n v det n prep det n".split(), demo_table)
    second = fp.build_table(demo_table.grammar)
    assert second is not demo_table
    model = fp.ActionModel(second, adversarial_model.counts)
    ranked = fp.unpack_n_best(forest, model, 5)
    assert ranked == fp.unpack_n_best(forest, adversarial_model, 5)
    assert len(ranked) == forest.derivation_count()


def test_shared_leaf_vertices_stay_single(lexicalized_pipeline):
    # leaf vertices are the model's, shared by every search: the lazy
    # k-best search must never extend one
    pipe = lexicalized_pipeline
    tokens = pipe.tag("the child sees a dog" + " in the park" * 6)
    forest = pipe.parse_tags([token.tag for token in tokens])
    for lexicalized in (True, False):
        assert len(pipe.rank(forest, tokens, 10, lexicalized)) == 10
    leaves = [vertex for row in pipe.model.leaves for vertex in row.values()]
    assert leaves
    for vertex in leaves:
        assert len(vertex.derivations) == 1
        assert vertex.candidates is None and vertex.seen is None


def test_logprob_is_log_of_prob_exactly(demo_table, adversarial_model):
    # each listed step's log-probability, looked up where the search
    # reads it, must be the very float math.log(prob()) gives
    checked = 0
    for (state, lookahead), actions in demo_table.actions.items():
        for action in actions:
            if action[0] == "shift":
                leaf = adversarial_model.leaves[state][lookahead]
                # the Viterbi pass reads the score, build the edge
                assert leaf.derivations[0][0] == leaf.edges[0][4]
                logprob = leaf.edges[0][4]
            elif action[0] == "reduce":
                logprob, _ = adversarial_model.reduce_rows[state][lookahead][
                    action[1]]
            else:
                continue
            assert logprob == \
                math.log(adversarial_model.prob(state, lookahead, action))
            checked += 1
    assert checked


def _share(rule, daughters):
    # a few repeated tenths, as in the differential gate, so that tied
    # and near-tied totals occur
    return -0.1 * ((rule.rule_id + daughters[0].start + daughters[-1].end) % 4)


def _models(table, rng):
    """The uniform model and one of random counts over ``table``."""
    counts = {key: Counter({action: rng.randint(0, 3)
                            for action in table.actions[key]})
              for key in sorted(table.actions)}
    return fp.ActionModel(table), fp.ActionModel(table, counts)


def test_root_margin_is_the_runner_up_gap():
    checked = single = tied = 0
    for seed in range(300):
        rng = random.Random(seed)
        table = fp.build_table(random_grammar(rng))
        for model in _models(table, rng):
            for tags in random_sentences(table.grammar, rng, 6):
                forest = fp.glr_parse(tags, table)
                if forest.root is None:
                    continue
                for lexical in (None, _share):
                    root = _ForestSearch(forest, model, lexical).root
                    ranked = fp.unpack_n_best(forest, model, 2, lexical)
                    assert (root.margin == math.inf) == \
                        (forest.derivation_count() == 1)
                    if len(ranked) == 1:
                        single += 1
                        continue
                    first, second = (a.total_score for a in ranked)
                    # the bound stated at _TIE_BAND
                    assert abs(root.margin - (first - second)) <= \
                        _TIE_BAND * (abs(first) + abs(second))
                    checked += 1
                    tied += root.margin <= 2 * _TIE_BAND * abs(first)
    assert checked >= 300 and single >= 1000 and tied >= 80


def _count_searches(monkeypatch):
    """A list that grows by one at each :class:`_ForestSearch` made, each
    the start of a Viterbi pass."""
    made = []
    init = _ForestSearch.__init__

    def counted(self, *args):
        made.append(None)
        init(self, *args)
    monkeypatch.setattr(_ForestSearch, "__init__", counted)
    return made


def test_top_applications_are_the_top_analysis(monkeypatch):
    # the lazy search asks for a vertex's derivations past the best
    lazy = []
    has_derivation = _ForestSearch.has_derivation

    def counted(self, vertex, k):
        lazy.append(k)
        return has_derivation(self, vertex, k)
    monkeypatch.setattr(_ForestSearch, "has_derivation", counted)
    searches = _count_searches(monkeypatch)
    cases = []
    for seed in range(200):
        rng = random.Random(seed)
        table = fp.build_table(random_grammar(rng))
        models = _models(table, rng)
        cases += [(fp.glr_parse(tags, table), models)
                  for tags in random_sentences(table.grammar, rng, 6)]
    # English-fixture PP chains, where the uniform model's ties are exact
    table = fp.build_table(fp.normalize_kleene(english_grammar()))
    models = _models(table, random.Random(0))
    cases += [(fp.glr_parse(["pn", "v", "det", "n"] + ["prep", "det", "n"] * k,
                            table), models) for k in (1, 2, 3, 4, 8)]
    walked = tied = single = searched = 0
    for forest, models in cases:
        if forest.root is None:
            continue
        for model in models:
            lazy.clear()
            searches.clear()
            applications = top_applications(forest, model)
            if lazy:
                tied += 1
            else:
                walked += 1
            # a forest of one derivation is read with no Viterbi pass
            if forest.derivation_count() == 1:
                assert searches == []
                single += 1
            else:
                assert searches
                searched += 1
            [top] = fp.unpack_n_best(forest, model, 1)
            assert [(rule, tuple((d.start, d.end) for d in daughters))
                    for rule, daughters in applications] == \
                [(node.rule, tuple((c.start, c.end) for c in node.children))
                 for node in top.derivation.tree.iter_nodes() if node.children]
    assert walked >= 1000 and tied >= 60
    assert single >= 1000 and searched >= 150


def test_top_applications_at_a_near_tie_search_once(uniform_pipeline,
                                                    monkeypatch):
    # The uniform model's two best PP attachments score alike, so the
    # top analysis comes from the trace sort, over the same pass.
    model = uniform_pipeline.model
    tags = "det n v det n prep det n prep det n".split()
    forest = uniform_pipeline.parse_tags(tags)
    [top] = fp.unpack_n_best(forest, model, 1)
    searches = _count_searches(monkeypatch)
    assert top_applications(forest, model) == \
        applications(top.derivation.tree)
    assert len(searches) == 1
    searches.clear()
    forest = uniform_pipeline.parse_tags("det n v det n".split())
    assert forest.derivation_count() == 1
    top_applications(forest, model)
    assert searches == []


def test_top_applications_of_an_empty_forest(demo_table):
    forest = fp.glr_parse(["det", "n"], demo_table)
    assert forest.root is None
    assert top_applications(forest, fp.ActionModel(demo_table)) == []


def test_step_outside_table_raises(demo_table):
    model = fp.ActionModel(demo_table)
    for step in ((demo_table.n_states + 7, "det", ("shift", 1)),
                 (demo_table.start_state, "det", ("reduce", 10 ** 6))):
        with pytest.raises(KeyError):
            model.prob(*step)


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
    # the Viterbi pass keeps the first of the tied edges, rule 0's, so
    # top-1 ranking too must settle the tie on the trace
    assert fp.unpack_n_best(forest, model, 1) == ranked[:1]


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
        for state, lookahead in demo_table.actions:
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
