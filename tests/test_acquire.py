import pytest

import frameparse as fp
from frameparse import acquire
from oracles import applications


def test_single_sentence_observation(adversarial_pipeline):
    store = fp.observe_corpus(["Paul intends to leave IBM"],
                              adversarial_pipeline)
    assert store.frames == {"intend": ["VPINF"], "leave": ["NP"]}
    assert store.parsed_sentences == 1
    assert store.skipped_sentences == 0


def test_cap_keeps_first_observations(adversarial_pipeline):
    sentences = ["the child sees a dog", "the child sees",
                 "the child sees a park", "the child sees",
                 "the child sees a letter"]
    store = fp.observe_corpus(sentences, adversarial_pipeline, cap=2)
    assert store.frames["see"] == ["NP", "NONE"]


def test_out_of_coverage_counted(adversarial_pipeline):
    store = fp.observe_corpus(["the the the", "dog dog"],
                              adversarial_pipeline)
    assert store.frames == {}
    assert store.skipped_sentences == 2
    assert store.parsed_sentences == 0


def _count_ranks(monkeypatch, pipeline):
    """The rankings acquisition runs, in order: ``"walk"`` for each
    :func:`~frameparse.actions.top_applications` call, which settles a
    near tie itself, and ``"rank"`` for each ``pipeline.rank`` call."""
    calls = []

    def counted(name, function):
        def wrapper(*args):
            calls.append(name)
            return function(*args)
        return wrapper
    monkeypatch.setattr(acquire, "top_applications",
                        counted("walk", acquire.top_applications))
    monkeypatch.setattr(pipeline, "rank", counted("rank", pipeline.rank))
    return calls


def test_sentence_of_capped_verbs_is_not_ranked(adversarial_pipeline,
                                                monkeypatch):
    calls = _count_ranks(monkeypatch, adversarial_pipeline)
    store = fp.observe_corpus(["the child sees a dog"] * 5,
                              adversarial_pipeline, cap=1)
    assert calls == ["walk"]
    assert store.frames == {"see": ["NP"]}
    assert store.parsed_sentences == 5
    assert store.skipped_sentences == 0


def test_out_of_coverage_with_capped_verb_counted(adversarial_pipeline):
    store = fp.observe_corpus(["the child sees a dog",
                               "the child sees the the"],
                              adversarial_pipeline, cap=1)
    assert store.frames == {"see": ["NP"]}
    assert store.parsed_sentences == 1
    assert store.skipped_sentences == 1


def test_uncapped_verb_beside_capped_one_recorded(adversarial_pipeline):
    store = fp.observe_corpus(["Paul intends to sleep",
                               "Paul intends to leave IBM"],
                              adversarial_pipeline, cap=1)
    assert store.frames == {"intend": ["VPINF"], "sleep": ["NONE"],
                            "leave": ["NP"]}


def test_zero_cap_registers_each_lemma_once(adversarial_pipeline,
                                            monkeypatch):
    calls = _count_ranks(monkeypatch, adversarial_pipeline)
    store = fp.observe_corpus(["the child sees a dog"] * 3
                              + ["Paul intends to leave IBM"],
                              adversarial_pipeline, cap=0)
    assert store.frames == {"see": [], "intend": [], "leave": []}
    assert calls == ["walk", "walk"]
    assert store.parsed_sentences == 4


def test_near_tie_is_ranked_in_full(uniform_pipeline, monkeypatch):
    # Under the uniform model the two best analyses score alike, so the
    # walk takes the top analysis of the full ranking's trace sort.
    sentence = "the child sees a dog" + " in the park" * 2
    tokens = uniform_pipeline.tag(sentence)
    forest = uniform_pipeline.parse_tags([token.tag for token in tokens])
    top = uniform_pipeline.rank(forest, tokens, 1, False)[0]
    calls = _count_ranks(monkeypatch, uniform_pipeline)
    store = fp.observe_corpus([sentence], uniform_pipeline)
    assert calls == ["walk"]
    assert store.frames == {
        instance.lemma: [instance.frame] for instance in
        fp.verb_frames(applications(top.derivation.tree),
                       uniform_pipeline.grammar, tokens)}


def test_2005_token_control_chain_is_read_without_recursing(
        adversarial_pipeline):
    # Its one derivation nests 2,006 levels deep, far past the
    # recursion limit of a walker that recurses once per level.
    sentence = "Paul intends" + " to intend" * 1000 + " to leave IBM"
    assert len(sentence.split()) == 2005
    try:
        store = fp.observe_corpus([sentence], adversarial_pipeline, cap=5)
    except RecursionError:  # its traceback would be thousands of frames
        store = None
    assert store is not None, "acquisition recursed once per level"
    assert store.frames == {"intend": ["VPINF"] * 5, "leave": ["NP"]}
    assert store.parsed_sentences == 1


def test_grammar_without_frames_ranks_nothing(demo_wordlist, demo_lemmatizer,
                                              monkeypatch):
    grammar = fp.parse_grammar(
        "terminals: det n pn v aux prep to\nverbs: v\nstart: S\n"
        "S -> NP VP(head)\nNP -> det n(head)\nNP -> pn(head)\n"
        "VP -> v(head) NP\n")
    pipeline = fp.ParserPipeline(grammar, wordlist=demo_wordlist,
                                 lemmatizer=demo_lemmatizer)
    calls = _count_ranks(monkeypatch, pipeline)
    store = fp.observe_corpus(["Paul sees the dog", "the child sees Paul"],
                              pipeline)
    assert calls == []
    assert store.frames == {}
    assert store.parsed_sentences == 2


def test_determinism(adversarial_pipeline):
    sentences = [line for line in
                 fp.demo_path("acquisition.txt").read_text().splitlines()
                 if line.strip()]
    store_a = fp.observe_corpus(sentences, adversarial_pipeline)
    store_b = fp.observe_corpus(sentences, adversarial_pipeline)
    assert store_a.frames == store_b.frames
    lex_a = fp.hypothesize_entries(store_a)
    lex_b = fp.hypothesize_entries(store_b)
    assert lex_a.entries() == lex_b.entries()


def test_cap_invariance(adversarial_pipeline):
    sentences = [line for line in
                 fp.demo_path("acquisition.txt").read_text().splitlines()
                 if line.strip()]
    small = fp.observe_corpus(sentences, adversarial_pipeline, cap=3)
    large = fp.observe_corpus(sentences, adversarial_pipeline, cap=1000)
    for lemma, observed in small.frames.items():
        assert large.frames[lemma][:len(observed)] == observed


def test_acquired_frames_match_attachments(acquired_lexicon):
    assert acquired_lexicon.count("hear", "NP") == 9
    assert acquired_lexicon.count("hear", "PP") == 1
    assert acquired_lexicon.count("see", "NP") == 7
    assert acquired_lexicon.count("sleep", "NONE") == 2


class TestHypothesize:
    def test_no_filtering(self):
        store = fp.ObservationStore(cap=100)
        for frame in ["NP"] * 7 + ["NONE"] * 3:
            store.add("v", frame)
        lex = fp.hypothesize_entries(store, min_count=1, min_relfreq=0.0)
        [none, np] = lex.entries()
        assert (none.frame, np.frame) == ("NONE", "NP")
        assert np.relfreq == pytest.approx(0.7)
        assert none.relfreq == pytest.approx(0.3)

    def test_renormalization_over_survivors(self):
        store = fp.ObservationStore(cap=100)
        for frame in ["NP"] * 7 + ["PP"]:
            store.add("v", frame)
        lex = fp.hypothesize_entries(store, min_count=2)
        [entry] = lex.entries()
        assert (entry.lemma, entry.frame) == ("v", "NP")
        assert entry.relfreq == pytest.approx(1.0)
        assert entry.count == 7

    def test_min_relfreq_threshold(self):
        store = fp.ObservationStore(cap=100)
        for frame in ["NP"] * 8 + ["PP", "NONE"]:
            store.add("v", frame)
        lex = fp.hypothesize_entries(store, min_relfreq=0.15)
        assert [e.frame for e in lex.entries()] == ["NP"]

    def test_empty_store_empty_lexicon(self):
        lex = fp.hypothesize_entries(fp.ObservationStore(cap=100))
        assert len(lex) == 0

    def test_per_lemma_sums(self, acquired_lexicon):
        import math
        for lemma in {e.lemma for e in acquired_lexicon.entries()}:
            total = math.fsum(e.relfreq for e in acquired_lexicon.entries()
                              if e.lemma == lemma)
            assert abs(total - 1.0) <= 1e-9

    def test_negative_thresholds_rejected(self):
        with pytest.raises(ValueError):
            fp.hypothesize_entries(fp.ObservationStore(cap=100), min_count=-1)
        with pytest.raises(ValueError):
            fp.observe_corpus([], None, cap=-1)

    @pytest.mark.parametrize("cap", [float("nan"), 1.5, 2.0, "2", None, True,
                                     False])
    def test_non_int_cap_rejected(self, cap):
        # NaN compares false with every length, so it would keep every
        # frame; 1.5 would act as 2, and True as 1
        with pytest.raises(ValueError, match="non-negative int"):
            fp.observe_corpus([], None, cap=cap)
        with pytest.raises(ValueError, match="non-negative int"):
            fp.ObservationStore(cap=cap)

    @pytest.mark.parametrize("min_relfreq", [-0.5, float("nan"), float("inf")])
    def test_non_finite_min_relfreq_rejected(self, min_relfreq):
        # NaN fails every comparison, so it would silently drop every frame
        store = fp.ObservationStore(cap=100)
        store.add("v", "NP")
        with pytest.raises(ValueError, match="finite"):
            fp.hypothesize_entries(store, min_relfreq=min_relfreq)

    @pytest.mark.parametrize("min_count", [float("nan"), float("inf")])
    def test_non_finite_min_count_rejected(self, min_count):
        # both would silently drop every frame
        store = fp.ObservationStore(cap=100)
        store.add("v", "NP")
        with pytest.raises(ValueError, match="finite"):
            fp.hypothesize_entries(store, min_count=min_count)
