"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench/tests``."""

import gc
import math
import random
import statistics
from collections import Counter

import pytest

import corpus
import reference
import stats
import tracing


def test_corpus_is_deterministic_per_seed():
    first, again, other = (corpus.generate(seed) for seed in (7, 7, 8))
    assert first == again
    assert first.sentences != other.sentences
    assert len(first.sentences) == corpus.SENTENCES


def test_corpus_keeps_fixed_template_shares():
    generated = corpus.generate(3)
    shape = Counter()
    for sentence in generated.sentences:
        words = sentence.split()
        shape["control" if "intends" in words else
              {3: "intransitive", 5: "transitive", 8: "pp"}[len(words)]] += 1
    assert shape == {kind: count * corpus.BLOCKS
                     for kind, count in corpus.BLOCK}


def test_corpus_cap_binds_for_some_verbs_only():
    emitted = Counter(lemma for lemma, _ in corpus.generate(5).verbs)
    kept = corpus.expected_observations(corpus.generate(5))
    assert any(emitted[lemma] > corpus.CAP for lemma in emitted)
    assert any(emitted[lemma] < corpus.CAP for lemma in emitted)
    assert all(len(kept[lemma]) == min(corpus.CAP, emitted[lemma])
               for lemma in emitted)


@pytest.mark.parametrize("n", [40, 41, 57, 100, 1000, 1001, 80000])
def test_tail_leaves_ten_samples_beyond(n):
    rng = random.Random(n)
    samples = [rng.random() for _ in range(n)]
    value, percentile = stats.tail(samples)
    beyond = sum(1 for s in samples if s > value)
    assert beyond >= stats.TAIL_BEYOND
    # the highest such percentile, capped at p99
    assert beyond == max(stats.TAIL_BEYOND, math.ceil(n / 100))
    assert percentile == pytest.approx(100.0 * (n - beyond) / n)
    assert percentile <= 99.0
    assert value >= statistics.median(samples)


def test_tail_below_forty_samples_is_the_nearest_rank_p90():
    assert stats.tail(list(range(39))) == (35, 90.0)  # rank 36 of 39
    assert stats.tail(list(range(15))) == (13, 90.0)  # rank 14 of 15
    assert stats.tail([5.0]) == (5.0, 90.0)


def test_reservoir_keeps_all_then_a_fixed_size_sample(monkeypatch):
    monkeypatch.setattr(stats, "SAMPLE_SIZE", 8)
    reservoir = stats.Reservoir()
    for value in range(5):
        reservoir.add(float(value))
    assert list(reservoir.values()) == [0.0, 1.0, 2.0, 3.0, 4.0]
    for value in range(5, 1000):
        reservoir.add(float(value))
    kept = list(reservoir.values())
    assert reservoir.count == 1000
    assert len(kept) == len(set(kept)) == 8
    assert set(kept) <= set(map(float, range(1000)))
    assert max(kept) >= 8.0  # later operations replace earlier ones


@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.5, 6.65833, 40.0])
def test_t_tail_matches_closed_forms(t):
    assert stats.t_two_sided(t, 1) == pytest.approx(
        1.0 - 2.0 / math.pi * math.atan(t), rel=1e-9, abs=1e-15)
    assert stats.t_two_sided(t, 2) == pytest.approx(
        1.0 - t / math.sqrt(2.0 + t * t), rel=1e-9, abs=1e-15)
    assert stats.t_two_sided(-t, 2) == stats.t_two_sided(t, 2)


def test_t_tail_limits():
    assert stats.t_two_sided(math.inf, 19) == 0.0
    assert stats.t_two_sided(0.0, 19) == 1.0


def test_reference_speed_keeps_its_share_and_scales_by_the_mean(monkeypatch):
    ref = reference.REFERENCE_S
    # a host that runs the task at half speed, then at a sixth
    times = iter([2 * ref] * 4 + [6 * ref])
    monkeypatch.setattr(reference, "time_task", lambda: next(times))
    speed = reference.Speed()
    speed.after(0.0)
    assert speed.runs == 1  # at least once
    work = 4 * ref / reference.SHARE
    speed.after(work)
    assert speed.runs == 2
    speed.after(work)
    assert speed.runs == 4
    assert speed.scale() == pytest.approx(0.5)
    speed.after(1.4 * work)
    assert speed.runs == 5
    assert speed.scale() == pytest.approx(5 / 14)


def test_reference_task_is_fixed_and_restores_the_collector():
    assert reference._task() == reference._task()
    assert reference.time_task() > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        reference.time_task()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_self_times_rederive_from_raw_spans():
    tracer = tracing.Tracer()
    leaf = tracer.wrap(lambda: sum(range(1000)), "leaf")

    def middle():
        return leaf() + leaf()

    root = tracer.wrap(tracer.wrap(middle, "middle",
                                   after=lambda tr, _: None), "root")
    for _ in range(3):
        root()
    assert tracer.recording
    derived = tracing.self_times(tracer.raw)
    assert derived == {name: list(entry)
                       for name, entry in tracer.by_name.items()}
    assert derived["leaf"][0] == 6
    assert derived[tracing.BOOKKEEPING][0] == 3


def test_raw_spans_stop_at_a_whole_top_level_span(monkeypatch):
    monkeypatch.setattr(tracing, "RAW_SPAN_LIMIT", 4)
    tracer = tracing.Tracer()
    outer = tracer.wrap(tracer.wrap(lambda: None, "inner"), "outer")
    for _ in range(5):
        outer()
    assert not tracer.recording
    assert len(tracer.raw) == 4  # two whole outer spans with their inner
    assert tracer.by_name["outer"][0] == 5


def test_import_times_sum_outermost_modules():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:       400 |        700 |   scipy.stats",
        "import time:        50 |         50 |   scipy",
        "import time:        10 |         10 |   frameparse.glr",
        "import time:         5 |        765 | frameparse",
    ])
    assert tracing.import_times(text) == {"frameparse": 0.765,
                                          "scipy": 0.75}
