"""Spans around the calls into frameparse's public functions.

``install`` replaces each traced function in the module that calls it
(the name the caller looks up at call time), so the program's code is
timed without being edited.  Spans nest: a span's self time is its
duration minus that of its child spans.  Counts that take work to
compute (forest sizes, derivation counts) are gathered in a bookkeeping
span named ``trace.count``, which is subtracted from its parent's self
time like any child and belongs to no layer.

Aggregates are kept for every span.  Raw spans are kept for the first
whole top-level spans up to ``RAW_SPAN_LIMIT``, so self times can be
re-derived from the file with :func:`self_times`.
"""

from __future__ import annotations

import re
import time
from collections import Counter

RAW_SPAN_LIMIT = 50_000
BOOKKEEPING = "trace.count"


class Tracer:
    def __init__(self):
        self.raw: list[tuple[int, int, str, int, int]] = []
        self.recording = True
        self.by_name: dict[str, list[int]] = {}  # name -> [calls, total, self]
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [id, name, start_ns, child_ns]
        self._next_id = 1

    def begin(self, name):
        if not self._stack and len(self.raw) >= RAW_SPAN_LIMIT:
            self.recording = False
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1

    def end(self):
        end = time.perf_counter_ns()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        entry = self.by_name.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if self.recording:
            self.raw.append((span_id, parent, name, start, end))

    def wrap(self, fn, name, after=None):
        """``fn`` timed as span ``name``; ``after(tracer, result)`` runs
        in a bookkeeping span once ``fn`` has returned."""
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                self.begin(BOOKKEEPING)
                try:
                    after(self, result)
                finally:
                    self.end()
            return result
        return traced

    def dump(self):
        return {"spans": span_table(self.by_name),
                "counters": dict(sorted(self.counters.items())),
                "raw_spans": [list(span) for span in self.raw]}


def span_table(by_name):
    """{name: [calls, total_ns, self_ns]} in the form ``trace.json`` keeps."""
    return {name: {"calls": c, "total_ns": t, "self_ns": s}
            for name, (c, t, s) in sorted(by_name.items())}


def self_times(raw_spans):
    """Re-derive {name: [calls, total_ns, self_ns]} from raw spans given
    as (id, parent, name, start_ns, end_ns)."""
    child_ns: Counter = Counter()
    for _, parent, _, start, end in raw_spans:
        if parent:
            child_ns[parent] += end - start
    out: dict[str, list[int]] = {}
    for span_id, _, name, start, end in raw_spans:
        entry = out.setdefault(name, [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - child_ns[span_id]
    return out


def _count_forest(tracer, forest):
    nodes = forest.nodes.values()
    tracer.counters["glr.forest_nodes"] += len(forest.nodes)
    tracer.counters["glr.packed_alternatives"] += sum(
        len(node.alternatives) for node in nodes)
    tracer.counters["glr.derivations"] += forest.derivation_count()


def _count(counter, measure):
    def after(tracer, result):
        tracer.counters[counter] += measure(result)
    return after


def install(tracer):
    """Trace frameparse's public functions at every call site the
    benchmark and the CLI reach; returns a function that undoes it."""
    import frameparse
    from frameparse import (acquire, actions, cli, evaluation, pipeline,
                            preprocess, rerank)

    patched = []

    def site(module, attr, after=None):
        fn = getattr(module, attr)
        name = "%s.%s" % (fn.__module__.removeprefix("frameparse."),
                          fn.__qualname__)
        patched.append((module, attr, fn))
        setattr(module, attr, tracer.wrap(fn, name, after))

    observations = _count("acquire.observations",
                          lambda store: store.total_observations())
    states = _count("lrtable.states", lambda table: table.n_states)
    for module in (frameparse, cli):
        site(module, "build_table", states)
        for attr in ("load_grammar", "load_model",
                     "load_lexicon", "load_wordlist", "load_lemma_exceptions",
                     "hypothesize_entries"):
            site(module, attr)
        site(module, "observe_corpus", observations)
    for attr in ("extract_grs", "bracket_scores", "paired_t_test"):
        site(cli, attr)
    site(evaluation, "gr_scores")
    site(pipeline.ParserPipeline, "analyze",
         _count("pipeline.analyses", lambda result: len(result.analyses)))
    site(pipeline, "tag_tokens", _count("preprocess.tokens", len))
    site(pipeline, "glr_parse", _count_forest)
    site(pipeline, "unpack_n_best")
    site(pipeline, "rank_analyses")
    site(preprocess, "tokenize")
    site(rerank, "unpack_n_best")
    site(rerank, "verb_frames")
    site(acquire, "verb_frames", _count("acquire.verb_instances", len))
    site(actions, "tree_actions")

    def uninstall():
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)
    return uninstall


# (metric, unit, spans whose self time it sums); "ms" is per set-up,
# "ms/op" per operation.
LAYER_TIMES = (
    ("grammar.load_ms", "ms", ("grammar.load_grammar",)),
    ("lrtable.build_ms", "ms", ("lrtable.build_table",)),
    ("actions.load_model_ms", "ms", ("actions.load_model",)),
    ("lexicon.load_ms", "ms", ("lexicon.load_lexicon",)),
    ("preprocess.load_ms", "ms", ("preprocess.load_wordlist",
                                  "preprocess.load_lemma_exceptions")),
    ("preprocess.tag_ms", "ms/op", ("preprocess.tokenize",
                                    "preprocess.tag_tokens")),
    ("glr.parse_ms", "ms/op", ("glr.glr_parse",)),
    ("actions.unpack_ms", "ms/op", ("actions.unpack_n_best",
                                    "actions.tree_actions")),
    ("rerank.rank_ms", "ms/op", ("rerank.rank_analyses", "rerank.verb_frames")),
    ("pipeline.analyze_ms", "ms/op", ("pipeline.ParserPipeline.analyze",)),
    ("evaluation.extract_grs_ms", "ms/op", ("evaluation.extract_grs",)),
    ("evaluation.bracket_ms", "ms/op", ("evaluation.bracket_scores",)),
    ("grs.score_ms", "ms/op", ("grs.gr_scores",)),
    ("evaluation.ttest_ms", "ms/op", ("evaluation.paired_t_test",)),
    ("acquire.observe_ms", "ms/op", ("acquire.observe_corpus",)),
    ("acquire.hypothesize_ms", "ms/op", ("acquire.hypothesize_entries",)),
)

# Every per-layer metric in report order, with its unit.
PER_LAYER = (
    (("import.frameparse_ms", "ms"), ("import.scipy_ms", "ms"),
     ("cli.main_ms", "ms/op"), ("cli.startup_ms", "ms/op"))
    + tuple((name, unit) for name, unit, _ in LAYER_TIMES)
    + (("lrtable.states", "count"), ("preprocess.tokens", "count/op"),
       ("glr.forest_nodes", "count/op"), ("glr.packed_alternatives", "count/op"),
       ("glr.derivations", "count/op"), ("glr.parse_calls", "count/op"),
       ("actions.trees_scored", "count/op"), ("actions.useful_ratio", "ratio"),
       ("rerank.verb_frames_calls", "count/op"),
       ("pipeline.analyze_calls", "count/op"),
       ("acquire.observations", "count/op"), ("acquire.capped", "count/op"))
)


def layer_metrics(by_name, counters, ops, setups, extra):
    """Per-layer metrics from aggregated spans and counters.

    ``ops`` is the number of operations the spans cover and ``setups``
    the number of pipeline set-ups; ``extra`` supplies the metrics that
    do not come from spans (import times, states, CLI figures).  A layer
    that did not run reads 0.
    """
    def calls(name):
        return by_name.get(name, (0, 0, 0))[0]

    values = dict(extra)
    for metric, unit, names in LAYER_TIMES:
        self_ns = sum(by_name.get(name, (0, 0, 0))[2] for name in names)
        values[metric] = self_ns / 1e6 / (setups if unit == "ms" else ops)
    trees = calls("actions.tree_actions")
    per_op = {
        "preprocess.tokens": counters.get("preprocess.tokens", 0),
        "glr.forest_nodes": counters.get("glr.forest_nodes", 0),
        "glr.packed_alternatives": counters.get("glr.packed_alternatives", 0),
        "glr.derivations": counters.get("glr.derivations", 0),
        "glr.parse_calls": calls("glr.glr_parse"),
        "actions.trees_scored": trees,
        "rerank.verb_frames_calls": calls("rerank.verb_frames"),
        "pipeline.analyze_calls": calls("pipeline.ParserPipeline.analyze"),
        "acquire.observations": counters.get("acquire.observations", 0),
        "acquire.capped": (counters.get("acquire.verb_instances", 0)
                           - counters.get("acquire.observations", 0)),
    }
    for metric, total in per_op.items():
        values[metric] = total / ops
    values["lrtable.states"] = counters.get("lrtable.states", 0) / setups
    values["actions.useful_ratio"] = (
        counters.get("pipeline.analyses", 0) / trees if trees else 0.0)
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in PER_LAYER}


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)")


IMPORT_ROOTS = ("frameparse", "scipy")


def import_times(importtime_stderr):
    """Cumulative import time in ms per root package, from the output of
    ``python -X importtime``; a package's time is the sum over its
    outermost imported modules, so dependencies it pulls in count too."""
    lines = []
    for line in importtime_stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if match:
            lines.append((len(match.group(3)), match.group(4),
                          int(match.group(2))))
    totals = dict.fromkeys(IMPORT_ROOTS, 0.0)
    # importtime prints children before parents; walk parents first.
    ancestors: list[str] = []
    for depth, module, cumulative_us in reversed(lines):
        level = depth // 2
        del ancestors[level:]
        root = module.split(".")[0]
        if root in totals and not any(a.split(".")[0] == root
                                      for a in ancestors):
            totals[root] += cumulative_us / 1000.0
        ancestors.append(module)
    return totals
