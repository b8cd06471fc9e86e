"""Benchmark of frameparse: ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``, run from the root of a checkout.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced operations, prints the per-layer
metrics and writes ``perfbench/runs/<workload>-seed<N>-trace1/trace.json``.
The last line of standard output is the result as one JSON object.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import common
import reference
import stats
import tracing
import workloads
from workloads import BenchError, Measurement

# Times are in reference seconds (see reference.py).
END_TO_END = (("setup_s", "s"), ("sentences_per_s", "1/s"),
              ("latency_ms_p50", "ms"), ("latency_ms_tail", "ms"),
              ("peak_rss_mb", "MiB"))


def end_to_end(setup, measured, scale):
    latencies = measured.latencies.values()
    tail, percentile = stats.tail(latencies)
    values = {"setup_s": statistics.median(setup) * scale,
              "sentences_per_s": measured.sentences / measured.busy / scale,
              "latency_ms_p50": statistics.median(latencies) * 1e3 * scale,
              "latency_ms_tail": tail * 1e3 * scale,
              "peak_rss_mb": measured.peak_rss_mb}
    info = {"operations": measured.latencies.count,
            "latency_samples": len(latencies),
            "tail_percentile": percentile, "host_speed": scale,
            "measured_setup_samples": setup,
            "measured_sentences_per_s": measured.sentences / measured.busy}
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}, info


def merge_child_traces(files):
    """Sum the spans and counters the traced CLI children wrote."""
    by_name: dict[str, list[int]] = {}
    counters: dict[str, int] = {}
    raw = []
    for index, (path, _wall) in enumerate(files):
        dump = json.loads(Path(path).read_text(encoding="utf-8"))
        for name, span in dump["spans"].items():
            entry = by_name.setdefault(name, [0, 0, 0])
            entry[0] += span["calls"]
            entry[1] += span["total_ns"]
            entry[2] += span["self_ns"]
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
        if index == 0:
            raw = dump["raw_spans"]
    return by_name, counters, raw


def traced_run(workload, run_dir, seconds, speed):
    """Untraced and traced operations in turn, so both sides see the same
    machine conditions; per-layer metrics come from the traced ones."""
    extra = workloads.import_layer_times(run_dir)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    pipe = workload.pipeline()
    uninstall()
    untraced, traced = Measurement(), Measurement()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        workload.step(pipe, untraced, speed)
        workload.step(pipe, traced, speed, tracer)
    ops = max(traced.latencies.count, 1)
    if isinstance(workload, workloads.CliCompare):
        by_name, counters, raw = merge_child_traces(workload.trace_files)
        walls = sum(wall for _, wall in workload.trace_files)
        main_ns = by_name.get("cli.main", (0, 0, 0))[1]
        extra["cli.main_ms"] = main_ns / 1e6 / ops
        extra["cli.startup_ms"] = (walls * 1e3 - main_ns / 1e6) / ops
        setups = ops
    else:
        by_name, counters, raw = tracer.by_name, tracer.counters, tracer.raw
        setups = 1
    metrics = tracing.layer_metrics(by_name, counters, ops, setups, extra)
    overhead = {
        "untraced_p50_ms": statistics.median(untraced.latencies.values()) * 1e3,
        "traced_p50_ms": statistics.median(traced.latencies.values()) * 1e3,
        "untraced_sentences_per_s": untraced.sentences / untraced.busy,
        "traced_sentences_per_s": traced.sentences / traced.busy,
    }
    overhead["overhead_pct"] = 100.0 * (
        overhead["traced_p50_ms"] / overhead["untraced_p50_ms"] - 1.0)
    report = {"workload": workload.name, "seed": workload.seed,
              "operations": ops, "metrics": metrics, "tracing": overhead,
              "spans": tracing.span_table(by_name),
              "counters": dict(sorted(counters.items())), "raw_spans": raw}
    (run_dir / "trace.json").write_text(json.dumps(report), encoding="utf-8")
    return metrics, [untraced, traced], overhead


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = common.missing_sources()
    if missing:
        print("error: not a frameparse checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    import frameparse
    if not Path(frameparse.__file__).resolve().is_relative_to(common.SRC):
        print(f"error: frameparse imported from {frameparse.__file__}, "
              f"not from {common.SRC}", file=sys.stderr)
        return 2

    run_dir = common.BENCH / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](run_dir, args.seed)
    try:
        workload.prepare()
        speed = reference.Speed()
        # A traced run reports no set-up time; one sample makes the
        # command-line workload's model and lexicon files.
        setup = workload.setup_samples(speed, 1) if args.trace \
            else workload.setup_samples(speed)
        if args.trace:
            metrics, runs, overhead = traced_run(workload, run_dir,
                                                 args.seconds, speed)
            info = {"tracing": overhead}
        else:
            measured = Measurement()
            pipe = workload.pipeline()
            workload.measure(pipe, args.seconds, measured, speed)
            metrics, info = end_to_end(setup, measured, speed.scale())
            runs = [measured]
        workload.check(workload.pipeline())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(m.latencies.count + m.failed for m in runs)
    failed = sum(m.failed for m in runs)
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": not workload.problems and attempted > failed,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    (run_dir / "result.json").write_text(
        json.dumps(dict(result, info=info, problems=workload.problems),
                   indent=1), encoding="utf-8")
    for name, metric in metrics.items():
        print(f"{args.workload}\t{name}\t{metric['value']:.6g}\t{metric['unit']}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
