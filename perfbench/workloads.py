"""The benchmark's three workloads: inputs, timed loop and output checks.

Every workload runs in one process on one thread, in a closed loop: the
next operation starts when the previous one has returned.  Operation
latencies and the loop's busy time exclude the loop's own bookkeeping,
the reference task (see reference.py) and the output checks.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import common
import corpus
import stats
import tracing

CHILD = str(common.BENCH / "child.py")

LADDER_K = 6
LADDER_BASE = "the child sees a dog"
LADDER_PP = " in the park"
# The acquired lexicon gives ``see`` only the NP frame, so every rung's
# top analysis attaches no PP to the verb.
LADDER_GRS = frozenset({"ncsubj(see,child,_)", "dobj(see,dog,_)"})

DEMO = {"grammar": "@demo/demo.grammar", "wordlist": "@demo/demo.wordlist",
        "lemma_exceptions": "@demo/demo.lemma_exceptions"}

SETUP_SAMPLES = 3       # fresh interpreters per run, in-process workloads
CLI_SETUP_SAMPLES = 3   # train + acquire pairs per run, cli-compare
PPSUITE_SENTENCES = 20


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


@dataclass
class Measurement:
    latencies: stats.Reservoir = field(default_factory=stats.Reservoir)
    busy: float = 0.0  # seconds spent in the timed work
    sentences: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(args, stdout, stderr=subprocess.DEVNULL):
    """Run ``python3 child.py ARGS``; (wall seconds, exit code, peak RSS MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD] + args, stdout=stdout,
                            stderr=stderr, env=common.child_env(),
                            cwd=common.ROOT)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def train_and_acquire(model, lexicon):
    """Make the adversarial model and the acquired demo lexicon with
    ``frameparse train`` and ``frameparse acquire``, each in a fresh
    process, as a user would; returns the wall seconds of the two."""
    train = ["cli", "train", "--grammar", DEMO["grammar"],
             "--treebank", "@demo/adversarial.treebank", "--model", model]
    acquire = ["cli", "acquire", "--grammar", DEMO["grammar"],
               "--wordlist", DEMO["wordlist"],
               "--lemma-exceptions", DEMO["lemma_exceptions"],
               "--model", model, "--corpus", "@demo/acquisition.txt",
               "--out", lexicon]
    total = 0.0
    for args in (train, acquire):
        wall, code, _ = run_child(args, subprocess.DEVNULL)
        if code != 0:
            raise BenchError(f"frameparse {args[1]} exited {code}")
        total += wall
    return total


def import_layer_times(run_dir):
    err = run_dir / "importtime.txt"
    with open(err, "wb") as handle:
        code = subprocess.call([sys.executable, "-X", "importtime", "-c",
                                "import frameparse"], stderr=handle,
                               env=common.child_env(), cwd=common.ROOT)
    if code:
        raise BenchError("python -X importtime -c 'import frameparse' failed")
    times = tracing.import_times(err.read_text(encoding="utf-8"))
    return {"import.frameparse_ms": times["frameparse"],
            "import.scipy_ms": times["scipy"]}


def load_oracles():
    spec = importlib.util.spec_from_file_location("perfbench_oracles",
                                                  common.ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    def __init__(self, run_dir, seed):
        self.run_dir = run_dir
        self.seed = seed
        self.problems: list[str] = []

    def step(self, pipe, into, speed, tracer=None):
        """One operation, then the reference task for its share.  With a
        ``tracer``, the operation runs traced and the task does not."""
        busy = into.busy
        if tracer is None:
            self.operation(pipe, into)
        else:
            uninstall = tracing.install(tracer)
            self.operation(pipe, into, traced=True)
            uninstall()
        speed.after(into.busy - busy)

    def measure(self, pipe, seconds, into, speed):
        """Run whole operations, at least one, until ``seconds`` have
        passed."""
        start = time.perf_counter()
        while True:
            self.step(pipe, into, speed)
            if time.perf_counter() - start >= seconds:
                return


class InProcess(Workload):
    """Shared by the two workloads that drive the library in-process;
    tracing, when on, is installed in this process by the caller."""

    def __init__(self, run_dir, seed):
        super().__init__(run_dir, seed)
        self.model_path = str(run_dir / "adversarial.model")
        self.lexicon_path = str(run_dir / "acquired.lexicon")

    def prepare(self):
        """Make the model and the lexicon, untimed."""
        train_and_acquire(self.model_path, self.lexicon_path)

    def setup_samples(self, speed, count=SETUP_SAMPLES):
        """Seconds from starting a fresh interpreter to a built pipeline."""
        samples = []
        for _ in range(count):
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, CHILD, "setup", self.model_path,
                 self.lexicon_path], stdout=subprocess.PIPE,
                env=common.child_env(), cwd=common.ROOT)
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            proc.stdout.close()
            if proc.wait() != 0 or line != b"ready\n":
                raise BenchError("set-up child failed")
            speed.after(samples[-1])
        return samples

    def pipeline(self):
        return common.build_pipeline(self.model_path, self.lexicon_path)


class PPLadder(InProcess):
    name = "pp-ladder"
    sentences = tuple(LADDER_BASE + LADDER_PP * k for k in range(LADDER_K + 1))

    def __init__(self, run_dir, seed):
        super().__init__(run_dir, seed)
        self.first = None

    def operation(self, pipe, into, traced=False):
        start = time.perf_counter()
        try:
            results = [pipe.analyze(sentence) for sentence in self.sentences]
        except Exception as exc:  # a failed pass is counted, not fatal
            into.failed += 1
            self.problems.append(f"pass raised {exc!r}")
            return
        latency = time.perf_counter() - start
        into.latencies.add(latency)
        into.busy += latency
        into.sentences += len(self.sentences)
        into.peak_rss_mb = self_peak_rss_mb()
        traces = [tuple(a.derivation.actions for a in r.analyses)
                  for r in results]
        if self.first is None:
            self.first = (results, traces)
        elif traces != self.first[1]:
            self.problems.append("a pass ranked differently from the first")

    def check(self, pipe):
        import frameparse as fp
        if self.first is None:
            return
        oracles = load_oracles()
        for k, result in enumerate(self.first[0]):
            tags = [token.tag for token in result.tokens]
            expected = len(oracles.enumerate_parses(pipe.grammar, tags))
            counted = pipe.parse_tags(tags).derivation_count()
            if counted != expected:
                self.problems.append(
                    f"rung {k}: {counted} derivations, oracle {expected}")
            if len(result.analyses) != 1:
                self.problems.append(f"rung {k}: {len(result.analyses)} "
                                     "analyses for n=1")
                continue
            grs = {gr.render() for gr in fp.extract_grs(
                result.analyses[0].derivation, pipe.grammar, result.tokens)}
            if grs != LADDER_GRS:
                self.problems.append(f"rung {k}: GRs {sorted(grs)}")


def _stamped(sentences, stamps):
    """Yield sentences, stamping the clock as each one is requested."""
    clock = time.perf_counter
    for sentence in sentences:
        stamps.append(clock())
        yield sentence
    stamps.append(clock())


class AcquireCorpus(InProcess):
    name = "acquire-corpus"

    def __init__(self, run_dir, seed):
        super().__init__(run_dir, seed)
        self.corpus = corpus.generate(seed)
        self.first = None

    def operation(self, pipe, into, traced=False):
        import frameparse as fp
        stamps: list[float] = []
        start = time.perf_counter()
        try:
            store = fp.observe_corpus(_stamped(self.corpus.sentences, stamps),
                                      pipe, cap=corpus.CAP)
            lexicon = fp.hypothesize_entries(store)
        except Exception as exc:  # a failed round is counted, not fatal
            into.failed += len(self.corpus.sentences)
            self.problems.append(f"round raised {exc!r}")
            return
        into.busy += time.perf_counter() - start
        for before, after in zip(stamps, stamps[1:]):
            into.latencies.add(after - before)
        into.sentences += len(self.corpus.sentences)
        into.peak_rss_mb = self_peak_rss_mb()
        if self.first is None:
            self.first = (store, lexicon)
        elif (store.frames != self.first[0].frames
              or store.parsed_sentences != self.first[0].parsed_sentences):
            self.problems.append("a round observed differently from the first")

    def check(self, pipe):
        if self.first is None:
            return
        store, lexicon = self.first
        n = len(self.corpus.sentences)
        if store.parsed_sentences != n or store.skipped_sentences:
            self.problems.append(f"parsed {store.parsed_sentences} of {n}, "
                                 f"skipped {store.skipped_sentences}")
        expected = corpus.expected_observations(self.corpus)
        if set(store.frames) != set(expected):
            self.problems.append(f"lemmas {sorted(store.frames)}, "
                                 f"expected {sorted(expected)}")
        for lemma, frames in expected.items():
            got = store.frames.get(lemma, [])
            if len(got) != len(frames):
                self.problems.append(f"{lemma}: {len(got)} observations, "
                                     f"expected {len(frames)}")
                continue
            for index, (want, frame) in enumerate(zip(frames, got)):
                if frame != want and not (want is None
                                          and frame in corpus.PP_FRAMES):
                    self.problems.append(f"{lemma}[{index}]: frame {frame}, "
                                         f"expected {want or 'NP|NP_PP'}")
                    break
        sums: dict[str, float] = {}
        for entry in lexicon.entries():
            sums[entry.lemma] = sums.get(entry.lemma, 0.0) + entry.relfreq
        for lemma, total in sums.items():
            if abs(total - 1.0) > 1e-9:
                self.problems.append(f"{lemma}: relfreqs sum to {total}")


def _compare_args(model, lexicon):
    return ["compare", "--grammar", DEMO["grammar"],
            "--wordlist", DEMO["wordlist"],
            "--lemma-exceptions", DEMO["lemma_exceptions"],
            "--model", model, "--lexicon", lexicon,
            "--corpus", "@demo/ppsuite.txt",
            "--gold-gr", "@demo/ppsuite_gold.grs",
            "--treebank", "@demo/ppsuite_gold.treebank",
            "--format", "machine-readable"]


def check_compare_report(report):
    """Problems found in a ``compare --format machine-readable`` report."""
    problems = []
    lex_gr = report["gr"]["lexicalized"]
    base_gr = report["gr"]["baseline"]
    lex_br = report["bracket"]["lexicalized"]
    for name, value in (("GR recall", lex_gr["recall"]),
                        ("GR precision", lex_gr["precision"]),
                        ("bracket recall", lex_br["recall"]),
                        ("bracket precision", lex_br["precision"])):
        if value != 1.0:
            problems.append(f"lexicalized {name} {value}, expected 1.0")
    if not base_gr["precision"] < lex_gr["precision"]:
        problems.append(f"baseline GR precision {base_gr['precision']} not "
                        f"below lexicalized {lex_gr['precision']}")
    iobj = {model: sum(row["returned"] for row in rows
                       if row["relation"] == "iobj")
            for model, rows in report["gr"]["relations"].items()}
    if not (iobj.get("baseline", 0) > 0 and iobj.get("lexicalized", 0) == 0):
        problems.append(f"iobj returned {iobj}; expected baseline only")
    for key in ("recall", "precision"):
        t, df, p = (report[f"{key}_{part}"] for part in ("t", "df", "p"))
        want = stats.t_two_sided(t, df)
        if not math.isclose(p, want, rel_tol=1e-7, abs_tol=1e-12):
            problems.append(f"{key}_p {p}, Student-t tail gives {want}")
    return problems


class CliCompare(Workload):
    name = "cli-compare"

    def __init__(self, run_dir, seed):
        super().__init__(run_dir, seed)
        self.model_path = self.lexicon_path = None
        self.first_output = None
        self.trace_files: list = []

    def prepare(self):
        pass

    def setup_samples(self, speed, count=CLI_SETUP_SAMPLES):
        """Seconds for one ``frameparse train`` plus one ``frameparse
        acquire``, each in a fresh process, per sample."""
        samples, files = [], []
        for index in range(count):
            model = str(self.run_dir / f"setup{index}.model")
            lexicon = str(self.run_dir / f"setup{index}.lexicon")
            samples.append(train_and_acquire(model, lexicon))
            speed.after(samples[-1])
            files.append((Path(model).read_bytes(), Path(lexicon).read_bytes()))
        if any(pair != files[0] for pair in files):
            self.problems.append("train/acquire output differs between runs")
        self.model_path, self.lexicon_path = model, lexicon
        return samples

    def pipeline(self):
        return None

    def operation(self, _pipe, into, traced=False):
        """One ``frameparse compare`` process; ``traced`` starts it with
        the tracing launcher."""
        out_path = self.run_dir / "compare.out"
        err_path = self.run_dir / "compare.err"
        args = ["cli"]
        if traced:
            trace_file = self.run_dir / f"child{len(self.trace_files)}.json"
            args += ["--trace-out", str(trace_file)]
        args += _compare_args(self.model_path, self.lexicon_path)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            wall, code, rss = run_child(args, out, err)
        into.peak_rss_mb = max(into.peak_rss_mb, rss)
        if code != 0:
            into.failed += 1
            self.problems.append(
                f"compare exited {code}: {err_path.read_text()[-300:]}")
            return
        into.latencies.add(wall)
        into.busy += wall
        into.sentences += PPSUITE_SENTENCES
        if traced:
            self.trace_files.append((trace_file, wall))
        output = out_path.read_bytes()
        if self.first_output is None:
            self.first_output = output
        elif output != self.first_output:
            self.problems.append("compare output differs between runs")

    def check(self, _pipe):
        if self.first_output is None:
            return
        try:
            self.problems.extend(
                check_compare_report(json.loads(self.first_output)))
        except (ValueError, KeyError, TypeError) as exc:
            self.problems.append(f"unreadable compare report: {exc!r}")


WORKLOADS = {cls.name: cls for cls in (PPLadder, AcquireCorpus, CliCompare)}
