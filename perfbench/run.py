"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives the library from outside the package along the path ``al-regress run``
takes: a DatasetManifest goes to run_experiment, then to emit_report and
write_trace_log. One repetition runs the workload's fixed query count; the run
repeats it, identical inputs each time, for about ``--seconds`` seconds and
reports medians. With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer ones from traced repetitions interleaved with
untraced ones. ``--workload all`` runs every workload, each in a fresh
process, and prints them together. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Fresh-interpreter set-up probes per untraced run.
SETUP_PROBES = 10
# Every traced span must have a reported *.self_s metric, and those of a
# traced repetition must add up to its wall time within this share plus
# SELF_SLACK_S; the gap is the benchmark's glue between spans.
SELF_SLACK_SHARE = 0.01
SELF_SLACK_S = 0.005

# glibc malloc parameters the measured process fixes: name -> (mallopt
# number, value). Left to glibc's dynamic policy, whether the heap freed by
# graph-whitewine's q_values blocks (about 53 MiB) is trimmed before its
# largest allocation is a borderline call: peak RSS read 252 MB in 4 of 50
# runs and 301 MB in the rest. These are the dynamic policy's own ceilings
# (mmap threshold 32 MiB, trim threshold twice that); fixed, the call always
# goes the same way and peak_rss_mb moves only with the program's
# allocations.
MALLOPT = {"M_TRIM_THRESHOLD": (-1, 64 << 20), "M_MMAP_THRESHOLD": (-3, 32 << 20)}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "trial_pass_rate": "ratio"}

# Per-layer metrics of a traced run, name -> unit. A name is
# "<layer>.<function>.<quantity>", the layer being the library module that
# defines the function. self_s is span time minus child spans; calls counts
# calls from every module that imported the name; other counts come from
# arguments and return values (see tracer.py).
PER_LAYER = {
    "graph.q_values.calls": "count",
    "graph.q_values.self_s": "s",
    "graph.q_values.pair_evals": "count",
    "graph.q_set.calls": "count",
    "graph.q_set.self_s": "s",
    "graph.commit.calls": "count",
    "graph.commit.self_s": "s",
    "graph.commit.moved": "count",
    "graph.build.self_s": "s",
    "strategies.select_ours_batch.self_s": "s",
    "strategies.select_ours_batch.swaps": "count",
    "strategies.build_seed_set.self_s": "s",
    "strategies.select_ours_sequential.self_s": "s",
    "strategies.select_greedy.self_s": "s",
    "strategies.select_qbc.self_s": "s",
    "strategies.select_emcm.self_s": "s",
    "strategies.select_random.self_s": "s",
    "regression.fit.calls": "count",
    "regression.fit.self_s": "s",
    "regression.predict.self_s": "s",
    "regression.rmse.self_s": "s",
    # Harness rmse evaluations over harness fits: the share of the
    # harness's model fits that are ever read.
    "experiment.fit_read_ratio": "ratio",
    "experiment.run_experiment.self_s": "s",
    "experiment.build_model_space.self_s": "s",
    "features.expand_matrix.self_s": "s",
    "datasets.load_dataset.self_s": "s",
    "datasets.make_split.self_s": "s",
    "oracle.label.calls": "count",
    "oracle.label.self_s": "s",
    "report.emit_report.self_s": "s",
    "report.emit_report.bytes": "bytes",
    "report.write_trace_log.self_s": "s",
    "report.write_trace_log.bytes": "bytes",
    # Median traced repetition, and it minus the median untraced one.
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}

# The library is imported inside functions, after main() has checked that
# its sources exist, so that a copy without them fails with a clear message.
sys.path[:0] = [str(SRC), str(HERE)]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(workload, seed, directory):
    """Stand-in generation, file write and load: what a run does before its
    first trial, after imports."""
    from alregress import datasets
    from workloads import write_stand_in

    manifest = write_stand_in(workload, seed, directory)
    datasets.load_dataset(manifest)
    return manifest


def _probe_setup(name, seed, directory) -> float:
    """Seconds from spawning a fresh interpreter to its dataset being loaded."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only", str(directory)]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1]) - start


def _repetition(workload, manifest, seed, out_dir):
    """The timed unit: the workload's fixed query count, reports included."""
    from alregress import experiment, report

    start = time.perf_counter()
    rep = experiment.run_experiment(workload.config(manifest, seed))
    report.emit_report(rep, out_dir)
    report.write_trace_log(rep, out_dir / "trace.csv")
    return time.perf_counter() - start, rep


def _layer_metrics(tr) -> dict[str, float]:
    self_s = tr.self_times()
    out = {}
    for name, unit in PER_LAYER.items():
        if name.startswith("trace."):
            continue
        span, _, kind = name.rpartition(".")
        if kind == "self_s":
            out[name] = self_s.get(span, 0.0)
        elif kind == "calls":
            out[name] = tr.calls_of(span)
        elif kind == "fit_read_ratio":
            site = "alregress.experiment"
            fits = tr.calls_of("regression.fit", site)
            out[name] = tr.calls_of("regression.rmse", site) / fits if fits else 0.0
        else:
            out[name] = tr.counts.get(name, 0)
    return out


class Run:
    def __init__(self, workload, manifest, seed, work):
        self.workload, self.manifest, self.seed = workload, manifest, seed
        self.out_dir, self.probe_dir = work / "out", work / "probe"
        self.attempted = self.failed = 0
        self.notes: list[str] = []
        self.self_check_failed = False  # tracer bookkeeping, not a trial

    def once(self, tracer=None):
        """One checked repetition, traced inside ``tracer`` when given.
        Returns its wall time, or None if it raised."""
        from gate import DEFAULT_SEED, digest_mismatches, pinned_digests, trial_failures

        w = self.workload
        n_trials = len(w.strategies) * w.trials
        self.attempted += n_trials
        try:
            with tracer or nullcontext():
                seconds, rep = _repetition(w, self.manifest, self.seed, self.out_dir)
        except Exception as exc:  # a raising trial is a failed trial, not a crash
            self.failed += n_trials
            self.notes.append(f"repetition raised {type(exc).__name__}: {exc}")
            return None
        if self.seed == DEFAULT_SEED:
            bad = digest_mismatches(self.out_dir, pinned_digests(w.name))
            if bad:
                self.failed += n_trials
                self.notes.append(f"digest mismatch at the default seed: {bad}")
                return seconds
        problems = trial_failures(rep, w)
        self.failed += min(len(problems), n_trials)
        self.notes += problems
        return seconds


def _measure(run: Run, seconds: float, trace: bool):
    """Repeat until the next cycle would end past ``seconds``; at least one
    cycle. A cycle is one untraced repetition, plus one traced when tracing.
    Without tracing, SETUP_PROBES set-up probes are taken between cycles in
    step with the clock, so that they sample the whole run. Returns the
    untraced times, the (traced time, tracer) pairs and the set-up times."""
    from tracer import Tracer

    setup_times, plain, traced, cycles = [], [], [], []

    def probe_until(count):
        while not trace and len(setup_times) < count:
            setup_times.append(_probe_setup(run.workload.name, run.seed,
                                            run.probe_dir / str(len(setup_times))))

    start = time.perf_counter()
    while True:
        probe_until(1 + int(SETUP_PROBES * (time.perf_counter() - start) / seconds))
        t0 = time.perf_counter()
        plain.append(run.once())
        if trace:
            tr = Tracer(run_id=f"{run.workload.name}:{run.seed}:{os.getpid()}")
            traced.append((run.once(tr), tr))
        cycles.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            break
    probe_until(SETUP_PROBES)
    return ([t for t in plain if t is not None],
            [(t, tr) for t, tr in traced if t is not None], setup_times)


def _per_layer(run: Run, plain, traced, spans_path):
    rows = [(t, _layer_metrics(tr), tr) for t, tr in traced]
    reported = {name.removesuffix(".self_s") for name in PER_LAYER if name.endswith(".self_s")}
    for t, m, tr in rows:
        total = sum(m[f"{span}.self_s"] for span in reported)
        unreported = set(tr.self_times()) - reported
        if unreported or abs(t - total) > SELF_SLACK_SHARE * t + SELF_SLACK_S:
            run.notes.append(f"reported self times sum to {total} s, traced run_s is {t} s; "
                             f"traced but not reported: {sorted(unreported)}")
            run.self_check_failed = True
    counts = {k: v for k, v in rows[0][1].items() if PER_LAYER[k] != "s"}
    for _, m, _ in rows[1:]:
        if {k: m[k] for k in counts} != counts:
            run.notes.append("a count differs between traced repetitions")
            run.self_check_failed = True
    metrics = {
        name: counts[name] if name in counts else statistics.median(m[name] for _, m, _ in rows)
        for name in rows[0][1]
    }
    traced_run_s = statistics.median(t for t, _, _ in rows)
    metrics["trace.run_s"] = traced_run_s
    metrics["trace.overhead_s"] = traced_run_s - statistics.median(plain)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for rep, (_, _, tr) in enumerate(rows):
            for i, (name, parent, t0, t1) in enumerate(tr.spans):
                fh.write(json.dumps({"run": tr.run_id, "rep": rep, "span": i,
                                     "name": name, "parent": parent,
                                     "start": t0, "end": t1}) + "\n")
    return metrics, {name: len(rows) for name in metrics}


def _result(correct, attempted, failed, metrics, units, samples):
    for name, value in metrics.items():
        print(f"{name:45s} {value!r:>24} {units[name]:6s} n={samples[name]}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _fix_malloc() -> dict[str, int]:
    """Apply MALLOPT; returns what was applied (nothing off glibc)."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return {}
    return {name: value for name, (param, value) in MALLOPT.items() if mallopt(param, value) == 1}


def run_workload(args) -> dict:
    from envinfo import environment
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    try:
        malloc = _fix_malloc()
        manifest = _setup(workload, args.seed, work / "data")
        print("env " + json.dumps({**environment(), "mallopt": malloc}), flush=True)
        run = Run(workload, manifest, args.seed, work)
        plain, traced, setup_times = _measure(run, args.seconds, bool(args.trace))
        if not plain or (args.trace and not traced):
            raise SystemExit(f"error: every repetition raised: {run.notes[-1]}")
        if args.trace:
            metrics, samples = _per_layer(
                run, plain, traced, WORK / f"spans-{workload.name}-s{args.seed}.jsonl"
            )
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": statistics.median(setup_times),
                "run_s": statistics.median(plain),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "trial_pass_rate": (run.attempted - run.failed) / run.attempted,
            }
            samples = {"setup_s": len(setup_times), "run_s": len(plain),
                       "peak_rss_mb": 1, "trial_pass_rate": run.attempted}
            units = END_TO_END_UNITS
        for note in run.notes:
            print(f"check failed: {note}", file=sys.stderr)
        correct = run.failed == 0 and not run.self_check_failed
        return _result(correct, run.attempted, run.failed, metrics, units, samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> dict:
    """Every workload in its own process (peak RSS is per process)."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=True)
        *lines, last = done.stdout.strip().splitlines()
        for line in lines:
            print(f"{name}: {line}")
        sys.stderr.write(done.stderr)
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "alregress" / "__init__.py").is_file():
        print(f"error: no alregress sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    if args.setup_only:
        _setup(WORKLOADS[args.workload], args.seed, Path(args.setup_only))
        print(time.monotonic())
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
