"""Outside-in tracer: spans and counts at the library's module boundaries.

The library has no events of its own yet, so the tracer replaces public
functions with timing wrappers, from outside the package. A name is patched
in every module that imported it (``from .regression import fit`` binds a
second name in ``experiment``), because patching only the defining module
would miss those calls. Spans are kept in memory and reduced when the run
ends; a span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from pathlib import Path

from alregress import datasets, experiment, graph, oracle, report, strategies

_G = graph.NNBipartiteGraph


def _moved(args, kwargs, result):
    return {"moved": result.labeled.size - args[0].labeled.size}


def _pair_evals(args, kwargs, result):
    return {"pair_evals": args[0].unlabeled.size ** 2}


def _swaps(args, kwargs, result):
    return {"swaps": result.swaps_performed}


def _report_bytes(args, kwargs, result):
    return {"bytes": sum(Path(p).stat().st_size for p in result)}


def _log_bytes(args, kwargs, result):
    return {"bytes": Path(result).stat().st_size}


# (owner, attribute, span name, extra counts from arguments and result).
# A span name is "<layer>.<function>"; the layer is the defining module.
_TARGETS = [
    (datasets, "load_dataset", "datasets.load_dataset", None),
    (experiment, "load_dataset", "datasets.load_dataset", None),
    (experiment, "make_split", "datasets.make_split", None),
    (experiment, "expand_matrix", "features.expand_matrix", None),
    (_G, "build", "graph.build", None),
    (_G, "q_values", "graph.q_values", _pair_evals),
    (_G, "q_set", "graph.q_set", None),
    (_G, "commit", "graph.commit", _moved),
    (experiment, "build_seed_set", "strategies.build_seed_set", None),
    (experiment, "select_ours_sequential", "strategies.select_ours_sequential", None),
    (experiment, "select_ours_batch", "strategies.select_ours_batch", _swaps),
    (experiment, "select_random", "strategies.select_random", None),
    (experiment, "select_greedy", "strategies.select_greedy", None),
    (experiment, "select_qbc", "strategies.select_qbc", None),
    (experiment, "select_emcm", "strategies.select_emcm", None),
    (experiment, "fit", "regression.fit", None),
    (experiment, "predict", "regression.predict", None),
    (experiment, "rmse", "regression.rmse", None),
    (strategies, "fit", "regression.fit", None),
    (strategies, "predict", "regression.predict", None),
    (oracle.LabelOracle, "label", "oracle.label", None),
    (experiment, "run_experiment", "experiment.run_experiment", None),
    (experiment, "build_model_space", "experiment.build_model_space", None),
    (report, "emit_report", "report.emit_report", _report_bytes),
    (report, "write_trace_log", "report.write_trace_log", _log_bytes),
]


class Tracer:
    """Install with ``with Tracer(run_id) as tr:``; the originals come back
    on exit. Not thread-safe: the library is single-threaded Python."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # One span per call: [name, parent index or -1, start, end].
        self.spans: list[list] = []
        # (span name, patched module) -> calls; other counts by metric name.
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, site, extra):
        spans, stack = self.spans, self._stack
        calls, counts = self.calls, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            calls[name, site] += 1
            if extra is not None:
                for key, value in extra(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += int(value)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for owner, attr, name, extra in _TARGETS:
            raw = owner.__dict__[attr]
            site = getattr(owner, "__name__", "")
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, site, extra))
            else:
                patched = self._wrap(raw, name, site, extra)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, patched)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time of its children."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def calls_of(self, name: str, site: str | None = None) -> int:
        return sum(
            c for (n, s), c in self.calls.items() if n == name and site in (None, s)
        )
