"""The benchmark's tracer patches library names; each one must still exist.

perfbench/tracer.py wraps functions where they are defined or imported
(``experiment.fit``, ``strategies.fit``, ``experiment.expand_matrix``, ...),
reading each from its owner's ``__dict__``. A cleanup that deletes or renames
one of them would otherwise surface only as a KeyError in a traced benchmark
run.
"""

import contextlib
import importlib.util

import numpy as np

from alregress import (
    ExperimentConfig,
    NNBipartiteGraph,
    StrategyConfig,
    experiment,
    report,
)

from conftest import REPO_ROOT, synthetic_dataset

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", REPO_ROOT / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@contextlib.contextmanager
def traced():
    """The tracer, installed; what it patched is restored even when entering
    fails part way, so a missing name fails only the test that found it."""
    tr = tracer.Tracer("contract")
    try:
        yield tr.__enter__()
    finally:
        tr.__exit__(None, None, None)


def test_every_target_is_patched_and_restored():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracer._TARGETS]
    with traced():
        for (owner, attr, _, _), raw in zip(tracer._TARGETS, originals):
            assert owner.__dict__[attr] is not raw, f"{owner}.{attr} not patched"
    for (owner, attr, _, _), raw in zip(tracer._TARGETS, originals):
        assert owner.__dict__[attr] is raw, f"{owner}.{attr} not restored"


def test_traced_run_reads_its_counts(tmp_path, monkeypatch):
    # the per-span counters read library results (swaps_performed, labeled,
    # the written paths); a tiny run of every strategy exercises each one.
    # Inline: the tracer counts only in the process it was installed in.
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
    config = ExperimentConfig(
        dataset=synthetic_dataset(3),
        strategies=tuple(
            StrategyConfig(kind=k)
            for k in ("ours_sequential", "ours_batch", "random", "greedy", "qbc", "emcm")
        ),
        trials=1,
        rounds=2,
    )
    with traced() as tr:
        # called through the modules, where the tracer patches them
        rep = experiment.run_experiment(config)
        report.emit_report(rep, tmp_path)
        report.write_trace_log(rep, tmp_path / "trace.csv")
        # the graph rules keep their chain's weights without commit, so
        # its counter is exercised by one call of its own
        g = NNBipartiteGraph.build([0], [1, 2], np.array([[0.0], [1.0], [3.0]]))
        g.commit([1])
    assert tr.calls_of("regression.fit") > 0
    assert tr.counts["graph.commit.moved"] > 0
    assert tr.counts["report.emit_report.bytes"] > 0
    assert tr.counts["report.write_trace_log.bytes"] > 0
    assert np.isfinite(sum(tr.self_times().values()))
