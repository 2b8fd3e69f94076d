"""Acceptance suite: ten numbered end-to-end checks with pinned tolerances.

Each check records one PASS/FAIL/SKIP line, printed in the terminal summary
by the conftest hook. Checks 7 and 10 need the published benchmark files on
disk (see README, Datasets); they skip with download instructions otherwise.
"""

import dataclasses
import itertools
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from alregress import (
    Dataset,
    ExperimentConfig,
    NNBipartiteGraph,
    OracleConfig,
    StrategyConfig,
    fit,
    fit_diagnostics,
    load_dataset,
    load_manifest,
    run_experiment,
    select_ours_sequential,
)
from alregress.validation import (
    bound_violations,
    check_commit,
    local_search_ratios,
    optimum,
)

from conftest import REPO_ROOT, bench_path, record_criterion

UCI_MANIFEST = REPO_ROOT / "manifests" / "uci.json"

TABLE_SHAPES = {
    "housing": (506, 13),
    "concrete": (1030, 8),
    "yacht": (308, 6),
    "pm10": (500, 7),
    "redwine": (1599, 11),
    "whitewine": (4898, 11),
}


def _bench_manifest(name):
    """Manifest entry from manifests/uci.json, retargeted at the data dir."""
    entry = load_manifest(UCI_MANIFEST)[name]
    return dataclasses.replace(entry, path=str(bench_path(name)))


def _skip_missing(criterion, name):
    path = bench_path(name)
    if not path.exists():
        record_criterion(
            criterion, "SKIP", f"{name}: put the file at {path} (see README, Datasets)"
        )
        pytest.skip(f"benchmark file {path} not present")


def test_criterion_01_toy_single_pick():
    # 1-D line: one point of weight 9 whose labeling also drags a weight-7
    # point down to 4, so its reduction is exactly 12 and it must be chosen
    X = np.array([[0.0], [20.0], [40.0], [9.0], [13.0], [38.0], [41.0]])
    g = NNBipartiteGraph.build([0, 1, 2], [3, 4, 5, 6], X)
    ok = (
        g.theta(3) == 9.0
        and g.theta(4) == 7.0
        and g.commit(np.array([3])).theta(4) == 4.0
        and g.q_single(3) == 12.0
        and select_ours_sequential(g).chosen == 3
    )
    record_criterion(1, "PASS" if ok else "FAIL", "toy reduction 12, picked")
    assert ok


def test_criterion_02_prediction_shift_bound():
    # 10,000 raw draws across dimensions 1..20 plus 50 through check_bound
    start = time.perf_counter()
    violations = bound_violations(np.random.default_rng(22), 10_000)
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 1.0
    record_criterion(
        2, "PASS" if ok else "FAIL",
        f"{violations} violations in 10050 draws, {elapsed:.2f}s",
    )
    assert violations == 0
    assert elapsed < 1.0, f"bound check took {elapsed:.2f}s, budget 1s"


def test_criterion_03_incremental_equals_rebuild():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    for _ in range(200):
        n_lab = int(rng.integers(1, 21))
        n_unl = int(rng.integers(1, 51))
        d = int(rng.integers(1, 9))
        X = rng.normal(size=(n_lab + n_unl, d))
        perm = rng.permutation(n_lab + n_unl)
        g = NNBipartiteGraph.build(perm[:n_lab], perm[n_lab:], X)

        s = int(rng.integers(1, n_unl + 1))
        subset = rng.choice(g.unlabeled, size=s, replace=False)
        # bitwise thetas: q_set equals the rebuild's H drop exactly
        check_commit(g, subset)
        check_commit(g, [int(rng.choice(g.unlabeled))])  # single-point rebuild
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    record_criterion(
        3, "PASS" if ok else "FAIL", f"200 instances exact, {elapsed:.2f}s"
    )
    assert elapsed < 5.0, f"rebuild check took {elapsed:.2f}s, budget 5s"


@pytest.fixture(scope="module")
def search_instances():
    """100 small instances shared by checks 4 and 5."""
    rng = np.random.default_rng(44)
    out = []
    for _ in range(100):
        n_unl = int(rng.integers(4, 15))  # pool size <= 14
        n_lab = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(n_lab + n_unl, d))
        perm = rng.permutation(n_lab + n_unl)
        g = NNBipartiteGraph.build(perm[:n_lab], perm[n_lab:], X)
        out.append((g, int(rng.integers(2, 4))))
    return out


def test_criterion_04_local_search_within_5x(search_instances):
    start = time.perf_counter()
    worst_total_ratio = 1.0
    worst_q_ratio = 1.0
    for g, k in search_instances:
        total_ratio, q_ratio = local_search_ratios(g, k)
        worst_total_ratio = max(worst_total_ratio, total_ratio)
        worst_q_ratio = max(worst_q_ratio, q_ratio)
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    record_criterion(
        4, "PASS" if ok else "FAIL",
        f"100 instances within 5x (worst {worst_total_ratio:.3f}); "
        f"observed Q ratio <= {worst_q_ratio:.3f}, {elapsed:.1f}s",
    )
    assert elapsed < 30.0, f"local search check took {elapsed:.1f}s, budget 30s"


def test_criterion_05_reduction_total_duality(search_instances):
    for g, k in search_instances:
        optimum(g, k)  # asserts q_set of the best subset and the duality bitwise
    record_criterion(5, "PASS", "exact equality on all 100 instances")


def test_criterion_06_solver_recovery():
    rng = np.random.default_rng(66)
    X = rng.normal(size=(100, 10))
    w_true = rng.normal(size=10)
    y = X @ w_true + 1.5
    model = fit(X, y, alpha=0.0)
    rel_err = float(
        np.linalg.norm(model.weights - w_true) / np.linalg.norm(w_true)
    )
    ridge_diag = fit_diagnostics(X, y, fit(X, y, alpha=1.0))
    resid = ridge_diag.normal_equation_residual
    ok = rel_err <= 1e-6 and resid <= 1e-8
    record_criterion(
        6, "PASS" if ok else "FAIL",
        f"weight error {rel_err:.1e}, ridge residual {resid:.1e}",
    )
    assert rel_err <= 1e-6
    assert resid <= 1e-8


_C7_ELAPSED: dict[str, float] = {}


@pytest.mark.parametrize("name", ["housing", "yacht"])
def test_criterion_07_benchmark_ordering(name):
    _skip_missing(7, name)
    start = time.perf_counter()
    config = ExperimentConfig(
        dataset=load_dataset(_bench_manifest(name)),
        strategies=(
            StrategyConfig(kind="ours_sequential"),
            StrategyConfig(kind="ours_batch"),
            StrategyConfig(kind="random"),
        ),
        trials=30,
        rounds=10,
    )
    report = run_experiment(config)
    m_seq = float(report.mean_rmse["ours_sequential"][10])
    m_rnd = float(report.mean_rmse["random"][10])
    m_bat = float(report.mean_rmse["ours_batch"][10])
    s_seq = float(report.std_rmse["ours_sequential"][10])
    s_rnd = float(report.std_rmse["random"][10])
    pooled = float(np.sqrt((s_seq**2 + s_rnd**2) / 2.0))
    _C7_ELAPSED[name] = time.perf_counter() - start
    total = sum(_C7_ELAPSED.values())

    margin_ok = m_seq <= m_rnd - 0.25 * pooled
    batch_ok = m_bat <= m_seq
    ok = margin_ok and batch_ok and total < 600.0
    record_criterion(
        7, "PASS" if ok else "FAIL",
        f"{name}: seq {m_seq:.3f} vs random {m_rnd:.3f} "
        f"(margin {0.25 * pooled:.3f}), batch {m_bat:.3f}, {total:.0f}s",
    )
    assert margin_ok, (
        f"{name}: sequential {m_seq} above random {m_rnd} - 0.25*{pooled}"
    )
    assert batch_ok, f"{name}: batch {m_bat} above sequential {m_seq}"
    assert total < 600.0, f"benchmark checks took {total:.0f}s, budget 600s"


def test_criterion_08_noise_leaves_feature_strategies_fixed():
    feature_only = ("ours_sequential", "ours_batch", "greedy", "random")
    label_driven = ("qbc", "emcm")
    differs = {kind: False for kind in label_driven}
    rng = np.random.default_rng(88)
    for ds_seed, n in ((81, 140), (82, 100)):
        X = rng.normal(size=(n, 4))
        y = X @ rng.normal(size=4) + 0.2 * rng.normal(size=n)
        dataset = Dataset(features=X, targets=y, name=f"synth{ds_seed}")
        picks = {}
        for noise in ("exact", "gaussian"):
            config = ExperimentConfig(
                dataset=dataset,
                strategies=tuple(
                    StrategyConfig(kind=k) for k in feature_only + label_driven
                ),
                trials=3,
                rounds=8,
                oracle=OracleConfig(noise_kind=noise, noise_scale=0.1),
            )
            report = run_experiment(config)
            picks[noise] = {
                kind: [r.queried_indices for r in report.trials[kind]]
                for kind in report.strategies
            }
        for kind in feature_only:
            assert picks["exact"][kind] == picks["gaussian"][kind], (
                f"{kind} changed selections under label noise"
            )
        for kind in label_driven:
            if picks["exact"][kind] != picks["gaussian"][kind]:
                differs[kind] = True
    ok = all(differs.values())
    record_criterion(
        8, "PASS" if ok else "FAIL",
        "feature-only sequences bit-identical; "
        + ", ".join(f"{k} diverged" if v else f"{k} did NOT diverge"
                    for k, v in differs.items()),
    )
    assert ok, f"label-driven strategies should react to noise: {differs}"


def test_criterion_09_cli_byte_determinism(tmp_path):
    rng = np.random.default_rng(99)
    X = rng.normal(size=(80, 3))
    y = X @ np.array([2.0, -1.0, 0.5]) + 1.0
    rows = "\n".join(
        ",".join(repr(float(v)) for v in row) + f",{float(y[i])!r}"
        for i, row in enumerate(X)
    )
    (tmp_path / "synth.csv").write_text(rows + "\n", encoding="utf-8")
    (tmp_path / "sets.json").write_text(
        '{"synth": {"path": "synth.csv"}}', encoding="utf-8"
    )
    launcher = (
        [shutil.which("al-regress")]
        if shutil.which("al-regress")
        else [sys.executable, "-m", "alregress"]
    )
    outputs = []
    for run_dir in ("first", "second"):
        out = tmp_path / run_dir
        cmd = launcher + [
            "run",
            "--manifest", str(tmp_path / "sets.json"),
            "--dataset", "synth",
            "--strategies", "ours_sequential,qbc,random",
            "--trials", "3",
            "--rounds", "6",
            "--noise", "gaussian",
            "--seed", "11",
            "--out", str(out),
            "--trace-log", str(out / "trace.csv"),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    identical = all(
        (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
        for name in ("curves.csv", "ranking.csv", "trials.csv", "trace.csv")
    )
    record_criterion(
        9, "PASS" if identical else "FAIL",
        "two runs, four files byte-identical" if identical else "outputs diverged",
    )
    assert identical


@pytest.mark.parametrize("name", list(TABLE_SHAPES))
def test_criterion_10_benchmark_shapes(name):
    _skip_missing(10, name)
    dataset = load_dataset(_bench_manifest(name))
    got = (dataset.n, dataset.dim)
    ok = got == TABLE_SHAPES[name]
    record_criterion(
        10, "PASS" if ok else "FAIL", f"{name} {got}"
    )
    assert ok, f"{name}: parsed {got}, expected {TABLE_SHAPES[name]}"
