"""The benchmark's workloads and the seeded stand-in data they run on.

The paper's UCI tables are not in the repository, so every workload runs on a
clustered synthetic stand-in (the recipe of demos/05_benchmark_run.py) at a
paper table's n x d. Stand-in data measures speed only: nothing here says
anything about the paper's accuracy claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from alregress import (
    DatasetManifest,
    ExperimentConfig,
    OracleConfig,
    RegressionSpec,
    StrategyConfig,
)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    strategies: tuple[StrategyConfig, ...]
    regression: RegressionSpec
    oracle: OracleConfig
    trials: int
    rounds: int
    queries: int  # labels requested by one repetition, across all trials
    why: str

    def config(self, manifest: DatasetManifest, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            dataset=manifest,
            strategies=self.strategies,
            regression=self.regression,
            trials=self.trials,
            rounds=self.rounds,
            oracle=self.oracle,
            base_seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Pool of 3380 points: the pool x pool working set (91 MB) is about
        # the size of L3, and graph.q_values plus the swap search dominate.
        # One 2% round (68 queries) and a 68-point batch; the full protocol
        # (about 70 s + 145 s per trial) is too long to repeat.
        Workload(
            name="graph-whitewine",
            n=4898,
            d=11,
            strategies=(
                StrategyConfig(kind="ours_sequential"),
                StrategyConfig(kind="ours_batch", batch_k=68),
            ),
            regression=RegressionSpec(kind="linear"),
            oracle=OracleConfig(),
            trials=1,
            rounds=1,
            queries=68 + 68,
            why="synthetic 4898x11 stand-in (speed only): one 2% round of "
            "ours_sequential and a 68-point ours_batch; graph scoring and swap "
            "search over a 91 MB pool x pool set dominate",
        ),
        # Degree-2 expansion gives 104 model columns; regression.fit is about
        # 90% of the work and graph.q_values is never called. The graph is
        # written (commit) but never read, so a graph-scoring change should
        # show no change here.
        Workload(
            name="baselines-housing-poly",
            n=506,
            d=13,
            strategies=tuple(
                StrategyConfig(kind=k) for k in ("random", "greedy", "qbc", "emcm")
            ),
            regression=RegressionSpec(kind="polynomial", alpha=1.0, degree=2),
            oracle=OracleConfig(noise_kind="gaussian", noise_scale=0.1),
            trials=5,
            rounds=10,
            queries=4 * 5 * 10 * 7,
            why="synthetic 506x13 stand-in (speed only), degree-2 ridge, noisy "
            "oracle: random, greedy, qbc, emcm; model fits dominate and graph "
            "scoring never runs",
        ),
    )
}


def stand_in(workload: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Clustered features and cluster-wise linear targets at the workload's
    n x d; a pure function of (seed, n, d)."""
    n, d = workload.n, workload.d
    rng = np.random.default_rng([seed, n, d])
    centers = rng.normal(scale=5.0, size=(6, d))
    assignments = rng.integers(0, 6, size=n)
    X = centers[assignments] + 0.5 * rng.normal(size=(n, d))
    slopes = rng.normal(size=(6, d))
    y = np.einsum("ij,ij->i", X, slopes[assignments]) + 0.1 * rng.normal(size=n)
    return X, y


def write_stand_in(workload: Workload, seed: int, directory: Path) -> DatasetManifest:
    """Write the stand-in as comma-delimited text (target last, floats as
    repr, so loading round-trips exactly) and return its manifest entry."""
    X, y = stand_in(workload, seed)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload.name}.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row, target in zip(X.tolist(), y.tolist()):
            fh.write(",".join(map(repr, row)) + f",{target!r}\n")
    return DatasetManifest(
        name=workload.name,
        path=str(path),
        delimiter=",",
        target_column=-1,
        expected_rows=workload.n,
        expected_cols=workload.d,
    )
