"""Benchmark harness: seeded trials of query strategies on one dataset.

A trial splits the data, trains on the initial labeled set, then either
queries round by round (sequential strategies, retraining at the end of each
round, where the model is read) or takes one up-front batch. The graph rules
never read labels, so a sequential graph trial takes its whole query order
from one build_seed_set call. Test RMSE is always measured against noiseless
ground truth. Trials are pure functions of (dataset, config, trial seed):
strategy randomness, oracle noise, and the split draw from separate seeded
streams so noise settings never perturb feature-only strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import (
    Dataset,
    DatasetManifest,
    apply_standardizer,
    fit_standardizer,
    load_dataset,
    make_split,
    round_half_up,
)
from .features import expand_matrix
from .graph import NNBipartiteGraph
from .oracle import LabelOracle, OracleConfig
from .regression import fit, predict, rmse
from .strategies import (
    StrategyConfig,
    build_seed_set,
    select_emcm,
    select_greedy,
    select_ours_batch,
    select_ours_sequential,  # noqa: F401 - not called; perfbench patches it here
    select_qbc,
    select_random,
)
from .validation import check_graph

REGRESSION_KINDS = ("linear", "ridge", "polynomial")

# Fixed salts keep the split, strategy, and oracle streams independent.
_STRATEGY_RNG_SALT = 202
_ORACLE_SALT = 101
_STRATEGY_CODES = {
    "ours_sequential": 1,
    "ours_batch": 2,
    "random": 3,
    "greedy": 4,
    "qbc": 5,
    "emcm": 6,
}

# The paper's protocol: a sequential round queries 2% of the initial pool, and
# the up-front batch takes 20% of it.
PER_ROUND_FRACTION = 0.02
TOTAL_FRACTION = 0.20

RANKING_CHECKPOINTS = (5, 10, 15, 20)  # percent of the initial pool queried


@dataclass(frozen=True)
class RegressionSpec:
    """Model family for a run; alpha=None means 0 for linear, 1 otherwise."""

    kind: str = "linear"
    alpha: float | None = None
    degree: int = 2

    def __post_init__(self):
        if self.kind not in REGRESSION_KINDS:
            raise ValueError(f"unknown regression kind {self.kind!r}")
        if self.alpha is not None and not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.kind == "polynomial" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")

    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return float(self.alpha)
        return 0.0 if self.kind == "linear" else 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetManifest | Dataset
    strategies: tuple[StrategyConfig, ...]
    regression: RegressionSpec = RegressionSpec()
    trials: int = 30
    rounds: int = 10
    oracle: OracleConfig = OracleConfig()
    base_seed: int = 0
    debug_checks: bool = False

    def __post_init__(self):
        if not self.strategies:
            raise ValueError("strategy list must not be empty")
        kinds = [s.kind for s in self.strategies]
        if len(set(kinds)) != len(kinds):
            raise ValueError("duplicate strategy kinds in one experiment")
        if self.trials < 1 or self.rounds < 1:
            raise ValueError("trials and rounds must be >= 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be >= 0")


@dataclass
class TrialResult:
    strategy: str
    seed: int
    rmse_per_round: np.ndarray  # length rounds + 1; entry 0 is pre-query
    queried_indices: list[int]  # in query order, no repeats
    query_scores: list[float]
    query_rounds: list[int]


@dataclass
class ExperimentReport:
    dataset: str
    strategies: tuple[str, ...]
    rounds: int
    ranked_strategy: str
    mean_rmse: dict[str, np.ndarray]
    std_rmse: dict[str, np.ndarray]
    ranking_counts: dict[int, tuple[int, int, int]]  # pct -> (first, second, others)
    checkpoint_rounds: dict[int, int]
    trials: dict[str, list[TrialResult]] = field(repr=False, default_factory=dict)


@dataclass(frozen=True)
class _ModelSpace:
    """Dataset mapped into the space models and strategies actually see."""

    name: str
    features: np.ndarray
    targets: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]


def build_model_space(dataset: Dataset, regression: RegressionSpec) -> _ModelSpace:
    """Standardize raw features; for polynomial runs, expand the standardized
    features and re-standardize the expanded matrix."""
    Z = apply_standardizer(dataset.features, fit_standardizer(dataset.features))
    if regression.kind == "polynomial":
        Z = expand_matrix(Z, regression.degree)
        Z = apply_standardizer(Z, fit_standardizer(Z))
    return _ModelSpace(name=dataset.name, features=Z, targets=dataset.targets)


def _ceil_count(x: float) -> int:
    # Slack absorbs float fuzz so an exact integer product never rounds up.
    return max(1, math.ceil(x - 1e-9))


def _seed_for(trial_seed: int, salt: int, strat: StrategyConfig):
    # Keep the trailing 0: pinned outputs were drawn with it. SeedSequence
    # hashes zeros into the pool words that short entropy leaves empty, so it is
    # a no-op for trial seeds below 2**32; from 2**32 on it changes every draw.
    return np.random.SeedSequence(
        [int(trial_seed), salt, _STRATEGY_CODES[strat.kind], 0]
    )


def _select(strat, graph, features, labels, alpha, rng):
    kind = strat.kind
    if kind == "greedy":
        return select_greedy(features, graph.labeled, graph.unlabeled)
    if kind == "random":
        return select_random(graph.unlabeled, rng)
    if kind == "qbc":
        return select_qbc(
            features, labels, graph.labeled, graph.unlabeled, rng, alpha=alpha
        )
    if kind == "emcm":
        return select_emcm(
            features, labels, graph.labeled, graph.unlabeled, rng, alpha=alpha
        )
    raise ValueError(f"strategy {kind!r} is not a per-query strategy")


def run_trial(
    config: ExperimentConfig, strategy: StrategyConfig, trial_seed: int
) -> TrialResult:
    """One seeded trial of one strategy. Loads the dataset if needed."""
    dataset = (
        config.dataset
        if isinstance(config.dataset, Dataset)
        else load_dataset(config.dataset)
    )
    space = build_model_space(dataset, config.regression)
    return _run_prepared_trial(space, config, strategy, trial_seed)


def _run_prepared_trial(
    space: _ModelSpace,
    config: ExperimentConfig,
    strategy: StrategyConfig,
    trial_seed: int,
) -> TrialResult:
    Z, y_true = space.features, space.targets
    split = make_split(space.n, trial_seed)
    test = split.test
    y_work = y_true.copy()
    alpha = config.regression.resolved_alpha()
    graph = NNBipartiteGraph.build(split.initial_labeled, split.unlabeled_pool, Z)
    pool0 = graph.unlabeled.size

    oracle = LabelOracle(config.oracle, _seed_for(trial_seed, _ORACLE_SALT, strategy))
    rng = np.random.default_rng(_seed_for(trial_seed, _STRATEGY_RNG_SALT, strategy))

    model = fit(Z[graph.labeled], y_work[graph.labeled], alpha)
    rmses = [rmse(predict(model, Z[test]), y_true[test])]
    queried: list[int] = []
    scores: list[float] = []
    query_rounds: list[int] = []

    if strategy.kind == "ours_batch":
        k = strategy.batch_k
        if k is None:
            k = round_half_up(TOTAL_FRACTION * pool0)
        if not 1 <= k <= pool0:
            raise ValueError(f"batch size {k} outside 1..{pool0}")
        trace = select_ours_batch(graph, k, build_seed_set(graph, k))
        chosen = np.sort(np.asarray(trace.chosen, dtype=np.int64))
        for i, u in enumerate(chosen):  # label in ascending index order
            known = np.union1d(graph.labeled, chosen[:i])
            y_work[u] = oracle.label(y_true, int(u), y_work[known])
        graph = graph.commit(chosen)
        queried = chosen.tolist()
        scores = [trace.score] * k
        query_rounds = [1] * k
        model = fit(Z[graph.labeled], y_work[graph.labeled], alpha)
        flat = rmse(predict(model, Z[test]), y_true[test])
        rmses.extend([flat] * config.rounds)
        if config.debug_checks:
            check_graph(graph)
    else:
        per_round = _ceil_count(PER_ROUND_FRACTION * pool0)
        if per_round * config.rounds > pool0:
            raise ValueError(
                f"pool of {pool0} cannot supply {per_round} queries for "
                f"{config.rounds} rounds"
            )
        order = None
        if strategy.kind == "ours_sequential":
            # Called through this module's name, where tracers patch it.
            order = build_seed_set(graph, per_round * config.rounds)
        for rnd in range(1, config.rounds + 1):
            for _ in range(per_round):
                if order is None:
                    trace = _select(strategy, graph, Z, y_work, alpha, rng)
                    u, score = int(trace.chosen), trace.score
                else:
                    u = int(order[len(queried)])
                y_work[u] = oracle.label(y_true, u, y_work[graph.labeled])
                after = graph.commit(np.asarray([u]))
                if order is not None:  # q_set of the pick: the drop in H
                    score = graph.total_uncertainty() - after.total_uncertainty()
                graph = after
                queried.append(u)
                scores.append(score)
                query_rounds.append(rnd)
            model = fit(Z[graph.labeled], y_work[graph.labeled], alpha)
            rmses.append(rmse(predict(model, Z[test]), y_true[test]))
            if config.debug_checks:
                check_graph(graph)
        assert graph.labeled.size + graph.unlabeled.size + test.size == space.n

    return TrialResult(
        strategy=strategy.kind,
        seed=int(trial_seed),
        rmse_per_round=np.asarray(rmses, dtype=np.float64),
        queried_indices=queried,
        query_scores=scores,
        query_rounds=query_rounds,
    )


def _checkpoint_rounds(config: ExperimentConfig) -> dict[int, int]:
    out: dict[int, int] = {}
    for pct in RANKING_CHECKPOINTS:
        rnd = round_half_up((pct / 100.0) / PER_ROUND_FRACTION)
        if 1 <= rnd <= config.rounds:
            out[pct] = rnd
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """All trials of all configured strategies, plus aggregate curves and the
    first/second/others ranking of the first-listed strategy at the standard
    checkpoints. Trial t of every strategy shares seed base_seed + t, so
    comparisons are paired."""
    dataset = (
        config.dataset
        if isinstance(config.dataset, Dataset)
        else load_dataset(config.dataset)
    )
    space = build_model_space(dataset, config.regression)

    trials: dict[str, list[TrialResult]] = {}
    for strat in config.strategies:
        trials[strat.kind] = [
            _run_prepared_trial(space, config, strat, config.base_seed + t)
            for t in range(config.trials)
        ]

    mean_rmse: dict[str, np.ndarray] = {}
    std_rmse: dict[str, np.ndarray] = {}
    for kind, results in trials.items():
        stacked = np.stack([r.rmse_per_round for r in results])
        mean_rmse[kind] = stacked.mean(axis=0)
        std_rmse[kind] = stacked.std(axis=0)

    ranked = config.strategies[0].kind
    checkpoints = _checkpoint_rounds(config)
    ranking: dict[int, tuple[int, int, int]] = {}
    for pct, rnd in checkpoints.items():
        first = second = others = 0
        for t in range(config.trials):
            mine = trials[ranked][t].rmse_per_round[rnd]
            better = sum(
                1
                for kind in trials
                if kind != ranked and trials[kind][t].rmse_per_round[rnd] < mine
            )
            rank = 1 + better  # ties share the better rank
            if rank == 1:
                first += 1
            elif rank == 2:
                second += 1
            else:
                others += 1
        ranking[pct] = (first, second, others)

    return ExperimentReport(
        dataset=space.name,
        strategies=tuple(s.kind for s in config.strategies),
        rounds=config.rounds,
        ranked_strategy=ranked,
        mean_rmse=mean_rmse,
        std_rmse=std_rmse,
        ranking_counts=ranking,
        checkpoint_rounds=checkpoints,
        trials=trials,
    )
