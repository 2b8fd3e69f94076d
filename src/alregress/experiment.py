"""Benchmark harness: seeded trials of query strategies on one dataset.

A trial splits the data, trains on the initial labeled set, then either
queries round by round (sequential strategies, retraining at the end of each
round, where the model is read) or takes one up-front batch. The labeled set
and the pool are sorted index arrays; only the graph rules build a graph.

An experiment runs trial by trial. Everything a trial seed's strategies share
is computed once: the split, the pre-query RMSE from one initial fit, and,
when a graph rule is configured, one initial graph with one build_seed_set
chain long enough for both graph rules. As the graph rules never read labels,
ours_sequential walks the chain's first picks and their H drops, and
ours_batch seeds its swap search with the chain's first k picks, which by the
lazy-greedy prefix property are bitwise what build_seed_set(graph, k)
returns. run_trial computes the same start for its one strategy. Every
strategy's query sizes depend only on the number of rows, so they are checked
before any trial runs.

Test RMSE is always measured against noiseless ground truth. Trials are pure
functions of (dataset, config, trial seed): strategy randomness, oracle noise,
and the split draw from separate seeded streams so noise settings never
perturb feature-only strategies, and the report lists each strategy's trials
in seed order whatever order they ran in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .datasets import (
    Dataset,
    DatasetManifest,
    SplitIndices,
    apply_standardizer,
    fit_standardizer,
    load_dataset,
    make_split,
    round_half_up,
    split_sizes,
)
from .features import expand_matrix
from .graph import NNBipartiteGraph
from .oracle import LabelOracle, OracleConfig
from .regression import fit, predict, rmse
from .strategies import (
    StrategyConfig,
    build_seed_set,
    select_emcm,
    select_greedy,  # noqa: F401 - not called; perfbench patches it here
    select_ours_batch,
    select_ours_sequential,  # noqa: F401 - not called; perfbench patches it here
    select_qbc,
    select_random,
)

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


def _select(strat, labeled, pool, features, labels, alpha, rng):
    kind = strat.kind
    if kind == "random":
        return select_random(pool, rng)
    if kind == "qbc":
        return select_qbc(features, labels, labeled, pool, rng, alpha=alpha)
    if kind == "emcm":
        return select_emcm(features, labels, labeled, pool, rng, alpha=alpha)
    raise ValueError(f"strategy {kind!r} is not a per-query strategy")


@dataclass(frozen=True)
class _TrialStart:
    """What every strategy of one trial seed starts from. ``picks`` and
    ``drops`` are build_seed_set's chain on ``graph``, both None when no
    graph rule runs."""

    split: SplitIndices
    rmse0: float  # pre-query test RMSE
    graph: NNBipartiteGraph | None = None
    picks: np.ndarray | None = None
    drops: np.ndarray | None = None


def _query_sizes(
    config: ExperimentConfig, strategies: tuple[StrategyConfig, ...], n: int
) -> dict[str, int]:
    """Batch size of ours_batch, queries per round of every other strategy.
    They depend only on the initial pool size, a function of n, so an
    impossible size raises here, before any trial runs."""
    pool0 = split_sizes(n)[2]
    sizes: dict[str, int] = {}
    for strat in strategies:
        if strat.kind == "ours_batch":
            k = strat.batch_k
            if k is None:
                k = round_half_up(TOTAL_FRACTION * pool0)
            if not 1 <= k <= pool0:
                raise ValueError(f"batch size {k} outside 1..{pool0}")
            sizes[strat.kind] = k
        else:
            per_round = _ceil_count(PER_ROUND_FRACTION * pool0)
            if per_round * config.rounds > pool0:
                raise ValueError(
                    f"pool of {pool0} cannot supply {per_round} queries for "
                    f"{config.rounds} rounds"
                )
            sizes[strat.kind] = per_round
    return sizes


def _chain_length(config: ExperimentConfig, sizes: dict[str, int]) -> int:
    """Picks the graph rules read from the shared chain; 0 when none runs."""
    return max(
        sizes.get("ours_sequential", 0) * config.rounds, sizes.get("ours_batch", 0)
    )


def _trial_start(
    space: _ModelSpace, config: ExperimentConfig, trial_seed: int, chain_k: int
) -> _TrialStart:
    Z, y_true = space.features, space.targets
    split = make_split(space.n, trial_seed)
    labeled, test = split.initial_labeled, split.test
    model = fit(Z[labeled], y_true[labeled], config.regression.resolved_alpha())
    rmse0 = rmse(predict(model, Z[test]), y_true[test])
    if not chain_k:
        return _TrialStart(split, rmse0)
    graph = NNBipartiteGraph.build(labeled, split.unlabeled_pool, Z)
    # Called through this module's name, where tracers patch it.
    picks, drops = build_seed_set(graph, chain_k)
    return _TrialStart(split, rmse0, graph, picks, drops)


def run_trial(
    config: ExperimentConfig, strategy: StrategyConfig, trial_seed: int
) -> TrialResult:
    """One seeded trial of one strategy. Loads the dataset if needed.

    The single-strategy reference for run_experiment: same start helper, with
    a graph chain only as long as this strategy needs."""
    dataset = (
        config.dataset
        if isinstance(config.dataset, Dataset)
        else load_dataset(config.dataset)
    )
    space = build_model_space(dataset, config.regression)
    sizes = _query_sizes(config, (strategy,), space.n)
    start = _trial_start(space, config, trial_seed, _chain_length(config, sizes))
    return _run_from_start(space, config, strategy, start, sizes[strategy.kind])


def _run_from_start(
    space: _ModelSpace,
    config: ExperimentConfig,
    strategy: StrategyConfig,
    start: _TrialStart,
    size: int,
) -> TrialResult:
    """One strategy's trial from its seed's start; ``size`` is its batch
    size (ours_batch) or queries per round (the rest)."""
    Z, y_true = space.features, space.targets
    trial_seed = start.split.seed
    test = start.split.test
    labeled, pool = start.split.initial_labeled, start.split.unlabeled_pool  # sorted
    y_work = y_true.copy()
    alpha = config.regression.resolved_alpha()

    oracle = LabelOracle(config.oracle, _seed_for(trial_seed, _ORACLE_SALT, strategy))
    rng = np.random.default_rng(_seed_for(trial_seed, _STRATEGY_RNG_SALT, strategy))

    rmses = [start.rmse0]
    queried: list[int] = []
    scores: list[float] = []
    query_rounds: list[int] = []

    if strategy.kind == "ours_batch":
        k = size
        trace = select_ours_batch(start.graph, k, start.picks[:k])
        chosen = np.sort(np.asarray(trace.chosen, dtype=np.int64))
        for i, u in enumerate(chosen):  # label in ascending index order
            known = np.union1d(labeled, chosen[:i])
            y_work[u] = oracle.label(y_true, int(u), y_work[known])
        labeled = np.union1d(labeled, chosen)
        queried = chosen.tolist()
        scores = [trace.score] * k
        query_rounds = [1] * k
        model = fit(Z[labeled], y_work[labeled], alpha)
        flat = rmse(predict(model, Z[test]), y_true[test])
        rmses.extend([flat] * config.rounds)
    else:
        if strategy.kind == "greedy":
            # select_greedy's min distances, aligned with pool and kept up to
            # date with one column per query: bitwise the same, since min is
            # exact and cdist computes each pair on its own.
            dmin = cdist(Z[pool], Z[labeled], "euclidean").min(axis=1)
        for rnd in range(1, config.rounds + 1):
            for _ in range(size):
                if strategy.kind == "ours_sequential":
                    i = len(queried)
                    u, score = int(start.picks[i]), float(start.drops[i])
                elif strategy.kind == "greedy":
                    pos = int(np.argmax(dmin))  # ties to the smallest index
                    u, score = int(pool[pos]), float(dmin[pos])
                else:
                    trace = _select(strategy, labeled, pool, Z, y_work, alpha, rng)
                    u, score = int(trace.chosen), trace.score
                y_work[u] = oracle.label(y_true, u, y_work[labeled])
                keep = pool != u
                labeled, pool = np.union1d(labeled, [u]), pool[keep]
                if strategy.kind == "greedy":
                    col = cdist(Z[pool], Z[u : u + 1], "euclidean")[:, 0]
                    dmin = np.minimum(dmin[keep], col)
                queried.append(u)
                scores.append(score)
                query_rounds.append(rnd)
            model = fit(Z[labeled], y_work[labeled], alpha)
            rmses.append(rmse(predict(model, Z[test]), y_true[test]))
        assert labeled.size + pool.size + test.size == space.n

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
    checkpoints. Trial t of every strategy shares seed base_seed + t and one
    _TrialStart, so comparisons are paired."""
    dataset = (
        config.dataset
        if isinstance(config.dataset, Dataset)
        else load_dataset(config.dataset)
    )
    space = build_model_space(dataset, config.regression)

    sizes = _query_sizes(config, config.strategies, space.n)
    chain_k = _chain_length(config, sizes)
    trials: dict[str, list[TrialResult]] = {s.kind: [] for s in config.strategies}
    for t in range(config.trials):
        start = _trial_start(space, config, config.base_seed + t, chain_k)
        for strat in config.strategies:
            trials[strat.kind].append(
                _run_from_start(space, config, strat, start, sizes[strat.kind])
            )

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
