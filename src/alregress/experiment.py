"""Benchmark harness: seeded trials of query strategies on one dataset.

A trial splits the data, trains on the initial labeled set, then queries
round by round, retraining at the end of each round that added a label,
where the model is read. The labeled set and the pool are sorted index
arrays; only the graph rules build a graph.

The graph rules and greedy never read a label, so a trial's whole query
order is fixed before the first label: ours_sequential takes the first
per_round * rounds picks and H drops of a build_seed_set chain, ours_batch
its swap-search set, seeded with the chain's first k picks, in ascending
index order as round 1 with no queries after, and greedy its greedy_order.
Only random, qbc and emcm pick as they go. One round loop labels every
rule's queries.

A task is one trial seed and some of its strategies. It draws the seed's
split, makes one initial fit for the pre-query RMSE, builds its label-free
rules' orders, then runs each of its strategies. The split and the fit are
deterministic, so every task of a seed starts from the same bits. The graph
rules share a task, and with it one initial graph and one chain long enough
for both; by the lazy-greedy prefix property its first k picks are bitwise
what build_seed_set(graph, k) returns. Every strategy's query sizes depend
only on the number of rows, so they are checked before any task runs.

run_experiment splits a run into tasks, seed first: per trial seed, one task
for the graph rules together and one for every other strategy. run_trial is
run_experiment of one strategy for one trial. The tasks run in forked worker
processes, one per usable CPU and at most one per task, and come back in
task order; with one usable CPU, one task, or no fork start method they run
in that order in this process. Every task runs each OpenBLAS on one thread,
as with every CPU busy a second BLAS thread only contends for a core: an
inline run caps the caller's and restores them, and each worker caps its own.

Trials are pure functions of (dataset, config, trial seed): strategy
randomness, oracle noise, and the split draw from separate seeded streams so
noise settings never perturb feature-only strategies, and the report lists
each strategy's trials in seed order wherever they ran. So a pooled run's
report is bitwise an inline one's.

Test RMSE is always measured against noiseless ground truth.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .datasets import (
    Dataset,
    DatasetManifest,
    SplitIndices,
    load_dataset,
    make_split,
    require_int,
    require_nonnegative,
    round_half_up,
    split_sizes,
    standardize,
)
from .features import expand_matrix
from .graph import NNBipartiteGraph
from .oracle import LabelOracle, OracleConfig
from .regression import fit, predict, rmse
from .strategies import (
    STRATEGY_KINDS,
    StrategyConfig,
    build_seed_set,
    greedy_order,
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

# The paper's protocol: a sequential round queries 2% of the initial pool, and
# the up-front batch takes 20% of it.
PER_ROUND_FRACTION = 0.02
TOTAL_FRACTION = 0.20

RANKING_CHECKPOINTS = (5, 10, 15, 20)  # percent of the initial pool queried

_GRAPH_RULES = ("ours_sequential", "ours_batch")


@dataclass(frozen=True)
class RegressionSpec:
    """Model family for a run; alpha=None means 0 for linear, 1 otherwise."""

    kind: str = "linear"
    alpha: float | None = None
    degree: int = 2

    def __post_init__(self):
        if self.kind not in REGRESSION_KINDS:
            raise ValueError(f"unknown regression kind {self.kind!r}")
        if self.alpha is not None:
            require_nonnegative("alpha", self.alpha)
        require_int("degree", self.degree)
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
        for name, kinds in (
            ("dataset", (Dataset, DatasetManifest)),
            ("strategies", (tuple, list)),
            ("regression", (RegressionSpec,)),
            ("oracle", (OracleConfig,)),
        ):
            value = getattr(self, name)
            if not isinstance(value, kinds):
                want = " or ".join(k.__name__ for k in kinds)
                raise ValueError(f"{name} must be {want}, got {type(value).__name__}")
        if not self.strategies:
            raise ValueError("strategy list must not be empty")
        for strat in self.strategies:
            if not isinstance(strat, StrategyConfig):
                raise ValueError(
                    "strategies entries must be StrategyConfig, got "
                    f"{type(strat).__name__}"
                )
        kinds = [s.kind for s in self.strategies]
        if len(set(kinds)) != len(kinds):
            raise ValueError("duplicate strategy kinds in one experiment")
        for name in ("trials", "rounds", "base_seed"):
            require_int(name, getattr(self, name))
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


def build_model_space(dataset: Dataset, regression: RegressionSpec) -> Dataset:
    """The dataset in the space models and strategies see: raw features
    standardized; for polynomial runs, the standardized features expanded
    and the expanded matrix standardized again. Each ``standardize`` call
    uses the statistics of the matrix it is given."""
    Z = standardize(dataset.features)
    if regression.kind == "polynomial":
        Z = standardize(expand_matrix(Z, regression.degree))
    return Dataset(features=Z, targets=dataset.targets, name=dataset.name)


def _ceil_count(x: float) -> int:
    # Slack absorbs float fuzz so an exact integer product never rounds up.
    return max(1, math.ceil(x - 1e-9))


def _seed_for(trial_seed: int, salt: int, strat: StrategyConfig):
    # Keep the trailing 0: pinned outputs were drawn with it. SeedSequence
    # hashes zeros into the pool words that short entropy leaves empty, so it is
    # a no-op for trial seeds below 2**32; from 2**32 on it changes every draw.
    # A strategy's code is its place in STRATEGY_KINDS, from 1, which pins
    # that order.
    code = STRATEGY_KINDS.index(strat.kind) + 1
    return np.random.SeedSequence([int(trial_seed), salt, code, 0])


def _query_sizes(config: ExperimentConfig, n: int) -> dict[str, int]:
    """Batch size of ours_batch, queries per round of every other strategy.
    They depend only on the initial pool size, a function of n, so an
    impossible size raises here, before any trial runs."""
    pool0 = split_sizes(n)[2]
    sizes: dict[str, int] = {}
    for strat in config.strategies:
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


def _orders(
    space: Dataset, config: ExperimentConfig, split: SplitIndices, sizes: dict
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The whole (queries, scores) order of each label-free rule among
    ``sizes``, a rule's batch size or per-round count by kind."""
    labeled, pool, Z = split.initial_labeled, split.unlabeled_pool, space.features
    seq_n = sizes.get("ours_sequential", 0) * config.rounds
    k = sizes.get("ours_batch", 0)
    orders = {}
    if seq_n or k:
        graph = NNBipartiteGraph.build(labeled, pool, Z)
        # Called through this module's names, where tracers patch them.
        picks, drops = build_seed_set(graph, max(seq_n, k))
        if seq_n:
            orders["ours_sequential"] = picks[:seq_n], drops[:seq_n]
        if k:
            trace = select_ours_batch(graph, k, picks[:k])
            orders["ours_batch"] = trace.chosen, np.full(k, trace.score)
    if "greedy" in sizes:
        n = sizes["greedy"] * config.rounds
        orders["greedy"] = greedy_order(Z, labeled, pool, n)
    return orders


def _run_task(
    space: Dataset,
    config: ExperimentConfig,
    sizes: dict[str, int],
    trial_seed: int,
    strategies: tuple[StrategyConfig, ...],
) -> list[TrialResult]:
    """One trial seed's ``strategies``: the seed's split, its pre-query RMSE
    from one initial fit, the orders its label-free rules need, then each
    strategy's trial. The unit run_experiment hands to a worker."""
    Z, y_true = space.features, space.targets
    split = make_split(space.n, trial_seed)
    labeled, test = split.initial_labeled, split.test
    model = fit(Z[labeled], y_true[labeled], config.regression.resolved_alpha())
    rmse0 = rmse(predict(model, Z[test]), y_true[test])
    own = {s.kind: sizes[s.kind] for s in strategies}
    orders = _orders(space, config, split, own)
    return [
        _run_strategy(space, config, s, split, rmse0, own[s.kind], orders.get(s.kind))
        for s in strategies
    ]


def run_trial(
    config: ExperimentConfig, strategy: StrategyConfig, trial_seed: int
) -> TrialResult:
    """One seeded trial of one strategy: run_experiment of ``strategy``
    alone for one trial, with base_seed ``trial_seed``."""
    one = replace(config, strategies=(strategy,), trials=1, base_seed=trial_seed)
    return run_experiment(one).trials[strategy.kind][0]


def _insert_sorted(arr: np.ndarray, u) -> np.ndarray:
    """Sorted ``arr`` with ``u``, which it lacks, inserted in order: what
    np.union1d(arr, [u]) returns, without its sort."""
    pos = np.searchsorted(arr, u)
    return np.concatenate((arr[:pos], [u], arr[pos:]))


def _run_strategy(
    space: Dataset,
    config: ExperimentConfig,
    strategy: StrategyConfig,
    split: SplitIndices,
    rmse0: float,
    size: int,
    order: tuple[np.ndarray, np.ndarray] | None,
) -> TrialResult:
    """One strategy's trial from its seed's ``split`` and pre-query RMSE
    ``rmse0``. A round takes ``size`` queries, from ``order`` while it lasts
    or from the strategy's selector when it is None, and refits only if it
    added a label: an ours_batch order of ``size`` queries fills round 1,
    and later rounds carry its RMSE."""
    Z, y_true = space.features, space.targets
    trial_seed, test = split.seed, split.test
    labeled, pool = split.initial_labeled, split.unlabeled_pool  # sorted
    y_work = y_true.copy()
    alpha = config.regression.resolved_alpha()

    oracle = LabelOracle(config.oracle, _seed_for(trial_seed, _ORACLE_SALT, strategy))
    rng = np.random.default_rng(_seed_for(trial_seed, _STRATEGY_RNG_SALT, strategy))

    rmses = [rmse0]
    queried: list[int] = []
    scores: list[float] = []
    query_rounds: list[int] = []

    for rnd in range(1, config.rounds + 1):
        for _ in range(size):
            i = len(queried)
            if order is None:
                if strategy.kind == "random":
                    trace = select_random(pool, rng)
                else:
                    select = select_qbc if strategy.kind == "qbc" else select_emcm
                    trace = select(Z, y_work, labeled, pool, rng, alpha=alpha)
                u, score = int(trace.chosen), trace.score
            elif i < order[0].size:
                u, score = int(order[0][i]), float(order[1][i])
            else:
                break
            y_work[u] = oracle.label(y_true, u, y_work[labeled])
            labeled, pool = _insert_sorted(labeled, u), pool[pool != u]
            queried.append(u)
            scores.append(score)
            query_rounds.append(rnd)
        if query_rounds and query_rounds[-1] == rnd:
            model = fit(Z[labeled], y_work[labeled], alpha)
            rmses.append(rmse(predict(model, Z[test]), y_true[test]))
        else:
            rmses.append(rmses[-1])
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


_openblas_lock = threading.Lock()  # held by one inline run at a time


def _openblas_libraries() -> list:
    """(path, library) of every OpenBLAS mapped into this process, by path;
    empty when there is none or no /proc/self/maps to read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return [(path, ctypes.CDLL(path)) for path in sorted(paths) if path.startswith("/")]


def _openblas_symbol(lib, stem: str):
    """``stem`` as OpenBLAS builds export it (scipy_ prefix, 64_ suffix), or None."""
    names = [f"{p}openblas_{stem}{s}" for p in ("scipy_", "") for s in ("64_", "")]
    return next((getattr(lib, name) for name in names if hasattr(lib, name)), None)


def _openblas_thread_controls() -> list:
    """The (get, set)_num_threads pairs of every loaded OpenBLAS."""
    controls = []
    for _, lib in _openblas_libraries():
        get = _openblas_symbol(lib, "get_num_threads")
        set_threads = _openblas_symbol(lib, "set_num_threads")
        if get is not None and set_threads is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            controls.append((get, set_threads))
    return controls


@contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS on one thread, then restore each
    library's count, also when the body raises. Bodies in threads of one
    process take turns. With no OpenBLAS found (MKL, Accelerate, no /proc),
    threading is left alone."""
    with _openblas_lock:
        controls = _openblas_thread_controls()
        saved = [get() for get, _ in controls]
        for _, set_threads in controls:
            set_threads(1)
        try:
            yield
        finally:
            for (_, set_threads), count in zip(controls, saved):
                set_threads(count)


_adopted: tuple | None = None  # (space, config, sizes), set by _adopt


def _adopt(*run) -> None:
    """Fork initializer: keep the run, and set every OpenBLAS of this worker
    to one thread for its life, with no restore."""
    global _adopted
    _adopted = run
    for _, set_threads in _openblas_thread_controls():
        set_threads(1)


def _pooled_task(task: tuple[int, tuple[StrategyConfig, ...]]) -> list[TrialResult]:
    return _run_task(*_adopted, *task)


def _run_tasks(space, config, sizes, tasks) -> list[list[TrialResult]]:
    """Every task's results, in task order. Forked workers inherit the run,
    so only tasks and results are pickled, and cap their own BLAS threads
    (_adopt): a pooled run sets no thread count here. The pool is shut down
    and every worker joined before this returns or raises."""
    workers = min(_usable_cpus(), len(tasks))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        with _one_blas_thread():
            return [_run_task(space, config, sizes, *task) for task in tasks]
    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt,
        initargs=(space, config, sizes),
    )
    try:
        return list(pool.map(_pooled_task, tasks))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """All trials of all configured strategies, plus aggregate curves and the
    first/second/others ranking of the first-listed strategy at the standard
    checkpoints. Trial t of every strategy runs from seed base_seed + t: the
    same split and the same pre-query fit, whichever task draws them, so
    comparisons are paired."""
    dataset = config.dataset
    if not isinstance(dataset, Dataset):
        dataset = load_dataset(dataset)
    space = build_model_space(dataset, config.regression)
    sizes = _query_sizes(config, space.n)
    graph_rules = tuple(s for s in config.strategies if s.kind in _GRAPH_RULES)
    groups = [(s,) for s in config.strategies if s.kind not in _GRAPH_RULES]
    if graph_rules:
        groups.insert(0, graph_rules)
    seeds = range(config.base_seed, config.base_seed + config.trials)
    tasks = [(seed, group) for seed in seeds for group in groups]
    trials: dict[str, list[TrialResult]] = {s.kind: [] for s in config.strategies}
    for results in _run_tasks(space, config, sizes, tasks):
        for result in results:
            trials[result.strategy].append(result)

    # trials x (rounds + 1) RMSEs per strategy
    curves = {
        kind: np.stack([r.rmse_per_round for r in results])
        for kind, results in trials.items()
    }
    ranked = config.strategies[0].kind
    checkpoints = _checkpoint_rounds(config)
    ranking: dict[int, tuple[int, int, int]] = {}
    for pct, rnd in checkpoints.items():
        mine = curves[ranked][:, rnd]
        better = np.zeros(config.trials, dtype=np.int64)
        for kind, stacked in curves.items():
            if kind != ranked:
                better += stacked[:, rnd] < mine
        # rank 1 + better; ties share the better rank
        first, second = int(np.sum(better == 0)), int(np.sum(better == 1))
        ranking[pct] = (first, second, config.trials - first - second)

    return ExperimentReport(
        dataset=space.name,
        strategies=tuple(s.kind for s in config.strategies),
        rounds=config.rounds,
        ranked_strategy=ranked,
        mean_rmse={kind: stacked.mean(axis=0) for kind, stacked in curves.items()},
        std_rmse={kind: stacked.std(axis=0) for kind, stacked in curves.items()},
        ranking_counts=ranking,
        checkpoint_rounds=checkpoints,
        trials=trials,
    )
