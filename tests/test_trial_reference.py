"""Whole trials against conftest.reference_trial, bit for bit.

Every layer a trial composes has its own slow reference; this holds their
composition to one: which labeled set each fit sees, when a round refits,
how ours_batch fills round 1 and which stream each pick and each noisy
label draws from. Each equality it relies on is a documented contract
(the lazy-greedy pick is the dense q argmax, commit is a rebuild, the
greedy walk is a fresh scan, the swap search is the dense one on integer
data), so it needs no tolerance. The reference shares ``fit``, so it
checks composition only.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alregress import (
    Dataset,
    ExperimentConfig,
    OracleConfig,
    RegressionSpec,
    StrategyConfig,
    build_model_space,
    experiment,
    run_experiment,
)
from alregress.datasets import split_sizes

from conftest import assert_same_trial, reference_trial

PER_QUERY = ("ours_sequential", "random", "greedy", "qbc", "emcm")


@st.composite
def trial_cases(draw):
    """(dataset, config) of a small run: n 40-150 rows of 1-4 columns, on
    an integer grid or Gaussian, some rows duplicated, maybe a constant
    column and a constant target; linear or degree-2 ridge, an exact or a
    noisy oracle, 1-10 rounds, one trial. ours_batch, with or without a
    batch_k, runs on grids only, where the swap search is the dense one."""
    n, d = draw(st.integers(40, 150)), draw(st.integers(1, 4))
    grid = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if grid:
        X = rng.integers(0, draw(st.integers(2, 5)), size=(n, d)).astype(float)
    else:
        X = rng.normal(size=(n, d))
    copies = draw(st.integers(0, n // 4))
    X[rng.integers(0, n, copies)] = X[rng.integers(0, n, copies)]
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 3.0
    if draw(st.booleans()):
        y = np.full(n, 2.5)
    else:
        y = X @ rng.normal(size=d) + 0.1 * rng.normal(size=n)
    kinds = list(PER_QUERY)
    batch_k = None
    if grid:
        kinds.insert(1, "ours_batch")
        batch_k = draw(st.none() | st.integers(1, split_sizes(n)[2]))
    strategies = tuple(
        StrategyConfig(kind=k, batch_k=batch_k if k == "ours_batch" else None)
        for k in kinds
    )
    regression = draw(
        st.sampled_from([RegressionSpec(), RegressionSpec("polynomial", degree=2)])
    )
    oracle = draw(
        st.sampled_from([OracleConfig(), OracleConfig("gaussian", noise_scale=0.1)])
    )
    config = ExperimentConfig(
        dataset=Dataset(features=X, targets=y, name="fuzz"),
        strategies=strategies,
        regression=regression,
        trials=1,
        rounds=draw(st.integers(1, 10)),
        oracle=oracle,
        base_seed=draw(st.integers(0, 2**16)),
    )
    return config


def assert_run_is_reference(config, cpus):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "_usable_cpus", lambda: cpus)
        report = run_experiment(config)
    space = build_model_space(config.dataset, config.regression)
    for strategy in config.strategies:
        (result,) = report.trials[strategy.kind]
        want = reference_trial(space, config, strategy, config.base_seed)
        assert_same_trial(result, want)


@given(config=trial_cases())
@settings(max_examples=100, deadline=None)
def test_inline_trials_are_the_reference(config):
    assert_run_is_reference(config, cpus=1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="no fork"
)
@pytest.mark.parametrize("base_seed", [3, 11])
def test_pooled_trials_are_the_reference(base_seed):
    # a noisy degree-2 run on a grid with duplicate rows: every strategy,
    # the graph rules in one forked task and each baseline in its own
    rng = np.random.default_rng(base_seed)
    X = rng.integers(0, 4, size=(90, 3)).astype(float)
    X[:10] = X[10:20]
    y = X @ np.array([1.0, -0.5, 2.0]) + 0.1 * rng.normal(size=90)
    config = ExperimentConfig(
        dataset=Dataset(features=X, targets=y, name="grid"),
        strategies=tuple(StrategyConfig(kind=k) for k in experiment.STRATEGY_KINDS),
        regression=RegressionSpec("polynomial", degree=2),
        trials=1,
        rounds=6,
        oracle=OracleConfig("gaussian", noise_scale=0.1),
        base_seed=base_seed,
    )
    assert_run_is_reference(config, cpus=2)
