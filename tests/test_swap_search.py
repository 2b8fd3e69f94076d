"""The batch rule's sparse swap search against the dense reference.

select_ours_batch scores swaps from near pairs and pool x k member columns,
and updates its nearest/second-nearest state only where a swap can change
it. conftest.dense_local_search is the search it replaced: a pool x pool
matrix and a full state rebuild per swap. On integer-grid features every
gain is an exact float sum, so the two must agree on every decision: the
same set, the same swap count and the same q_history bits. On continuous
features they agree unless a gain lies within summation error of SWAP_TOL,
which the seeded sweep below does not meet.
"""

import hashlib
import importlib.util
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alregress import (
    Dataset,
    NNBipartiteGraph,
    RegressionSpec,
    build_model_space,
    build_seed_set,
    make_split,
    select_ours_batch,
)

from conftest import (
    REPO_ROOT,
    clustered_graph,
    dense_local_search,
    grid_graphs,
    random_graph,
)


def assert_matches_dense(g, seed):
    """select_ours_batch from ``seed`` (dataset indices) equals the dense
    reference in chosen set, swap count and q_history, bitwise."""
    trace = select_ours_batch(g, seed.size, seed_set=seed)
    S, q_hist, swaps = dense_local_search(g, g._subset_positions(seed))
    np.testing.assert_array_equal(trace.chosen, g.unlabeled[S])
    assert trace.swaps_performed == swaps
    assert trace.q_history == tuple(q_hist)
    assert trace.score == q_hist[-1]


def draw_k(data, pool):
    """k = 1, pool - 1, pool or anything between, so the edges come up often."""
    return data.draw(
        st.one_of(st.sampled_from(sorted({1, max(1, pool - 1), pool})),
                  st.integers(1, pool))
    )


class TestEqualsDenseOnGrid:
    @given(g=grid_graphs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_greedy_seed(self, g, data):
        k = draw_k(data, g.unlabeled.size)
        assert_matches_dense(g, build_seed_set(g, k)[0])

    @given(g=grid_graphs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_seed(self, g, data):
        k = draw_k(data, g.unlabeled.size)
        order = data.draw(st.permutations(g.unlabeled.tolist()))
        assert_matches_dense(g, np.asarray(order[:k], dtype=np.int64))

    @given(g=grid_graphs(max_n=60), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_larger_pools(self, g, data):
        # Wider pools need several widening blocks per pass.
        k = data.draw(st.integers(1, g.unlabeled.size))
        order = data.draw(st.permutations(g.unlabeled.tolist()))
        assert_matches_dense(g, np.asarray(order[:k], dtype=np.int64))


@given(g=grid_graphs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_chosen_is_strictly_ascending(g, data):
    """The harness labels a batch in the order of ``chosen``, unsorted: both
    branches, the search (k < pool) and the whole pool (k = pool), return
    it strictly ascending, whatever the seed's order."""
    pool = g.unlabeled.size
    order = np.asarray(data.draw(st.permutations(g.unlabeled.tolist())), dtype=np.int64)
    for k in sorted({data.draw(st.integers(1, max(1, pool - 1))), pool}):
        chosen = select_ours_batch(g, k, seed_set=order[:k]).chosen
        assert chosen.size == k and np.all(np.diff(chosen) > 0)


class TestEqualsDenseOnContinuous:
    def test_random_graph_sweep(self):
        rng = np.random.default_rng(71)
        for _ in range(60):
            g, _ = random_graph(rng, n_lo=8, n_hi=80)
            pool = g.unlabeled.size
            for k in sorted({1, max(1, pool // 4), max(1, pool - 1), pool}):
                assert_matches_dense(g, build_seed_set(g, k)[0])
                seed = rng.choice(g.unlabeled, size=k, replace=False)
                assert_matches_dense(g, seed)

    def test_clustered_pool(self):
        # Clustered rows, a labeled set of 1%: the benchmark's regime, where
        # only a few percent of pairs are near and swaps come in runs.
        rng = np.random.default_rng(73)
        centers = rng.normal(scale=5.0, size=(6, 4))
        X = centers[rng.integers(0, 6, size=400)] + 0.5 * rng.normal(size=(400, 4))
        perm = rng.permutation(400)
        g = NNBipartiteGraph.build(perm[:4], perm[4:], X)
        for k in (8, 80):
            assert_matches_dense(g, rng.choice(g.unlabeled, size=k, replace=False))

    def test_far_labeled_point(self):
        # One labeled point far from a 499-point pool makes every pair near:
        # 249,001 pairs, so the scan cuts its blocks by pair count.
        rng = np.random.default_rng(79)
        centers = rng.normal(scale=5.0, size=(6, 4))
        X = centers[rng.integers(0, 6, size=500)] + 0.5 * rng.normal(size=(500, 4))
        X[0] += 100.0
        g = NNBipartiteGraph.build([0], np.arange(1, 500), X)
        for k in (5, 50):
            assert_matches_dense(g, rng.choice(g.unlabeled, size=k, replace=False))


def test_batch_holds_no_pool_by_pool_array():
    """Peak traced allocation of a 2,000-point batch, its build_seed_set
    seed included, stays under a quarter of one pool x pool float64 matrix,
    which the dense search held in full. The graph builds its near-pair
    list on the seed's first read, and the search reads the same list."""
    g = clustered_graph()
    pool = g.unlabeled.size
    tracemalloc.start()
    try:
        seed = build_seed_set(g, 40)[0]
        trace = select_ours_batch(g, 40, seed_set=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.swaps_performed > 0
    assert peak < pool * pool * 8 / 4, f"peak {peak} bytes at pool {pool}"


def _workloads():
    """perfbench/workloads.py, loaded by path (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


# split seed -> SHA-256 of build_seed_set(g, 676)'s picks and drops, and of
# select_ours_batch's chosen set, swap count and q_history from those picks
_FULL_K_PINS = {
    0: (
        "58df9d64060091e0561169d1cd430443241d98c1a2f53796676720aaf2b1d9ca",
        "97f68c0c8aed41454e1bf25323369de15377071ce9a0c4415ed638849d082149",
    ),
    1: (
        "3e3ddf580e8cd141500be2c6ba339d05ee560fd01db67c5dffffc77f16a2e613",
        "2ca364f073bf17685766b17814048353cd36b9c875198823bcbbd731156064bd",
    ),
}


@pytest.mark.parametrize("split_seed", sorted(_FULL_K_PINS))
def test_full_k_whitewine_stand_in_is_pinned(split_seed):
    """The protocol's full batch (k = 676 of a 3,380-point pool) on the
    graph-whitewine stand-in, a regime the benchmark, which stops at
    k = 68, never reaches: the chain's picks and drop bits and the search's
    set, swap count and q_history bits stay those pinned. About 2 s each."""
    wl = _workloads()
    workload = wl.WORKLOADS["graph-whitewine"]
    # the benchmark writes these floats as repr and loads them back exactly
    X, y = wl.stand_in(workload, 0)
    space = build_model_space(
        Dataset(features=X, targets=y, name=workload.name),
        RegressionSpec(kind="linear"),
    )
    split = make_split(space.n, split_seed)
    g = NNBipartiteGraph.build(split.initial_labeled, split.unlabeled_pool,
                               space.features)
    assert g.unlabeled.size == 3380
    picks, drops = build_seed_set(g, 676)
    trace = select_ours_batch(g, 676, seed_set=picks)
    chain = hashlib.sha256(picks.astype("<i8").tobytes()
                           + drops.astype("<f8").tobytes())
    search = hashlib.sha256(
        np.asarray(trace.chosen, dtype="<i8").tobytes()
        + np.int64(trace.swaps_performed).astype("<i8").tobytes()
        + np.asarray(trace.q_history, dtype="<f8").tobytes()
    )
    assert (chain.hexdigest(), search.hexdigest()) == _FULL_K_PINS[split_seed]
