"""The batch rule's sparse swap search against the dense reference.

select_ours_batch scores swaps from the graph's near pairs and pool x k
member columns min(theta, d), which it writes from those same pairs, and
updates a row's cost and fallback only where a swap can change them.
conftest.dense_local_search is the search it replaced: a pool x pool
matrix and a full state rebuild per swap. On integer-grid features every
gain is an exact float sum, so the two must agree on every decision: the
same set, the same swap count and the same q_history bits. On continuous
features they agree unless a gain lies within summation error of SWAP_TOL,
which the seeded sweep below does not meet. Once the near pairs are built,
neither the search nor its build_seed_set seed measures a distance.
"""

import hashlib
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alregress import NNBipartiteGraph, build_seed_set, select_ours_batch
from alregress.graph import _distances

from conftest import (
    assert_matches_dense,
    clustered_graph,
    grid_graphs,
    random_graph,
    whitewine_stand_in_graph,
)


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


class TestDegenerateMembers:
    """Member rows at their edges, on a line where every gain is exact: a
    member at distance 0 from the labeled set (theta = 0), two members at
    one point, and a single member (fallback theta everywhere)."""

    X = np.array([0, 30, 0, 10, 10, 12, 14, 8, 20, 22, 18, 45, 47], float)[:, None]

    @pytest.mark.parametrize(
        "seed", [[2, 3, 4], [3, 4], [2, 3], [2], [3], [12], [2, 3, 4, 11, 12]]
    )
    def test_matches_dense(self, seed):
        g = NNBipartiteGraph.build([0, 1], np.arange(2, 13), self.X)
        assert g.theta(2) == 0.0
        trace = assert_matches_dense(g, np.asarray(seed))
        assert trace.swaps_performed > 0


def test_graph_rules_measure_no_distance(monkeypatch):
    """Once the graph holds its near-pair list, build_seed_set and the swap
    search read every distance from it: the distance kernel, which the
    graph's build, commit and near-pair build and greedy_order call, is
    never called, and the features are never read."""
    g = clustered_graph(n=640)
    g.near_pairs()
    g.features = None
    calls = []

    def spy(*args, **kwargs):
        calls.append((np.shape(args[0]), np.shape(args[1])))
        return _distances(*args, **kwargs)

    for name in ("alregress.strategies", "alregress.graph"):
        monkeypatch.setattr(importlib.import_module(name), "_distances", spy)
    rng = np.random.default_rng(5)
    build_seed_set(g, 30)
    swapped = select_ours_batch(g, 30, rng.choice(g.unlabeled, 30, replace=False))
    seeded = select_ours_batch(g, 30)
    assert swapped.swaps_performed > 0 and seeded.swaps_performed > 0
    assert calls == []


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
    g = whitewine_stand_in_graph(split_seed)
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
