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

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from alregress import NNBipartiteGraph, build_seed_set, select_ours_batch

from conftest import clustered_graph, dense_local_search, grid_graphs, random_graph


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
