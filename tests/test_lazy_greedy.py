"""Lazy greedy against the eager reference, and the pick tie contract.

build_seed_set must pick exactly what a full scan of the dense q reference
(conftest.q_values_reference) per pick picks: the argmax of q, summed term
by term in row order, the smallest index on ties. The properties run on
integer-grid features, where duplicate rows and exact distance ties are
common. The regression tests pin the tie rule: on demo 05's data,
candidates 110 and 167 tie exactly at pick 40, in rational arithmetic on the
float inputs and in the dense reference, and the pick is 110.

Lazy greedy scores candidates by sparse sums over near pairs, as q_values
does: the float-contract test checks both against the dense reference bit
for bit along commit chains, which makes every stale score an exact upper
bound, and the memory test checks that lazy greedy holds no pool x pool
array.
"""

import hashlib
import runpy
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from alregress import (
    ExperimentConfig,
    NNBipartiteGraph,
    RegressionSpec,
    StrategyConfig,
    build_model_space,
    build_seed_set,
    make_split,
    run_trial,
)
from alregress import graph as graph_module
from alregress.graph import _sparse_scores

from conftest import (
    REPO_ROOT,
    assert_lazy_is_eager,
    clustered_graph,
    demo05_dataset,
    eager_seed_set,
    grid_graphs,
    openblas_cores,
    pinned,
    q_values_reference,
    random_graph,
)


class TestLazyEqualsEager:
    @given(g=grid_graphs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_picks_match_eager_scan(self, g, data):
        k = data.draw(st.integers(1, g.unlabeled.size))
        assert_lazy_is_eager(g, k)

    def test_whole_pool_on_random_features(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            n = int(rng.integers(10, 60))
            X = rng.normal(size=(n, 3))
            perm = rng.permutation(n)
            g = NNBipartiteGraph.build(perm[:2], perm[2:], X)
            k = g.unlabeled.size
            assert_lazy_is_eager(g, k)

    def test_whole_pool_on_decimal_grid(self):
        # On a 0.1-step grid, q values that tie in exact arithmetic can
        # round apart; the sparse sums round exactly as the reference's
        # row-order sums do, so the picks still match.
        rng = np.random.default_rng(97)
        for _ in range(30):
            n, d = int(rng.integers(10, 60)), int(rng.integers(1, 4))
            X = rng.integers(0, 4, size=(n, d)) * 0.1
            perm = rng.permutation(n)
            g = NNBipartiteGraph.build(perm[:2], perm[2:], X)
            k = g.unlabeled.size
            assert_lazy_is_eager(g, k)

    @given(g=grid_graphs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_prefix_equality(self, g, data):
        # the harness reads both graph rules' picks and drops off one chain
        k = data.draw(st.integers(1, g.unlabeled.size))
        j = data.draw(st.integers(1, k))
        long, short = build_seed_set(g, k), build_seed_set(g, j)
        np.testing.assert_array_equal(long[0][:j], short[0])
        assert long[1][:j].tobytes() == short[1].tobytes()

    @given(g=grid_graphs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_drops_are_the_single_commit_chain(self, g, data):
        # k = pool is drawn often: its last commit empties the pool
        pool = g.unlabeled.size
        k = data.draw(st.one_of(st.just(pool), st.integers(1, pool)))
        picks, drops = build_seed_set(g, k)
        for u, drop in zip(picks, drops):
            after = g.commit(np.asarray([u]))
            assert drop == g.total_uncertainty() - after.total_uncertainty()
            g = after
        if k == pool:
            assert g.unlabeled.size == 0

    @given(g=grid_graphs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_diminishing_returns(self, g, data):
        u = int(data.draw(st.sampled_from(g.unlabeled.tolist())))
        before = g.q_values()
        after = g.commit(np.asarray([u])).q_values()
        still = g.unlabeled != u
        assert np.all(after <= before[still])  # exact: stale bounds hold


def assert_sparse_is_q_values(g0, order):
    """Commit g0's pool positions ``order`` one at a time and, before each
    commit, check that the sparse scores build_seed_set reads (g0's near
    pairs under the chain's weights, 0 for committed rows) and the
    committed graph's q_values, read from its own list, are its
    q_values_reference bit for bit."""
    pool = g0.unlabeled
    weights = g0.thetas.copy()
    # the first pass scores every position, each block one slice of the list
    want = q_values_reference(g0).tobytes()
    assert _sparse_scores(g0.near_pairs(), weights).tobytes() == want
    alive = np.ones(pool.size, dtype=bool)
    g = g0
    for pos in order:
        want = q_values_reference(g).tobytes()
        sparse = _sparse_scores(g0.near_pairs(), weights, np.flatnonzero(alive))
        assert sparse.tobytes() == want
        assert g.q_values().tobytes() == want
        alive[pos] = False
        g = g.commit(pool[pos : pos + 1])
        weights[pos] = 0.0
        weights[alive] = g.thetas


class TestFloatContract:
    def test_sparse_scores_are_q_values_on_random_graphs(self):
        rng = np.random.default_rng(83)
        for _ in range(40):
            g0, _ = random_graph(rng, n_lo=8, n_hi=120)
            pool = g0.unlabeled.size
            assert_sparse_is_q_values(g0, rng.permutation(pool)[: max(1, pool // 3)])

    @pytest.mark.parametrize("block", [1, 37, 1 << 16])
    def test_blocks_of_every_width(self, monkeypatch, block):
        # a block of one pair, of a few candidates, and the whole pool
        monkeypatch.setattr(graph_module, "_SWAP_BLOCK", block)
        g0 = clustered_graph(3, n=437)
        assert_sparse_is_q_values(g0, np.random.default_rng(2).permutation(397)[:5])

    @given(g=grid_graphs(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_sparse_scores_are_q_values_on_grid_graphs(self, g, data):
        # duplicate rows and exact ties d == theta; the chain may empty the pool
        order = data.draw(st.permutations(range(g.unlabeled.size)))
        assert_sparse_is_q_values(g, order)


class TestContenders:
    def test_exact_ties_match_eager(self):
        # 1,200 pool rows on 3 distinct points: every copy of the best point
        # ties exactly, so hundreds of fresh scores equal the best and the
        # pick is the smallest of them
        rng = np.random.default_rng(89)
        base = rng.normal(scale=5.0, size=(3, 4))
        X = np.vstack([base + 0.5, base[rng.integers(0, 3, size=1200)]])
        g = NNBipartiteGraph.build(np.arange(3), np.arange(3, 1203), X)
        q = q_values_reference(g)
        assert np.count_nonzero(q == q.max()) > 300
        assert_lazy_is_eager(g, 3)


def test_seed_set_holds_no_pool_by_pool_array():
    """Peak traced allocation of 40 lazy-greedy picks on a 2,000-point
    clustered pool, near-pair list included, stays under a quarter of one
    pool x pool float64 matrix."""
    g = clustered_graph()
    pool = g.unlabeled.size
    tracemalloc.start()
    try:
        build_seed_set(g, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < pool * pool * 8 / 4, f"peak {peak} bytes at pool {pool}"


class TestSummationOrder:
    def _graph(self, n=1100):
        rng = np.random.default_rng(67)
        X = rng.normal(size=(n, 3))
        return NNBipartiteGraph.build(np.arange(5), np.arange(5, n), X)

    def test_kernel_matches_q_values_at_every_width(self):
        # the dense reference, one column per block up to the whole pool
        g = self._graph()
        q = g.q_values().tobytes()
        for columns in (1, 2, 7, 1024, g.unlabeled.size):
            assert q_values_reference(g, columns).tobytes() == q

    def test_kernel_sums_in_row_order(self):
        g = self._graph()
        XU = g.features[g.unlabeled]
        q, dense = g.q_values(), q_values_reference(g)
        for c in (0, 11, 500):
            d = cdist(XU, XU[c : c + 1], "cityblock")[:, 0]
            acc = 0.0
            for t, v in zip(g.thetas.tolist(), d.tolist()):
                acc += max(0.0, t - v)
            assert q[c] == acc
            assert dense[c] == acc

    def test_demo05_pick_40_is_110(self):
        # 110 and 167 tie exactly at pick 40: q, summed in rational
        # arithmetic over the chain graph's float weights and distances,
        # is the same for both, so the smaller index is the pick
        space = build_model_space(demo05_dataset(), RegressionSpec(kind="linear"))
        split = make_split(space.n, 0)
        g = NNBipartiteGraph.build(split.initial_labeled, split.unlabeled_pool,
                                   space.features)
        picks = build_seed_set(g, 41)[0]
        g40 = g.commit(picks[:40])
        XU = g40.features[g40.unlabeled]

        def exact_q(u):
            d = cdist(XU, g40.features[u : u + 1], "cityblock")[:, 0]
            return sum(
                max(Fraction(0), Fraction(t) - Fraction(v))
                for t, v in zip(g40.thetas.tolist(), d.tolist())
            )

        assert exact_q(110) == exact_q(167)
        assert picks[40] == 110


class TestHarnessOrder:
    def test_sequential_trial_is_the_eager_order(self):
        dataset = demo05_dataset()
        config = ExperimentConfig(
            dataset=dataset,
            strategies=(StrategyConfig(kind="ours_sequential"),),
            trials=1,
            rounds=4,
        )
        result = run_trial(config, config.strategies[0], trial_seed=2)
        space = build_model_space(dataset, config.regression)
        split = make_split(space.n, 2)
        g = NNBipartiteGraph.build(split.initial_labeled, split.unlabeled_pool,
                                   space.features)
        order = eager_seed_set(g, len(result.queried_indices))[0]
        assert result.queried_indices == order.tolist()
        for u, score in zip(order, result.query_scores):
            assert score == g.q_single(int(u))  # bitwise
            g = g.commit(np.asarray([u]))


# SHA-256 of demo 05's CSVs under the AVX2 Haswell core: their RMSEs come
# from lstsq, whose bits follow the kernel. ranking.csv is the committed one.
DEMO05_HASWELL = {
    "curves.csv": "72a98dd887615aa346dfeda7423a794ded9c85eea452784f8f161e6c6a76f531",
    "ranking.csv": "b3d5ef35047dc16e87f843fe398132d25ebb308aa0fdbf117ab34b18d5edc98c",
    "trials.csv": "ae33440a4015accbf19b5b52f41f978130c9d0dc048b6844a5b76a94e9f0e31e",
}


def test_demo05_reproduces_committed_csvs(tmp_path, monkeypatch):
    # the committed CSVs are the SkylakeX set
    committed = {
        name: hashlib.sha256((REPO_ROOT / "demo_out" / name).read_bytes()).hexdigest()
        for name in DEMO05_HASWELL
    }
    want = pinned({"SkylakeX": committed, "Haswell": DEMO05_HASWELL})
    monkeypatch.chdir(tmp_path)  # the demo writes demo_out/ under the cwd
    runpy.run_path(str(REPO_ROOT / "demos" / "05_benchmark_run.py"))
    for name, digest in want.items():
        got = hashlib.sha256((tmp_path / "demo_out" / name).read_bytes()).hexdigest()
        assert got == digest, f"{name}, OpenBLAS cores: {openblas_cores()}"
