"""Enumeration references: exact subset optimization and the decision problems.

Toy-instance expected values, all hand-checkable on the 1-D line:
single moves leave totals {7, 7, 17, 18}; the best pair is {9, 13} with
reduction 16 leaving total 3; the best single-move max edge is 4.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alregress import (
    ModificationInstance,
    NNBipartiteGraph,
    best_subset_by_q,
    min_total_after,
    mmmd_decide,
    mmtd_decide,
)
from alregress.exhaustive import MAX_POOL

from conftest import grid_graphs, random_graph


def q_by_rebuild(graph, subset):
    subset = list(subset)
    new_labeled = sorted(set(graph.labeled.tolist()) | set(subset))
    new_unlabeled = [u for u in graph.unlabeled.tolist() if u not in set(subset)]
    after = NNBipartiteGraph.build(new_labeled, new_unlabeled, graph.features)
    return graph.total_uncertainty() - after.total_uncertainty()


class TestBestSubset:
    def test_toy_singles(self, toy_graph):
        subset, q = best_subset_by_q(toy_graph, 1)
        assert subset.tolist() == [3] and q == 12.0

    def test_toy_pairs(self, toy_graph):
        subset, q = best_subset_by_q(toy_graph, 2)
        assert subset.tolist() == [3, 4] and q == 16.0

    def test_toy_everything(self, toy_graph):
        subset, q = best_subset_by_q(toy_graph, 4)
        assert subset.tolist() == [3, 4, 5, 6] and q == 19.0

    def test_tie_keeps_lexicographically_first(self):
        # two symmetric points: both singletons score the same
        X = np.array([[0.0], [5.0], [-5.0]])
        g = NNBipartiteGraph.build([0], [1, 2], X)
        subset, q = best_subset_by_q(g, 1)
        assert subset.tolist() == [1] and q == 5.0

    def test_matches_rebuild_enumeration(self):
        rng = np.random.default_rng(79)
        for _ in range(10):
            g, _ = random_graph(rng, n_lo=8, n_hi=14)
            k = min(2, g.unlabeled.size)
            _, fast_q = best_subset_by_q(g, k)
            slow_q = max(
                q_by_rebuild(g, c)
                for c in itertools.combinations(g.unlabeled.tolist(), k)
            )
            assert fast_q == pytest.approx(slow_q, abs=1e-9)

    @given(g=grid_graphs(max_n=14), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_value_is_q_set_and_rebuild_drop_bitwise(self, g, data):
        # integer grids: exact ties between subsets and between neighbors
        k = data.draw(st.integers(1, min(3, g.unlabeled.size)))
        subset, q = best_subset_by_q(g, k)
        assert q == g.q_set(subset) == q_by_rebuild(g, subset)

    def test_duality_with_min_total_is_exact(self):
        rng = np.random.default_rng(83)
        for _ in range(10):
            g, _ = random_graph(rng, n_lo=8, n_hi=14)
            for k in (1, min(2, g.unlabeled.size)):
                _, best_q = best_subset_by_q(g, k)
                assert best_q == g.total_uncertainty() - min_total_after(g, k)

    def test_pool_guard(self):
        X = np.random.default_rng(0).normal(size=(MAX_POOL + 3, 2))
        g = NNBipartiteGraph.build([0, 1], np.arange(2, MAX_POOL + 3), X)
        with pytest.raises(ValueError, match="enumeration limit"):
            best_subset_by_q(g, 2)

    def test_k_out_of_range(self, toy_graph):
        with pytest.raises(ValueError):
            best_subset_by_q(toy_graph, 0)
        with pytest.raises(ValueError):
            best_subset_by_q(toy_graph, 5)


class TestMinTotal:
    def test_toy_values(self, toy_graph):
        assert min_total_after(toy_graph, 1) == 7.0  # move 9 (or 13)
        assert min_total_after(toy_graph, 2) == 3.0  # move both
        assert min_total_after(toy_graph, 4) == 0.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(89)
        g, _ = random_graph(rng, n_lo=10, n_hi=14)
        totals = [min_total_after(g, k) for k in range(1, min(5, g.unlabeled.size) + 1)]
        assert totals == sorted(totals, reverse=True)


class TestInstance:
    def test_k_validation(self, toy_graph):
        with pytest.raises(ValueError):
            ModificationInstance(graph=toy_graph, k=0)
        with pytest.raises(ValueError):
            ModificationInstance(graph=toy_graph, k=5)


class TestTotalThreshold:
    def test_toy_edges_of_feasibility(self, toy_graph):
        assert mmtd_decide(ModificationInstance(toy_graph, k=1, sigma=7.0))
        assert not mmtd_decide(ModificationInstance(toy_graph, k=1, sigma=6.99))
        assert mmtd_decide(ModificationInstance(toy_graph, k=2, sigma=3.0))
        assert not mmtd_decide(ModificationInstance(toy_graph, k=2, sigma=2.99))

    def test_budget_allows_smaller_subsets(self, toy_graph):
        # k=2 with sigma achievable by a single move must be feasible
        assert mmtd_decide(ModificationInstance(toy_graph, k=2, sigma=7.0))

    def test_sigma_below_best_is_infeasible(self):
        rng = np.random.default_rng(97)
        g, _ = random_graph(rng, n_lo=8, n_hi=12)
        k = min(2, g.unlabeled.size)
        floor = min(min_total_after(g, size) for size in range(1, k + 1))
        assert mmtd_decide(ModificationInstance(g, k=k, sigma=floor))
        assert not mmtd_decide(
            ModificationInstance(g, k=k, sigma=floor - 1e-6)
        )


class TestMaxThreshold:
    def test_toy_edges_of_feasibility(self, toy_graph):
        # moving 9 (or 13) leaves edges {4, 2, 1}: the best single-move max is 4
        assert mmmd_decide(ModificationInstance(toy_graph, k=1, beta=4.0))
        assert not mmmd_decide(ModificationInstance(toy_graph, k=1, beta=3.99))

    def test_moving_everything_clears_all_edges(self, toy_graph):
        assert mmmd_decide(ModificationInstance(toy_graph, k=4, beta=0.0))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(101)
        for _ in range(8):
            g, X = random_graph(rng, n_lo=8, n_hi=12)
            k = min(2, g.unlabeled.size)
            # reference: smallest achievable max edge over subsets of size 1..k
            best = np.inf
            pool = g.unlabeled.tolist()
            for size in range(1, k + 1):
                for combo in itertools.combinations(pool, size):
                    rest = [u for u in pool if u not in combo]
                    if not rest:
                        best = min(best, 0.0)
                        continue
                    after = NNBipartiteGraph.build(
                        sorted(g.labeled.tolist() + list(combo)), rest, X
                    )
                    best = min(best, float(after.thetas.max()))
            inst_true = ModificationInstance(g, k=k, beta=best + 1e-9)
            inst_false = ModificationInstance(g, k=k, beta=best - 1e-6)
            assert mmmd_decide(inst_true)
            assert not mmmd_decide(inst_false)
