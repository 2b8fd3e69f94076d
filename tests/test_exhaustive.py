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
from alregress import exhaustive
from alregress.exhaustive import MAX_POOL
from alregress.validation import optimum

from conftest import grid_graphs, q_by_rebuild, random_graph


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


def test_optimum_catches_weights_off_commit(toy_graph, monkeypatch):
    # Weights a few roundings above commit's: the duality and mmtd_decide
    # still agree, since they sum the same weights; only q_set can tell.
    real = exhaustive._weights_after

    def skewed(graph, sizes):
        for subset, weights in real(graph, sizes):
            yield subset, weights * (1.0 + 2.0**-50)

    monkeypatch.setattr(exhaustive, "_weights_after", skewed)
    with pytest.raises(AssertionError, match="q_set"):
        optimum(toy_graph, 2)


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


@st.composite
def small_graphs(draw):
    """Integer grids (exact ties) or standard-normal instances."""
    if draw(st.booleans()):
        return draw(grid_graphs(max_n=12))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_graph(np.random.default_rng(seed), n_lo=4, n_hi=13)[0]


class TestWeightsAlone:
    """The solvers score subsets from their weights alone; every answer must
    be bitwise what enumerating commit (q_set and its totals) gives."""

    @given(g=small_graphs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_solvers_equal_commit_enumeration(self, g, data):
        n = g.unlabeled.size
        k = data.draw(st.integers(1, min(3, n)))
        by_size = {
            size: [g.unlabeled[list(c)] for c in itertools.combinations(range(n), size)]
            for size in range(1, k + 1)
        }
        exact = by_size[k]
        qs = [g.q_set(s) for s in exact]
        first = int(np.argmax(qs))  # the first maximum, as the solver keeps
        subset, q = best_subset_by_q(g, k)
        assert subset.tolist() == exact[first].tolist()
        assert q == qs[first]
        totals = [g.commit(s).total_uncertainty() for s in exact]
        assert min_total_after(g, k) == min(totals)

        committed = [g.commit(s) for subsets in by_size.values() for s in subsets]
        totals = [c.total_uncertainty() for c in committed]
        maxima = [c.thetas.max(initial=0.0) for c in committed]
        # thresholds at an achieved value and just below it split on last bits
        sigma = data.draw(st.sampled_from(totals))
        beta = data.draw(st.sampled_from(maxima))
        for s, b in ((sigma, beta), (np.nextafter(sigma, -1), np.nextafter(beta, -1))):
            inst = ModificationInstance(g, k=k, sigma=s, beta=b)
            assert mmtd_decide(inst) == any(t <= s for t in totals)
            assert mmmd_decide(inst) == any(m <= b for m in maxima)
