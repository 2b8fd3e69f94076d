"""Enumeration references: exact subset optimization.

Toy-instance expected values, all hand-checkable on the 1-D line:
single moves leave totals {7, 7, 17, 18}; the best pair is {9, 13} with
reduction 16 leaving total 3; the best triple adds 38, leaving 41's weight 1.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alregress import NNBipartiteGraph, best_subset_by_q, min_total_after
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

    def test_toy_triples(self, toy_graph):
        # 41 then keeps its labeled neighbor 40 at distance 1 (38 is 3 away)
        subset, q = best_subset_by_q(toy_graph, 3)
        assert subset.tolist() == [3, 4, 5] and q == 18.0

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


def test_optimum_catches_weights_off_commit(toy_graph, monkeypatch):
    # Weights a few roundings above commit's: the duality still holds, since
    # both sides sum the same weights; only q_set can tell.
    real = exhaustive._weights_after

    def skewed(graph, k):
        for subset, weights in real(graph, k):
            yield subset, weights * (1.0 + 2.0**-50)

    monkeypatch.setattr(exhaustive, "_weights_after", skewed)
    with pytest.raises(AssertionError, match="q_set"):
        optimum(toy_graph, 2)


def test_optimum_returns_best_q_and_least_total(toy_graph):
    assert [optimum(toy_graph, k) for k in range(1, 5)] == [
        (12.0, 7.0),
        (16.0, 3.0),
        (18.0, 1.0),
        (19.0, 0.0),
    ]


class TestMinTotal:
    def test_toy_values(self, toy_graph):
        assert min_total_after(toy_graph, 1) == 7.0  # move 9 (or 13)
        assert min_total_after(toy_graph, 2) == 3.0  # move both
        assert min_total_after(toy_graph, 3) == 1.0  # and 38
        assert min_total_after(toy_graph, 4) == 0.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(89)
        g, _ = random_graph(rng, n_lo=10, n_hi=14)
        totals = [min_total_after(g, k) for k in range(1, min(5, g.unlabeled.size) + 1)]
        assert totals == sorted(totals, reverse=True)


class TestGuard:
    """One guard serves both solvers: the same error for the same k."""

    SOLVERS = (best_subset_by_q, min_total_after)

    @pytest.mark.parametrize("k", [0, -1, 5])
    def test_k_out_of_range_is_one_error(self, toy_graph, k):
        for solve in self.SOLVERS:
            with pytest.raises(ValueError, match=rf"^k={k} outside 1\.\.4$"):
                solve(toy_graph, k)

    def test_pool_limit_is_one_error(self):
        X = np.random.default_rng(0).normal(size=(MAX_POOL + 3, 2))
        g = NNBipartiteGraph.build([0, 1], np.arange(2, MAX_POOL + 3), X)
        for solve in self.SOLVERS:
            with pytest.raises(ValueError, match="enumeration limit"):
                solve(g, 2)

    def test_pool_past_the_limit_is_refused_at_any_k(self):
        # the limit is on the pool, not on how many subsets k would enumerate
        X = np.random.default_rng(0).normal(size=(MAX_POOL + 3, 2))
        g = NNBipartiteGraph.build([0, 1], np.arange(2, MAX_POOL + 3), X)
        for solve in self.SOLVERS:
            for k in (1, MAX_POOL + 1):
                with pytest.raises(ValueError, match="enumeration limit"):
                    solve(g, k)

    def test_pool_at_the_limit_is_accepted(self):
        # MAX_POOL subsets at k = 1 and one at k = MAX_POOL: cheap at any limit
        X = np.random.default_rng(0).normal(size=(MAX_POOL + 2, 2))
        g = NNBipartiteGraph.build([0, 1], np.arange(2, MAX_POOL + 2), X)
        for k in (1, MAX_POOL):
            subset, q = best_subset_by_q(g, k)
            assert subset.size == k and q == g.q_set(subset)
            assert q == g.total_uncertainty() - min_total_after(g, k)


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
        exact = [g.unlabeled[list(c)] for c in itertools.combinations(range(n), k)]
        qs = [g.q_set(s) for s in exact]
        first = int(np.argmax(qs))  # the first maximum, as the solver keeps
        subset, q = best_subset_by_q(g, k)
        assert subset.tolist() == exact[first].tolist()
        assert q == qs[first]
        totals = [g.commit(s).total_uncertainty() for s in exact]
        assert min_total_after(g, k) == min(totals)

    @given(g=small_graphs(), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_enumeration_is_each_k_subset_with_commits_weights(self, g, data):
        # exactly the k-subsets, in lexicographic order of pool positions,
        # each with commit's thetas bitwise
        n = g.unlabeled.size
        k = data.draw(st.integers(1, min(3, n)))
        enumerated = list(exhaustive._weights_after(g, k))
        expected = [g.unlabeled[list(c)] for c in itertools.combinations(range(n), k)]
        assert [s.tolist() for s, _ in enumerated] == [s.tolist() for s in expected]
        for subset, weights in enumerated:
            thetas = g.commit(subset).thetas
            assert weights.dtype == thetas.dtype
            assert weights.tobytes() == thetas.tobytes()
