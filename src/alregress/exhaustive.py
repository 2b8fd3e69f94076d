"""Exhaustive reference solvers over small pools.

These enumerate k-subsets outright, so they are the ground truth the fast
strategies are checked against: the best uncertainty-reducing subset of an
exact size, and yes/no answers for whether some subset of at most k moves
can drive the maximum edge weight below beta (max-threshold) or the total
below sigma (total-threshold). A subset is scored by the weights commit
would leave the rest of the pool, computed alone: each is min(theta, L1
distance to the nearest new member), from one pool x pool distance matrix,
and a total sums them in index order as commit's does. So a solver's q is
q_set's bits, without building a graph per subset.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.spatial.distance import cdist

from .graph import NNBipartiteGraph

# Enumeration limits: every solver's _guard refuses pools and subset counts
# past these.
MAX_POOL = 20
MAX_SUBSETS = 200_000


def _guard(graph: NNBipartiteGraph, k: int) -> None:
    """Raise ValueError for a k outside 1..|pool|, a pool past MAX_POOL or
    C(|pool|, k) past MAX_SUBSETS; all four solvers call it first."""
    n = graph.unlabeled.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    if n > MAX_POOL:
        raise ValueError(f"pool of {n} exceeds enumeration limit {MAX_POOL}")
    if math.comb(n, k) > MAX_SUBSETS:
        raise ValueError(
            f"C({n},{k}) = {math.comb(n, k)} exceeds subset limit {MAX_SUBSETS}"
        )


def _weights_after(graph: NNBipartiteGraph, sizes):
    """(subset, weights) for every subset of the pool with a size in
    ``sizes``, in lexicographic order of pool positions within each size:
    the subset as sorted dataset indices, and the ``thetas`` that
    ``graph.commit(subset)`` would have, bitwise. cdist computes each pair on
    its own, so the matrix holds commit's distances, and a minimum is
    exact."""
    n = graph.unlabeled.size
    XU = graph.features[graph.unlabeled]
    dist = cdist(XU, XU, "cityblock")
    for size in sizes:
        for positions in itertools.combinations(range(n), size):
            members = list(positions)
            rest = np.ones(n, dtype=bool)
            rest[members] = False
            weights = np.minimum(graph.thetas, dist[:, members].min(axis=1))
            yield graph.unlabeled[members], weights[rest]


def best_subset_by_q(graph: NNBipartiteGraph, k: int) -> tuple[np.ndarray, float]:
    """Exact argmax of q_set over all subsets of size exactly k.

    Ties keep the lexicographically smallest subset (the enumeration order).
    """
    _guard(graph, k)
    h = graph.total_uncertainty()
    best_subset, best_q = None, -np.inf
    for subset, weights in _weights_after(graph, [k]):
        q = h - float(np.sum(weights))  # q_set: H - commit(subset)'s total
        if q > best_q:
            best_subset, best_q = subset, q
    assert best_subset is not None
    return best_subset, float(best_q)


def min_total_after(graph: NNBipartiteGraph, k: int) -> float:
    """Exact minimum post-move total edge weight over subsets of size exactly k.

    The counterpart of best_subset_by_q: maximizing the reduction is the same
    enumeration as minimizing what remains.
    """
    _guard(graph, k)
    return min(float(np.sum(weights)) for _, weights in _weights_after(graph, [k]))


def mmtd_decide(graph: NNBipartiteGraph, k: int, sigma: float) -> bool:
    """Is there a subset of 1..k moves leaving total edge weight <= sigma?"""
    _guard(graph, k)
    return any(
        float(np.sum(weights)) <= sigma
        for _, weights in _weights_after(graph, range(1, k + 1))
    )


def mmmd_decide(graph: NNBipartiteGraph, k: int, beta: float) -> bool:
    """Is there a subset of 1..k moves leaving every edge weight <= beta?

    Moving the whole pool leaves no edges, so beta >= 0 with k = |U| is
    always satisfiable.
    """
    _guard(graph, k)
    return any(
        weights.max(initial=0.0) <= beta
        for _, weights in _weights_after(graph, range(1, k + 1))
    )
