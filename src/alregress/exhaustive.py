"""Exhaustive reference solvers over small pools.

These enumerate k-subsets outright, so they are the ground truth the fast
strategies are checked against: the best uncertainty-reducing subset of an
exact size, and its dual, the least total edge weight a subset of that size
can leave. A subset is scored by the weights commit would leave the rest of
the pool, computed alone: each is min(theta, L1 distance to the nearest new
member), from one pool x pool distance matrix, and a total sums them in
index order as commit's does. So a solver's q is q_set's bits, without
building a graph per subset. One limit bounds the work: pools of at most
MAX_POOL points, so no solver enumerates more than C(MAX_POOL, MAX_POOL/2)
subsets.
"""

from __future__ import annotations

import itertools

import numpy as np

from .graph import NNBipartiteGraph, _distances

# Enumeration limit: every solver's _guard refuses pools past it. The worst
# case it allows is one solve at |pool| = 20 and k = 10, which enumerates
# C(20, 10) = 184,756 subsets: 3.5-4.1 s (about 21 us a subset) for either
# solver, measured on a 2-vCPU Xeon.
MAX_POOL = 20


def _guard(graph: NNBipartiteGraph, k: int) -> None:
    """Raise ValueError for a k outside 1..|pool| or a pool past MAX_POOL;
    both solvers call it first."""
    n = graph.unlabeled.size
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside 1..{n}")
    if n > MAX_POOL:
        raise ValueError(f"pool of {n} exceeds enumeration limit {MAX_POOL}")


def _weights_after(graph: NNBipartiteGraph, k: int):
    """(subset, weights) for every k-subset of the pool, in lexicographic
    order of pool positions: the subset as sorted dataset indices, and the
    ``thetas`` that ``graph.commit(subset)`` would have, bitwise.
    graph._distances computes each pair on its own, so the matrix holds
    commit's distances, and a minimum is exact."""
    n = graph.unlabeled.size
    XU = graph.features[graph.unlabeled]
    dist = _distances(XU, XU, "cityblock")
    for positions in itertools.combinations(range(n), k):
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
    for subset, weights in _weights_after(graph, k):
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
    return min(float(np.sum(weights)) for _, weights in _weights_after(graph, k))
