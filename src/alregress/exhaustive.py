"""Exhaustive reference solvers over small pools.

These enumerate k-subsets outright, so they are the ground truth the fast
strategies are checked against: the best uncertainty-reducing subset of an
exact size, and yes/no answers for whether some subset of at most k moves
can drive the maximum edge weight below beta (max-threshold) or the total
below sigma (total-threshold). Every subset is scored by the graph's own
commit (q_set is its drop in total weight), so the solvers share the one
facility-location kernel the fast strategies use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .graph import NNBipartiteGraph

# Enumeration guards: refuse pools/subset counts past these.
MAX_POOL = 20
MAX_SUBSETS = 200_000


@dataclass(frozen=True)
class ModificationInstance:
    """A graph plus the decision-problem parameters k, beta, sigma."""

    graph: NNBipartiteGraph
    k: int
    beta: float = 0.0
    sigma: float = 0.0

    def __post_init__(self):
        if not 1 <= self.k <= self.graph.unlabeled.size:
            raise ValueError(
                f"k={self.k} outside 1..{self.graph.unlabeled.size}"
            )


def _guard(n_pool: int, k: int) -> None:
    if n_pool > MAX_POOL:
        raise ValueError(f"pool of {n_pool} exceeds enumeration limit {MAX_POOL}")
    if math.comb(n_pool, k) > MAX_SUBSETS:
        raise ValueError(
            f"C({n_pool},{k}) = {math.comb(n_pool, k)} exceeds subset limit "
            f"{MAX_SUBSETS}"
        )


def _subsets(graph: NNBipartiteGraph, sizes):
    """Every subset of the pool with a size in ``sizes``, as sorted dataset
    indices, in lexicographic order of pool positions within each size."""
    for size in sizes:
        for positions in itertools.combinations(range(graph.unlabeled.size), size):
            yield graph.unlabeled[list(positions)]


def best_subset_by_q(graph: NNBipartiteGraph, k: int) -> tuple[np.ndarray, float]:
    """Exact argmax of q_set over all subsets of size exactly k.

    Ties keep the lexicographically smallest subset (the enumeration order).
    Guarded by MAX_POOL / MAX_SUBSETS.
    """
    nU = graph.unlabeled.size
    if not 1 <= k <= nU:
        raise ValueError(f"k={k} outside 1..{nU}")
    _guard(nU, k)
    best_subset, best_q = None, -np.inf
    for subset in _subsets(graph, [k]):
        q = graph.q_set(subset)
        if q > best_q:
            best_subset, best_q = subset, q
    assert best_subset is not None
    return best_subset, float(best_q)


def min_total_after(graph: NNBipartiteGraph, k: int) -> float:
    """Exact minimum post-move total edge weight over subsets of size exactly k.

    The counterpart of best_subset_by_q: maximizing the reduction is the same
    enumeration as minimizing what remains.
    """
    nU = graph.unlabeled.size
    if not 1 <= k <= nU:
        raise ValueError(f"k={k} outside 1..{nU}")
    _guard(nU, k)
    return min(
        graph.commit(subset).total_uncertainty() for subset in _subsets(graph, [k])
    )


def mmtd_decide(instance: ModificationInstance) -> bool:
    """Is there a subset of 1..k moves leaving total edge weight <= sigma?"""
    graph = instance.graph
    _guard(graph.unlabeled.size, instance.k)
    return any(
        graph.commit(subset).total_uncertainty() <= instance.sigma
        for subset in _subsets(graph, range(1, instance.k + 1))
    )


def mmmd_decide(instance: ModificationInstance) -> bool:
    """Is there a subset of 1..k moves leaving every edge weight <= beta?

    Moving the whole pool leaves no edges, so beta >= 0 with k = |U| is
    always satisfiable.
    """
    graph = instance.graph
    _guard(graph.unlabeled.size, instance.k)
    return any(
        graph.commit(subset).thetas.max(initial=0.0) <= instance.beta
        for subset in _subsets(graph, range(1, instance.k + 1))
    )
