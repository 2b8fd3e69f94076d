"""Local search against the exact optimum, on pools small enough to enumerate.

Picking the best k-subset by joint uncertainty reduction is a hard
combinatorial problem; the batch rule seeds with k greedy picks and then
improves by single swaps. Here we can afford the exact answer, so we can
watch how close the cheap search lands.
"""

import numpy as np

from alregress import (
    NNBipartiteGraph,
    best_subset_by_q,
    build_seed_set,
    min_total_after,
    select_ours_batch,
)

rng = np.random.default_rng(4)

print(" pool   k   Q(seed)   Q(search)  Q(optimum)   swaps   leftover ratio")
for trial in range(8):
    n_unl = int(rng.integers(10, 15))
    X = rng.normal(size=(n_unl + 3, 3))
    graph = NNBipartiteGraph.build(range(3), range(3, n_unl + 3), X)
    k = int(rng.integers(2, 4))

    seed = build_seed_set(graph, k)[0]
    trace = select_ours_batch(graph, k, seed_set=seed)
    best_set, best_q = best_subset_by_q(graph, k)

    h = graph.total_uncertainty()
    leftover_search = h - trace.score
    leftover_best = h - best_q
    ratio = leftover_search / leftover_best if leftover_best > 0 else 1.0
    print(f"  {n_unl:>3}  {k:>2}  {graph.q_set(seed):8.3f}   {trace.score:8.3f}"
          f"   {best_q:9.3f}   {trace.swaps_performed:>4}   {ratio:8.3f}")

    # The optimizer's two views must agree exactly: the best reduction is
    # the total minus the smallest achievable remainder.
    assert best_q == h - min_total_after(graph, k)

print("\nleftover ratio is the guarantee currency: the search never leaves")
print("more than 5x the optimal remaining mass, and in practice sits near 1.")
