"""Every selection rule, once, on the same snapshot.

Six rules look at the same 60-point pool: two graph-driven (single best
reduction, and a batch found by local search), plus random, greedy
max-min-distance, query-by-committee, and expected model change.
"""

import numpy as np

from alregress import (
    NNBipartiteGraph,
    select_emcm,
    select_greedy,
    select_ours_batch,
    select_ours_sequential,
    select_qbc,
    select_random,
)

rng = np.random.default_rng(3)

# Two feature clusters with different target slopes.
centers = np.array([[-3.0, 0.0], [3.0, 1.0]])
X = np.vstack([c + 0.6 * rng.normal(size=(35, 2)) for c in centers])
y = np.where(X[:, 0] < 0, X @ [1.0, 2.0], X @ [-2.0, 0.5]) + 0.05 * rng.normal(size=70)

labeled = [0, 1, 35, 36]
pool = [i for i in range(70) if i not in labeled]
graph = NNBipartiteGraph.build(labeled, pool, X)

print(f"pool of {len(pool)}, total uncertainty H = {graph.total_uncertainty():.3f}\n")

seq = select_ours_sequential(graph)
print(f"ours (one query):   point {seq.chosen}, reduction {seq.score:.3f}")

batch = select_ours_batch(graph, k=5)
print(f"ours (batch of 5):  points {np.sort(batch.chosen).tolist()}, "
      f"joint reduction {batch.score:.3f} after {batch.swaps_performed} swaps")

greedy = select_greedy(X, graph.labeled, graph.unlabeled)
print(f"greedy:             point {greedy.chosen}, min distance {greedy.score:.3f}")

rand = select_random(graph.unlabeled, np.random.default_rng(0))
print(f"random:             point {rand.chosen}")

qbc = select_qbc(X, y, graph.labeled, graph.unlabeled, rng=np.random.default_rng(1))
print(f"committee variance: point {qbc.chosen}, variance {qbc.score:.3f}")

emcm = select_emcm(X, y, graph.labeled, graph.unlabeled, rng=np.random.default_rng(1))
print(f"model change:       point {emcm.chosen}, expected change {emcm.score:.3f}")

print("\nthe graph rules and greedy read only features; the committee rules")
print("also read the labels gathered so far, which makes them noise-sensitive.")
