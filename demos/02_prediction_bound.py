"""Why edge weights are the right uncertainty measure for linear models.

Refitting after one new label moves the weight vector from w to w*. At any
pool point, the size of the resulting prediction shift (relative to the
anchor at its nearest labeled point) is capped by

    max_i |w*_i - w_i|  *  L1(x, nearest labeled x)

so the graph's edge weight is exactly the factor the model cannot escape.
check_bound evaluates both sides and raises if the cap ever failed.
"""

import numpy as np

from alregress import NNBipartiteGraph, check_bound, fit

rng = np.random.default_rng(2)
X = rng.normal(size=(40, 5))
y = X @ np.array([1.0, -2.0, 0.5, 0.0, 1.5]) + 0.3 + 0.05 * rng.normal(size=40)

labeled = list(range(8))
pool = list(range(8, 40))
graph = NNBipartiteGraph.build(labeled, pool, X)

before = fit(X[labeled], y[labeled])

# Label the best query and refit.
query = int(graph.unlabeled[np.argmax(graph.q_values())])
labeled_after = sorted(labeled + [query])
after = fit(X[labeled_after], y[labeled_after])

print(f"queried point {query}; weight shift "
      f"max|dw| = {np.max(np.abs(after.weights - before.weights)):.4f}\n")

print(" point  theta      |shift|     cap      slack")
for u in pool:
    if u == query:
        continue
    anchor = graph.neighbor_of(u)
    diag = check_bound(before, after, X[u], X[anchor])
    print(f"  {u:>4}  {graph.theta(u):7.3f}  {diag.delta_u:9.5f}  "
          f"{diag.bound:7.5f}  {diag.bound - diag.delta_u:8.5f}")

print("\nno row raised: every prediction shift stayed under its cap,")
print("and the cap is proportional to the point's edge weight.")
