"""Query strategies: graph-driven selection plus standard pool baselines.

The graph strategies never look at labels. The sequential rule takes the
single point whose move removes the most uncertainty mass; the batch rule
seeds a set with k sequential picks and then improves it by single swaps
until no swap raises the set's uncertainty reduction by more than SWAP_TOL.
Random, greedy (largest min Euclidean distance), query-by-committee, and
expected-model-change round out the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .graph import NNBipartiteGraph, q_columns
from .regression import fit, predict

# Minimum strict improvement for a batch swap to be accepted.
SWAP_TOL = 1e-12

STRATEGY_KINDS = (
    "ours_sequential",
    "ours_batch",
    "random",
    "greedy",
    "qbc",
    "emcm",
)


@dataclass(frozen=True)
class StrategyConfig:
    kind: str
    committee_size: int = 4
    rng_seed: int = 0
    batch_k: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.committee_size < 2:
            raise ValueError("committee_size must be >= 2")
        if self.batch_k is not None and self.batch_k < 1:
            raise ValueError("batch_k must be positive")


@dataclass(frozen=True)
class SelectionTrace:
    """One selection: a dataset index (or sorted index array for batch),
    the strategy's score for it, and the number of accepted swaps (batch)."""

    chosen: int | np.ndarray
    score: float
    swaps_performed: int = 0
    q_history: tuple[float, ...] | None = None


# -- graph strategies -------------------------------------------------------


def select_ours_sequential(graph: NNBipartiteGraph) -> SelectionTrace:
    """Argmax of q_values over the pool; ties go to the smallest index.

    The score is q_single of the pick (see q_values on how the two differ)."""
    if graph.unlabeled.size == 0:
        raise ValueError("cannot select from an empty pool")
    u = int(build_seed_set(graph, 1)[0])
    return SelectionTrace(chosen=u, score=graph.q_single(u))


def lazy_tolerance(pool_size: int, total: float) -> float:
    """Slack between a stale q value and any later fresh one of the same point.

    Exactly, a point's q can only fall as points are committed: q_set is a
    facility-location objective, monotone submodular (Nemhauser, Wolsey &
    Fisher 1978), also over the float distances and weights actually used.
    Computed, each q value sums at most ``pool_size`` non-negative terms
    bounded by the total weight ``total``, so it is off by at most about
    2 * pool_size * 2**-53 * total; a stale value plus twice that, doubled
    again for margin, bounds every later fresh value.
    """
    return 8.0 * pool_size * 2.0**-53 * total


def build_seed_set(graph: NNBipartiteGraph, k: int) -> np.ndarray:
    """k sequential picks with the graph updated after each (labels untouched).

    Each pick is the argmax of q_values on the graph committed so far, ties
    to the smallest index, found by lazy greedy (Minoux 1978): one q_values
    pass gives every point a bound, and a pick re-scores, in columns of
    q_columns, the points whose stale bound comes within lazy_tolerance of
    the best fresh score. Every other point provably scores below that best,
    and a re-score is bitwise the q_values entry, so the picks are those of
    the eager loop that calls q_values before every pick.
    """
    if not 1 <= k <= graph.unlabeled.size:
        raise ValueError(f"k={k} outside 1..{graph.unlabeled.size}")
    pool = graph.unlabeled
    X = graph.features[pool]
    bound = graph.q_values()  # aligned with pool
    eps = lazy_tolerance(pool.size, graph.total_uncertainty())
    alive = np.ones(pool.size, dtype=bool)
    fresh = np.ones(pool.size, dtype=bool)
    g = graph
    picks = np.empty(k, dtype=np.int64)
    for i in range(k):
        if i:
            fresh[:] = False
            rows, h = X[alive], g.total_uncertainty()
            best, width = -np.inf, 2
            while True:
                todo = np.flatnonzero(alive & ~fresh & (bound >= best - eps))
                if todo.size == 0:
                    break
                # Highest bounds first, in widening batches: an early high
                # fresh score shrinks the set that still needs re-scoring.
                todo = todo[np.argsort(-bound[todo], kind="stable")[:width]]
                bound[todo] = q_columns(rows, g.thetas, h, X[todo])
                fresh[todo] = True
                best = max(best, float(bound[todo].max()))
                width *= 2
        pos = int(np.argmax(np.where(alive & fresh, bound, -np.inf)))
        picks[i] = pool[pos]
        alive[pos] = False
        if i + 1 < k:
            g = g.commit(picks[i : i + 1])
    return picks


def select_ours_batch(
    graph: NNBipartiteGraph,
    k: int,
    seed_set: np.ndarray | None = None,
    tol: float = SWAP_TOL,
) -> SelectionTrace:
    """Single-swap local search over k-subsets, maximizing q_set.

    Scans candidates u outside S in ascending index order and members l of S
    in ascending index order, accepting the first swap that improves q_set by
    more than ``tol``; repeats full passes until one makes no change.
    """
    nU = graph.unlabeled.size
    if not 1 <= k <= nU:
        raise ValueError(f"k={k} outside 1..{nU}")
    if seed_set is None:
        seed_set = build_seed_set(graph, k)
    seed_pos = graph._subset_positions(seed_set)
    if seed_pos.size != k:
        raise ValueError(f"seed set must hold {k} distinct indices")

    XU = graph.features[graph.unlabeled]
    D = cdist(XU, XU, "cityblock")
    final_pos, q_hist, swaps = _local_search(graph, D, seed_pos, tol)
    return SelectionTrace(
        chosen=graph.unlabeled[final_pos],
        score=q_hist[-1],
        swaps_performed=swaps,
        q_history=tuple(q_hist),
    )


def _pool_state(D, theta, S):
    """Nearest/second-nearest bookkeeping for the current member set S."""
    k = S.size
    cols = D[:, S]
    m1pos = cols.argmin(axis=1)
    m1 = cols[np.arange(cols.shape[0]), m1pos]
    if k >= 2:
        m2 = np.partition(cols, 1, axis=1)[:, 1]
    else:
        m2 = np.full(cols.shape[0], np.inf)
    cost = np.minimum(theta, m1)
    fallback = np.minimum(theta, m2)  # cost if the owning member is removed
    owner = m1 < theta  # rows whose cost actually comes from a member
    # Member rows see their own zero as m1; m2 is their distance to the rest.
    member_fallback = np.minimum(theta[S], m2[S])
    return m1pos, cost, fallback, owner, member_fallback


def _swap_deltas(D, theta, S, u, state):
    """q_set(S - l + u) - q_set(S) for every l in S, as one vector.

    Exact algebraic decomposition: clients not owned by l gain
    max(0, cost - d(j,u)) regardless of l; clients owned by l fall back to
    min(fallback, d(j,u)); u stops being a client; l becomes one.
    """
    m1pos, cost, fallback, owner, member_fallback = state
    k = S.size
    du = D[:, u]
    client = np.ones(D.shape[0], dtype=bool)
    client[S] = False
    client[u] = False
    base_gain = np.where(client, np.maximum(cost - du, 0.0), 0.0)
    total_base = base_gain.sum()
    owned = client & owner
    owner_idx = m1pos[owned]
    base_by_l = np.bincount(owner_idx, weights=base_gain[owned], minlength=k)
    repl_gain = cost - np.minimum(fallback, du)
    repl_by_l = np.bincount(owner_idx, weights=repl_gain[owned], minlength=k)
    new_member_cost = np.minimum(member_fallback, du[S])
    return total_base - base_by_l + repl_by_l + cost[u] - new_member_cost


def _local_search(graph, D, S, tol):
    """Swap passes from the sorted pool positions ``S``; returns the final
    positions, q_set of the set after every accepted swap, and the swap
    count."""
    theta = graph.thetas
    in_set = np.zeros(theta.size, dtype=bool)
    in_set[S] = True
    swaps = 0
    q_hist = [graph.q_set(graph.unlabeled[S])]
    if S.size == theta.size:
        return S, q_hist, swaps
    changed = True
    while changed:
        changed = False
        state = None
        for u in np.where(~in_set)[0]:
            if in_set[u]:
                continue  # swapped in earlier this pass
            if state is None:
                state = _pool_state(D, theta, S)
            deltas = _swap_deltas(D, theta, S, int(u), state)
            hits = np.nonzero(deltas > tol)[0]
            if hits.size:
                removed = int(S[int(hits[0])])
                in_set[removed] = False
                in_set[u] = True
                S = np.sort(np.concatenate([S[S != removed], [u]]))
                swaps += 1
                changed = True
                state = None
                q_hist.append(graph.q_set(graph.unlabeled[S]))
    return S, q_hist, swaps


# -- baselines ---------------------------------------------------------------


def select_random(unlabeled: np.ndarray, rng: np.random.Generator) -> SelectionTrace:
    """Uniform draw from the pool."""
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    if unlabeled.size == 0:
        raise ValueError("cannot select from an empty pool")
    return SelectionTrace(chosen=int(rng.choice(unlabeled)), score=0.0)


def select_greedy(
    features: np.ndarray, labeled: np.ndarray, unlabeled: np.ndarray
) -> SelectionTrace:
    """Point with the largest minimum Euclidean distance to the labeled set."""
    labeled = np.asarray(labeled, dtype=np.int64)
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    if unlabeled.size == 0:
        raise ValueError("cannot select from an empty pool")
    if labeled.size == 0:
        raise ValueError("greedy selection needs a nonempty labeled set")
    dmin = cdist(features[unlabeled], features[labeled], "euclidean").min(axis=1)
    pos = int(np.argmax(dmin))
    return SelectionTrace(chosen=int(unlabeled[pos]), score=float(dmin[pos]))


def _bootstrap_predictions(features, labels, labeled, unlabeled, n_members, alpha, rng):
    """Fit n_members models on with-replacement resamples of the labeled set,
    drawn sequentially from ``rng``, and predict the pool."""
    m = labeled.size
    preds = np.empty((n_members, unlabeled.size), dtype=np.float64)
    X_lab = features[labeled]
    y_lab = labels[labeled]
    X_pool = features[unlabeled]
    for b in range(n_members):
        idx = rng.integers(0, m, size=m)
        model, _ = fit(X_lab[idx], y_lab[idx], alpha)
        preds[b] = predict(model, X_pool)
    return preds


def select_qbc(
    features: np.ndarray,
    labels: np.ndarray,
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    committee_size: int = 4,
    alpha: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SelectionTrace:
    """Query by committee: maximize population variance of bootstrap predictions."""
    labeled = np.asarray(labeled, dtype=np.int64)
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    if unlabeled.size == 0:
        raise ValueError("cannot select from an empty pool")
    if committee_size < 2:
        raise ValueError("committee_size must be >= 2")
    if rng is None:
        rng = np.random.default_rng(0)
    preds = _bootstrap_predictions(
        features, labels, labeled, unlabeled, committee_size, alpha, rng
    )
    variance = preds.var(axis=0)
    pos = int(np.argmax(variance))
    return SelectionTrace(chosen=int(unlabeled[pos]), score=float(variance[pos]))


def select_emcm(
    features: np.ndarray,
    labels: np.ndarray,
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    ensemble_size: int = 4,
    alpha: float = 0.0,
    rng: np.random.Generator | None = None,
) -> SelectionTrace:
    """Expected model change: mean over the ensemble of
    |f(x) - f_b(x)| * ||x with intercept||_2, maximized over the pool."""
    labeled = np.asarray(labeled, dtype=np.int64)
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    if unlabeled.size == 0:
        raise ValueError("cannot select from an empty pool")
    if ensemble_size < 2:
        raise ValueError("ensemble_size must be >= 2")
    if rng is None:
        rng = np.random.default_rng(0)
    main, _ = fit(features[labeled], labels[labeled], alpha)
    f_main = predict(main, features[unlabeled])
    preds = _bootstrap_predictions(
        features, labels, labeled, unlabeled, ensemble_size, alpha, rng
    )
    # Gradient magnitude of a squared-error stump at x is |df| * ||[x; 1]||.
    aug_norm = np.sqrt((features[unlabeled] ** 2).sum(axis=1) + 1.0)
    change = np.abs(f_main[None, :] - preds).mean(axis=0) * aug_norm
    pos = int(np.argmax(change))
    return SelectionTrace(chosen=int(unlabeled[pos]), score=float(change[pos]))
