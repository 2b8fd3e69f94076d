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

from .graph import _DIST_BUDGET, NNBipartiteGraph, q_columns
from .regression import fit, predict

# Minimum strict improvement for a batch swap to be accepted.
SWAP_TOL = 1e-12

# Swap gains (candidates x members), and near pairs, that the batch search
# and lazy greedy's sparse scores hold for one block of candidates; a block
# has at least one candidate.
_SWAP_BLOCK = 1 << 16

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
    batch_k: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.batch_k is not None and self.kind != "ours_batch":
            raise ValueError(f"batch_k applies only to ours_batch, not {self.kind!r}")
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
    picks, drops = build_seed_set(graph, 1)
    return SelectionTrace(chosen=int(picks[0]), score=float(drops[0]))


def lazy_tolerance(pool_size: int, total: float) -> float:
    """Slack that covers both stale scores and the sparse/row-order gap.

    Let R_i(u) = sum of max(0, theta_i(j) - d(j, u)) over the pool rows j,
    in exact arithmetic on the float weights and distances of the chain's
    graph g_i: q of u on g_i. R only falls along the chain, because commit
    only lowers weights (min is exact) and drops picked rows. build_seed_set
    reads two float sums of it, each over at most n = ``pool_size``
    non-negative terms that add up to at most T = ``total``, the initial H;
    with e = 2**-53, to first order:

    - the sparse score S (one rounded subtraction per term, summed by
      bincount) is within dS = n * e * T of R;
    - the exact score E of q_columns (h, summed pairwise, minus a running
      sum of min(theta, d), each within (n - 1) * e * T, then one rounded
      subtraction) is within dE = 2 * n * e * T of R.

    So a maximiser v of E on g_i and the fresh point b of the best sparse
    score satisfy S(v) >= E(v) - dE - dS >= E(b) - dE - dS >= S(b) - 2 *
    (dE + dS) = best - 6 * n * e * T, and a stale S(v), taken on an earlier
    graph where R(v) was no lower, satisfies the same. The 8 leaves room for
    the second-order terms.
    """
    return 8.0 * pool_size * 2.0**-53 * total


def _pair_slices(ptr, block):
    """Indices into a near-pair list of every pair of the candidate
    positions ``block``, in block order, and the block slot of each."""
    lo, hi = ptr[block], ptr[block + 1]
    lens = hi - lo
    ends = np.cumsum(lens)
    idx = np.arange(ends[-1]) + np.repeat(lo - ends + lens, lens)
    return idx, np.repeat(np.arange(block.size), lens)


def _pairs_before(ptr, candidates):
    """Near pairs of candidates[:i] for every i from 0 to candidates.size."""
    out = np.zeros(candidates.size + 1, dtype=np.int64)
    np.cumsum(np.diff(ptr)[candidates], out=out[1:])
    return out


def _block_stop(pairs_before, i, width):
    """End of the candidate block that starts at i: at most ``width``
    candidates and _SWAP_BLOCK near pairs, and at least one candidate."""
    fits = np.searchsorted(pairs_before, pairs_before[i] + _SWAP_BLOCK, "right") - 1
    return max(i + 1, min(i + width, int(fits)))


def _sparse_scores(pairs, weights, candidates):
    """Sum of max(0, weights[j] - d(j, u)) over the near pairs of each
    candidate position u, in row order, in blocks of at most _SWAP_BLOCK
    pairs. A row that holds no near pair of u adds nothing, since weights
    never exceed the weights the pairs were listed under."""
    ptr, rows, dist = pairs
    out = np.empty(candidates.size)
    before = _pairs_before(ptr, candidates)
    i = 0
    while i < candidates.size:
        stop = _block_stop(before, i, candidates.size)
        idx, at = _pair_slices(ptr, candidates[i:stop])
        terms = np.maximum(weights[rows[idx]] - dist[idx], 0.0)
        out[i:stop] = np.bincount(at, weights=terms, minlength=stop - i)
        i = stop
    return out


def build_seed_set(graph: NNBipartiteGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k sequential picks with the graph committed after each (labels untouched).

    Each pick is the argmax of q_values on the graph committed so far, ties
    to the smallest index, found by lazy greedy (Minoux 1978) over sparse
    scores: the sum of max(0, theta(j) - d(j, u)) over u's graph.near_pairs,
    under the chain's current weights (0 for picked rows), the quantity
    q_single measures. Every point's first sparse score is its bound; a pick
    re-scores, sparsely, the points whose stale bound comes within
    lazy_tolerance of the best fresh score, and then re-scores with
    q_columns, exactly and in row order, every fresh point whose sparse
    score comes within lazy_tolerance of that best. The exact argmax of
    those contenders, ties to the smallest index, is the pick: by
    lazy_tolerance's argument every maximiser of q_values is among them and
    a q_columns score is bitwise the q_values entry, so the picks are those
    of the eager loop that calls q_values before every pick.

    Returns ``(picks, drops)``. Every pick, the last too, is committed on one
    chain g_0 = graph, g_{i+1} = g_i.commit([picks[i]]), and ``drops[i]`` is
    H(g_i) - H(g_{i+1}), so ``drops[0]`` is bitwise q_single of ``picks[0]``.
    """
    if not 1 <= k <= graph.unlabeled.size:
        raise ValueError(f"k={k} outside 1..{graph.unlabeled.size}")
    pool = graph.unlabeled
    X = graph.features[pool]
    pairs = graph.near_pairs()
    weights = graph.thetas.copy()  # g's weights at initial pool positions
    bound = _sparse_scores(pairs, weights, np.arange(pool.size))
    eps = lazy_tolerance(pool.size, graph.total_uncertainty())
    alive = np.ones(pool.size, dtype=bool)
    fresh = np.ones(pool.size, dtype=bool)
    g = graph
    picks = np.empty(k, dtype=np.int64)
    drops = np.empty(k, dtype=np.float64)
    for i in range(k):
        best = float(np.max(bound, where=alive & fresh, initial=-np.inf))
        width = 2
        while True:
            todo = np.flatnonzero(alive & ~fresh & (bound >= best - eps))
            if todo.size == 0:
                break
            # Highest bounds first, in widening batches: an early high fresh
            # score shrinks the set that still needs re-scoring.
            if todo.size > width:
                todo = todo[np.argpartition(-bound[todo], width - 1)[:width]]
            bound[todo] = _sparse_scores(pairs, weights, todo)
            fresh[todo] = True
            best = max(best, float(bound[todo].max()))
            width *= 2
        contenders = np.flatnonzero(alive & fresh & (bound >= best - eps))
        rows, h = X[alive], g.total_uncertainty()
        exact = np.empty(contenders.size)
        step = max(1, _DIST_BUDGET // rows.shape[0])
        for start in range(0, contenders.size, step):
            part = contenders[start : start + step]
            exact[start : start + step] = q_columns(rows, g.thetas, h, X[part])
        pos = int(contenders[np.argmax(exact)])
        picks[i] = pool[pos]
        alive[pos] = False
        g = g.commit(picks[i : i + 1])
        drops[i] = h - g.total_uncertainty()
        weights[pos] = 0.0
        weights[alive] = g.thetas
        fresh[:] = False
    return picks, drops


def select_ours_batch(
    graph: NNBipartiteGraph,
    k: int,
    seed_set: np.ndarray | None = None,
) -> SelectionTrace:
    """Single-swap local search over k-subsets, maximizing q_set.

    Each pass fixes its candidates, the points outside S at its start, and
    scans them in ascending index order. A candidate u is swapped in for the
    smallest member l whose swap raises q_set by more than SWAP_TOL, and the
    scan goes on after u. Passes repeat until one makes no change.

    The swap gains come from _SwapSearch, which holds no pool x pool array.
    ``q_history`` is q_set of the seed and of the set after each accepted
    swap, bitwise, and ``score`` is its last entry. A gain is the quantity a
    dense evaluation computes, summed in another order: decisions equal the
    dense reference's on integer data, and on other data unless some gain
    lies within summation error of SWAP_TOL.
    """
    nU = graph.unlabeled.size
    if not 1 <= k <= nU:
        raise ValueError(f"k={k} outside 1..{nU}")
    if seed_set is None:
        seed_set = build_seed_set(graph, k)[0]
    seed_pos = graph._subset_positions(seed_set)
    if seed_pos.size != k:
        raise ValueError(f"seed set must hold {k} distinct indices")
    if k == nU:  # no candidate to swap in
        q = graph.q_set(graph.unlabeled)
        return SelectionTrace(chosen=graph.unlabeled.copy(), score=q, q_history=(q,))

    search = _SwapSearch(graph, seed_pos)
    q_hist = [search.q_set()]
    swaps = 0
    max_width = max(1, _SWAP_BLOCK // k)
    changed = True
    while changed:
        changed = False
        candidates = np.flatnonzero(~search.in_set)
        before = _pairs_before(search.ptr, candidates)
        i, width = 0, 1
        while i < candidates.size:
            # Widening blocks: all of a block is scored against one set, and
            # after a swap the scan restarts, small, just past the swapped-in u.
            block = candidates[i : _block_stop(before, i, width)]
            hit = search.first_gain(block)
            if hit is None:
                i += block.size
                width = min(2 * width, max_width)
                continue
            pos, slot = hit
            search.swap(slot, int(block[pos]))
            swaps += 1
            changed = True
            q_hist.append(search.q_set())
            i, width = i + pos + 1, 1
    return SelectionTrace(
        chosen=graph.unlabeled[np.sort(search.members)],
        score=q_hist[-1],
        swaps_performed=swaps,
        q_history=tuple(q_hist),
    )


class _SwapSearch:
    """Swap gains of a k-subset S of the pool, kept up to date across swaps.

    Members sit in slots; ``cols`` holds each member's distance column (pool
    x k). Per pool row j it keeps m1 and m2, the nearest and second-nearest
    member distances (m2 = m1 on a tie), and ``owner``, the slot of m1.
    Then cost_j = min(theta_j, m1) is j's weight under S and fallback_j =
    min(theta_j, m2) its weight once its owner leaves. The gain of swapping
    candidate u in for the member in slot l is exactly

        G(u) - loss[l] + C(u, l) + max(0, member_fallback[l] - d(l, u)),

    where, over non-member rows j,
      G(u) = sum of max(0, cost_j - d(j, u)),
      loss[l] = member_fallback[l] + sum of fallback_j - cost_j owned by l,
      C(u, l) = sum of fallback_j - max(d(j, u), cost_j) over rows owned by
      l with d(j, u) < fallback_j,
    and member_fallback[l] is l's own weight once it leaves. u's own row, at
    distance 0, adds its weight cost_u to G and, when l owns it, takes its
    term back out of loss[l] through C. G and C read only u's pairs in
    graph.near_pairs, since cost and fallback never exceed theta; the graph
    builds that list once, and build_seed_set on the same graph reads it
    too. A tied row has fallback = cost, so it adds nothing to loss or C
    whichever slot owns it.
    """

    def __init__(self, graph, seed_pos):
        self.X = graph.features[graph.unlabeled]
        self.theta = graph.thetas
        self.h = graph.total_uncertainty()
        self.ptr, self.rows, self.dist = graph.near_pairs()
        n, k = self.theta.size, seed_pos.size
        self.k = k
        self.members = seed_pos.copy()
        self.in_set = np.zeros(n, dtype=bool)
        self.in_set[seed_pos] = True
        self.cols = cdist(self.X, self.X[seed_pos], "cityblock")
        self.m1 = np.empty(n)
        self.m2 = np.empty(n)
        self.owner = np.empty(n, dtype=np.int64)
        self._rank(np.arange(n))
        self._derive()

    def _rank(self, rows):
        """Recompute m1, m2 and owner of ``rows`` from the member columns."""
        step = max(1, _DIST_BUDGET // self.k)
        for start in range(0, rows.size, step):
            r = rows[start : start + step]
            cols = self.cols[r]
            pos = cols.argmin(axis=1)
            self.owner[r] = pos
            self.m1[r] = cols[np.arange(r.size), pos]
            self.m2[r] = np.partition(cols, 1, axis=1)[:, 1] if self.k > 1 else np.inf

    def _derive(self):
        """cost, fallback and the per-slot loss from m1, m2 and owner."""
        self.cost = np.minimum(self.theta, self.m1)
        self.fallback = np.minimum(self.theta, self.m2)
        out = ~self.in_set
        self.member_fallback = self.fallback[self.members]
        self.loss = self.member_fallback + np.bincount(
            self.owner[out],
            weights=(self.fallback - self.cost)[out],
            minlength=self.k,
        )

    def q_set(self) -> float:
        """graph.q_set of the current set, bitwise: commit leaves each
        non-member the weight cost_j, and H' sums them in index order."""
        return self.h - float(np.sum(self.cost[~self.in_set]))

    def first_gain(self, block):
        """(position in ``block``, slot) of the first candidate with a swap
        gain above SWAP_TOL and, for it, the smallest member index; or None."""
        idx, at = _pair_slices(self.ptr, block)
        j, d = self.rows[idx], self.dist[idx]
        out = ~self.in_set[j]
        j, d, at = j[out], d[out], at[out]
        cost, fallback = self.cost[j], self.fallback[j]
        g = np.bincount(at, weights=np.maximum(cost - d, 0.0), minlength=block.size)
        near = d < fallback
        c = np.bincount(
            at[near] * self.k + self.owner[j[near]],
            weights=fallback[near] - np.maximum(d[near], cost[near]),
            minlength=block.size * self.k,
        ).reshape(block.size, self.k)
        gain = g[:, None] - self.loss + c
        gain += np.maximum(self.member_fallback - self.cols[block], 0.0)
        hits = gain > SWAP_TOL
        found = np.flatnonzero(hits.any(axis=1))
        if found.size == 0:
            return None
        first = int(found[0])
        slots = np.flatnonzero(hits[first])
        return first, int(slots[np.argmin(self.members[slots])])

    def swap(self, slot, u):
        """Replace the member in ``slot`` by pool position ``u``.

        Only rows whose m1 or m2 was the leaving member are ranked again from
        the member columns; every other row just takes the new member's
        distance into its m1 and m2.
        """
        old = self.cols[:, slot].copy()
        new = cdist(self.X, self.X[u : u + 1], "cityblock")[:, 0]
        redo = np.flatnonzero((self.owner == slot) | (old <= self.m2))
        self.cols[:, slot] = new
        self.in_set[self.members[slot]] = False
        self.in_set[u] = True
        self.members[slot] = u
        beats = new < self.m1
        self.m2 = np.where(beats, self.m1, np.minimum(self.m2, new))
        self.owner[beats] = slot
        np.minimum(self.m1, new, out=self.m1)
        self._rank(redo)
        self._derive()


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
        model = fit(X_lab[idx], y_lab[idx], alpha)
        preds[b] = predict(model, X_pool)
    return preds


def select_qbc(
    features: np.ndarray,
    labels: np.ndarray,
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    rng: np.random.Generator,
    committee_size: int = 4,
    alpha: float = 0.0,
) -> SelectionTrace:
    """Query by committee: maximize population variance of bootstrap predictions."""
    labeled = np.asarray(labeled, dtype=np.int64)
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    if unlabeled.size == 0:
        raise ValueError("cannot select from an empty pool")
    if committee_size < 2:
        raise ValueError("committee_size must be >= 2")
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
    rng: np.random.Generator,
    ensemble_size: int = 4,
    alpha: float = 0.0,
) -> SelectionTrace:
    """Expected model change: mean over the ensemble of
    |f(x) - f_b(x)| * ||x with intercept||_2, maximized over the pool."""
    labeled = np.asarray(labeled, dtype=np.int64)
    unlabeled = np.asarray(unlabeled, dtype=np.int64)
    if unlabeled.size == 0:
        raise ValueError("cannot select from an empty pool")
    if ensemble_size < 2:
        raise ValueError("ensemble_size must be >= 2")
    main = fit(features[labeled], labels[labeled], alpha)
    f_main = predict(main, features[unlabeled])
    preds = _bootstrap_predictions(
        features, labels, labeled, unlabeled, ensemble_size, alpha, rng
    )
    # Gradient magnitude of a squared-error stump at x is |df| * ||[x; 1]||.
    aug_norm = np.sqrt((features[unlabeled] ** 2).sum(axis=1) + 1.0)
    change = np.abs(f_main[None, :] - preds).mean(axis=0) * aug_norm
    pos = int(np.argmax(change))
    return SelectionTrace(chosen=int(unlabeled[pos]), score=float(change[pos]))
