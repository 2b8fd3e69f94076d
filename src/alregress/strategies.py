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

from .datasets import require_int
from .graph import (
    _SWAP_BLOCK,
    NNBipartiteGraph,
    _block_stop,
    _distances,
    _index_values,
    _sparse_scores,
)
from .regression import fit, predict

# Minimum strict improvement for a batch swap to be accepted.
SWAP_TOL = 1e-12

# Bootstrap members of the qbc and emcm committee.
COMMITTEE_SIZE = 4

# The order is pinned: experiment._seed_for numbers each kind's random
# streams by its place here, and the pinned outputs were drawn with it.
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
        if self.batch_k is not None:
            require_int("batch_k", self.batch_k)
            if self.batch_k < 1:
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

    The pick is build_seed_set's first, and the score its drop in H, which
    is q_single of the pick: it can differ from the q_values entry in the
    last bits (see q_values)."""
    if graph.unlabeled.size == 0:
        raise ValueError("cannot select from an empty pool")
    picks, drops = build_seed_set(graph, 1)
    return SelectionTrace(chosen=int(picks[0]), score=float(drops[0]))


def build_seed_set(graph: NNBipartiteGraph, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k sequential picks with the graph committed after each (labels untouched).

    Each pick is the argmax of q_values on the graph committed so far, ties
    to the smallest index, found by lazy greedy (Minoux 1978) over sparse
    scores: the sum of max(0, theta(j) - d(j, u)) over u's graph.near_pairs,
    in row order, under the chain's current weights (0 for picked rows).
    That is the committed graph's q_values entry bit for bit: q_values
    sums the same terms over that graph's own, smaller list, and a pair of
    u outside it adds +0.0, which leaves a non-negative sum's bits alone.
    Weights only fall along the chain, and rounded
    subtraction, max and addition are monotone, so a stale score bounds
    the fresh one from above exactly. A pick re-scores every point whose
    stale bound is at least the best fresh score and then takes the
    smallest position whose fresh score is that best: the eager loop's
    pick, which calls q_values before every pick.

    Returns ``(picks, drops)``. Every pick, the last too, is taken along
    one chain g_0 = graph, g_{i+1} = g_i.commit([picks[i]]), and
    ``drops[i]`` is H(g_i) - H(g_{i+1}), so ``drops[0]`` is bitwise
    q_single of ``picks[0]``. No g_i is built: the chain's weights are kept
    at initial pool positions, and each pick p lowers them to their minimum
    with d(j, p), as commit does, over p's own near pairs. A row j outside
    them has d(j, p) >= theta_j >= its weight, which the minimum leaves
    alone, and p's own row, at distance 0, falls to 0 or already is 0.
    H(g_{i+1}) is np.sum of the remaining weights, the array commit's total
    sums. So the weights and drops are commit's bits; the tests keep the
    commit chain as the reference.
    """
    if not 1 <= k <= graph.unlabeled.size:
        raise ValueError(f"k={k} outside 1..{graph.unlabeled.size}")
    pool = graph.unlabeled
    pairs = ptr, rows, dist = graph.near_pairs()
    weights = graph.thetas.copy()  # g_i's weights at initial pool positions
    h = graph.total_uncertainty()
    bound = _sparse_scores(pairs, weights)
    alive = np.ones(pool.size, dtype=bool)
    fresh = np.ones(pool.size, dtype=bool)
    picks = np.empty(k, dtype=np.int64)
    drops = np.empty(k, dtype=np.float64)
    for i in range(k):
        best = float(np.max(bound, where=alive & fresh, initial=-np.inf))
        width = 32
        while True:
            todo = np.flatnonzero(alive & ~fresh & (bound >= best))
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
        pos = int(np.flatnonzero(alive & fresh & (bound == best))[0])
        picks[i] = pool[pos]
        alive[pos] = False
        # commit's weights: min(weight, distance to the pick) over its pairs
        near = rows[ptr[pos] : ptr[pos + 1]]
        weights[near] = np.minimum(weights[near], dist[ptr[pos] : ptr[pos + 1]])
        after = float(np.sum(weights[alive]))  # commit's total_uncertainty
        drops[i] = h - after
        h = after
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

    The scan reads widening ranges of pool positions, each range's near
    pairs one slice of the list; positions that were members when the pass
    began are masked out. The swap gains come from _SwapSearch, which holds
    no pool x pool array, measures no distance of its own, and drops,
    before anything else, the pairs that add an exact +0.0 (see
    first_gain).
    ``chosen`` is the final set, ascending. ``q_history`` is q_set of the
    seed and of the set after each accepted swap, bitwise, and ``score`` is
    its last entry. A gain is the quantity a dense evaluation computes,
    summed in another order: decisions equal the dense reference's on
    integer data, and on other data unless some gain lies within summation
    error of SWAP_TOL.
    """
    nU = graph.unlabeled.size
    if not 1 <= k <= nU:
        raise ValueError(f"k={k} outside 1..{nU}")
    if seed_set is None:
        seed_set = build_seed_set(graph, k)[0]
    seed_pos = graph._subset_positions(seed_set)
    if seed_pos.size != k:
        raise ValueError(f"seed set must hold {k} distinct indices")
    if k == nU:  # no candidate to swap in; moving the whole pool removes H
        q = graph.total_uncertainty()
        return SelectionTrace(chosen=graph.unlabeled.copy(), score=q, q_history=(q,))

    search = _SwapSearch(graph, seed_pos)
    q_hist = [search.q_set()]
    swaps = 0
    max_width = max(1, _SWAP_BLOCK // k)
    changed = True
    while changed:
        changed = False
        candidate = ~search.in_set
        a, width = 0, 1
        while a < nU:
            # Widening ranges: all of a range is scored against one set, and
            # after a swap the scan restarts, 16 positions wide, just past the
            # swapped-in u.
            b = _block_stop(search.ptr, a, width)
            hit = search.first_gain(a, b, candidate[a:b])
            if hit is None:
                a, width = b, min(2 * width, max_width)
                continue
            u, slot = hit
            search.swap(slot, u)
            swaps += 1
            changed = True
            q_hist.append(search.q_set())
            a, width = u + 1, min(16, max_width)
    return SelectionTrace(
        chosen=graph.unlabeled[np.sort(search.members)],
        score=q_hist[-1],
        swaps_performed=swaps,
        q_history=tuple(q_hist),
    )


class _SwapSearch:
    """Swap gains of a k-subset S of the pool, kept up to date across swaps.

    Members sit in slots; ``cols`` (pool x k) holds each member l's column
    min(theta_j, d(j, l)): theta, overwritten by l's slice of
    graph.near_pairs, so the search measures no distance of its own. Per
    pool row j it keeps ``cost``, the smallest entry of j's row, which is
    j's weight under S (0 for a member); ``fallback``, the second smallest
    (theta when k = 1), j's weight once its owner leaves; and ``owner``, the
    slot of cost. The gain of swapping candidate u in for the member in
    slot l is exactly

        G(u) - loss[l] + C(u, l),

    where, over every pool row j,
      G(u) = sum of max(0, cost_j - d(j, u)),
      loss[l] = sum of fallback_j - cost_j over rows owned by l,
      C(u, l) = sum of fallback_j - max(d(j, u), cost_j) over rows owned by
      l with d(j, u) < fallback_j.
    A member row, at cost 0, adds nothing to G. l's own row, owned by l,
    adds to loss[l] l's weight once it leaves, and C gives back the part of
    it above d(l, u). u's own row, at distance 0, adds its weight cost_u to
    G and, when l owns it, takes its term back out of loss[l] through C.
    G and C read only u's pairs in graph.near_pairs, since fallback never
    exceeds theta; the graph builds that list once, and build_seed_set on
    the same graph reads it too. A tied row has fallback = cost, so it adds
    nothing to loss or C whichever slot owns it: a row whose entries are
    all theta, and a member row that another member duplicates.
    """

    def __init__(self, graph, seed_pos):
        self.theta = graph.thetas
        self.h = graph.total_uncertainty()
        self.ptr, self.rows, self.dist = graph.near_pairs()
        n, k = self.theta.size, seed_pos.size
        self.k = k
        self.members = seed_pos.copy()
        self.in_set = np.zeros(n, dtype=bool)
        self.in_set[seed_pos] = True
        self.cols = np.empty((n, k))
        for slot, p in enumerate(seed_pos):
            self._fill(slot, p)
        self.cost = np.empty(n)
        self.fallback = np.empty(n)
        self.owner = np.empty(n, dtype=np.int64)
        self._rank(np.arange(n))
        self._derive()

    def _fill(self, slot, p):
        """Write pool position p's column into ``slot``: theta, overwritten
        by p's near pairs, which are exactly the rows with d(j, p) < theta_j."""
        lo, hi = self.ptr[p], self.ptr[p + 1]
        self.cols[:, slot] = self.theta
        self.cols[self.rows[lo:hi], slot] = self.dist[lo:hi]

    def _rank(self, rows):
        """Recompute cost, fallback and owner of ``rows`` from the member
        columns: owner is the first slot of the smallest entry."""
        step = max(1, _SWAP_BLOCK // self.k)
        for start in range(0, rows.size, step):
            r = rows[start : start + step]
            cols = self.cols[r]
            pos = cols.argmin(axis=1)
            self.owner[r] = pos
            self.cost[r] = cols[np.arange(r.size), pos]
            if self.k > 1:
                self.fallback[r] = np.partition(cols, 1, axis=1)[:, 1]
            else:
                self.fallback[r] = self.theta[r]

    def _derive(self):
        """The per-slot loss from cost, fallback and owner."""
        self.loss = np.bincount(
            self.owner, weights=self.fallback - self.cost, minlength=self.k
        )

    def q_set(self) -> float:
        """graph.q_set of the current set, bitwise: commit leaves each
        non-member the weight cost_j, and H' sums them in index order."""
        return self.h - float(np.sum(self.cost[~self.in_set]))

    def first_gain(self, a, b, candidate):
        """(position, slot) of the first position u in [a, b) where
        ``candidate`` holds whose swap gain exceeds SWAP_TOL, and for it the
        slot of the smallest member index with such a gain; or None.

        The range's pairs are one slice of the near-pair list. A pair with
        d >= fallback_j is dropped before anything else is read: it adds
        max(0, cost_j - d) = +0.0 to G, which leaves a non-negative sum's
        bits alone, and nothing to C.
        """
        lo = self.ptr[a]
        j, d = self.rows[lo : self.ptr[b]], self.dist[lo : self.ptr[b]]
        keep = np.flatnonzero(d < self.fallback[j])
        at = np.searchsorted(self.ptr[a + 1 : b + 1], lo + keep, side="right")
        j, d = j[keep], d[keep]
        cost, fallback = self.cost[j], self.fallback[j]
        g = np.bincount(at, weights=np.maximum(cost - d, 0.0), minlength=b - a)
        c = np.bincount(
            at * self.k + self.owner[j],
            weights=fallback - np.maximum(d, cost),
            minlength=(b - a) * self.k,
        ).reshape(b - a, self.k)
        gain = g[:, None] - self.loss + c
        hits = (gain > SWAP_TOL) & candidate[:, None]
        found = np.flatnonzero(hits.any(axis=1))
        if found.size == 0:
            return None
        first = int(found[0])
        slots = np.flatnonzero(hits[first])
        return a + first, int(slots[np.argmin(self.members[slots])])

    def swap(self, slot, u):
        """Replace the member in ``slot`` by pool position ``u``.

        The leaving column is below theta only on the leaving member's near
        rows. The rows it owned, and the near rows where its entry is at most
        the fallback (it may be their second smallest), are ranked again from
        the member columns. Every other row held theta, or an entry above its
        fallback, in the slot, so losing it moves neither cost nor fallback.
        The new column is below theta only on u's near rows, which take
        its distance into their cost and fallback.
        """
        leaving = self.members[slot]
        lo, hi = self.ptr[leaving], self.ptr[leaving + 1]
        redo = self.owner == slot
        near = self.rows[lo:hi]
        redo[near[self.dist[lo:hi] <= self.fallback[near]]] = True
        self._fill(slot, u)
        self.in_set[leaving] = False
        self.in_set[u] = True
        self.members[slot] = u
        lo, hi = self.ptr[u], self.ptr[u + 1]
        j, d = self.rows[lo:hi], self.dist[lo:hi]
        cost = self.cost[j]
        beats = d < cost
        self.fallback[j] = np.where(beats, cost, np.minimum(self.fallback[j], d))
        self.owner[j[beats]] = slot
        self.cost[j] = np.minimum(cost, d)
        self._rank(np.flatnonzero(redo))
        self._derive()


# -- baselines ---------------------------------------------------------------


def select_random(unlabeled: np.ndarray, rng: np.random.Generator) -> SelectionTrace:
    """Uniform draw from the pool."""
    unlabeled = _index_values(unlabeled, "unlabeled")
    if unlabeled.size == 0:
        raise ValueError("cannot select from an empty pool")
    return SelectionTrace(chosen=int(rng.choice(unlabeled)), score=0.0)


def greedy_order(
    features: np.ndarray, labeled: np.ndarray, unlabeled: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n greedy picks, each moved to the labeled set before the next.

    A pick is the pool point with the largest minimum Euclidean distance to
    the labeled set, ties to the first in ``unlabeled`` order; its score is
    that distance. Returns ``(picks, scores)``. One vector of minimum
    distances, aligned with the pool, takes one 1 x pool row per pick, the
    pick's distances to every pool point; a picked point's entry is held at
    -inf. Each remaining entry is bitwise a fresh scan's, since a minimum is
    exact and graph._distances computes each pair on its own, in either
    order. So a shorter order is a prefix of a longer one.
    """
    labeled = _index_values(labeled, "labeled")
    pool = _index_values(unlabeled, "unlabeled")
    if not 1 <= n <= pool.size:
        raise ValueError(f"n={n} outside 1..{pool.size}")
    if labeled.size == 0:
        raise ValueError("greedy selection needs a nonempty labeled set")
    X = np.asfortranarray(features[pool])  # _distances reads by column
    dmin = _distances(X, features[labeled], "euclidean").min(axis=1)
    picks = np.empty(n, dtype=np.int64)
    scores = np.empty(n, dtype=np.float64)
    for i in range(n):
        pos = int(np.argmax(dmin))
        picks[i], scores[i] = pool[pos], dmin[pos]
        if i + 1 < n:
            dmin[pos] = -np.inf
            np.minimum(dmin, _distances(X[pos : pos + 1], X, "euclidean")[0], out=dmin)
    return picks, scores


def select_greedy(
    features: np.ndarray, labeled: np.ndarray, unlabeled: np.ndarray
) -> SelectionTrace:
    """Point with the largest minimum Euclidean distance to the labeled set:
    greedy_order's first pick."""
    picks, scores = greedy_order(features, labeled, unlabeled, 1)
    return SelectionTrace(chosen=int(picks[0]), score=float(scores[0]))


def _committee(features, labels, labeled, unlabeled, rng, alpha, emcm):
    """The shared body of select_qbc and select_emcm.

    Fits COMMITTEE_SIZE models on with-replacement resamples of the labeled
    set, one rng.integers(0, m, size=m) draw each and in turn, and predicts
    the pool with each; emcm's model on the whole labeled set draws nothing.
    Returns the pool point of the largest score, ties to the first.
    """
    labeled = _index_values(labeled, "labeled")
    unlabeled = _index_values(unlabeled, "unlabeled")
    if unlabeled.size == 0:
        raise ValueError("cannot select from an empty pool")
    X_lab, y_lab, X_pool = features[labeled], labels[labeled], features[unlabeled]
    if emcm:
        f_main = predict(fit(X_lab, y_lab, alpha), X_pool)
    m = labeled.size
    preds = np.empty((COMMITTEE_SIZE, unlabeled.size), dtype=np.float64)
    for b in range(COMMITTEE_SIZE):
        idx = rng.integers(0, m, size=m)
        preds[b] = predict(fit(X_lab[idx], y_lab[idx], alpha), X_pool)
    if emcm:
        # Gradient magnitude of a squared-error stump at x is |df| * ||[x; 1]||.
        aug_norm = np.sqrt((X_pool**2).sum(axis=1) + 1.0)
        score = np.abs(f_main[None, :] - preds).mean(axis=0) * aug_norm
    else:
        score = preds.var(axis=0)
    pos = int(np.argmax(score))
    return SelectionTrace(chosen=int(unlabeled[pos]), score=float(score[pos]))


def select_qbc(
    features: np.ndarray,
    labels: np.ndarray,
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    rng: np.random.Generator,
    alpha: float = 0.0,
) -> SelectionTrace:
    """Query by committee: maximize population variance of bootstrap predictions."""
    return _committee(features, labels, labeled, unlabeled, rng, alpha, emcm=False)


def select_emcm(
    features: np.ndarray,
    labels: np.ndarray,
    labeled: np.ndarray,
    unlabeled: np.ndarray,
    rng: np.random.Generator,
    alpha: float = 0.0,
) -> SelectionTrace:
    """Expected model change: mean over the committee of
    |f(x) - f_b(x)| * ||x with intercept||_2, maximized over the pool, where
    f is the model on the whole labeled set."""
    return _committee(features, labels, labeled, unlabeled, rng, alpha, emcm=True)
