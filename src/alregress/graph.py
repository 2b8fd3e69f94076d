"""Nearest-labeled-neighbor bipartite graph with L1 edge weights.

Every unlabeled point carries exactly one edge, to its L1-nearest labeled
point; the edge weight is that distance and the total of all weights is the
pool's uncertainty mass H. Moving points into the labeled side can only
shrink weights. commit performs such a move, and q_set is defined by it: the
drop in H, which counts the moved points' own edges plus every shrink of the
points that re-anchor to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

# Absolute slack of check_bound's prediction-shift cap for float rounding.
# validation.bound_violations (acceptance criterion 2) sends every draw
# through check_bound, so it allows the same slack.
BOUND_TOL = 1e-12

# Pairwise distances a blocked scan holds at once: near_pairs, which lazy
# greedy and the swap search read, measures each anchor group's candidates
# against only the rows its anchor can reach, in cdist rectangles of at
# most this many distances; q_columns, the dense reference behind
# q_values, scores max(1, _DIST_BUDGET // rows) candidate columns.
_DIST_BUDGET = 1 << 18

# Relative slack of near_pairs' anchor test for float rounding (derived in
# near_pairs); it covers feature widths up to about 10**6.
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class BoundDiagnostic:
    """One evaluation of the weight-shift prediction bound (see check_bound)."""

    delta_u: float
    lambda_max: float
    l1_distance: float

    @property
    def bound(self) -> float:
        return self.lambda_max * self.l1_distance


def _index_values(idx, name: str) -> np.ndarray:
    """``idx`` as a flat int64 array. Float input, which a cast would
    truncate, and bool input, which it would read as 0 and 1, raise; empty
    input passes, whatever its dtype."""
    arr = np.asarray(idx)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{name} indices must be integers, got {arr.dtype}")
    return arr.astype(np.int64, copy=False).ravel()


def _as_index_array(idx, n: int, name: str) -> np.ndarray:
    arr = np.sort(_index_values(idx, name))
    if arr.size != np.unique(arr).size:
        raise ValueError(f"{name} indices contain duplicates")
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise ValueError(f"{name} indices out of range for {n} rows")
    return arr


def q_columns(rows, thetas, candidates) -> np.ndarray:
    """sum_j max(0, thetas[j] - L1(rows[j], c)) for every row c of ``candidates``.

    ``rows``/``thetas`` are the unlabeled points and their weights, and every
    candidate one of the rows: its own term is its weight, so each sum is
    the drop in H from moving just that candidate. The terms are summed
    directly, so the rounding error is relative to q, not to H, and in row
    order at every width. ``sum(axis=0)`` would not keep that order: numpy
    reduces a single column pairwise but a wider block row by row, and the
    two orders can split an exact tie, which would let the number of
    columns scored together change a greedy pick.

    Scores blocks of max(1, _DIST_BUDGET // len(rows)) columns, each block
    freed before the next is computed, so one budget of distances is held.
    """
    out = np.empty(len(candidates))
    step = max(1, _DIST_BUDGET // max(len(rows), 1))
    for start in range(0, len(candidates), step):
        d = cdist(rows, candidates[start : start + step], "cityblock")
        np.subtract(thetas[:, None], d, out=d)
        np.maximum(d, 0.0, out=d)
        np.add.accumulate(d, axis=0, out=d)  # sequential by definition
        out[start : start + step] = d[-1]
        del d
    return out


def _near_pair_pieces(features, unlabeled, nn, thetas, ptr) -> list:
    """near_pairs' pairs as (candidates, rows, dist) pieces, candidate by
    candidate, each candidate u's pair count written to ptr[u + 1].

    One anchor group at a time, in ascending anchor order: one cdist row
    from its anchor to every anchor picks the groups whose rows it can
    reach (see near_pairs), and its candidates, ascending, meet those rows
    in cdist slices of at most _DIST_BUDGET distances.
    """
    X, n = features[unlabeled], thetas.size
    anchors, group = np.unique(nn, return_inverse=True)
    radius = np.zeros(anchors.size)
    np.maximum.at(radius, group, thetas)
    A = features[anchors]
    pieces = []
    for m in range(anchors.size):
        cands = np.flatnonzero(group == m)  # ascending positions
        bound = radius[m] + 2.0 * radius
        bound *= 1.0 + _PRUNE_SLACK
        reach = cdist(A[m : m + 1], A, "cityblock")[0] < bound
        rows = np.flatnonzero(reach[group])  # ascending positions
        width = rows.size
        if width == n:  # nothing pruned: no gather, no row map
            XR, TR, rows = X, thetas, None
        elif width:
            XR, TR = X[rows], thetas[rows]
        else:
            continue
        step = max(1, _DIST_BUDGET // width)
        for s in range(0, cands.size, step):
            # Rows are candidates u: d(u, j) equals d(j, u) bit for bit,
            # since each |a - b| is symmetric and the terms sum in one
            # order. So does q_columns' d(j, u).
            c = cands[s : s + step]
            d = cdist(X[c], XR, "cityblock")
            flat = np.flatnonzero(d < TR)
            ptr[c + 1] = np.bincount(flat // width, minlength=c.size)
            j = flat % width
            j = j if rows is None else rows[j]
            pieces.append((c, j.astype(np.int32), d.ravel()[flat]))
            del d
    return pieces


def _pair_index(ptr, block) -> np.ndarray:
    """Indices into a near-pair list of every pair of the candidate
    positions ``block``, in block order."""
    lens = ptr[block + 1] - ptr[block]
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(ptr[block] - ends + lens, lens)


def _place_pieces(ptr, pieces) -> tuple[np.ndarray, np.ndarray]:
    """rows and dist of the near-pair list from its (candidates, rows, dist)
    pieces, each written into its candidates' ``ptr`` slices and freed."""
    rows, dist = np.empty(ptr[-1], dtype=np.int32), np.empty(ptr[-1])
    while pieces:
        c, j, d = pieces.pop()
        if c[-1] - c[0] == c.size - 1 and np.all(np.diff(c) > 0):  # a range
            at = slice(ptr[c[0]], ptr[c[-1] + 1])
        else:
            at = _pair_index(ptr, c)
        rows[at], dist[at] = j, d
    return rows, dist


class NNBipartiteGraph:
    """Bipartite nearest-neighbor graph over a fixed feature matrix.

    ``labeled`` and ``unlabeled`` are sorted dataset-index arrays; ``nn`` and
    ``thetas`` align with ``unlabeled``. ``features`` is held by reference and
    must not be mutated while the graph is alive.

    Invariant: ``thetas[j]`` is the cdist L1 distance from ``unlabeled[j]``
    to its anchor ``nn[j]``, as computed, not a value rounded any other way.
    build and commit keep it true; near_pairs' triangle-inequality prune
    relies on it.
    """

    __slots__ = ("features", "labeled", "unlabeled", "nn", "thetas", "_pairs")

    def __init__(self, features, labeled, unlabeled, nn, thetas):
        self.features = features
        self.labeled = labeled
        self.unlabeled = unlabeled
        self.nn = nn
        self.thetas = thetas
        self._pairs = None  # near_pairs, built on first use

    @classmethod
    def build(cls, labeled, unlabeled, features) -> "NNBipartiteGraph":
        """Scan every unlabeled point against all labeled points.

        Distance ties resolve to the smallest labeled index, which argmin over
        the ascending labeled array gives for free.
        """
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {X.shape}")
        if not np.all(np.isfinite(X)):
            raise ValueError("features contain non-finite values")
        n = X.shape[0]
        lab = _as_index_array(labeled, n, "labeled")
        unl = _as_index_array(unlabeled, n, "unlabeled")
        if lab.size == 0:
            raise ValueError("labeled set must be nonempty")
        if np.intersect1d(lab, unl).size:
            raise ValueError("labeled and unlabeled sets overlap")
        dists = cdist(X[unl], X[lab], "cityblock")
        pos = dists.argmin(axis=1)
        thetas = dists[np.arange(unl.size), pos]
        nn = lab[pos]
        return cls(X, lab, unl, nn, thetas)

    # -- lookups ---------------------------------------------------------

    def _pos_of(self, u: int) -> int:
        pos = int(np.searchsorted(self.unlabeled, u))
        if pos >= self.unlabeled.size or self.unlabeled[pos] != u:
            raise ValueError(f"index {u} is not an unlabeled point of this graph")
        return pos

    def theta(self, u: int) -> float:
        """Edge weight of unlabeled point u (its L1 distance to the labeled set)."""
        return float(self.thetas[self._pos_of(u)])

    def neighbor_of(self, u: int) -> int:
        """Labeled endpoint of u's edge."""
        return int(self.nn[self._pos_of(u)])

    def total_uncertainty(self) -> float:
        """H: sum of all edge weights, in ascending unlabeled-index order."""
        return float(np.sum(self.thetas))

    # -- uncertainty reduction -------------------------------------------

    def _subset_positions(self, subset) -> np.ndarray:
        S = _index_values(subset, "subset")
        if S.size == 0:
            raise ValueError("subset must be nonempty")
        S = np.sort(S)
        if S.size != np.unique(S).size:
            raise ValueError("subset contains duplicates")
        pos = np.searchsorted(self.unlabeled, S)
        if np.any(pos >= self.unlabeled.size) or np.any(self.unlabeled[pos] != S):
            raise ValueError("subset is not contained in the unlabeled set")
        return pos

    def q_set(self, subset) -> float:
        """Uncertainty reduction H - H' from moving ``subset`` to the labeled
        side, where H' is the total weight of ``commit(subset)``."""
        return self.total_uncertainty() - self.commit(subset).total_uncertainty()

    def q_single(self, u: int) -> float:
        """Uncertainty reduction from moving one point: its own weight plus
        every indirect shrink it causes. Equal to q_set on the singleton."""
        return self.q_set([u])

    def q_values(self) -> np.ndarray:
        """q_single for every unlabeled point, aligned with ``unlabeled``.

        q_columns of every pool point: each entry sums its column's terms in
        row order, so it does not depend on the block width. It can differ
        in the last bits from q_single, a difference of two totals that
        numpy sums pairwise. build_seed_set's sparse scores are these
        entries bit for bit, so it picks what an argmax of q_values picks
        without calling it; the tests keep q_values as the reference.
        """
        XU = self.features[self.unlabeled]
        return q_columns(XU, self.thetas, XU)

    def near_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every pool pair (j, u) with L1(x_j, x_u) < thetas[j], grouped by u.

        Positions index ``unlabeled``. Returns ``ptr, rows, dist``: u's rows,
        ascending, are ``rows[ptr[u]:ptr[u + 1]]`` and their distances the
        same slice of ``dist``. Weights only shrink as points are committed,
        so no other pair can ever lower a row's weight: these pairs carry
        every term of q and of a swap gain, for this graph and every commit
        of it. They are the graph rules' only distances: min(thetas[j],
        d(j, u)) is u's slice where it holds j and thetas[j] elsewhere, which
        is how build_seed_set lowers its chain's weights and the batch
        search writes its member columns. The list holds one entry per pair,
        2% of pool x pool at the whitewine stand-in; it holds every pair
        only when the labeled set lies far from every pool point.

        Built once per graph and kept until the graph goes; a commit starts
        without it. The build measures only the pairs that the triangle
        inequality cannot rule out. Each pool point's anchor nn[j] heads
        its group; let R_l be the largest weight in group l. A near pair
        with candidate u in group m and row j in group l has anchors at

            d(a_m, a_l) <= theta_u + d(u, j) + theta_j < R_m + 2 R_l,

        so a group's candidates need only the rows of the groups l with
        d(a_m, a_l) < (R_m + 2 R_l)(1 + _PRUNE_SLACK). Those distances come
        from the same cdist calls as a full scan, so each measured pair
        keeps its bits, and d < thetas[j] alone decides which are kept: the
        list is the full scan's bit for bit. About a fifth of pool x pool
        is measured at the whitewine stand-in; all of it when the labeled
        set lies far from the pool.

        The slack covers rounding. A computed L1 distance over D columns is
        within gamma_D = D u / (1 - D u), u = 2**-53, of the exact one,
        relative: D rounded differences and a sum of non-negative terms, in
        any order. The weights are such computed distances (the class
        invariant), so for a kept pair the exact anchor distance is below
        (R_m + 2 R_l) / (1 - gamma_D), and its computed value below
        (R_m + 2 R_l)(1 + gamma_D) / (1 - gamma_D), that is a relative
        excess of 2 gamma_D / (1 - gamma_D). The test's own bound loses at
        most 3u, relative, to its sum, its product and the rounded
        1 + _PRUNE_SLACK. So a slack above 2 gamma_D / (1 - gamma_D) + 3u
        keeps every near pair; 1e-9 does for D up to about 10**6.
        """
        if self._pairs is None:
            ptr = np.zeros(self.unlabeled.size + 1, dtype=np.int64)
            pieces = _near_pair_pieces(
                self.features, self.unlabeled, self.nn, self.thetas, ptr
            )
            np.cumsum(ptr, out=ptr)
            self._pairs = ptr, *_place_pieces(ptr, pieces)
        return self._pairs

    # -- mutation ----------------------------------------------------------

    def commit(self, subset) -> "NNBipartiteGraph":
        """New graph with ``subset`` moved to the labeled side.

        Incremental: remaining weights become min(old theta, distance to the
        nearest new member). Distance ties go to the smallest labeled index,
        as in build: among new members argmin takes the first, and a new
        member that ties the incumbent replaces it only if its index is
        smaller.
        """
        pos = self._subset_positions(subset)
        moved = self.unlabeled[pos]
        keep = np.ones(self.unlabeled.size, dtype=bool)
        keep[pos] = False
        rest = self.unlabeled[keep]
        new_labeled = np.sort(np.concatenate([self.labeled, moved]))
        d = cdist(self.features[rest], self.features[moved], "cityblock")
        best_pos = d.argmin(axis=1)
        best = d[np.arange(rest.size), best_pos]
        old_theta, old_nn = self.thetas[keep], self.nn[keep]
        cand = moved[best_pos]
        improves = (best < old_theta) | ((best == old_theta) & (cand < old_nn))
        new_theta = np.where(improves, best, old_theta)
        new_nn = np.where(improves, cand, old_nn)
        return NNBipartiteGraph(self.features, new_labeled, rest, new_nn, new_theta)


def check_bound(model_before, model_after, x_u, x_l) -> BoundDiagnostic:
    """Evaluate the prediction-shift bound between two fitted linear models.

    The weight-difference part of the prediction gap at x_u, anchored at a
    labeled point x_l, never exceeds (max_i |w*_i - w_i|) * L1(x_u, x_l); the
    anchor distance is smallest when x_l is x_u's nearest labeled neighbor,
    which is what the graph's edges store.
    """
    x_u = np.asarray(x_u, dtype=np.float64).ravel()
    x_l = np.asarray(x_l, dtype=np.float64).ravel()
    dw = np.asarray(model_after.weights, dtype=np.float64) - np.asarray(
        model_before.weights, dtype=np.float64
    )
    if not (dw.shape == x_u.shape == x_l.shape):
        raise ValueError("model widths and point widths must all agree")
    delta_u = float(abs(np.dot(dw, x_u - x_l)))
    lambda_max = float(np.max(np.abs(dw))) if dw.size else 0.0
    l1_distance = float(np.sum(np.abs(x_u - x_l)))
    if delta_u > lambda_max * l1_distance + BOUND_TOL:
        raise ValueError(
            f"bound violated: delta {delta_u} > {lambda_max * l1_distance}"
        )
    return BoundDiagnostic(
        delta_u=delta_u, lambda_max=lambda_max, l1_distance=l1_distance
    )
