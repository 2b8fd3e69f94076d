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

# Absolute slack of the prediction-shift cap for float rounding: check_bound
# and validation.bound_violations (acceptance criterion 2) both allow it.
BOUND_TOL = 1e-12

# Pairwise distances a blocked scan holds at once: near_pairs, which lazy
# greedy and the swap search read, takes max(1, _DIST_BUDGET // |U|)
# candidate rows per block, and q_columns, the dense reference behind
# q_values, scores max(1, _DIST_BUDGET // rows) candidate columns.
_DIST_BUDGET = 1 << 18


@dataclass(frozen=True)
class BoundDiagnostic:
    """One evaluation of the weight-shift prediction bound (see check_bound)."""

    delta_u: float
    lambda_max: float
    l1_distance: float

    @property
    def bound(self) -> float:
        return self.lambda_max * self.l1_distance


def _as_index_array(idx, n: int, name: str) -> np.ndarray:
    arr = np.asarray(idx, dtype=np.int64).ravel()
    arr = np.sort(arr)
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


class NNBipartiteGraph:
    """Bipartite nearest-neighbor graph over a fixed feature matrix.

    ``labeled`` and ``unlabeled`` are sorted dataset-index arrays; ``nn`` and
    ``thetas`` align with ``unlabeled``. ``features`` is held by reference and
    must not be mutated while the graph is alive.
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
        if unl.size == 0:
            nn = np.empty(0, dtype=np.int64)
            thetas = np.empty(0, dtype=np.float64)
        else:
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
        S = np.asarray(subset, dtype=np.int64).ravel()
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
        return self.q_set(np.asarray([u], dtype=np.int64))

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

        Built once per graph, from blocks of cdist candidate rows of at most
        _DIST_BUDGET distances, and kept until the graph goes; a commit
        starts without it.
        """
        if self._pairs is None:
            X, theta = self.features[self.unlabeled], self.thetas
            n = theta.size
            step = max(1, _DIST_BUDGET // max(n, 1))
            ptr = np.zeros(n + 1, dtype=np.int64)
            rows, dist = [np.empty(0, dtype=np.int32)], [np.empty(0)]
            for start in range(0, n, step):
                # Rows are candidates u: d(u, j) equals d(j, u) bit for bit,
                # since each |a - b| is symmetric and the terms sum in one
                # order. So does q_columns' d(j, u).
                d = cdist(X[start : start + step], X, "cityblock")
                flat = np.flatnonzero(d < theta)
                ptr[start + 1 : start + 1 + d.shape[0]] = np.bincount(
                    flat // n, minlength=d.shape[0]
                )
                rows.append((flat % n).astype(np.int32))
                dist.append(d.ravel()[flat])
            np.cumsum(ptr, out=ptr)
            self._pairs = ptr, np.concatenate(rows), np.concatenate(dist)
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
        if rest.size == 0:
            return NNBipartiteGraph(
                self.features,
                new_labeled,
                rest,
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.float64),
            )
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
