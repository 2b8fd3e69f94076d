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

# Absolute slack of check_bound's prediction-shift cap for float rounding.
# validation.bound_violations (acceptance criterion 2) sends every draw
# through check_bound, so it allows the same slack.
BOUND_TOL = 1e-12

# Pairwise distances near_pairs holds at once: it measures each anchor
# group's candidates against only the rows its anchor can reach, in
# rectangles of at most this many distances.
_DIST_BUDGET = 1 << 18

# Terms _distances holds at once, whatever the input size: one matmul's
# differences, over an output tile of at most this many pairs and as many
# of its columns as fit.
_TILE = 1 << 15

# Near pairs that q scores hold for one block, and the swap gains
# (candidates x members) and member-column rows (rows x members) the batch
# search holds; a block has at least one candidate or row.
_SWAP_BLOCK = 1 << 16

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


def _distances(A, B, metric: str) -> np.ndarray:
    """Distances between every row of A and every row of B, (p, q), for
    ``metric`` "cityblock" (L1) or "euclidean": the bits of cdist(A, B,
    metric), which the tests keep as its reference.

    Each pair sums its per-column terms, |a - b| or (a - b)**2, in column
    order, starting from 0.0, by one add per column into a zeroed tile of
    the output; euclidean takes the square root after. That is cdist's
    order. A numpy reduction over the column axis is not: np.add.reduce
    sums in another order, and its bits can differ from 8 columns on. So a
    distance depends on its own two rows only, never on the shapes, and
    d(a, b) equals d(b, a), since each term is symmetric.

    A column's differences a - b over a tile are one matmul of [a, 1] and
    [1, -b]. Both products are exact, since one factor is 1, so the one
    rounding is that of a - b, whatever the BLAS kernel or its order. A
    broadcast subtract gives the same bits, but when neither side of the
    tile is long numpy buffers it, at 3-4x the matmul's time, and the
    kernel took twice as long with it. One matmul covers as many columns
    as fit in _TILE terms, so a small output costs few calls. Beyond its
    output the kernel holds _TILE terms and the [a, 1] and [1, -b] blocks
    of one matmul, at most 2 _TILE floats each, whatever the input size.
    It reads its inputs a column block at a time, so a caller that calls
    it often on one large input can hold that input in column order.
    """
    if metric not in ("cityblock", "euclidean"):
        raise ValueError(f"unknown metric {metric!r}")
    A, B = np.asarray(A, dtype=np.float64), np.asarray(B, dtype=np.float64)
    (p, d), q = A.shape, B.shape[0]
    out = np.zeros((p, q))
    width = max(1, min(q, _TILE))
    height = max(1, min(p, _TILE // width))
    cols = max(1, min(d, _TILE // (height * width)))  # columns per matmul
    terms = np.empty(cols * height * width)
    lhs = np.ones((cols, height, 2))  # [a, 1] per column
    rhs = np.ones((cols, 2, width))  # [1, -b] per column
    for r in range(0, p, height):
        rs = slice(r, r + height)
        for s in range(0, q, width):
            cs = slice(s, s + width)
            acc = out[rs, cs]
            h, w = acc.shape
            for c in range(0, d, cols):
                n = min(cols, d - c)
                a, b = lhs[:n, :h], rhs[:n, :, :w]
                a[:, :, 0] = A[rs, c : c + n].T
                np.negative(B[cs, c : c + n].T, out=b[:, 1])
                t = terms[: n * h * w].reshape(n, h, w)
                np.matmul(a, b, out=t)
                if metric == "cityblock":
                    np.abs(t, out=t)
                else:
                    np.multiply(t, t, out=t)
                for column_terms in t:
                    acc += column_terms
    if metric == "euclidean":
        np.sqrt(out, out=out)
    return out


def _near_pair_pieces(features, unlabeled, nn, thetas, ptr) -> list:
    """near_pairs' pairs as (candidates, rows, dist) pieces, candidate by
    candidate, each candidate u's pair count written to ptr[u + 1].

    One anchor group at a time, in ascending anchor order: one row of L1
    distances from its anchor to every anchor picks the groups whose rows
    it can reach (see near_pairs). Those rows are gathered, all of the pool
    too, and its candidates, ascending, meet them in slices of at most
    _DIST_BUDGET distances. A group that reaches no row, which only a group
    of zero weights can, adds no piece.
    """
    X = features[unlabeled]
    anchors, group = np.unique(nn, return_inverse=True)
    radius = np.zeros(anchors.size)
    np.maximum.at(radius, group, thetas)
    A = features[anchors]
    pieces = []
    for m in range(anchors.size):
        cands = np.flatnonzero(group == m)  # ascending positions
        bound = radius[m] + 2.0 * radius
        bound *= 1.0 + _PRUNE_SLACK
        reach = _distances(A[m : m + 1], A, "cityblock")[0] < bound
        rows = np.flatnonzero(reach[group])  # ascending positions
        width = rows.size
        if not width:
            continue
        XR, TR = X[rows], thetas[rows]
        step = max(1, _DIST_BUDGET // width)
        for s in range(0, cands.size, step):
            # Rows are candidates u: d(u, j) equals d(j, u) bit for bit
            # (see _distances).
            c = cands[s : s + step]
            d = _distances(X[c], XR, "cityblock")
            flat = np.flatnonzero(d < TR)
            ptr[c + 1] = np.bincount(flat // width, minlength=c.size)
            j = rows[flat % width]
            pieces.append((c, j.astype(np.int32), d.ravel()[flat]))
            del d
    return pieces


def _pair_index(ptr, block) -> np.ndarray:
    """Indices into a near-pair list of every pair of the candidate
    positions ``block``, in block order."""
    lens = ptr[block + 1] - ptr[block]
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(ptr[block] - ends + lens, lens)


def _pairs_before(ptr, candidates):
    """Near pairs of candidates[:i] for every i from 0 to candidates.size."""
    out = np.zeros(candidates.size + 1, dtype=np.int64)
    np.cumsum(np.diff(ptr)[candidates], out=out[1:])
    return out


def _block_stop(pairs_before, i, width):
    """End of the candidate block that starts at i: at most ``width``
    candidates and _SWAP_BLOCK near pairs, and at least one candidate.
    ``pairs_before`` is _pairs_before's count, or the near-pair list's ptr
    for a range of pool positions."""
    fits = np.searchsorted(pairs_before, pairs_before[i] + _SWAP_BLOCK, "right") - 1
    return max(i + 1, min(i + width, int(fits)))


def _sparse_scores(pairs, weights, candidates=None):
    """Sum of max(0, weights[j] - d(j, u)) over the near pairs of each
    candidate position u, in row order, in blocks of at most _SWAP_BLOCK
    pairs. A row that holds no near pair of u adds nothing, since weights
    never exceed the weights the pairs were listed under. ``candidates``
    None scores every pool position, each block's pairs one slice of the
    list."""
    ptr, rows, dist = pairs
    if candidates is None:
        before, size = ptr, ptr.size - 1
    else:
        before, size = _pairs_before(ptr, candidates), candidates.size
    out = np.empty(size)
    i = 0
    while i < size:
        stop = _block_stop(before, i, size)
        if candidates is None:
            idx, lens = slice(ptr[i], ptr[stop]), np.diff(ptr[i : stop + 1])
        else:
            block = candidates[i:stop]
            idx, lens = _pair_index(ptr, block), ptr[block + 1] - ptr[block]
        at = np.repeat(np.arange(stop - i), lens)  # each pair's block slot
        terms = np.maximum(weights[rows[idx]] - dist[idx], 0.0)
        out[i:stop] = np.bincount(at, weights=terms, minlength=stop - i)
        i = stop
    return out


def _place_pieces(ptr, pieces) -> tuple[np.ndarray, np.ndarray]:
    """rows and dist of the near-pair list from its (candidates, rows, dist)
    pieces, each written into its candidates' ``ptr`` slices (_pair_index)
    and freed."""
    rows, dist = np.empty(ptr[-1], dtype=np.int32), np.empty(ptr[-1])
    while pieces:
        c, j, d = pieces.pop()
        at = _pair_index(ptr, c)
        rows[at], dist[at] = j, d
    return rows, dist


class NNBipartiteGraph:
    """Bipartite nearest-neighbor graph over a fixed feature matrix.

    ``labeled`` and ``unlabeled`` are sorted dataset-index arrays; ``nn`` and
    ``thetas`` align with ``unlabeled``. ``features`` is held by reference and
    must not be mutated while the graph is alive.

    Invariant: ``thetas[j]`` is the L1 distance from ``unlabeled[j]`` to its
    anchor ``nn[j]`` as _distances computes it, not a value rounded any
    other way.
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
        dists = _distances(X[unl], X[lab], "cityblock")
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

        Each entry is u's sparse score, as build_seed_set reads it, over
        this graph's near_pairs. A row outside u's pairs would add +0.0,
        which leaves a non-negative sum's bits alone, so the entry is the
        dense row-order sum over the pool bit for bit, whatever the block
        width; the tests keep that sum as the reference. It can differ in
        the last bits from q_single, a difference of two totals that numpy
        sums pairwise.

        The graph builds and keeps the list. When the labeled set lies far
        from the pool, every pair is near and the list holds pool x pool
        entries: at a 1,500-point pool a call took 75 ms and 54 MB on one
        AVX-512 vCPU, against 16 ms and 2.2 MB for the dense scan it
        replaced. No trial calls q_values.
        """
        return _sparse_scores(self.near_pairs(), self.thetas)

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
        d(a_m, a_l) < (R_m + 2 R_l)(1 + _PRUNE_SLACK). A distance from
        _distances depends on its two rows only, so each measured pair has
        a full scan's bits, and d < thetas[j] alone decides which are kept:
        the list is the full scan's bit for bit. About a fifth of pool x pool
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
        d = _distances(self.features[rest], self.features[moved], "cityblock")
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
