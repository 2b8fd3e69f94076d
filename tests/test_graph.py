"""Graph construction, uncertainty scores, and the prediction-shift bound.

The reference implementations are plain python loops: an O(n*m) scan for
nearest labeled neighbors, and rebuild-the-graph differencing for the
reduction scores (conftest). The vectorized module must agree with them exactly.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from alregress import (
    BoundDiagnostic,
    LinearModel,
    NNBipartiteGraph,
    check_bound,
    fit,
    select_ours_batch,
)
from alregress import graph as graph_module

from conftest import (
    assert_near_pairs_are_reference,
    clustered_graph,
    grid_graphs,
    near_pairs_reference,
    q_by_rebuild,
    q_values_reference,
    random_graph,
    stand_in_graph,
)


def nn_scan(labeled, unlabeled, X):
    """Reference: per unlabeled point, smallest L1 distance to any labeled point.

    Ties go to the smallest labeled index.
    """
    nn, thetas = [], []
    for u in unlabeled:
        best_l, best_d = None, None
        for l in labeled:
            d = float(np.abs(X[u] - X[l]).sum())
            if best_d is None or d < best_d:
                best_l, best_d = l, d
        nn.append(best_l)
        thetas.append(best_d)
    return np.array(nn), np.array(thetas)


class TestDistances:
    """graph._distances against scipy's cdist, its slow reference."""

    @given(
        data=st.data(),
        metric=st.sampled_from(["cityblock", "euclidean"]),
        tile=st.sampled_from([graph_module._TILE, 64, 500]),
    )
    @settings(max_examples=300, deadline=None)
    def test_bits_equal_cdist(self, data, metric, tile):
        # one row on either side, up to 120 columns, integer grids with
        # duplicate rows and exact ties, scales from 1e-6 to 1e6, and tiles
        # that cut the output into blocks of every shape
        p, q = data.draw(
            st.one_of(
                st.tuples(st.just(1), st.integers(1, 40)),
                st.tuples(st.integers(1, 40), st.just(1)),
                st.tuples(st.integers(1, 40), st.integers(1, 40)),
            )
        )
        d = data.draw(st.integers(1, 120))
        scale = 10.0 ** data.draw(st.integers(-6, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if data.draw(st.booleans()):
            side = data.draw(st.integers(1, 3))
            X = rng.integers(-side, side + 1, size=(p + q, d)) * scale
        else:
            X = rng.normal(size=(p + q, d)) * scale
        A, B = X[:p], X[p:]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(graph_module, "_TILE", tile)
            got = graph_module._distances(A, B, metric)
        assert got.tobytes() == cdist(A, B, metric).tobytes()

    def test_temporaries_stay_within_tiles(self):
        # beyond its output, the kernel holds a tile of terms and one
        # matmul's [a, 1] and [1, -b] blocks, whatever the input size
        rng = np.random.default_rng(0)
        for p, q, d in [(3000, 1, 5), (1, 3000, 5), (600, 600, 5), (50, 50, 400)]:
            A, B = rng.normal(size=(p, d)), rng.normal(size=(q, d))
            tracemalloc.start()
            try:
                graph_module._distances(A, B, "cityblock")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            extra = peak - 8 * p * q
            assert extra <= 8 * 5 * graph_module._TILE + 4096, (p, q, d, peak)

    def test_unknown_metric_raises(self):
        with pytest.raises(ValueError, match="unknown metric 'sqeuclidean'"):
            graph_module._distances(np.ones((2, 2)), np.ones((2, 2)), "sqeuclidean")


class TestBuild:
    def test_toy_weights(self, toy_graph):
        assert toy_graph.thetas.tolist() == [9.0, 7.0, 2.0, 1.0]
        assert toy_graph.nn.tolist() == [0, 1, 2, 2]
        assert toy_graph.total_uncertainty() == 19.0

    def test_matches_scan_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            g, X = random_graph(rng)
            nn, thetas = nn_scan(g.labeled, g.unlabeled, X)
            np.testing.assert_array_equal(g.nn, nn)
            np.testing.assert_array_equal(g.thetas, thetas)

    def test_tie_breaks_to_smallest_labeled_index(self):
        # unlabeled point equidistant from both labeled points
        X = np.array([[0.0], [2.0], [1.0]])
        g = NNBipartiteGraph.build([1, 0], [2], X)
        assert g.neighbor_of(2) == 0

    def test_duplicate_points_get_zero_weight(self):
        X = np.array([[3.0, 1.0], [3.0, 1.0], [9.0, 9.0]])
        g = NNBipartiteGraph.build([0], [1, 2], X)
        assert g.theta(1) == 0.0

    def test_rejects_overlap_and_empty_labeled(self):
        X = np.zeros((3, 1))
        with pytest.raises(ValueError):
            NNBipartiteGraph.build([0, 1], [1, 2], X)
        with pytest.raises(ValueError):
            NNBipartiteGraph.build([], [0, 1], X)
        # an empty pool is legal: it is what committing everything leaves
        g = NNBipartiteGraph.build([0, 1, 2], [], X)
        assert g.total_uncertainty() == 0.0

    def test_lookup_unknown_index_raises(self, toy_graph):
        with pytest.raises(ValueError):
            toy_graph.theta(0)  # labeled, not unlabeled
        with pytest.raises(ValueError):
            toy_graph.neighbor_of(99)


class TestScores:
    def test_toy_singletons(self, toy_graph):
        got = {u: toy_graph.q_single(u) for u in (3, 4, 5, 6)}
        assert got == {3: 12.0, 4: 12.0, 5: 2.0, 6: 1.0}

    def test_toy_vector_matches_singletons(self, toy_graph):
        vec = toy_graph.q_values()
        singles = [toy_graph.q_single(u) for u in toy_graph.unlabeled]
        assert vec.tolist() == singles

    def test_q_single_matches_rebuild(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g, _ = random_graph(rng)
            for u in g.unlabeled[: min(6, len(g.unlabeled))]:
                assert g.q_single(int(u)) == pytest.approx(
                    q_by_rebuild(g, [int(u)]), abs=1e-9
                )

    def test_q_set_matches_rebuild(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            g, _ = random_graph(rng)
            if len(g.unlabeled) < 3:
                continue
            pick = rng.choice(g.unlabeled, size=3, replace=False)
            assert g.q_set(pick.tolist()) == pytest.approx(
                q_by_rebuild(g, pick.tolist()), abs=1e-9
            )

    def test_q_set_full_pool_recovers_everything(self, toy_graph):
        assert toy_graph.q_set([3, 4, 5, 6]) == 19.0

    def test_q_set_rejects_bad_subset(self, toy_graph):
        with pytest.raises(ValueError):
            toy_graph.q_set([])
        with pytest.raises(ValueError):
            toy_graph.q_set([0])  # labeled point
        with pytest.raises(ValueError):
            toy_graph.q_set([3, 3])

    def test_superset_never_scores_lower(self):
        # adding a point to the moved set cannot reduce the reduction
        rng = np.random.default_rng(17)
        for _ in range(25):
            g, _ = random_graph(rng)
            pool = g.unlabeled.tolist()
            if len(pool) < 2:
                continue
            a, b = rng.choice(pool, size=2, replace=False).tolist()
            assert g.q_set([a, b]) >= g.q_set([a]) - 1e-12


def far_labeled_graph(n=300, d=3):
    """A pool around the origin and one labeled point 100 units away: every
    pool pair is near, so the near-pair list holds pool x pool entries."""
    rng = np.random.default_rng(19)
    X = np.vstack([np.full((1, d), 100.0), rng.normal(size=(n - 1, d))])
    g = NNBipartiteGraph.build([0], np.arange(1, n), X)
    assert g.near_pairs()[0][-1] == (n - 1) ** 2
    return g


class TestQValuesBudget:
    """q_values sums each candidate's near pairs in blocks of at most
    _SWAP_BLOCK pairs; its bits equal q_values_reference, the dense
    row-order sum, whatever that width."""

    @pytest.mark.parametrize("block", [1, 7, None])  # None: the default
    def test_bits_equal_column_loop(self, monkeypatch, block):
        continuous = clustered_graph(3, n=437)
        rng = np.random.default_rng(4)
        X = rng.integers(0, 4, size=(301, 2)).astype(float)  # duplicates, ties
        grid = NNBipartiteGraph.build(np.arange(5), np.arange(5, 301), X)
        if block is not None:
            monkeypatch.setattr(graph_module, "_SWAP_BLOCK", block)
        for g in (continuous, grid, far_labeled_graph()):
            got = g.q_values()
            assert got.tobytes() == q_values_reference(g, columns=1).tobytes()

    @given(g=grid_graphs(), block=st.sampled_from([1, 7, 1 << 16]))
    @settings(max_examples=100, deadline=None)
    def test_grid_bits_equal_reference(self, g, block):
        # duplicate rows and exact ties d == theta, in blocks of every width
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_SWAP_BLOCK", block)
            got = g.q_values()
        assert got.tobytes() == q_values_reference(g).tobytes()

    def test_memory_bounded_by_budget(self):
        """A 2,000-point pool, its near-pair list built by this call, peaks
        within two budgets of distances (4.2 MB), not at a pool x pool
        matrix (32 MB)."""
        g = clustered_graph(7, n=2040)
        pool = g.unlabeled.size
        budget_bytes = graph_module._DIST_BUDGET * 8
        tracemalloc.start()
        try:
            g.q_values()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * budget_bytes, f"peak {peak} bytes at pool {pool}"
        assert 2 * budget_bytes < pool * pool * 8 / 5


# the table shapes the protocol runs, whitewine's left to the full-size test
SMALL_TABLE_SHAPES = {
    "yacht": (308, 6),
    "pm10": (500, 7),
    "housing": (506, 13),
    "concrete": (1030, 8),
    "redwine": (1599, 11),
}


def counted_distances(monkeypatch):
    """A list that collects, per distance kernel call the graph module
    makes, the number of distances it computes."""
    sizes = []
    real_distances = graph_module._distances

    def distances_spy(a, b, metric):
        sizes.append(len(a) * len(b))
        return real_distances(a, b, metric)

    monkeypatch.setattr(graph_module, "_distances", distances_spy)
    return sizes


class TestNearPairs:
    @given(
        g=grid_graphs(max_n=40),
        budget=st.one_of(st.just(graph_module._DIST_BUDGET), st.integers(1, 200)),
    )
    @settings(max_examples=300, deadline=None)
    def test_grid_graphs(self, g, budget):
        # duplicate rows and exact ties d == theta, which are left out; a
        # small budget cuts the pool into row blocks of every shape
        with pytest.MonkeyPatch.context() as m:
            m.setattr(graph_module, "_DIST_BUDGET", budget)
            assert_near_pairs_are_reference(g)

    @pytest.mark.parametrize("split_seed", [0, 1, 2])
    @pytest.mark.parametrize("shape", list(SMALL_TABLE_SHAPES))
    def test_table_stand_ins(self, shape, split_seed):
        assert_near_pairs_are_reference(
            stand_in_graph(split_seed, *SMALL_TABLE_SHAPES[shape])
        )

    def test_far_labeled_point_makes_every_pair_near(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 3))
        X[0] += 100.0
        g = NNBipartiteGraph.build([0], np.arange(1, 300), X)
        assert_near_pairs_are_reference(g)
        assert g.near_pairs()[1].size == 299 * 299

    def test_one_point_pool(self):
        X = np.array([[0.0, 1.0], [3.0, 1.0]])
        g = NNBipartiteGraph.build([0], [1], X)
        assert_near_pairs_are_reference(g)
        ptr, rows, dist = g.near_pairs()
        assert ptr.tolist() == [0, 1] and rows.tolist() == [0]
        assert dist.tolist() == [0.0]

    @pytest.mark.parametrize("budget", [1, 5000, 30000, 1 << 18])
    def test_blocks_with_a_partial_last_block(self, monkeypatch, budget):
        # a 437-point pool: the two middle budgets cut it into several
        # blocks, the last one short; 1 takes one candidate at a time, the
        # last budget whole groups at once
        monkeypatch.setattr(graph_module, "_DIST_BUDGET", budget)
        assert_near_pairs_are_reference(clustered_graph(3, n=477))

    def test_clustered_pool_measures_under_half(self, monkeypatch):
        # the anchors rule out most pairs: a return to the full scan fails
        g = clustered_graph(7, n=2040)
        sizes = counted_distances(monkeypatch)
        assert_near_pairs_are_reference(g)
        pool = g.unlabeled.size
        assert sum(sizes) < pool * pool / 2, f"{sum(sizes)} of {pool}^2"

    def test_collinear_anchors_at_the_triangle_bound(self):
        # On a line, with integers, d(a_m, a_l) = theta_u + d(u, j) + theta_j
        # exactly. Anchors 0 and 9k; u = 2k (theta 2k) and j = 5k (theta
        # 4k) pair up, d(u, j) = 3k < 4k. The anchor distance, 9k, passes
        # R_m + 2 R_l = 10k but not 2 R_m + R_l = 8k, the bound with the
        # group roles swapped, nor R_m + R_l. Each copy sits 100 units up
        # the second axis from the one before. Each group's anchor test
        # alone picks the rows it measures.
        copies = range(1, 6)
        X = np.array(
            [[x * k, 100.0 * k] for k in copies for x in (0, 9, 2, 5)]
        )  # a_m, a_l, u, j
        labeled = np.flatnonzero(np.arange(X.shape[0]) % 4 < 2)
        pool = np.flatnonzero(np.arange(X.shape[0]) % 4 >= 2)
        g = NNBipartiteGraph.build(labeled, pool, X)
        assert g.thetas.tolist() == [t * k for k in copies for t in (2, 4)]
        assert_near_pairs_are_reference(g)
        ptr, rows, _ = g.near_pairs()
        # u's slice holds j and u itself; j's holds only j
        assert np.diff(ptr).tolist() == [2, 1] * len(copies)
        assert rows.tolist() == [r for i in range(0, 10, 2) for r in (i, i + 1, i + 1)]

    def test_identical_rows_measure_no_pool_pair(self, monkeypatch):
        # every weight is 0, so no pair is near and no anchor reaches a row
        X = np.ones((400, 3))
        g = NNBipartiteGraph.build(np.arange(10), np.arange(10, 400), X)
        sizes = counted_distances(monkeypatch)
        ptr, rows, dist = g.near_pairs()
        assert not ptr.any() and rows.size == 0 and dist.size == 0
        assert sum(sizes) == 1  # anchor 0 against itself
        assert_near_pairs_are_reference(g)

    def test_half_labeled_many_anchors(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(1000, 4))
        g = NNBipartiteGraph.build(np.arange(0, 1000, 2), np.arange(1, 1000, 2), X)
        assert np.unique(g.nn).size > 250
        assert_near_pairs_are_reference(g)

    def test_build_peak_within_reference(self):
        # the clustered pool: the build holds no more than the one pool x
        # pool cdist of the reference, nor more than twice its list and two
        # budgets of distances
        g = clustered_graph(7, n=2040)
        peaks = []
        for build in (near_pairs_reference, lambda g: g.near_pairs()):
            g._pairs = None
            tracemalloc.start()
            try:
                build(g)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        reference, pruned = peaks
        list_bytes = 12 * g.near_pairs()[1].size
        assert pruned <= reference, peaks
        assert pruned < 2 * list_bytes + 2 * 8 * graph_module._DIST_BUDGET, peaks


class TestCommit:
    def test_commit_equals_rebuild(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g, X = random_graph(rng)
            if len(g.unlabeled) < 2:
                continue
            moved = rng.choice(g.unlabeled, size=2, replace=False).tolist()
            inc = g.commit(moved)
            new_labeled = sorted(set(g.labeled.tolist()) | set(moved))
            new_unlabeled = [u for u in g.unlabeled.tolist() if u not in set(moved)]
            ref = NNBipartiteGraph.build(new_labeled, new_unlabeled, X)
            np.testing.assert_array_equal(inc.labeled, ref.labeled)
            np.testing.assert_array_equal(inc.unlabeled, ref.unlabeled)
            np.testing.assert_array_equal(inc.nn, ref.nn)
            np.testing.assert_array_equal(inc.thetas, ref.thetas)

    def test_commit_keeps_incumbent_on_distance_tie(self):
        # point 2 sits exactly between old neighbor 0 and newly moved 1
        X = np.array([[0.0], [2.0], [1.0], [1.5]])
        g = NNBipartiteGraph.build([0], [1, 2, 3], X)
        assert g.neighbor_of(2) == 0
        g2 = g.commit([1])
        assert g2.neighbor_of(2) == 0  # tie: stays with the old edge
        assert g2.neighbor_of(3) == 1  # strictly closer: switched
        # mirrored: the new member ties with a smaller index than the
        # incumbent, so it takes the edge, as a fresh build would
        X = np.array([[0.0], [2.0], [1.0]])
        assert NNBipartiteGraph.build([1], [0, 2], X).commit([0]).neighbor_of(2) == 0

    @given(g=grid_graphs(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_commit_equals_rebuild_on_grid(self, g, data):
        # integer grids are full of exact distance ties and duplicate rows
        moved = data.draw(
            st.lists(st.sampled_from(g.unlabeled.tolist()), min_size=1, unique=True)
        )
        inc = g.commit(moved)
        ref = NNBipartiteGraph.build(inc.labeled, inc.unlabeled, g.features)
        np.testing.assert_array_equal(inc.nn, ref.nn)
        np.testing.assert_array_equal(inc.thetas, ref.thetas)
        chain = g
        for u in sorted(moved):  # one commit per member, as labeling goes
            chain = chain.commit([u])
        np.testing.assert_array_equal(chain.nn, inc.nn)
        np.testing.assert_array_equal(chain.thetas, inc.thetas)

    def test_commit_of_everything_empties_the_pool(self, toy_graph):
        g = toy_graph.commit([3, 4, 5, 6])
        assert g.unlabeled.size == 0
        assert g.total_uncertainty() == 0.0
        assert g.labeled.tolist() == [0, 1, 2, 3, 4, 5, 6]


class TestIndexInputs:
    """Index arguments hold integers. A cast would truncate a float (0.9 to
    row 0, 1.7 to row 1) and read a bool as row 0 or 1, so both raise; any
    integer dtype passes, and so does empty input where a set may be empty."""

    X = np.arange(14.0).reshape(7, 2)

    @pytest.mark.parametrize("bad,dtype", [
        ([0.9], "float64"), (np.array([1.0]), "float64"), ([True], "bool"),
    ])
    def test_build(self, bad, dtype):
        with pytest.raises(
            ValueError, match=f"^labeled indices must be integers, got {dtype}$"
        ):
            NNBipartiteGraph.build(bad, [2, 3], self.X)
        with pytest.raises(
            ValueError, match=f"^unlabeled indices must be integers, got {dtype}$"
        ):
            NNBipartiteGraph.build([4], bad, self.X)

    def test_build_takes_any_integer_dtype_and_an_empty_pool(self):
        g = NNBipartiteGraph.build(
            np.array([0], dtype=np.int32), np.array([1, 2], dtype=np.uint8), self.X
        )
        assert g.labeled.dtype == g.unlabeled.dtype == np.int64
        assert g.unlabeled.tolist() == [1, 2]
        assert NNBipartiteGraph.build([0], np.array([]), self.X).unlabeled.size == 0

    @pytest.mark.parametrize("bad,dtype", [
        ([3.7], "float64"), (np.array([4.0]), "float64"), ([True], "bool"),
    ])
    def test_subset_arguments(self, toy_graph, bad, dtype):
        message = f"^subset indices must be integers, got {dtype}$"
        for call in (
            toy_graph.commit,
            toy_graph.q_set,
            lambda s: toy_graph.q_single(s[0]),
            lambda s: select_ours_batch(toy_graph, 1, seed_set=s),
        ):
            with pytest.raises(ValueError, match=message):
                call(bad)

    def test_integer_subsets_still_score(self, toy_graph):
        assert toy_graph.q_single(np.int32(3)) == 12.0
        assert toy_graph.q_set(np.array([5, 6], dtype=np.uint16)) == 3.0
        assert toy_graph.commit(np.int64(3)).labeled.tolist() == [0, 1, 2, 3]
        with pytest.raises(ValueError, match="^subset must be nonempty$"):
            toy_graph.q_set([])


class TestBound:
    def test_bound_fields_and_value(self):
        d = BoundDiagnostic(delta_u=1.0, lambda_max=2.0, l1_distance=3.0)
        assert d.bound == 6.0

    @staticmethod
    def _model(w, b=0.0):
        return LinearModel(weights=np.asarray(w, dtype=np.float64), bias=b,
                           ridge_alpha=0.0)

    def test_known_values(self):
        before = self._model([1.0, 0.0])
        after = self._model([1.5, -1.0])  # dw = [0.5, -1.0], lambda_max = 1.0
        diag = check_bound(before, after, x_u=[2.0, 3.0], x_l=[1.0, 1.0])
        # delta = |0.5*1 - 1.0*2| = 1.5, L1 distance = 3
        assert diag.delta_u == pytest.approx(1.5)
        assert diag.lambda_max == 1.0
        assert diag.l1_distance == 3.0
        assert diag.bound == 3.0

    def test_holds_on_random_model_pairs(self):
        # the delta is a dot product against dw, so it can never exceed
        # max|dw_i| * sum|x_u - x_l|; spot this on random refits
        rng = np.random.default_rng(29)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            X = rng.normal(size=(12, d))
            y = rng.normal(size=12)
            m0 = fit(X[:8], y[:8])
            m1 = fit(X, y)
            diag = check_bound(m0, m1, X[9], X[3])
            assert diag.delta_u <= diag.bound + 1e-9

    def test_tight_case_and_width_mismatch(self):
        # aligned signs make the inequality tight: delta == bound exactly
        before = self._model([0.0, 0.0])
        after = self._model([2.0, 2.0])
        diag = check_bound(before, after, x_u=[1.0, 1.0], x_l=[0.0, 0.0])
        assert diag.delta_u == diag.bound == 4.0
        with pytest.raises(ValueError):
            check_bound(self._model([0.0]), self._model([1.0]),
                        [1.0, 0.0], [0.0, 0.0])

    @given(
        coords=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5),
        dw=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=5),
        scale=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_weight_shift_respects_bound(self, coords, dw, scale):
        n = min(len(coords), len(dw))
        x_l = np.array(coords[:n])
        x_u = x_l + scale * np.sign(x_l + 0.25)
        before = self._model(np.zeros(n))
        after = self._model(np.array(dw[:n]))
        diag = check_bound(before, after, x_u, x_l)
        assert diag.delta_u <= diag.bound + 1e-9

