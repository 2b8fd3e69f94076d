"""Selection strategies: graph rules against enumeration, baselines against replay.

The forced-swap scenario is fully hand-computed: seeding the batch search
with the two worst points of the toy instance makes it perform exactly two
swaps, with the set's reduction stepping 3 -> 13 -> 16.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from alregress import (
    NNBipartiteGraph,
    StrategyConfig,
    best_subset_by_q,
    build_seed_set,
    fit,
    greedy_order,
    predict,
    select_emcm,
    select_greedy,
    select_ours_batch,
    select_ours_sequential,
    select_qbc,
    select_random,
)
from alregress.strategies import COMMITTEE_SIZE

from conftest import assert_greedy_is_fresh_scans, grid_graphs, random_graph


class TestConfig:
    def test_known_kinds_accepted(self):
        for kind in ("ours_sequential", "ours_batch", "random", "greedy", "qbc", "emcm"):
            assert StrategyConfig(kind=kind).kind == kind

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            StrategyConfig(kind="simulated_annealing")

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            StrategyConfig(kind="ours_batch", batch_k=0)

    def test_batch_size_must_be_an_integer(self):
        for k in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="batch_k must be an integer"):
                StrategyConfig(kind="ours_batch", batch_k=k)
        assert StrategyConfig(kind="ours_batch", batch_k=np.int64(3)).batch_k == 3

    def test_rejects_batch_size_on_other_kinds(self):
        for kind in ("ours_sequential", "random", "greedy", "qbc", "emcm"):
            with pytest.raises(ValueError, match="batch_k applies only to ours_batch"):
                StrategyConfig(kind=kind, batch_k=5)


class TestSequential:
    def test_toy_pick_breaks_tie_to_smallest_index(self, toy_graph):
        trace = select_ours_sequential(toy_graph)
        assert trace.chosen == 3  # q is 12 for both 3 and 4
        assert trace.score == 12.0

    def test_score_is_canonical_q(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            g, _ = random_graph(rng)
            trace = select_ours_sequential(g)
            assert trace.score == g.q_single(trace.chosen)  # bitwise

    def test_matches_size_one_enumeration(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            g, _ = random_graph(rng, n_lo=8, n_hi=18)
            subset, best_q = best_subset_by_q(g, 1)
            trace = select_ours_sequential(g)
            assert trace.chosen == int(subset[0])
            assert trace.score == best_q

    def test_empty_pool_rejected(self):
        X = np.zeros((2, 1))
        g = NNBipartiteGraph.build([0, 1], [], X)
        with pytest.raises(ValueError):
            select_ours_sequential(g)


class TestSeedSet:
    def test_toy_seed_of_two(self, toy_graph):
        # first pick 3; after committing it, 13's weight drops to 4, still best
        np.testing.assert_array_equal(build_seed_set(toy_graph, 2)[0], [3, 4])

    def test_toy_drops_over_the_whole_pool(self, toy_graph):
        # 9 takes 13 from 7 down to 4; then 13, 38 and 41 carry only their
        # own weights, and the drops add up to H = 19
        picks, drops = build_seed_set(toy_graph, 4)
        np.testing.assert_array_equal(picks, [3, 4, 5, 6])
        np.testing.assert_array_equal(drops, [12.0, 4.0, 2.0, 1.0])

    def test_first_pick_matches_sequential(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g, _ = random_graph(rng)
            k = min(3, g.unlabeled.size)
            seed = build_seed_set(g, k)[0]
            assert seed[0] == select_ours_sequential(g).chosen
            assert len(set(seed.tolist())) == k

    def test_bad_k_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            build_seed_set(toy_graph, 0)
        with pytest.raises(ValueError):
            build_seed_set(toy_graph, 5)


class TestBatch:
    def test_toy_default_seed_is_already_optimal(self, toy_graph):
        trace = select_ours_batch(toy_graph, 2)
        assert np.sort(trace.chosen).tolist() == [3, 4]
        assert trace.score == 16.0
        assert trace.swaps_performed == 0
        assert trace.q_history == (16.0,)

    def test_forced_swaps_from_worst_seed(self, toy_graph):
        # seed {38, 41}: q = 3. First pass swaps 38 out for 9 (q 13), then
        # 41 out for 13 (q 16); the rescan finds nothing better.
        trace = select_ours_batch(toy_graph, 2, seed_set=np.array([5, 6]))
        assert np.sort(trace.chosen).tolist() == [3, 4]
        assert trace.swaps_performed == 2
        assert trace.q_history == (3.0, 13.0, 16.0)
        assert trace.score == 16.0

    def test_score_is_canonical_q_set(self):
        rng = np.random.default_rng(43)
        for _ in range(15):
            g, _ = random_graph(rng, n_lo=10, n_hi=20)
            k = min(3, g.unlabeled.size)
            trace = select_ours_batch(g, k)
            assert trace.score == g.q_set(trace.chosen)  # bitwise
            assert trace.q_history[-1] == trace.score

    def test_never_below_seed_and_history_ascends(self):
        rng = np.random.default_rng(47)
        for _ in range(15):
            g, _ = random_graph(rng, n_lo=10, n_hi=22)
            k = min(4, g.unlabeled.size)
            seed = rng.choice(g.unlabeled, size=k, replace=False)
            trace = select_ours_batch(g, k, seed_set=seed)
            assert trace.score >= g.q_set(seed) - 1e-12
            hist = np.array(trace.q_history)
            assert np.all(np.diff(hist) > 0)  # every accepted swap improved
            assert len(hist) == trace.swaps_performed + 1
            assert hist[-1] == trace.score  # bitwise: both are q_set

    def test_local_optimum_verified_by_enumeration(self):
        # no single swap from the returned set may improve q_set
        rng = np.random.default_rng(53)
        for _ in range(10):
            g, _ = random_graph(rng, n_lo=8, n_hi=14)
            if g.unlabeled.size < 3:
                continue
            k = 2
            trace = select_ours_batch(g, k)
            chosen = set(np.asarray(trace.chosen).tolist())
            for u in g.unlabeled:
                if int(u) in chosen:
                    continue
                for l in sorted(chosen):
                    candidate = sorted(chosen - {l} | {int(u)})
                    assert g.q_set(candidate) <= trace.score + 1e-12

    def test_k_equal_pool_takes_everything(self, toy_graph):
        trace = select_ours_batch(toy_graph, 4)
        assert np.sort(trace.chosen).tolist() == [3, 4, 5, 6]
        assert trace.score == 19.0

    def test_k_equal_pool_scores_without_commit(self, toy_graph, monkeypatch):
        # moving the whole pool leaves no weight, so the score is H itself
        def refuse(self, subset):
            raise AssertionError("k = |pool| must not commit or call q_set")

        monkeypatch.setattr(NNBipartiteGraph, "commit", refuse)
        monkeypatch.setattr(NNBipartiteGraph, "q_set", refuse)
        trace = select_ours_batch(toy_graph, toy_graph.unlabeled.size)
        assert trace.score == toy_graph.total_uncertainty()
        assert trace.q_history == (trace.score,)

    def test_seed_validation(self, toy_graph):
        with pytest.raises(ValueError):
            select_ours_batch(toy_graph, 2, seed_set=np.array([3]))  # wrong size
        with pytest.raises(ValueError):
            select_ours_batch(toy_graph, 2, seed_set=np.array([3, 99]))
        with pytest.raises(ValueError):
            select_ours_batch(toy_graph, 0)


class TestGreedy:
    def test_toy_picks_farthest(self, toy_graph):
        trace = select_greedy(toy_graph.features, toy_graph.labeled, toy_graph.unlabeled)
        assert trace.chosen == 3
        assert trace.score == 9.0

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(59)
        for _ in range(15):
            g, X = random_graph(rng)
            trace = select_greedy(X, g.labeled, g.unlabeled)
            best_u, best_d = None, -1.0
            for u in g.unlabeled:
                d = min(
                    float(np.linalg.norm(X[u] - X[l])) for l in g.labeled
                )
                if d > best_d:
                    best_u, best_d = int(u), d
            assert trace.chosen == best_u

    def test_needs_both_sides(self):
        X = np.zeros((2, 1))
        with pytest.raises(ValueError):
            select_greedy(X, np.array([0, 1]), np.array([], dtype=np.int64))
        with pytest.raises(ValueError):
            select_greedy(X, np.array([], dtype=np.int64), np.array([0, 1]))

    @given(g=grid_graphs())
    @settings(max_examples=300, deadline=None)
    def test_order_is_one_shot_scans_on_tied_data(self, g):
        # grid rows repeat and their distances tie exactly: every step of
        # the walk is bitwise a fresh scan of the sets it has reached, and
        # every shorter order is a prefix of the full one
        X, L, U = g.features, g.labeled, g.unlabeled
        picks, scores = assert_greedy_is_fresh_scans(X, L, U, U.size)
        for n in range(1, U.size):
            short_picks, short_scores = greedy_order(X, L, U, n)
            assert short_picks.tobytes() == picks[:n].tobytes()
            assert short_scores.tobytes() == scores[:n].tobytes()
        for n in (0, U.size + 1):
            with pytest.raises(ValueError, match=f"n={n} outside"):
                greedy_order(X, L, U, n)
        with pytest.raises(ValueError, match="nonempty labeled set"):
            greedy_order(X, np.array([], dtype=np.int64), U, 1)


class TestRandom:
    def test_uniform_over_pool_and_seeded(self):
        pool = np.array([4, 7, 9, 12])
        a = select_random(pool, np.random.default_rng(5))
        b = select_random(pool, np.random.default_rng(5))
        assert a.chosen == b.chosen
        assert a.chosen in pool.tolist()

    def test_covers_the_pool(self):
        pool = np.array([1, 2, 3])
        rng = np.random.default_rng(0)
        seen = {select_random(pool, rng).chosen for _ in range(60)}
        assert seen == {1, 2, 3}

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            select_random(np.array([], dtype=np.int64), np.random.default_rng(0))


def _replay_bootstrap(features, labels, labeled, unlabeled, members, alpha, seed):
    """Reference committee: same draw discipline, plain loops."""
    rng = np.random.default_rng(seed)
    m = len(labeled)
    preds = []
    for _ in range(members):
        idx = rng.integers(0, m, size=m)
        model = fit(features[labeled][idx], labels[labeled][idx], alpha)
        preds.append(predict(model, features[unlabeled]))
    return np.stack(preds)


class TestQbc:
    def test_matches_replay(self):
        rng_data = np.random.default_rng(61)
        X = rng_data.normal(size=(30, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + rng_data.normal(scale=0.3, size=30)
        labeled = np.arange(10)
        unlabeled = np.arange(10, 30)
        trace = select_qbc(
            X, y, labeled, unlabeled,
            alpha=0.0, rng=np.random.default_rng(99),
        )
        preds = _replay_bootstrap(X, y, labeled, unlabeled, COMMITTEE_SIZE, 0.0, 99)
        variance = preds.var(axis=0)  # population variance across members
        assert trace.chosen == int(unlabeled[int(np.argmax(variance))])
        assert trace.score == float(variance.max())

    def test_deterministic_given_rng_seed(self):
        X = np.random.default_rng(67).normal(size=(20, 2))
        y = X[:, 0] * 2.0
        args = (X, y, np.arange(8), np.arange(8, 20))
        a = select_qbc(*args, rng=np.random.default_rng(1))
        b = select_qbc(*args, rng=np.random.default_rng(1))
        assert a.chosen == b.chosen and a.score == b.score

    def test_committee_of_identical_fits_scores_zero(self):
        # duplicated rows: every resample fits the same exact line
        X = np.array([[0.0], [0.0], [1.0], [1.0]] * 3)
        y = np.array([1.0, 1.0, 3.0, 3.0] * 3)
        trace = select_qbc(
            X, y, np.arange(12), np.array([0]),  # score any point
            rng=np.random.default_rng(2),
        )
        assert trace.score == pytest.approx(0.0, abs=1e-10)


class TestEmcm:
    def test_matches_replay_formula(self):
        rng_data = np.random.default_rng(71)
        X = rng_data.normal(size=(30, 3))
        y = X @ np.array([0.5, 1.5, -1.0]) + rng_data.normal(scale=0.4, size=30)
        labeled = np.arange(12)
        unlabeled = np.arange(12, 30)
        trace = select_emcm(
            X, y, labeled, unlabeled,
            alpha=0.0, rng=np.random.default_rng(7),
        )
        main = fit(X[labeled], y[labeled], 0.0)
        f_main = predict(main, X[unlabeled])
        preds = _replay_bootstrap(X, y, labeled, unlabeled, COMMITTEE_SIZE, 0.0, 7)
        aug = np.sqrt((X[unlabeled] ** 2).sum(axis=1) + 1.0)
        change = np.abs(f_main[None, :] - preds).mean(axis=0) * aug
        assert trace.chosen == int(unlabeled[int(np.argmax(change))])
        assert trace.score == float(change.max())

    def test_draws_same_bootstrap_stream_as_qbc(self):
        # both sample committee members the same way, so with one shared seed
        # their ensembles agree; scores differ only by the weighting rule
        X = np.random.default_rng(73).normal(size=(24, 2))
        y = X[:, 0] - X[:, 1]
        labeled, unlabeled = np.arange(9), np.arange(9, 24)
        q = select_qbc(X, y, labeled, unlabeled, np.random.default_rng(11), 0.0)
        e = select_emcm(X, y, labeled, unlabeled, np.random.default_rng(11), 0.0)
        assert q.chosen in unlabeled and e.chosen in unlabeled


class TestCommitteeStream:
    """The stream contract of the committee: one select_qbc or select_emcm
    call takes exactly COMMITTEE_SIZE draws of integers(0, m, size=m) from
    its rng, m labeled points, and emcm's fit on the whole labeled set takes
    none."""

    @pytest.mark.parametrize("select", [select_qbc, select_emcm])
    @pytest.mark.parametrize("m", [2, 7, 20])
    def test_advances_rng_by_the_committee_draws(self, select, m):
        X = np.random.default_rng(79).normal(size=(m + 6, 3))
        y = X @ np.array([1.0, 0.5, -2.0])
        labeled, unlabeled = np.arange(m), np.arange(m, m + 6)
        rng, replay = np.random.default_rng(13), np.random.default_rng(13)
        for _ in range(2):  # consecutive calls too
            select(X, y, labeled, unlabeled, rng)
            state = rng.bit_generator.state
            assert state != replay.bit_generator.state
            for _ in range(COMMITTEE_SIZE):
                replay.integers(0, m, size=m)
            assert state == replay.bit_generator.state
