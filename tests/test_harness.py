"""End-to-end trials and experiments on synthetic data, plus CSV emission.

A 120-row synthetic dataset splits 36 test / 1 initial / 83 pool, so the
sequential protocol queries ceil(0.02 * 83) = 2 points per round and the
batch takes round-half-up(0.20 * 83) = 17 at once.
"""

import multiprocessing
import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest

from alregress import (
    Dataset,
    ExperimentConfig,
    NNBipartiteGraph,
    OracleConfig,
    RegressionSpec,
    StrategyConfig,
    build_model_space,
    emit_report,
    make_split,
    run_experiment,
    run_trial,
    run_validation,
    write_trace_log,
)
from alregress import exhaustive, experiment, validation

from conftest import (
    assert_same_trial,
    assert_trials_are_reference,
    openblas_cores,
    pinned,
    reference_trial,
    synthetic_dataset,
    thread_counts,
)


def small_config(dataset, strategies, **overrides):
    kwargs = dict(
        dataset=dataset,
        strategies=tuple(StrategyConfig(kind=s) for s in strategies),
        trials=2,
        rounds=5,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestRegressionSpec:
    def test_alpha_defaults(self):
        assert RegressionSpec(kind="linear").resolved_alpha() == 0.0
        assert RegressionSpec(kind="ridge").resolved_alpha() == 1.0
        assert RegressionSpec(kind="polynomial").resolved_alpha() == 1.0
        assert RegressionSpec(kind="ridge", alpha=0.25).resolved_alpha() == 0.25

    def test_feature_spec_kinds(self):
        ds = synthetic_dataset(2, d=4)
        linear = build_model_space(ds, RegressionSpec(kind="linear"))
        assert linear.features.shape == (120, 4)
        poly = build_model_space(ds, RegressionSpec(kind="polynomial", degree=3))
        assert poly.features.shape == (120, 34)  # C(7,3) - 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RegressionSpec(kind="svm")
        with pytest.raises(ValueError):
            RegressionSpec(kind="ridge", alpha=-1.0)
        for alpha in (np.inf, np.nan):
            with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
                RegressionSpec(kind="ridge", alpha=alpha)
        # bools are numbers in Python, and "1" used to fail late, in a
        # comparison, with a TypeError that did not name the field
        for alpha in (True, False, "1", np.bool_(True), [1.0]):
            with pytest.raises(ValueError, match="alpha must be a real number"):
                RegressionSpec(kind="ridge", alpha=alpha)
        for alpha in (2, np.int64(2), np.float32(2.0), np.float64(2.0)):
            assert RegressionSpec(kind="ridge", alpha=alpha).resolved_alpha() == 2.0
        with pytest.raises(ValueError):
            RegressionSpec(kind="polynomial", degree=0)

    def test_degree_must_be_an_integer(self):
        for degree in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="degree must be an integer"):
                RegressionSpec(kind="polynomial", degree=degree)
        assert RegressionSpec(kind="polynomial", degree=np.int64(3)).degree == 3


class TestExperimentConfig:
    def test_rejects_duplicate_strategies(self):
        ds = synthetic_dataset(0)
        with pytest.raises(ValueError, match="duplicate"):
            small_config(ds, ["random", "random"])

    def test_rejects_empty_strategies(self):
        with pytest.raises(ValueError):
            small_config(synthetic_dataset(0), [])

    @pytest.mark.parametrize("field", ["trials", "rounds", "base_seed"])
    def test_counts_must_be_integers(self, field):
        ds = synthetic_dataset(0)
        for value in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                small_config(ds, ["random"], **{field: value})
        assert getattr(small_config(ds, ["random"], **{field: np.int64(2)}), field) == 2

    def test_rejects_fields_of_the_wrong_type(self):
        # each used to pass here and fail inside run_experiment with an
        # AttributeError that named no field
        ds = synthetic_dataset(0)
        for overrides, message in (
            ({"dataset": "whitewine"},
             "^dataset must be Dataset or DatasetManifest, got str$"),
            ({"regression": "ridge"}, "^regression must be RegressionSpec, got str$"),
            ({"oracle": "gaussian"}, "^oracle must be OracleConfig, got str$"),
            ({"strategies": ("random",)},
             "^strategies entries must be StrategyConfig, got str$"),
            ({"strategies": StrategyConfig(kind="random")},
             "^strategies must be tuple or list, got StrategyConfig$"),
            ({"strategies": 5},
             "^strategies must be tuple or list, got int$"),
        ):
            kwargs = dict(dataset=ds, strategies=(StrategyConfig(kind="random"),))
            kwargs.update(overrides)
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(**kwargs)


class TestModelSpace:
    def test_identity_space_is_standardized(self):
        ds = synthetic_dataset(1)
        space = build_model_space(ds, RegressionSpec(kind="linear"))
        np.testing.assert_allclose(space.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(space.features.std(axis=0), 1.0, atol=1e-12)
        np.testing.assert_array_equal(space.targets, ds.targets)

    def test_polynomial_space_width_and_scaling(self):
        ds = synthetic_dataset(2, d=4)
        space = build_model_space(ds, RegressionSpec(kind="polynomial", degree=2))
        assert space.features.shape == (120, 14)  # C(6,2) - 1
        np.testing.assert_allclose(space.features.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(space.features.std(axis=0), 1.0, atol=1e-9)


class TestSequentialTrial:
    def test_bookkeeping(self):
        config = small_config(synthetic_dataset(3), ["ours_sequential"], rounds=10)
        result = run_trial(config, config.strategies[0], trial_seed=0)
        assert len(result.rmse_per_round) == 11
        assert len(result.queried_indices) == 20  # 2 per round
        assert len(set(result.queried_indices)) == 20
        assert result.query_rounds == [r for r in range(1, 11) for _ in range(2)]
        assert result.strategy == "ours_sequential" and result.seed == 0

    def test_deterministic_rerun(self):
        config = small_config(synthetic_dataset(4), ["qbc"])
        a = run_trial(config, config.strategies[0], trial_seed=5)
        b = run_trial(config, config.strategies[0], trial_seed=5)
        np.testing.assert_array_equal(a.rmse_per_round, b.rmse_per_round)
        assert a.queried_indices == b.queried_indices

    def test_initial_rmse_shared_across_strategies(self):
        # round 0 predates any query, so it depends only on the split
        ds = synthetic_dataset(5)
        config = small_config(ds, ["random", "greedy", "qbc"])
        first = [
            run_trial(config, s, trial_seed=3).rmse_per_round[0]
            for s in config.strategies
        ]
        assert first[0] == first[1] == first[2]

    @pytest.mark.parametrize("seed,message", [
        (True, "base_seed must be an integer, got True"),
        (2.0, "base_seed must be an integer, got 2.0"),
        (-1, "base_seed must be >= 0"),
    ])
    def test_trial_seed_checked_as_base_seed(self, seed, message):
        # a one-trial run: a bool seed no longer runs seed 1, and numpy no
        # longer raises its own TypeError or ValueError
        config = small_config(synthetic_dataset(4), ["random"])
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_trial(config, config.strategies[0], trial_seed=seed)

    def test_pool_exhaustion_rejected(self):
        config = small_config(synthetic_dataset(6, n=30), ["random"], rounds=25)
        with pytest.raises(ValueError, match="cannot supply"):
            run_trial(config, config.strategies[0], trial_seed=0)

    @pytest.mark.parametrize("kind,queries,fits", [
        ("ours_sequential", 10, 1 + 5),
        ("random", 10, 1 + 5),
        ("greedy", 10, 1 + 5),
        ("qbc", 10, 1 + 5),
        ("emcm", 10, 1 + 5),
        ("ours_batch", 17, 1 + 1),
    ])
    def test_model_fit_once_per_round(self, monkeypatch, kind, queries, fits):
        # The model is read only at the end of a round that added a label,
        # so 2 queries per round over 5 rounds cost the initial fit plus 5,
        # not 1 + 10, and a batch of 17 in round 1 costs 1 + 1. Committee
        # fits go through strategies.fit and are not counted here.
        calls = []
        real_fit = experiment.fit
        monkeypatch.setattr(
            experiment, "fit", lambda *args: calls.append(1) or real_fit(*args)
        )
        config = small_config(synthetic_dataset(3), [kind])
        result = run_trial(config, config.strategies[0], trial_seed=0)
        assert len(result.queried_indices) == queries
        assert len(calls) == fits

    def test_learning_reduces_error(self):
        config = small_config(
            synthetic_dataset(7, noise=0.01), ["ours_sequential"], rounds=10
        )
        result = run_trial(config, config.strategies[0], trial_seed=1)
        assert result.rmse_per_round[-1] < result.rmse_per_round[0]


class TestBatchTrial:
    def test_bookkeeping(self):
        config = small_config(synthetic_dataset(8), ["ours_batch"], rounds=10)
        result = run_trial(config, config.strategies[0], trial_seed=0)
        assert len(result.queried_indices) == 17  # round_half_up(0.2 * 83)
        assert result.queried_indices == sorted(result.queried_indices)
        assert result.query_rounds == [1] * 17
        flat = result.rmse_per_round[1:]
        assert np.all(flat == flat[0])  # one up-front batch, constant after

    def test_explicit_batch_size(self):
        strat = StrategyConfig(kind="ours_batch", batch_k=5)
        config = ExperimentConfig(
            dataset=synthetic_dataset(9), strategies=(strat,), trials=1, rounds=5
        )
        result = run_trial(config, strat, trial_seed=0)
        assert len(result.queried_indices) == 5

    def test_noisy_labels_pinned(self):
        # the batch is labeled in ascending order, each noise draw scaled by
        # the spread of the labels known so far; these bytes were recorded
        # when the harness still committed the batch one point at a time
        config = small_config(
            synthetic_dataset(8),
            ["ours_batch"],
            rounds=3,
            oracle=OracleConfig(noise_kind="gaussian", noise_scale=0.1),
        )
        result = run_trial(config, config.strategies[0], trial_seed=0)
        want = pinned({
            "SkylakeX": [
                "2.0363146515632624",
                "0.06390184094374672",
                "0.06390184094374672",
                "0.06390184094374672",
            ],
            "Haswell": [
                "2.036314651563262",
                "0.06390184094374701",
                "0.06390184094374701",
                "0.06390184094374701",
            ],
        })
        got = [repr(float(r)) for r in result.rmse_per_round]
        assert got == want, f"OpenBLAS cores: {openblas_cores()}"

    def test_oversized_batch_rejected(self):
        strat = StrategyConfig(kind="ours_batch", batch_k=500)
        config = ExperimentConfig(
            dataset=synthetic_dataset(10, n=40), strategies=(strat,), trials=1, rounds=5
        )
        with pytest.raises(ValueError, match="batch size"):
            run_trial(config, strat, trial_seed=0)


class TestNoiseInteraction:
    def test_feature_only_selection_unmoved_by_noise(self):
        ds = synthetic_dataset(11)
        exact = small_config(ds, ["ours_sequential"])
        noisy = small_config(
            ds,
            ["ours_sequential"],
            oracle=OracleConfig(noise_kind="gaussian", noise_scale=0.1),
        )
        a = run_trial(exact, exact.strategies[0], trial_seed=2)
        b = run_trial(noisy, noisy.strategies[0], trial_seed=2)
        assert a.queried_indices == b.queried_indices
        assert not np.array_equal(a.rmse_per_round, b.rmse_per_round)

    def test_label_driven_selection_shifts_under_noise(self):
        ds = synthetic_dataset(12)
        exact = small_config(ds, ["emcm"], rounds=8)
        noisy = small_config(
            ds,
            ["emcm"],
            rounds=8,
            oracle=OracleConfig(noise_kind="gaussian", noise_scale=0.5),
        )
        picks_exact = [
            run_trial(exact, exact.strategies[0], t).queried_indices
            for t in range(3)
        ]
        picks_noisy = [
            run_trial(noisy, noisy.strategies[0], t).queried_indices
            for t in range(3)
        ]
        assert picks_exact != picks_noisy

    def test_label_driven_streams_pinned(self):
        # the committee rules read the strategy stream (committee size 4) and
        # the noisy labels read the oracle stream; recorded before the seed
        # slot, the committee size and the oracle seed became constants
        config = small_config(
            synthetic_dataset(8),
            ["qbc", "emcm"],
            rounds=3,
            oracle=OracleConfig(noise_kind="gaussian", noise_scale=0.1),
        )
        qbc, emcm = (run_trial(config, s, trial_seed=0) for s in config.strategies)
        want = pinned({
            "SkylakeX": (
                [
                    "2.0363146515632624",
                    "0.2965001908940135",
                    "1.3953819450978413",
                    "0.17942195361079888",
                ],
                [
                    "2.0363146515632624",
                    "2.3313956535806115",
                    "0.47636300596816405",
                    "0.08504019594627811",
                ],
            ),
            "Haswell": (
                [
                    "2.036314651563262",
                    "0.29650019089401186",
                    "1.3953819450978366",
                    "0.17942195361079727",
                ],
                [
                    "2.036314651563262",
                    "2.331395653580611",
                    "0.47636300596816084",
                    "0.08504019594627746",
                ],
            ),
        })
        kernel = f"OpenBLAS cores: {openblas_cores()}"
        assert qbc.queried_indices == [0, 48, 80, 43, 55, 103], kernel
        assert [repr(float(r)) for r in qbc.rmse_per_round] == want[0], kernel
        assert emcm.queried_indices == [0, 80, 43, 94, 103, 14], kernel
        assert [repr(float(r)) for r in emcm.rmse_per_round] == want[1], kernel


@pytest.fixture(scope="module")
def report():
    config = small_config(
        synthetic_dataset(13),
        ["ours_sequential", "random", "greedy"],
        trials=3,
        rounds=10,
    )
    rep = run_experiment(config)
    assert_trials_are_reference(config, rep)
    return rep


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    config = small_config(
        synthetic_dataset(16),
        ["ours_sequential", "ours_batch", "random"],
        trials=2,
        rounds=5,
    )
    rep = run_experiment(config)
    out = tmp_path_factory.mktemp("csv")
    paths = emit_report(rep, out)
    return rep, out, paths


class TestExperiment:

    def test_shapes_and_names(self, report):
        assert report.strategies == ("ours_sequential", "random", "greedy")
        assert report.ranked_strategy == "ours_sequential"
        for kind in report.strategies:
            assert report.mean_rmse[kind].shape == (11,)
            assert report.std_rmse[kind].shape == (11,)
            assert len(report.trials[kind]) == 3

    def test_aggregates_recomputable_from_trials(self, report):
        for kind in report.strategies:
            stacked = np.stack([r.rmse_per_round for r in report.trials[kind]])
            np.testing.assert_array_equal(report.mean_rmse[kind], stacked.mean(axis=0))
            np.testing.assert_array_equal(report.std_rmse[kind], stacked.std(axis=0))

    def test_checkpoints_for_two_percent_rounds(self, report):
        assert report.checkpoint_rounds == {5: 3, 10: 5, 15: 8, 20: 10}

    def test_ranking_counts_partition_trials(self, report):
        for pct, (first, second, others) in report.ranking_counts.items():
            assert first + second + others == 3
            assert report.checkpoint_rounds[pct] in range(1, 11)

    def test_paired_seeds_across_strategies(self, report):
        for t in range(3):
            seeds = {report.trials[kind][t].seed for kind in report.strategies}
            assert seeds == {t}  # base_seed 0, shared per trial

    def test_short_runs_drop_unreachable_checkpoints(self):
        config = small_config(
            synthetic_dataset(14), ["random"], trials=1, rounds=4
        )
        report = run_experiment(config)
        assert set(report.checkpoint_rounds) == {5}  # rounds 5/8/10 out of range


class TestRanking:
    def test_counts_follow_paired_comparisons(self):
        config = small_config(
            synthetic_dataset(15),
            ["ours_sequential", "random"],
            trials=4,
            rounds=5,
        )
        report = run_experiment(config)
        rnd = report.checkpoint_rounds[10]
        first = sum(
            1
            for t in range(4)
            if report.trials["ours_sequential"][t].rmse_per_round[rnd]
            <= report.trials["random"][t].rmse_per_round[rnd]
        )
        assert report.ranking_counts[10][0] == first
        assert report.ranking_counts[10][2] == 0  # two strategies: rank <= 2

    def test_one_strategy_ranks_every_trial_first(self):
        config = small_config(synthetic_dataset(17), ["random"], trials=3, rounds=5)
        report = run_experiment(config)
        assert report.ranking_counts == {5: (3, 0, 0), 10: (3, 0, 0)}


class TestCsvEmission:
    def test_files_and_headers(self, emitted):
        report, out, paths = emitted
        names = [p.name for p in paths]
        assert names == ["curves.csv", "ranking.csv", "trials.csv"]
        heads = {
            "curves.csv": "dataset,strategy,round,mean_rmse,std_rmse",
            "ranking.csv": "dataset,checkpoint_pct,round,ranked_strategy,first,second,others",
            "trials.csv": "dataset,strategy,trial,seed,round,rmse,queried_indices",
        }
        for name, head in heads.items():
            assert (out / name).read_text().splitlines()[0] == head

    def test_row_counts(self, emitted):
        report, out, _ = emitted
        curves = (out / "curves.csv").read_text().splitlines()
        assert len(curves) == 1 + 3 * 6  # strategies x (rounds + 1)
        trials = (out / "trials.csv").read_text().splitlines()
        assert len(trials) == 1 + 3 * 2 * 6
        ranking = (out / "ranking.csv").read_text().splitlines()
        assert len(ranking) == 1 + len(report.checkpoint_rounds)

    def test_reruns_are_byte_identical(self, emitted, tmp_path):
        report, out, _ = emitted
        emit_report(report, tmp_path)
        for name in ("curves.csv", "ranking.csv", "trials.csv"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()

    def test_floats_round_trip_exactly(self, emitted):
        report, out, _ = emitted
        for line in (out / "curves.csv").read_text().splitlines()[1:3]:
            _, kind, rnd, mean, _ = line.split(",")
            assert float(mean) == report.mean_rmse[kind][int(rnd)]

    def test_batch_indices_all_in_round_one(self, emitted):
        report, out, _ = emitted
        rows = [
            line.split(",")
            for line in (out / "trials.csv").read_text().splitlines()[1:]
            if line.split(",")[1] == "ours_batch" and line.split(",")[2] == "0"
        ]
        by_round = {int(r[4]): r[6] for r in rows}
        picked = by_round[1].split(";")
        assert len(picked) == len(report.trials["ours_batch"][0].queried_indices)
        assert all(by_round[r] == "" for r in range(2, 6))

    def test_trace_log(self, emitted, tmp_path):
        report, _, _ = emitted
        path = write_trace_log(report, tmp_path / "trace.csv")
        lines = path.read_text().splitlines()
        expected = sum(
            len(r.queried_indices)
            for kind in report.strategies
            for r in report.trials[kind]
        )
        assert lines[0] == "dataset,strategy,trial,round,chosen,score"
        assert len(lines) == 1 + expected


class TestPolynomialRun:
    def test_end_to_end(self):
        config = small_config(
            synthetic_dataset(17, d=3),
            ["ours_sequential"],
            trials=1,
            rounds=3,
            regression=RegressionSpec(kind="polynomial", degree=2),
        )
        report = run_experiment(config)
        assert np.all(np.isfinite(report.mean_rmse["ours_sequential"]))


def grid_dataset(seed, n=120, d=3):
    """Integer-grid features: duplicate rows and exact distance ties, as in
    tables with discrete columns."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
    y = X @ rng.normal(size=d) + 0.1 * rng.normal(size=n)
    return Dataset(features=X, targets=y, name="grid")


class TestDebugChecks:
    def test_incremental_graph_matches_rebuild_on_grid_data(self):
        # duplicate rows and exact ties: every trial is the reference's,
        # which rebuilds the graph for every sequential pick
        config = small_config(
            grid_dataset(19),
            ["ours_sequential", "ours_batch", "random", "greedy"],
            trials=3,
        )
        assert_trials_are_reference(config, run_experiment(config))

    def test_greedy_walk_replays_select_greedy(self):
        # 6 queries per round over 10 rounds on a 276-point pool: each pick
        # and score of the harness's incremental min-distance vector is
        # bitwise the reference's fresh scan of the same sets
        config = small_config(synthetic_dataset(29, n=400), ["greedy"], rounds=10)
        result = run_trial(config, config.strategies[0], trial_seed=1)
        assert len(result.queried_indices) == 60
        space = build_model_space(config.dataset, config.regression)
        want = reference_trial(space, config, config.strategies[0], 1)
        assert_same_trial(result, want)


class TestSharedStart:
    # 2 queries per round over 5 rounds: the sequential rule reads 10 picks
    # of its seed's chain; a batch of 17 reads more than that, one of 4 fewer
    @pytest.mark.parametrize("graph_rules", [
        ("ours_sequential", "ours_batch"),
        ("ours_batch", "ours_sequential"),
    ])
    @pytest.mark.parametrize("batch_k", [17, 4])
    @pytest.mark.parametrize("data", ["grid", "continuous"])
    @pytest.mark.parametrize("noise", ["exact", "gaussian"])
    def test_experiment_equals_per_strategy_trials(
        self, graph_rules, batch_k, data, noise
    ):
        kinds = (graph_rules[0], "random", graph_rules[1])
        config = ExperimentConfig(
            dataset=grid_dataset(23) if data == "grid" else synthetic_dataset(23),
            strategies=tuple(
                StrategyConfig(kind=k, batch_k=batch_k if k == "ours_batch" else None)
                for k in kinds
            ),
            trials=2,
            rounds=5,
            oracle=OracleConfig(noise_kind=noise, noise_scale=0.1),
        )
        report = run_experiment(config)
        for strat in config.strategies:
            results = report.trials[strat.kind]
            assert len(results) == 2
            for t, got in enumerate(results):
                assert_same_trial(got, run_trial(config, strat, trial_seed=t))

    def test_impossible_sizes_raise_before_any_fit(self, monkeypatch):
        # a size depends only on n, so the random trials listed first never
        # run: neither an oversize batch nor an undersupplied pool costs a fit
        calls = []
        real_fit = experiment.fit
        monkeypatch.setattr(
            experiment, "fit", lambda *args: calls.append(1) or real_fit(*args)
        )
        oversize = ExperimentConfig(
            dataset=synthetic_dataset(10, n=40),
            strategies=(
                StrategyConfig(kind="random"),
                StrategyConfig(kind="ours_batch", batch_k=500),
            ),
            trials=3,
            rounds=5,
        )
        with pytest.raises(ValueError, match="batch size 500 outside 1..27"):
            run_experiment(oversize)
        undersupplied = small_config(
            synthetic_dataset(6, n=30), ["ours_batch", "random"], trials=3, rounds=25
        )
        with pytest.raises(ValueError, match="pool of 20 cannot supply 1 queries"):
            run_experiment(undersupplied)
        assert calls == []


class TestGraphUse:
    def test_one_graph_and_no_commit_per_graph_trial(self, monkeypatch):
        # 2 queries per round over 5 rounds, and a batch of 17: each graph
        # trial builds one graph and commits nothing, since build_seed_set
        # keeps its chain's weights itself; the baselines never read a
        # graph, so they build none
        counts = Counter()
        real_commit = NNBipartiteGraph.commit
        real_build = NNBipartiteGraph.build.__func__

        def commit(self, subset):
            counts["commit"] += 1
            return real_commit(self, subset)

        def build(cls, *args):
            counts["build"] += 1
            return real_build(cls, *args)

        monkeypatch.setattr(NNBipartiteGraph, "commit", commit)
        monkeypatch.setattr(NNBipartiteGraph, "build", classmethod(build))
        expected = {
            "ours_sequential": (1, 0),
            "ours_batch": (1, 0),
            "random": (0, 0),
            "greedy": (0, 0),
            "qbc": (0, 0),
            "emcm": (0, 0),
        }
        for kind, (builds, commits) in expected.items():
            counts.clear()
            config = small_config(synthetic_dataset(3), [kind])
            run_trial(config, config.strategies[0], trial_seed=0)
            assert (counts["build"], counts["commit"]) == (builds, commits), kind

    def test_one_start_per_trial_seed(self, monkeypatch):
        # both graph rules over 3 trials: each trial seed builds one graph,
        # walks one build_seed_set chain and makes one initial fit, which
        # both rules share; the round-end fits stay per strategy. Inline,
        # as a wrapper in a forked worker counts inside that worker.
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
        counts = Counter()
        real_build = NNBipartiteGraph.build.__func__
        real_seed_set = experiment.build_seed_set
        real_fit = experiment.fit
        n_init = make_split(120, 0).initial_labeled.size

        def build(cls, *args):
            counts["build"] += 1
            return real_build(cls, *args)

        def seed_set(*args):
            counts["build_seed_set"] += 1
            return real_seed_set(*args)

        def fit(X, *args):
            counts["initial fit" if X.shape[0] == n_init else "round fit"] += 1
            return real_fit(X, *args)

        monkeypatch.setattr(NNBipartiteGraph, "build", classmethod(build))
        monkeypatch.setattr(experiment, "build_seed_set", seed_set)
        monkeypatch.setattr(experiment, "fit", fit)
        config = small_config(
            synthetic_dataset(3), ["ours_sequential", "ours_batch"], trials=3
        )
        run_experiment(config)
        assert counts == {
            "build": 3,
            "build_seed_set": 3,
            "initial fit": 3,
            "round fit": 3 * (5 + 1),
        }


    def test_one_pair_list_per_trial_seed(self, monkeypatch):
        # build_seed_set and the swap search read one near-pair list per
        # initial graph, and nothing on the harness path calls q_values
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: 1)
        counts = Counter()
        real_pairs = NNBipartiteGraph.near_pairs
        real_q_values = NNBipartiteGraph.q_values

        def near_pairs(self):
            counts["calls"] += 1
            counts["builds"] += self._pairs is None
            return real_pairs(self)

        def q_values(self):
            counts["q_values"] += 1
            return real_q_values(self)

        monkeypatch.setattr(NNBipartiteGraph, "near_pairs", near_pairs)
        monkeypatch.setattr(NNBipartiteGraph, "q_values", q_values)
        for kinds, calls in (
            (["ours_sequential", "ours_batch"], 2),
            (["ours_sequential"], 1),
        ):
            counts.clear()
            run_experiment(small_config(synthetic_dataset(3), kinds, trials=3))
            got = (counts["builds"], counts["calls"], counts["q_values"])
            assert got == (3, 3 * calls, 0), kinds


@pytest.fixture
def forks(monkeypatch):
    """The processes run_experiment forks, counted in this process."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: count)


def all_six_config(**overrides):
    """Every strategy, 3 trials, a noisy oracle: 15 tasks (the graph rules
    together, one per baseline), seed by seed."""
    kwargs = dict(
        trials=3, oracle=OracleConfig(noise_kind="gaussian", noise_scale=0.1)
    )
    kwargs.update(overrides)
    return small_config(
        synthetic_dataset(31),
        ["ours_sequential", "ours_batch", "random", "greedy", "qbc", "emcm"],
        **kwargs,
    )


def failing_qbc(*args, **kwargs):
    raise ValueError("committee member 2 did not converge")


class TestParallelTrials:
    def test_pooled_run_equals_inline_run(self, monkeypatch, forks, tmp_path):
        config = all_six_config()
        runs = {}
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            forks.clear()
            rep = run_experiment(config)
            out = tmp_path / f"cpus{cpus}"
            emit_report(rep, out)
            write_trace_log(rep, out / "trace.csv")
            runs[cpus] = rep, out, len(forks)
        inline, inline_out, inline_forks = runs[1]
        pooled, pooled_out, pooled_forks = runs[2]
        assert (inline_forks, pooled_forks) == (0, 2)
        for name in ("dataset", "strategies", "rounds", "ranked_strategy",
                     "ranking_counts", "checkpoint_rounds"):
            assert getattr(pooled, name) == getattr(inline, name), name
        for kind in inline.strategies:
            for field in ("mean_rmse", "std_rmse"):
                got, want = getattr(pooled, field)[kind], getattr(inline, field)[kind]
                assert got.tobytes() == want.tobytes(), (field, kind)
            assert [r.seed for r in pooled.trials[kind]] == [0, 1, 2]
            for got, want in zip(pooled.trials[kind], inline.trials[kind]):
                assert_same_trial(got, want)
        for name in ("curves.csv", "ranking.csv", "trials.csv", "trace.csv"):
            got, want = pooled_out / name, inline_out / name
            assert got.read_bytes() == want.read_bytes(), name

    def test_no_child_outlives_a_run(self, monkeypatch, forks):
        usable_cpus(monkeypatch, 2)
        run_experiment(all_six_config(trials=2))
        assert len(forks) == 2
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(experiment, "select_qbc", failing_qbc)
        with pytest.raises(ValueError):
            run_experiment(all_six_config(trials=2))
        assert len(forks) == 4
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_caller(self, monkeypatch, forks):
        usable_cpus(monkeypatch, 2)
        monkeypatch.setattr(experiment, "select_qbc", failing_qbc)
        message = "^committee member 2 did not converge$"
        with pytest.raises(ValueError, match=message) as err:
            run_experiment(all_six_config())
        assert len(forks) == 2
        # raised in a worker: the pool chains the worker's traceback
        assert "failing_qbc" in str(err.value.__cause__)

    def test_workers_run_on_one_blas_thread(
        self, monkeypatch, forks, tmp_path, blas_threads
    ):
        # every forked task reads each OpenBLAS at one thread; the caller's
        # counts are as it set them after the run
        real_run_task = experiment._run_task

        def run_task(*args):
            with open(tmp_path / f"{os.getpid()}.txt", "a") as fh:
                fh.write(f"{thread_counts()}\n")
            return real_run_task(*args)

        monkeypatch.setattr(experiment, "_run_task", run_task)
        usable_cpus(monkeypatch, 2)
        run_experiment(all_six_config(trials=2))
        assert len(forks) == 2
        seen = [line for f in tmp_path.iterdir() for line in f.read_text().splitlines()]
        assert len(seen) == 10  # 2 trials x (the graph rules + 4 baselines)
        assert set(seen) == {str([1] * len(blas_threads))}
        assert thread_counts() == [2] * len(blas_threads)

    def test_pooled_run_leaves_the_caller_threads_alone(
        self, monkeypatch, forks, tmp_path, blas_threads
    ):
        # each worker sets its own OpenBLAS to one thread; the caller makes
        # no thread-count call, which would restart its OpenBLAS thread pool
        real_controls = experiment._openblas_thread_controls

        def spy(name, call):
            def counted(*args):
                with open(tmp_path / f"{os.getpid()}.{name}", "a") as fh:
                    fh.write("1")
                return call(*args)

            return counted

        def controls():
            return [(spy("get", get), spy("set", set_threads))
                    for get, set_threads in real_controls()]

        monkeypatch.setattr(experiment, "_openblas_thread_controls", controls)
        usable_cpus(monkeypatch, 2)
        run_experiment(all_six_config(trials=2))
        assert len(forks) == 2
        calls = [f.name for f in tmp_path.iterdir()]
        assert not [name for name in calls if name.startswith(f"{os.getpid()}.")]
        assert sum(name.endswith(".set") for name in calls) == 2  # the workers
        assert thread_counts() == [2] * len(blas_threads)

    def test_pooled_caller_fits_nothing(self, monkeypatch, forks, tmp_path):
        # each task draws its seed's split and makes its initial fit in the
        # worker: the caller forks before any split or fit
        calls = Counter()

        def spy(name, real):
            def counted(*args, **kwargs):
                calls[name] += 1
                with open(tmp_path / f"{os.getpid()}.{name}", "a") as fh:
                    fh.write("1")
                return real(*args, **kwargs)

            return counted

        for name in ("fit", "make_split"):
            monkeypatch.setattr(experiment, name, spy(name, getattr(experiment, name)))
        usable_cpus(monkeypatch, 2)
        run_experiment(all_six_config(trials=2))
        assert len(forks) == 2
        assert calls == Counter()
        splits = [f for f in tmp_path.iterdir() if f.suffix == ".make_split"]
        # in the workers: one split per task, 2 trials x 5 tasks
        assert sum(len(f.read_text()) for f in splits) == 10
        assert any(f.suffix == ".fit" for f in tmp_path.iterdir())

    def test_one_task_starts_no_process(self, monkeypatch, forks):
        # one trial of the graph rules alone is one task; with one usable
        # CPU the six-strategy run's 15 tasks also run in this process
        usable_cpus(monkeypatch, 2)
        config = small_config(
            synthetic_dataset(3), ["ours_sequential", "ours_batch"], trials=1
        )
        report = run_experiment(config)
        assert [len(report.trials[k]) for k in report.strategies] == [1, 1]
        usable_cpus(monkeypatch, 1)
        run_experiment(all_six_config())
        assert forks == []


class TestBlasThreadCap:
    """run_experiment and run_trial hold every OpenBLAS at one thread for
    the tasks they run inline and then give the caller's counts back; fit
    alone leaves them as it finds them (test_regression)."""

    def test_inline_run_reads_one_thread(self, monkeypatch, forks, blas_threads):
        # one task with 2 usable CPUs runs inline: the task, its initial fit
        # first, runs under the run's cap, not only the solves
        seen = []
        for name in ("_run_task", "fit"):

            def spy(*args, real=getattr(experiment, name), name=name):
                seen.append((name, thread_counts()))
                return real(*args)

            monkeypatch.setattr(experiment, name, spy)
        usable_cpus(monkeypatch, 2)
        config = small_config(
            synthetic_dataset(3), ["ours_sequential", "ours_batch"], trials=1
        )
        run_experiment(config)
        one = [1] * len(blas_threads)
        assert forks == []
        assert seen[:2] == [("_run_task", one), ("fit", one)]
        assert all(counts == one for _, counts in seen)
        assert thread_counts() == [2] * len(blas_threads)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_counts_restored_after_a_run(self, monkeypatch, forks, blas_threads, cpus):
        # inline (1 CPU) and pooled (2), also when a strategy raises
        usable_cpus(monkeypatch, cpus)
        run_experiment(all_six_config(trials=2))
        assert thread_counts() == [2] * len(blas_threads)
        monkeypatch.setattr(experiment, "select_qbc", failing_qbc)
        with pytest.raises(ValueError, match="did not converge"):
            run_experiment(all_six_config(trials=2))
        assert thread_counts() == [2] * len(blas_threads)
        assert len(forks) == (cpus - 1) * 4

    def test_counts_restored_after_run_trial(self, monkeypatch, blas_threads):
        config = all_six_config()
        run_trial(config, StrategyConfig(kind="qbc"), 0)
        assert thread_counts() == [2] * len(blas_threads)
        monkeypatch.setattr(experiment, "select_qbc", failing_qbc)
        with pytest.raises(ValueError, match="did not converge"):
            run_trial(config, StrategyConfig(kind="qbc"), 0)
        assert thread_counts() == [2] * len(blas_threads)

    def test_concurrent_trials_take_turns(self, blas_threads):
        config, strategy = all_six_config(), StrategyConfig(kind="qbc")
        serial = run_trial(config, strategy, 0)
        results, errors = [], []

        def work():
            try:
                results.append(run_trial(config, strategy, 0))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert errors == []
        assert len(results) == 4
        for result in results:
            assert_same_trial(result, serial)
        assert thread_counts() == [2] * len(blas_threads)

    def test_no_openblas_found(self, monkeypatch, blas_threads):
        """Discovery that finds nothing (here: no /proc/self/maps) leaves
        threading alone and the trial unchanged."""
        config, strategy = all_six_config(), StrategyConfig(kind="qbc")
        capped = run_trial(config, strategy, 0)
        seen = []
        real_run_task = experiment._run_task

        def run_task(*args):
            seen.append([get() for get, _ in blas_threads])
            return real_run_task(*args)

        def no_maps(*args, **kwargs):
            raise OSError("no /proc on this platform")

        monkeypatch.setattr(experiment, "_run_task", run_task)
        monkeypatch.setattr(experiment, "open", no_maps, raising=False)
        assert experiment._openblas_thread_controls() == []
        bare = run_trial(config, strategy, 0)
        assert seen == [[2] * len(blas_threads)]
        assert_same_trial(bare, capped)


class TestValidationSuite:
    def test_clean_pass_is_silent_success(self):
        lines = []
        assert run_validation(seed=3, echo=lines.append) == 0
        assert any("validation passed" in line for line in lines)
        assert not any(line.startswith("FAIL") for line in lines)
        assert len(lines) == 4  # three blocks, then the verdict

    def test_commit_tie_bug_fails(self, monkeypatch):
        # the old tie rule, improves = best < old_theta: a tied new member
        # never takes over; only the grid instances have such exact ties
        real_commit = NNBipartiteGraph.commit

        def keep_incumbent_on_ties(self, subset):
            out = real_commit(self, subset)
            kept = np.isin(self.unlabeled, out.unlabeled)
            out.nn = np.where(out.thetas == self.thetas[kept], self.nn[kept], out.nn)
            return out

        monkeypatch.setattr(NNBipartiteGraph, "commit", keep_incumbent_on_ties)
        lines = []
        assert run_validation(seed=0, echo=lines.append) >= 1
        assert lines[0] == "FAIL: incremental graph neighbors differ from a fresh build"

    def test_bound_violation_fails_its_block_only(self, monkeypatch):
        def violated(*args):
            raise ValueError("bound violated")

        monkeypatch.setattr(validation, "check_bound", violated)
        lines = []
        assert run_validation(seed=0, echo=lines.append) == 1
        assert lines[1] == "FAIL: prediction-shift bound violated on 2000/2000 draws"
        assert lines[2].startswith("ok: local search")
        assert len(lines) == 4  # three blocks, then the verdict

    def test_enumeration_off_commit_fails_local_search_block_only(self, monkeypatch):
        # the local search block is validate's one check of the exhaustive
        # solvers: weights a few roundings above commit's must fail it there
        real = exhaustive._weights_after

        def skewed(graph, k):
            for subset, weights in real(graph, k):
                yield subset, weights * (1.0 + 2.0**-50)

        monkeypatch.setattr(exhaustive, "_weights_after", skewed)
        lines = []
        assert run_validation(seed=0, echo=lines.append) == 1
        assert lines[0].startswith("ok: commit == rebuild")
        assert lines[1].startswith("ok: prediction-shift bound held")
        assert lines[2] == "FAIL: enumerated q differs from q_set of the best subset"
        assert lines[3] == "validation FAILED (1)"
