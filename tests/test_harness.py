"""End-to-end trials and experiments on synthetic data, plus CSV emission.

A 120-row synthetic dataset splits 36 test / 1 initial / 83 pool, so the
sequential protocol queries ceil(0.02 * 83) = 2 points per round and the
batch takes round-half-up(0.20 * 83) = 17 at once.
"""

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
    run_experiment,
    run_trial,
    run_validation,
    write_trace_log,
)
from alregress import validation

from conftest import synthetic_dataset


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
        with pytest.raises(ValueError):
            RegressionSpec(kind="polynomial", degree=0)


class TestExperimentConfig:
    def test_rejects_duplicate_strategies(self):
        ds = synthetic_dataset(0)
        with pytest.raises(ValueError, match="duplicate"):
            small_config(ds, ["random", "random"])

    def test_rejects_empty_strategies(self):
        with pytest.raises(ValueError):
            small_config(synthetic_dataset(0), [])


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

    def test_pool_exhaustion_rejected(self):
        config = small_config(synthetic_dataset(6, n=30), ["random"], rounds=25)
        with pytest.raises(ValueError, match="cannot supply"):
            run_trial(config, config.strategies[0], trial_seed=0)

    def test_model_fit_once_per_round(self, monkeypatch):
        # The model is read only at round end, so 2 queries per round over
        # 5 rounds cost the initial fit plus 5, not 1 + 10.
        from alregress import experiment

        calls = []
        real_fit = experiment.fit
        monkeypatch.setattr(
            experiment, "fit", lambda *args: calls.append(1) or real_fit(*args)
        )
        for kind in ("ours_sequential", "random"):
            calls.clear()
            config = small_config(synthetic_dataset(3), [kind])
            result = run_trial(config, config.strategies[0], trial_seed=0)
            assert len(result.queried_indices) == 10
            assert len(calls) == 1 + 5

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
        assert [repr(float(r)) for r in result.rmse_per_round] == [
            "2.0363146515632624",
            "0.06390184094374672",
            "0.06390184094374672",
            "0.06390184094374672",
        ]

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
        assert qbc.queried_indices == [0, 48, 80, 43, 55, 103]
        assert [repr(float(r)) for r in qbc.rmse_per_round] == [
            "2.0363146515632624",
            "0.2965001908940135",
            "1.3953819450978413",
            "0.17942195361079888",
        ]
        assert emcm.queried_indices == [0, 80, 43, 94, 103, 14]
        assert [repr(float(r)) for r in emcm.rmse_per_round] == [
            "2.0363146515632624",
            "2.3313956535806115",
            "0.47636300596816405",
            "0.08504019594627811",
        ]


@pytest.fixture(scope="module")
def report():
    config = small_config(
        synthetic_dataset(13),
        ["ours_sequential", "random", "greedy"],
        trials=3,
        rounds=10,
        debug_checks=True,
    )
    return run_experiment(config)


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


class TestDebugChecks:
    def test_incremental_graph_matches_rebuild_on_grid_data(self):
        # duplicate rows and exact distance ties, as in tables with discrete
        # columns; every round's graph is checked against a fresh build
        rng = np.random.default_rng(19)
        X = rng.integers(0, 3, size=(120, 3)).astype(np.float64)
        y = X @ rng.normal(size=3) + 0.1 * rng.normal(size=120)
        config = small_config(
            Dataset(features=X, targets=y, name="grid"),
            ["ours_sequential", "ours_batch", "random", "greedy"],
            trials=3,
            debug_checks=True,
        )
        run_experiment(config)


class TestValidationSuite:
    def test_clean_pass_is_silent_success(self):
        lines = []
        assert run_validation(seed=3, echo=lines.append) == 0
        assert any("validation passed" in line for line in lines)
        assert not any(line.startswith("FAIL") for line in lines)

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
        assert lines[1] == "FAIL: prediction-shift bound violated on 50/2050 draws"
        assert lines[2].startswith("ok: local search")
        assert lines[3].startswith("ok: threshold")
