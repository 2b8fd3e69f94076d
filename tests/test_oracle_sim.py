"""Label oracle: exact answers, scaled-noise answers, and stream discipline."""

import numpy as np
import pytest

from alregress import LabelOracle, OracleConfig

TARGETS = np.array([10.0, 20.0, 30.0, 40.0])


class TestConfig:
    def test_defaults(self):
        cfg = OracleConfig()
        assert cfg.noise_kind == "exact"
        assert cfg.noise_scale == 0.1

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            OracleConfig(noise_kind="poisson")

    def test_rejects_negative_scale(self):
        with pytest.raises(ValueError):
            OracleConfig(noise_kind="gaussian", noise_scale=-0.1)

    def test_rejects_non_finite_scale(self):
        for scale in (np.inf, np.nan):
            with pytest.raises(ValueError, match="noise_scale must be finite and >= 0"):
                OracleConfig(noise_kind="gaussian", noise_scale=scale)

    def test_rejects_bools_and_non_numbers(self):
        for scale in (True, False, "0.1", np.bool_(False), None):
            with pytest.raises(ValueError, match="noise_scale must be a real number"):
                OracleConfig(noise_kind="gaussian", noise_scale=scale)

    def test_accepts_ints_and_numpy_floats(self):
        for scale in (0, 1, np.int64(1), np.float32(0.5), np.float64(0.25)):
            cfg = OracleConfig(noise_kind="gaussian", noise_scale=scale)
            assert cfg.noise_scale == scale


class TestExact:
    def test_returns_truth_and_counts(self):
        oracle = LabelOracle(OracleConfig(), 0)
        assert oracle.label(TARGETS, 2, TARGETS[:1]) == 30.0
        assert oracle.label(TARGETS, 0, TARGETS[:2]) == 10.0
        assert oracle.queries_answered == 2

    def test_index_out_of_range(self):
        oracle = LabelOracle(OracleConfig(), 0)
        with pytest.raises(ValueError):
            oracle.label(TARGETS, 4, TARGETS[:1])


class TestGaussian:
    def test_matches_replayed_stream(self):
        cfg = OracleConfig(noise_kind="gaussian", noise_scale=0.1)
        oracle = LabelOracle(cfg, 12)
        known = np.array([1.0, 2.0, 3.0])
        got = oracle.label(TARGETS, 1, known)
        rng = np.random.default_rng(12)
        expected = 20.0 + rng.normal(0.0, 0.1 * known.std())
        assert got == expected  # bitwise: same generator, same draw

    def test_noise_scales_with_label_spread(self):
        wide = np.array([0.0, 100.0])
        narrow = np.array([0.0, 1.0])
        devs = {}
        for name, known in [("wide", wide), ("narrow", narrow)]:
            oracle = LabelOracle(
                OracleConfig(noise_kind="gaussian", noise_scale=0.1), 5
            )
            draws = [
                oracle.label(TARGETS, 0, known) - 10.0 for _ in range(200)
            ]
            devs[name] = np.std(draws)
        assert devs["wide"] > 20 * devs["narrow"]

    def test_scale_zero_is_exact(self):
        oracle = LabelOracle(OracleConfig(noise_kind="gaussian", noise_scale=0.0), 0)
        assert oracle.label(TARGETS, 3, np.array([1.0, 5.0])) == 40.0

    def test_constant_labels_floor_the_spread(self):
        # all known labels equal: spread is floored, answers stay ~exact
        oracle = LabelOracle(OracleConfig(noise_kind="gaussian"), 3)
        got = oracle.label(TARGETS, 1, np.array([7.0, 7.0, 7.0]))
        assert got == pytest.approx(20.0, abs=1e-9)

    def test_single_known_label_is_degenerate_spread(self):
        oracle = LabelOracle(OracleConfig(noise_kind="gaussian"), 3)
        got = oracle.label(TARGETS, 1, np.array([7.0]))
        assert got == pytest.approx(20.0, abs=1e-9)

    def test_no_known_labels_rejected(self):
        oracle = LabelOracle(OracleConfig(noise_kind="gaussian"), 0)
        with pytest.raises(ValueError):
            oracle.label(TARGETS, 0, np.array([]))

    def test_one_draw_per_query(self):
        # two oracles answering different indices consume identical streams;
        # zero-valued truths expose the raw noise draws for exact comparison
        targets = np.array([0.0, 5.0, 0.0, 7.0])
        known = np.array([1.0, 4.0])
        a = LabelOracle(OracleConfig(noise_kind="gaussian"), 9)
        b = LabelOracle(OracleConfig(noise_kind="gaussian"), 9)
        noise_a = [a.label(targets, 0, known) for _ in range(5)]
        noise_b = [b.label(targets, 2, known) for _ in range(5)]
        assert noise_a == noise_b
        assert a.queries_answered == b.queries_answered == 5
