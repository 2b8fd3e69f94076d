"""Least squares and ridge fits against closed-form references.

The ridge reference solves the (D+1)-variable normal equations directly,
with the penalty on the weights only; fit must agree to high precision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alregress import LinearModel, fit, fit_diagnostics, predict, rmse

from conftest import lstsq_reference, thread_counts

RMSE_3_4 = 3.5355339059327378  # sqrt((3^2 + 4^2) / 2)


def ridge_normal_equations(X, y, alpha):
    """Reference: [[X'X + aI, X'1], [1'X, m]] [w; b] = [X'y; 1'y]."""
    m, D = X.shape
    ones = np.ones((m, 1))
    A = np.zeros((D + 1, D + 1))
    A[:D, :D] = X.T @ X + alpha * np.eye(D)
    A[:D, D:] = X.T @ ones
    A[D:, :D] = ones.T @ X
    A[D, D] = m
    rhs = np.concatenate([X.T @ y, [y.sum()]])
    sol = np.linalg.solve(A, rhs)
    return sol[:D], float(sol[D])


class TestFit:
    def test_exact_line_through_two_points(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1.0, 3.0])
        model = fit(X, y, alpha=0.0)
        diag = fit_diagnostics(X, y, model)
        assert model.weights[0] == pytest.approx(2.0, abs=1e-6)
        assert model.bias == pytest.approx(1.0, abs=1e-6)
        assert diag.normal_equation_residual < 1e-6
        assert not diag.effective_rank_deficient

    def test_recovers_planted_weights(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 5))
        w = np.array([2.0, -1.0, 0.5, 0.0, 3.0])
        y = X @ w + 4.0
        model = fit(X, y, alpha=0.0)
        diag = fit_diagnostics(X, y, model)
        np.testing.assert_allclose(model.weights, w, atol=1e-6)
        assert model.bias == pytest.approx(4.0, abs=1e-6)
        assert diag.normal_equation_residual < 1e-8

    def test_ridge_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        for alpha in (0.25, 1.0, 10.0):
            X = rng.normal(size=(40, 4))
            y = rng.normal(size=40)
            model = fit(X, y, alpha=alpha)
            diag = fit_diagnostics(X, y, model)
            w_ref, b_ref = ridge_normal_equations(X, y, alpha)
            np.testing.assert_allclose(model.weights, w_ref, atol=1e-9)
            assert model.bias == pytest.approx(b_ref, abs=1e-9)
            assert model.ridge_alpha == alpha
            assert diag.normal_equation_residual < 1e-10

    def test_ridge_shrinks_weights(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        loose = fit(X, y, alpha=0.0)
        tight = fit(X, y, alpha=100.0)
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)

    def test_intercept_not_penalized(self):
        # constant targets: any alpha should still return bias ~= the constant
        X = np.random.default_rng(3).normal(size=(25, 2))
        y = np.full(25, 7.5)
        model = fit(X, y, alpha=1e6)
        assert model.bias == pytest.approx(7.5, abs=1e-4)
        np.testing.assert_allclose(model.weights, 0.0, atol=1e-4)

    def test_single_row_is_fittable(self):
        # underdetermined: flagged deficient, prediction still reproduces the row
        X, y = np.array([[2.0, 1.0]]), np.array([5.0])
        model = fit(X, y, alpha=0.0)
        diag = fit_diagnostics(X, y, model)
        assert diag.effective_rank_deficient
        assert predict(model, np.array([[2.0, 1.0]]))[0] == pytest.approx(
            5.0, abs=1e-5
        )

    def test_duplicate_column_flags_deficiency(self):
        X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        diag = fit_diagnostics(X, y, fit(X, y, alpha=0.0))
        assert diag.effective_rank_deficient

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit(np.ones((3, 2)), np.ones(4))
        with pytest.raises(ValueError):
            fit(np.ones((3, 2)), np.ones(3), alpha=-1.0)
        with pytest.raises(ValueError):
            fit(np.array([[np.inf, 1.0]]), np.array([1.0]))
        for alpha in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
                fit(np.ones((3, 2)), np.ones(3), alpha=alpha)
        # a bool is a number to Python, but no penalty
        for alpha in (True, False, "1", None):
            with pytest.raises(ValueError, match="alpha must be a real number"):
                fit(np.ones((3, 2)), np.ones(3), alpha=alpha)

    def test_diagnostics_input_validation(self):
        model = fit(np.ones((3, 2)), np.ones(3))
        with pytest.raises(ValueError, match="does not match model width 2"):
            fit_diagnostics(np.ones((3, 3)), np.ones(3), model)
        with pytest.raises(ValueError, match="incompatible shapes"):
            fit_diagnostics(np.ones((3, 2)), np.ones(4), model)
        with pytest.raises(ValueError, match="incompatible shapes"):
            fit_diagnostics(np.ones(3), np.ones(3), model)
        with pytest.raises(ValueError, match="non-finite"):
            fit_diagnostics(np.array([[np.nan, 1.0]]), np.ones(1), model)

    def test_leaves_thread_counts_alone(self, blas_threads, monkeypatch):
        # outside a run, the solve runs on the caller's threads
        inside = []
        real_lstsq = np.linalg.lstsq

        def lstsq(*args, **kwargs):
            inside.append(thread_counts())
            return real_lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        rng = np.random.default_rng(4)
        fit(rng.normal(size=(40, 6)), rng.normal(size=40), alpha=1.0)
        assert inside == [[2] * len(blas_threads)]
        assert thread_counts() == [2] * len(blas_threads)

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("D", [11, 104])
    @pytest.mark.parametrize("m", [1, 5, 30, 75, 200])
    def test_bits_equal_unscoped_lstsq(self, m, D, alpha):
        rng = np.random.default_rng(1000 * m + D)
        X = rng.normal(size=(m, D))
        y = rng.normal(size=m)
        model = fit(X, y, alpha=alpha)
        w_ref, b_ref = lstsq_reference(X, y, alpha)
        assert model.weights.tobytes() == w_ref.tobytes()
        assert model.bias == b_ref

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    @pytest.mark.parametrize("m", [5, 75])
    def test_bits_equal_with_duplicated_columns(self, m, alpha):
        # a rank-deficient design: the floor penalty (alpha 0) or the ridge
        # term is all that makes the solution unique
        rng = np.random.default_rng(m)
        base = rng.normal(size=(m, 6))
        X = base[:, [0, 1, 1, 2, 3, 3, 3, 4, 5, 0]]
        y = rng.normal(size=m)
        model = fit(X, y, alpha=alpha)
        w_ref, b_ref = lstsq_reference(X, y, alpha)
        assert model.weights.tobytes() == w_ref.tobytes()
        assert model.bias == b_ref

    @given(
        alpha=st.floats(0.0, 50.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_stationarity_always_small(self, alpha, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        diag = fit_diagnostics(X, y, fit(X, y, alpha=alpha))
        assert diag.normal_equation_residual < 1e-7


class TestPredict:
    def test_linear_form(self):
        model = LinearModel(weights=np.array([2.0, -1.0]), bias=0.5, ridge_alpha=0.0)
        out = predict(model, np.array([[1.0, 1.0], [0.0, 2.0]]))
        assert out.tolist() == [1.5, -1.5]

    def test_width_mismatch(self):
        model = LinearModel(weights=np.array([1.0]), bias=0.0, ridge_alpha=0.0)
        with pytest.raises(ValueError):
            predict(model, np.ones((2, 3)))


class TestRmse:
    def test_frozen_value(self):
        assert rmse(np.array([3.0, 4.0]), np.array([0.0, 0.0])) == RMSE_3_4

    def test_zero_on_perfect_fit(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            rmse(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            rmse(np.ones(2), np.ones(3))
