"""Linear and ridge regression with an unpenalized intercept.

fit minimizes ||X w + b 1 - y||^2 + alpha ||w||^2. The bias column is appended
and the penalty applied only to w, so the solve is a single stacked least
squares, solved by numpy's LAPACK gelsd. alpha=0 requests plain least
squares; a small floor penalty keeps near-singular systems stable while
staying within every stated tolerance.

fit and predict run numpy's BLAS on as many threads as the caller set;
run_experiment and run_trial run every fit and predict of a trial on one
OpenBLAS thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import require_nonnegative

# Penalty used in place of alpha=0; keeps rank-deficient fits at the
# minimum-norm solution without amplifying tiny singular values.
FLOOR_ALPHA = 1e-8


@dataclass(frozen=True)
class LinearModel:
    """Fitted weights and intercept; ridge_alpha records the requested penalty."""

    weights: np.ndarray
    bias: float
    ridge_alpha: float


@dataclass(frozen=True)
class FitDiagnostics:
    """normal_equation_residual is relative to the right-hand side's norm."""

    normal_equation_residual: float
    effective_rank_deficient: bool


def _training_data(X, y, width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """X and y as float64 arrays: a 2-D X of at least one row, ``width``
    columns wide when given, one target per row, every entry finite."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"incompatible shapes X{X.shape}, y{y.shape}")
    if width is not None and X.shape[1] != width:
        raise ValueError(f"feature width {X.shape} does not match model width {width}")
    if X.shape[0] < 1:
        raise ValueError("need at least one training row")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValueError("training data contains non-finite values")
    return X, y


def fit(X: np.ndarray, y: np.ndarray, alpha: float = 0.0) -> LinearModel:
    """Solve the penalized least-squares problem.

    Args:
        X: (m, D) design matrix, m >= 1.
        y: (m,) targets.
        alpha: ridge penalty on the weights (never on the bias), >= 0.

    Returns:
        The fitted LinearModel. fit_diagnostics checks it against the problem.
    """
    X, y = _training_data(X, y)
    require_nonnegative("alpha", alpha)
    m, D = X.shape
    alpha_eff = alpha if alpha > 0 else FLOOR_ALPHA
    # [X | 1] over penalty rows sqrt(alpha) * [I_D | 0], which realize the
    # ridge term in one lstsq, written into one array.
    stacked = np.zeros((m + D, D + 1))
    stacked[:m, :D] = X
    stacked[:m, D] = 1.0
    np.fill_diagonal(stacked[m:], np.sqrt(alpha_eff))
    rhs = np.zeros(m + D)
    rhs[:m] = y
    # gelsd, dropping singular values below eps times the largest: the
    # LAPACK routine and default cutoff of conftest.lstsq_reference's
    # solve, and its bits.
    eps = np.finfo(np.float64).eps
    sol, _, _, _ = np.linalg.lstsq(stacked, rhs, rcond=eps)
    return LinearModel(weights=sol[:D], bias=float(sol[D]), ridge_alpha=alpha)


def fit_diagnostics(X: np.ndarray, y: np.ndarray, model: LinearModel) -> FitDiagnostics:
    """The relative stationarity residual of ``model`` as fit's solution on
    (X, y), and whether the augmented design [X | 1] is column-rank deficient.

    The rank test is a second SVD of the design, so fit leaves it to callers
    that read it.
    """
    X, y = _training_data(X, y, width=model.weights.shape[0])
    m, D = X.shape
    alpha_eff = model.ridge_alpha if model.ridge_alpha > 0 else FLOOR_ALPHA
    aug = np.hstack([X, np.ones((m, 1))])
    resid_pred = aug @ np.append(model.weights, model.bias) - y
    grad_w = X.T @ resid_pred + alpha_eff * model.weights
    grad_b = float(np.sum(resid_pred))
    resid_norm = float(np.sqrt(np.sum(grad_w**2) + grad_b**2))
    rhs_norm = float(np.sqrt(np.sum((X.T @ y) ** 2) + np.sum(y) ** 2))
    deficient = np.linalg.matrix_rank(aug) < D + 1
    return FitDiagnostics(
        normal_equation_residual=resid_norm / max(1.0, rhs_norm),
        effective_rank_deficient=bool(deficient),
    )


def predict(model: LinearModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"feature width {X.shape} does not match model width "
            f"{model.weights.shape[0]}"
        )
    return X @ model.weights + model.bias


def rmse(predictions: np.ndarray, truth: np.ndarray) -> float:
    predictions = np.asarray(predictions, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if predictions.shape != truth.shape or predictions.ndim != 1:
        raise ValueError(
            f"predictions {predictions.shape} and truth {truth.shape} must be "
            "equal-length vectors"
        )
    if predictions.shape[0] == 0:
        raise ValueError("rmse of empty vectors is undefined")
    return float(np.sqrt(np.mean((predictions - truth) ** 2)))
