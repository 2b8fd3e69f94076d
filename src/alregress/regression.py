"""Linear and ridge regression with an unpenalized intercept.

fit minimizes ||X w + b 1 - y||^2 + alpha ||w||^2. The bias column is appended
and the penalty applied only to w, so the solve is a single stacked least
squares. alpha=0 requests plain least squares; a small floor penalty keeps
near-singular systems stable while staying within every stated tolerance.

The solve runs on one BLAS thread: at every shape the protocol reaches,
measured on 2 vCPUs, OpenBLAS's thread hand-offs cost more than a second
thread saves. The solution's bits equal an unscoped solve's (the tests check
this), and each library's thread count is restored afterwards.
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Penalty used in place of alpha=0; keeps rank-deficient fits at the
# minimum-norm solution without amplifying tiny singular values.
FLOOR_ALPHA = 1e-8

# (get, set) thread-count functions of every loaded OpenBLAS; None until the
# first fit looks them up, so importing the package loads nothing. The counts
# are process-wide, so concurrent fits take turns saving and restoring them.
_openblas = None
_openblas_lock = threading.Lock()


def _openblas_libraries() -> list:
    """(path, library) of every OpenBLAS mapped into this process, by path;
    empty when there is none or no /proc/self/maps to read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return [(path, ctypes.CDLL(path)) for path in sorted(paths) if path.startswith("/")]


def _openblas_thread_controls() -> list:
    """The (get, set)_num_threads pairs of every loaded OpenBLAS."""
    global _openblas
    if _openblas is None:
        controls = []
        for _, lib in _openblas_libraries():
            pair = (
                _openblas_symbol(lib, "get_num_threads"),
                _openblas_symbol(lib, "set_num_threads"),
            )
            if None not in pair:
                pair[0].argtypes, pair[0].restype = [], ctypes.c_int
                pair[1].argtypes, pair[1].restype = [ctypes.c_int], None
                controls.append(pair)
        _openblas = controls
    return _openblas


def _openblas_symbol(lib, stem: str):
    """``stem`` under the names OpenBLAS builds export (scipy's wheels
    prefix and 64-bit-integer builds suffix them), or None."""
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


@contextmanager
def _one_blas_thread():
    """Run the body with every OpenBLAS on one thread, then restore each
    library's previous count, also when the body raises."""
    with _openblas_lock:
        controls = _openblas_thread_controls()
        saved = [get() for get, _ in controls]
        for _, set_threads in controls:
            set_threads(1)
        try:
            yield
        finally:
            for (_, set_threads), count in zip(controls, saved):
                set_threads(count)


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


def fit(X: np.ndarray, y: np.ndarray, alpha: float = 0.0) -> LinearModel:
    """Solve the penalized least-squares problem.

    Args:
        X: (m, D) design matrix, m >= 1.
        y: (m,) targets.
        alpha: ridge penalty on the weights (never on the bias), >= 0.

    Returns:
        The fitted LinearModel. fit_diagnostics checks it against the problem.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"incompatible shapes X{X.shape}, y{y.shape}")
    if X.shape[0] < 1:
        raise ValueError("need at least one training row")
    if not np.all(np.isfinite(X)) or not np.all(np.isfinite(y)):
        raise ValueError("training data contains non-finite values")
    if not 0 <= alpha < np.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")

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
    with _one_blas_thread():
        # Both inputs were checked finite above.
        sol, _, _, _ = scipy.linalg.lstsq(stacked, rhs, check_finite=False)
    return LinearModel(weights=sol[:D], bias=float(sol[D]), ridge_alpha=alpha)


def fit_diagnostics(X: np.ndarray, y: np.ndarray, model: LinearModel) -> FitDiagnostics:
    """The relative stationarity residual of ``model`` as fit's solution on
    (X, y), and whether the augmented design [X | 1] is column-rank deficient.

    The rank test is a second SVD of the design, so fit leaves it to callers
    that read it.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
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
