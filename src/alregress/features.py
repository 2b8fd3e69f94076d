"""Full multinomial feature expansion without a bias term.

The map emits every monomial of total degree 1..k over the d inputs,
ordered graded-lexicographically: grouped by total degree ascending, and within
a degree by the nondecreasing tuple of input indices. For d=2, k=2 the order is
[x0, x1, x0^2, x0*x1, x1^2]. The expanded dimension is C(d+k, k) - 1.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Hard ceiling on how many expanded columns we will materialize.
_MAX_EXPANDED = 10**7


def monomial_index_tuples(d: int, degree: int) -> list[tuple[int, ...]]:
    """All monomials of total degree 1..degree as nondecreasing index tuples.

    Graded lexicographic: degree 1 tuples first, then degree 2, etc., each
    block in the order produced by itertools.combinations_with_replacement.
    """
    if d < 1 or degree < 1:
        raise ValueError(f"need d >= 1 and degree >= 1, got d={d}, degree={degree}")
    out: list[tuple[int, ...]] = []
    for deg in range(1, degree + 1):
        out.extend(itertools.combinations_with_replacement(range(d), deg))
    return out


def expanded_dim(d: int, degree: int) -> int:
    """Output width of the map for d input features (exact integer arithmetic)."""
    if d < 1 or degree < 1:
        raise ValueError(f"need d >= 1 and degree >= 1, got d={d}, degree={degree}")
    return math.comb(d + degree, degree) - 1


def expand(x: np.ndarray, degree: int) -> np.ndarray:
    """Map one feature vector into the model's feature space."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expand takes a 1-D vector, got shape {x.shape}")
    return expand_matrix(x[None, :], degree)[0]


def expand_matrix(X: np.ndarray, degree: int) -> np.ndarray:
    """Row-wise feature map of an (n, d) matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"expand_matrix takes a 2-D matrix, got shape {X.shape}")
    d = X.shape[1]
    width = expanded_dim(d, degree)
    if width > _MAX_EXPANDED:
        raise ValueError(
            f"polynomial expansion of d={d} at degree {degree} would produce "
            f"{width} columns (limit {_MAX_EXPANDED})"
        )
    cols = np.empty((X.shape[0], width), dtype=np.float64)
    for j, combo in enumerate(monomial_index_tuples(d, degree)):
        col = X[:, combo[0]].copy()
        for idx in combo[1:]:
            col *= X[:, idx]
        cols[:, j] = col
    return cols
