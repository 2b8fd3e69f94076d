"""Simulated labeling oracle: exact answers or answers with scaled Gaussian noise.

Noise for each queried point is drawn from N(0, (scale * s)^2) where s is the
population std of the labels known at query time (including earlier noisy
answers). One PCG64 stream per oracle instance, advanced exactly once per
query, makes every answer a pure function of (seed, query counter).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Label spreads below this are treated as zero spread (noise all but vanishes).
_STD_FLOOR = 1e-12

NOISE_KINDS = ("exact", "gaussian")


@dataclass(frozen=True)
class OracleConfig:
    noise_kind: str = "exact"
    noise_scale: float = 0.1

    def __post_init__(self):
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.noise_kind!r}")
        if not self.noise_scale >= 0:
            raise ValueError("noise_scale must be >= 0")


class LabelOracle:
    """Answers label queries for known ground-truth targets."""

    def __init__(self, config: OracleConfig, seed: int | np.random.SeedSequence):
        self.config = config
        self._rng = np.random.default_rng(seed)
        self.queries_answered = 0

    def label(self, targets: np.ndarray, idx: int, labeled_targets: np.ndarray) -> float:
        """Ground-truth label of ``idx``, plus noise when configured.

        ``labeled_targets`` are the labels known before this query; with fewer
        than two of them the spread of the initial labeled set (which they are
        at that point) is used, floored at a negligible minimum.
        """
        targets = np.asarray(targets, dtype=np.float64)
        if not 0 <= idx < targets.shape[0]:
            raise ValueError(f"index {idx} out of range for {targets.shape[0]} targets")
        truth = float(targets[idx])
        if self.config.noise_kind == "exact":
            self.queries_answered += 1
            return truth
        known = np.asarray(labeled_targets, dtype=np.float64)
        if known.size == 0:
            raise ValueError("gaussian noise needs at least one known label")
        spread = float(known.std())  # population std; 0.0 for a single label
        if spread < _STD_FLOOR:
            spread = _STD_FLOOR
        noise = float(self._rng.normal(0.0, self.config.noise_scale * spread))
        self.queries_answered += 1
        return truth + noise
