"""Shared fixtures: the 1-D toy graph, random and integer-grid instances, the
slow greedy reference, and benchmark data discovery."""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from alregress import Dataset, NNBipartiteGraph

REPO_ROOT = Path(__file__).resolve().parents[1]

# Classic benchmark files the heavy tests look for; see README for sources.
BENCH_FILES = {
    "housing": "housing.data",
    "concrete": "concrete.csv",
    "yacht": "yacht_hydrodynamics.data",
    "pm10": "pm10.csv",
    "redwine": "winequality-red.csv",
    "whitewine": "winequality-white.csv",
}


def data_dir() -> Path:
    return Path(os.environ.get("ALREGRESS_DATA_DIR", REPO_ROOT / "data"))


def bench_path(name: str) -> Path:
    return data_dir() / BENCH_FILES[name]


def require_bench(name: str) -> Path:
    path = bench_path(name)
    if not path.exists():
        pytest.skip(
            f"benchmark file {path} not present; download it per README "
            "(Datasets section) to enable this check"
        )
    return path


@pytest.fixture
def toy_graph() -> NNBipartiteGraph:
    """1-D line: labeled at 0/20/40, unlabeled at 9/13/38/41.

    Weights come out [9, 7, 2, 1]; moving the 9-point pulls the 7 down to 4
    (distance 4 between them), so its reduction is 9 + 3 = 12.
    """
    X = np.array([[0.0], [20.0], [40.0], [9.0], [13.0], [38.0], [41.0]])
    return NNBipartiteGraph.build([0, 1, 2], [3, 4, 5, 6], X)


def random_graph(rng, n_lo=8, n_hi=30, d_hi=6, max_labeled_frac=3):
    """Random standard-normal instance with at least one labeled point."""
    n = int(rng.integers(n_lo, n_hi))
    d = int(rng.integers(1, d_hi + 1))
    X = rng.normal(size=(n, d))
    n_lab = int(rng.integers(1, max(2, n // max_labeled_frac) + 1))
    perm = rng.permutation(n)
    return NNBipartiteGraph.build(perm[:n_lab], perm[n_lab:], X), X


@st.composite
def grid_graphs(draw, max_n=30):
    """Small graphs on an integer grid: duplicate rows and exact ties."""
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, 3))
    side = draw(st.integers(1, 4))
    cells = draw(
        st.lists(
            st.lists(st.integers(0, side - 1), min_size=d, max_size=d),
            min_size=n,
            max_size=n,
        )
    )
    X = np.asarray(cells, dtype=np.float64)
    perm = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    n_lab = draw(st.integers(1, n - 1))
    return NNBipartiteGraph.build(perm[:n_lab], perm[n_lab:], X)


def eager_seed_set(graph, k):
    """Slow reference for build_seed_set: a full q_values scan per pick,
    argmax (first max, so ties go to the smallest index), then commit."""
    g = graph
    picks = np.empty(k, dtype=np.int64)
    for i in range(k):
        u = int(g.unlabeled[int(np.argmax(g.q_values()))])
        picks[i] = u
        g = g.commit(np.asarray([u]))
    return picks


def demo05_dataset() -> Dataset:
    """The clustered data of demos/05_benchmark_run.py, same recipe and seed."""
    rng = np.random.default_rng(5)
    centers = rng.normal(scale=5.0, size=(6, 4))
    assignments = rng.integers(0, 6, size=400)
    X = centers[assignments] + 0.5 * rng.normal(size=(400, 4))
    slopes = rng.normal(size=(6, 4))
    y = np.einsum("ij,ij->i", X, slopes[assignments]) + 0.1 * rng.normal(size=400)
    return Dataset(features=X, targets=y, name="clusters")


def synthetic_dataset(seed: int, n=120, d=4, noise=0.05, name="synth") -> Dataset:
    """Linear ground truth plus a little target noise; plenty for harness tests."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = X @ w + 0.5 + noise * rng.normal(size=n)
    return Dataset(features=X, targets=y, name=name)


# -- acceptance-criteria reporting -------------------------------------------

_ACCEPTANCE: list[tuple[int, str, str]] = []
_STATUS_RANK = {"FAIL": 0, "SKIP": 1, "PASS": 2}


def record_criterion(number: int, status: str, detail: str = "") -> None:
    """Log one acceptance sub-result; the terminal summary prints one line
    per criterion, FAIL overriding SKIP overriding PASS."""
    assert status in _STATUS_RANK
    _ACCEPTANCE.append((number, status, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    by_number: dict[int, list[tuple[str, str]]] = {}
    for number, status, detail in _ACCEPTANCE:
        by_number.setdefault(number, []).append((status, detail))
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(by_number):
        results = by_number[number]
        status = min((s for s, _ in results), key=_STATUS_RANK.__getitem__)
        details = "; ".join(d for _, d in results if d)
        terminalreporter.write_line(f"criterion {number:>2}: {status}  {details}")
