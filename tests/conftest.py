"""Shared fixtures: the 1-D toy graph, random, clustered and integer-grid
instances, the benchmark stand-in's graphs, the slow references for the
near-pair list, lazy greedy, the greedy max-min-distance walk, the swap
search, rebuilds and least squares with the checks that hold the fast paths
to them, the replay of a harness trial on a graph, benchmark data
discovery, the OpenBLAS kernel the run uses, named in the report header,
and ``blas_threads``, which runs a test with every OpenBLAS on two threads.

``random_graph`` is the library's ``validation.random_instance``, so the
unit tests and ``al-regress validate`` draw instances the same way."""

import ctypes
import dataclasses
import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from alregress import (
    Dataset,
    NNBipartiteGraph,
    RegressionSpec,
    build_model_space,
    build_seed_set,
    greedy_order,
    make_split,
    select_greedy,
    select_ours_batch,
)
from alregress.experiment import (
    _openblas_libraries,
    _openblas_symbol,
    _openblas_thread_controls,
)
from alregress.regression import FLOOR_ALPHA
from alregress.strategies import SWAP_TOL
from alregress.validation import check_commit, check_graph
from alregress.validation import random_instance as random_graph  # noqa: F401

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


def openblas_cores() -> str:
    """"library: core" for every OpenBLAS that experiment finds mapped into
    this process, the core read from its openblas_get_corename, looked up
    under the names that experiment looks the thread controls up under.

    Pinned lstsq and GEMM bytes hold on one kernel (AVX-512 SkylakeX) and
    not on the AVX2 ones, so the header and the failure messages of the
    BLAS-derived pins name it."""
    cores = []
    for path, lib in _openblas_libraries():
        corename = _openblas_symbol(lib, "get_corename")
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            cores.append(f"{Path(path).name}: {corename().decode()}")
    return "; ".join(cores) or "none found"


def pytest_report_header(config):
    return f"OpenBLAS cores: {openblas_cores()}"


def thread_counts() -> list[int]:
    return [get() for get, _ in _openblas_thread_controls()]


@pytest.fixture
def blas_threads():
    """Every loaded OpenBLAS on two threads for the test, then back to its
    count before; yields the (get, set) controls. Skips without OpenBLAS."""
    controls = _openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS loaded: nothing sets a thread count")
    saved = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(2)
    yield controls
    for (_, set_threads), count in zip(controls, saved):
        set_threads(count)


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


def q_by_rebuild(graph, subset):
    """Reference reduction: H minus the total after moving `subset` to labeled."""
    subset = list(subset)
    new_labeled = sorted(set(graph.labeled.tolist()) | set(subset))
    new_unlabeled = [u for u in graph.unlabeled.tolist() if u not in set(subset)]
    after = NNBipartiteGraph.build(new_labeled, new_unlabeled, graph.features)
    return graph.total_uncertainty() - after.total_uncertainty()


def lstsq_reference(X, y, alpha):
    """Reference for fit: its stacked system built with hstack, vstack and
    eye, solved by a plain scipy.linalg.lstsq call (finiteness checked), with
    BLAS threading as the caller left it."""
    m, D = X.shape
    alpha_eff = alpha if alpha > 0 else FLOOR_ALPHA
    stacked = np.vstack(
        [
            np.hstack([X, np.ones((m, 1))]),
            np.hstack([np.sqrt(alpha_eff) * np.eye(D), np.zeros((D, 1))]),
        ]
    )
    sol = scipy.linalg.lstsq(stacked, np.concatenate([y, np.zeros(D)]))[0]
    return sol[:D], float(sol[D])


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


def clustered_graph(seed=7, n=2040, d=6, n_labeled=40):
    """Six Gaussian clusters and a random labeled set: the stand-ins'
    regime, where a few percent of pool pairs are near."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=5.0, size=(6, d))
    X = centers[rng.integers(0, 6, size=n)] + 0.5 * rng.normal(size=(n, d))
    perm = rng.permutation(n)
    return NNBipartiteGraph.build(perm[:n_labeled], perm[n_labeled:], X)


def stand_in_graph(split_seed, n=4898, d=11):
    """The initial graph of a trial on perfbench/workloads.py's stand-in
    data at n x d (generated at seed 0), linear features, at split seed
    ``split_seed``. The defaults are the graph-whitewine benchmark's, whose
    pool holds 3,380 points."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py"
    )
    wl = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = wl  # dataclasses look their module up here
    spec.loader.exec_module(wl)  # perfbench is no package
    workload = dataclasses.replace(wl.WORKLOADS["graph-whitewine"], n=n, d=d)
    # the benchmark writes these floats as repr and loads them back exactly
    X, y = wl.stand_in(workload, 0)
    space = build_model_space(
        Dataset(features=X, targets=y, name=workload.name),
        RegressionSpec(kind="linear"),
    )
    split = make_split(space.n, split_seed)
    return NNBipartiteGraph.build(split.initial_labeled, split.unlabeled_pool,
                                  space.features)


def whitewine_stand_in_graph(split_seed):
    """The initial graph of a graph-whitewine benchmark trial at split seed
    ``split_seed``: a 3,380-point pool."""
    return stand_in_graph(split_seed)


def near_pairs_reference(g):
    """One pool x pool cdist, masked by d(u, j) < thetas[j] and grouped by
    candidate u, rows ascending: what near_pairs must return bitwise."""
    XU = g.features[g.unlabeled]
    D = cdist(XU, XU, "cityblock")
    u, j = np.nonzero(D < g.thetas)
    ptr = np.zeros(g.unlabeled.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=g.unlabeled.size), out=ptr[1:])
    return ptr, j.astype(np.int32), D[u, j]


def assert_near_pairs_are_reference(g):
    """near_pairs equals near_pairs_reference: dtype, shape and bytes."""
    for got, want in zip(g.near_pairs(), near_pairs_reference(g), strict=True):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def eager_seed_set(graph, k):
    """Slow reference for build_seed_set: a full q_values scan per pick,
    argmax (first max, so ties go to the smallest index), then commit.
    Returns ``(picks, drops)``, each drop the pick's commit's fall in H."""
    g = graph
    picks = np.empty(k, dtype=np.int64)
    drops = np.empty(k, dtype=np.float64)
    for i in range(k):
        u = int(g.unlabeled[int(np.argmax(g.q_values()))])
        after = g.commit(np.asarray([u]))
        picks[i], drops[i] = u, g.total_uncertainty() - after.total_uncertainty()
        g = after
    return picks, drops


def assert_lazy_is_eager(graph, k):
    """build_seed_set(graph, k) equals eager_seed_set: the same picks and
    the same drop bits."""
    picks, drops = build_seed_set(graph, k)
    want_picks, want_drops = eager_seed_set(graph, k)
    np.testing.assert_array_equal(picks, want_picks)
    assert drops.tobytes() == want_drops.tobytes()


def greedy_scan(features, labeled, unlabeled):
    """Slow reference for one greedy_order step: a fresh cdist of the whole
    pool against the whole labeled set, its row minima and np.argmax, ties
    to the first in ``unlabeled`` order. Returns (pick, score)."""
    dmin = cdist(features[unlabeled], features[labeled], "euclidean").min(axis=1)
    pos = int(np.argmax(dmin))
    return int(unlabeled[pos]), float(dmin[pos])


def assert_matches_dense(graph, seed):
    """select_ours_batch from ``seed`` (dataset indices) equals
    dense_local_search in chosen set, swap count and q_history, bitwise.
    Returns the trace."""
    trace = select_ours_batch(graph, seed.size, seed_set=seed)
    S, q_hist, swaps = dense_local_search(graph, graph._subset_positions(seed))
    np.testing.assert_array_equal(trace.chosen, graph.unlabeled[S])
    assert trace.swaps_performed == swaps
    assert trace.q_history == tuple(q_hist)
    assert trace.score == q_hist[-1]
    return trace


def assert_greedy_is_fresh_scans(features, labeled, unlabeled, n):
    """greedy_order's n picks and score bits equal greedy_scan's on the sets
    each step has reached. Returns greedy_order's ``(picks, scores)``."""
    picks, scores = greedy_order(features, labeled, unlabeled, n)
    for i in range(n):
        u, score = greedy_scan(features, labeled, unlabeled)
        assert picks[i] == u, f"greedy step {i}"
        assert scores[i].tobytes() == np.float64(score).tobytes(), f"greedy step {i}"
        labeled, unlabeled = np.append(labeled, u), unlabeled[unlabeled != u]
    return picks, scores


def dense_local_search(graph, seed_pos):
    """Slow reference for select_ours_batch's search: the pool x pool L1
    matrix, the whole nearest/second-nearest state rebuilt before every
    candidate that follows a swap, one dense gain vector per candidate and
    one q_set per accepted swap. Returns the final sorted pool positions,
    q_history as a list and the swap count."""
    XU = graph.features[graph.unlabeled]
    D = cdist(XU, XU, "cityblock")
    theta = graph.thetas
    S = np.sort(np.asarray(seed_pos, dtype=np.int64))
    in_set = np.zeros(theta.size, dtype=bool)
    in_set[S] = True
    swaps = 0
    q_hist = [graph.q_set(graph.unlabeled[S])]
    if S.size == theta.size:
        return S, q_hist, swaps
    changed = True
    while changed:
        changed = False
        state = None
        for u in np.where(~in_set)[0]:
            if in_set[u]:
                continue  # swapped in earlier this pass
            if state is None:
                state = _dense_pool_state(D, theta, S)
            deltas = _dense_swap_deltas(D, S, int(u), state)
            hits = np.nonzero(deltas > SWAP_TOL)[0]
            if hits.size:
                removed = int(S[int(hits[0])])
                in_set[removed] = False
                in_set[u] = True
                S = np.sort(np.concatenate([S[S != removed], [u]]))
                swaps += 1
                changed = True
                state = None
                q_hist.append(graph.q_set(graph.unlabeled[S]))
    return S, q_hist, swaps


def _dense_pool_state(D, theta, S):
    """Nearest/second-nearest bookkeeping for the member set S."""
    k = S.size
    cols = D[:, S]
    m1pos = cols.argmin(axis=1)
    m1 = cols[np.arange(cols.shape[0]), m1pos]
    if k >= 2:
        m2 = np.partition(cols, 1, axis=1)[:, 1]
    else:
        m2 = np.full(cols.shape[0], np.inf)
    cost = np.minimum(theta, m1)
    fallback = np.minimum(theta, m2)  # cost if the owning member is removed
    owner = m1 < theta  # rows whose cost actually comes from a member
    # Member rows see their own zero as m1; m2 is their distance to the rest.
    member_fallback = np.minimum(theta[S], m2[S])
    return m1pos, cost, fallback, owner, member_fallback


def _dense_swap_deltas(D, S, u, state):
    """q_set(S - l + u) - q_set(S) for every l in S, as one vector.

    Clients not owned by l gain max(0, cost - d(j,u)) regardless of l;
    clients owned by l fall back to min(fallback, d(j,u)); u stops being a
    client; l becomes one.
    """
    m1pos, cost, fallback, owner, member_fallback = state
    k = S.size
    du = D[:, u]
    client = np.ones(D.shape[0], dtype=bool)
    client[S] = False
    client[u] = False
    base_gain = np.where(client, np.maximum(cost - du, 0.0), 0.0)
    total_base = base_gain.sum()
    owned = client & owner
    owner_idx = m1pos[owned]
    base_by_l = np.bincount(owner_idx, weights=base_gain[owned], minlength=k)
    repl_gain = cost - np.minimum(fallback, du)
    repl_by_l = np.bincount(owner_idx, weights=repl_gain[owned], minlength=k)
    new_member_cost = np.minimum(member_fallback, du[S])
    return total_base - base_by_l + repl_by_l + cost[u] - new_member_cost


def replay_trial(config, result):
    """Replay a harness trial on the graph: rebuild its initial graph from
    the split and commit ``queried_indices`` one at a time, checking the
    graph against a fresh build (check_graph) at every round end.

    An ``ours_sequential`` score must equal the replayed H drop of its
    query bitwise. A ``greedy`` query and its score must equal, bitwise,
    what select_greedy returns on the replayed sets: greedy_order's first
    pick, one fresh scan of those sets, where the harness walked one
    greedy_order from the initial sets. An
    ``ours_batch`` set is checked as one commit of the initial graph
    (check_commit), and its score must equal that graph's q_set of the
    set. The harness keeps only index sets, so this is where
    its queries meet the graph's tie rule on a trial's own data."""
    space = build_model_space(config.dataset, config.regression)
    split = make_split(space.n, result.seed)
    g0 = NNBipartiteGraph.build(split.initial_labeled, split.unlabeled_pool,
                                space.features)
    if result.strategy == "ours_batch":
        chosen = np.asarray(result.queried_indices, dtype=np.int64)
        check_commit(g0, chosen)
        assert set(result.query_scores) == {g0.q_set(chosen)}
        return
    g = g0
    rounds = result.query_rounds
    for i, (u, score) in enumerate(zip(result.queried_indices, result.query_scores)):
        if result.strategy == "greedy":
            trace = select_greedy(space.features, g.labeled, g.unlabeled)
            assert (trace.chosen, trace.score) == (u, score)
        after = g.commit(np.asarray([u]))
        if result.strategy == "ours_sequential":
            assert score == g.total_uncertainty() - after.total_uncertainty()
        g = after
        if i + 1 == len(rounds) or rounds[i + 1] != rounds[i]:
            check_graph(g)


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
