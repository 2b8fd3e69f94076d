"""Cross-checks of the fast paths against rebuild and enumeration references.

Each check is the one implementation of a fact the paper's claims rest on:
commit equals a fresh build, q equals the drop in H, the prediction-shift cap
holds, and swap local search stays within the locality gap of 5. The checks
decide through the library's own code: every bound draw goes through
graph.check_bound, and every optimum through the exhaustive solvers. A check
raises AssertionError when it fails and returns what it measured, if
anything.
``al-regress validate`` (run_validation) and acceptance criteria 2-5 call
them at their own sizes and seeds; validate also runs the rebuild check on
integer-grid instances with exact ties.
"""

from __future__ import annotations

import numpy as np

from .exhaustive import best_subset_by_q, min_total_after
from .graph import NNBipartiteGraph, check_bound
from .regression import LinearModel
from .strategies import build_seed_set, select_ours_batch


def random_instance(rng, n_lo=8, n_hi=30, d_hi=6):
    """Random standard-normal instance with at least one labeled point."""
    n = int(rng.integers(n_lo, n_hi))
    d = int(rng.integers(1, d_hi + 1))
    X = rng.normal(size=(n, d))
    n_lab = int(rng.integers(1, max(2, n // 3) + 1))
    perm = rng.permutation(n)
    return NNBipartiteGraph.build(perm[:n_lab], perm[n_lab:], X), X


def check_graph(graph: NNBipartiteGraph) -> None:
    """Assert that ``graph`` equals a fresh build of its own two sides, in
    ``nn`` and ``thetas`` bitwise."""
    rebuilt = NNBipartiteGraph.build(graph.labeled, graph.unlabeled, graph.features)
    if not np.array_equal(rebuilt.thetas, graph.thetas):
        raise AssertionError("incremental graph weights differ from a fresh build")
    if not np.array_equal(rebuilt.nn, graph.nn):
        raise AssertionError("incremental graph neighbors differ from a fresh build")


def check_commit(graph: NNBipartiteGraph, subset) -> None:
    """Assert that ``commit(subset)`` moves exactly ``subset`` and equals a
    fresh build (check_graph). Its thetas then equal the rebuild's bitwise,
    so q_set, the H drop of that commit, equals the rebuild's drop exactly."""
    committed = graph.commit(subset)
    if not (
        np.array_equal(committed.labeled, np.union1d(graph.labeled, subset))
        and np.array_equal(committed.unlabeled, np.setdiff1d(graph.unlabeled, subset))
    ):
        raise AssertionError("commit moved a different set of points")
    check_graph(committed)


def bound_violations(rng, draws: int) -> int:
    """How many of ``draws`` random draws check_bound rejects. A draw is a
    dimension from 1 to 20, two LinearModels and two points; check_bound
    raises when the prediction shift exceeds max|dw| * L1(x_u, x_l)."""
    violations = 0
    for _ in range(draws):
        d = int(rng.integers(1, 21))
        before = LinearModel(weights=rng.normal(size=d), bias=0.0, ridge_alpha=0.0)
        after = LinearModel(weights=rng.normal(size=d), bias=0.0, ridge_alpha=0.0)
        try:
            check_bound(before, after, rng.normal(size=d), rng.normal(size=d))
        except ValueError:
            violations += 1
    return violations


def optimum(graph: NNBipartiteGraph, k: int) -> tuple[float, float]:
    """The best k-subset's q and the H it leaves, by enumeration. Asserts,
    bitwise, that q is graph.q_set of that subset (the enumerated weights
    against commit's) and the max-Q / min-total duality; the duality sums
    the same enumerated weights on both sides, so only the first can catch
    a wrong enumeration kernel."""
    best_subset, best_q = best_subset_by_q(graph, k)
    if best_q != graph.q_set(best_subset):
        raise AssertionError("enumerated q differs from q_set of the best subset")
    residual_opt = min_total_after(graph, k)
    # Subtracting a larger total never rounds past a smaller one.
    if best_q != graph.total_uncertainty() - residual_opt:
        raise AssertionError("max-reduction / min-total duality broken")
    return best_q, residual_opt


def local_search_ratios(graph: NNBipartiteGraph, k: int) -> tuple[float, float]:
    """Residual ratio (local search / optimum) and q ratio (optimum / local
    search) of the batch rule against enumeration over k-subsets (optimum).
    Asserts score >= the seed's q and residual <= 5x the optimum's (the
    single-swap locality gap, Arya et al. 2004)."""
    seed = build_seed_set(graph, k)[0]
    trace = select_ours_batch(graph, k, seed)
    if trace.score < graph.q_set(seed):
        raise AssertionError("local search returned less than its seed set's q")
    best_q, residual_opt = optimum(graph, k)
    residual_ls = graph.total_uncertainty() - trace.score
    if residual_ls > 5.0 * residual_opt:
        raise AssertionError(
            f"local search left {residual_ls}, 5x the optimum's {residual_opt}"
        )
    # A zero optimum forces a zero residual, and a zero score a zero optimum.
    return (
        residual_ls / residual_opt if residual_opt > 0 else 1.0,
        best_q / trace.score if trace.score > 0 else 1.0,
    )


def _rebuild_block(rng, instances=60):
    for d_hi, grid in ((5, False), (3, True)):
        for _ in range(instances):
            g, X = random_instance(rng, n_hi=26, d_hi=d_hi)
            if grid:  # rounded features: duplicate rows and exact ties
                g = NNBipartiteGraph.build(g.labeled, g.unlabeled, np.round(X))
            size = int(rng.integers(1, min(4, g.unlabeled.size) + 1))
            subset = np.sort(rng.choice(g.unlabeled, size=size, replace=False))
            check_commit(g, subset)
    return (
        f"commit == rebuild on {2 * instances} instances ({instances} on an "
        "integer grid)"
    )


def _bound_block(rng, draws=2000):
    violations = bound_violations(rng, draws)
    if violations:
        raise AssertionError(
            f"prediction-shift bound violated on {violations}/{draws} draws"
        )
    return f"prediction-shift bound held on {draws} random draws"


def _local_search_block(rng, instances=30):
    worst = 1.0
    for _ in range(instances):
        g, _ = random_instance(rng, n_hi=16, d_hi=3)
        if g.unlabeled.size < 4 or g.unlabeled.size > 12:
            continue
        k = int(rng.integers(2, 4))
        worst = max(worst, local_search_ratios(g, k)[0])
    return f"local search within 5x of exhaustive optimum (worst {worst:.3f})"


def run_validation(seed: int = 0, echo=print) -> int:
    """Run every cross-check block; returns the number of failing blocks."""
    failures = 0
    rng = np.random.default_rng(seed)
    for block in (_rebuild_block, _bound_block, _local_search_block):
        try:
            echo(f"ok: {block(rng)}")
        except AssertionError as exc:
            echo(f"FAIL: {exc}")
            failures += 1
    echo("validation passed" if failures == 0 else f"validation FAILED ({failures})")
    return failures
