"""Active learning for regression on a nearest-labeled-neighbor uncertainty graph.

The pool's uncertainty is the total L1 distance from unlabeled points to their
nearest labeled neighbors; queries are chosen to remove as much of that mass
as possible, one point at a time or as a swap-optimized batch. Baselines, a
simulated labeling oracle, exhaustive reference solvers, and a seeded
benchmark harness round out the package.
"""

from .datasets import (
    Dataset,
    DatasetManifest,
    SplitIndices,
    load_dataset,
    load_manifest,
    make_split,
    round_half_up,
    standardize,
)
from .exhaustive import best_subset_by_q, min_total_after, mmmd_decide, mmtd_decide
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    RegressionSpec,
    TrialResult,
    build_model_space,
    run_experiment,
    run_trial,
)
from .features import (
    expand,
    expand_matrix,
    expanded_dim,
    monomial_index_tuples,
)
from .graph import BoundDiagnostic, NNBipartiteGraph, check_bound
from .oracle import LabelOracle, OracleConfig
from .regression import FitDiagnostics, LinearModel, fit, fit_diagnostics, predict, rmse
from .report import emit_report, write_trace_log
from .strategies import (
    SelectionTrace,
    StrategyConfig,
    build_seed_set,
    greedy_order,
    select_emcm,
    select_greedy,
    select_ours_batch,
    select_ours_sequential,
    select_qbc,
    select_random,
)
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "BoundDiagnostic",
    "Dataset",
    "DatasetManifest",
    "ExperimentConfig",
    "ExperimentReport",
    "FitDiagnostics",
    "LabelOracle",
    "LinearModel",
    "NNBipartiteGraph",
    "OracleConfig",
    "RegressionSpec",
    "SelectionTrace",
    "SplitIndices",
    "StrategyConfig",
    "TrialResult",
    "best_subset_by_q",
    "build_model_space",
    "build_seed_set",
    "check_bound",
    "emit_report",
    "expand",
    "expand_matrix",
    "expanded_dim",
    "fit",
    "fit_diagnostics",
    "greedy_order",
    "load_dataset",
    "load_manifest",
    "make_split",
    "min_total_after",
    "mmmd_decide",
    "mmtd_decide",
    "monomial_index_tuples",
    "predict",
    "rmse",
    "round_half_up",
    "run_experiment",
    "run_trial",
    "run_validation",
    "select_emcm",
    "select_greedy",
    "select_ours_batch",
    "select_ours_sequential",
    "select_qbc",
    "select_random",
    "standardize",
    "write_trace_log",
]
