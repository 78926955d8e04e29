"""Centrality scores from classification losses.

The depth of a query point against a reference sample is the smallest
weighted loss any classifier in a family achieves when separating the query
(negative label, half the mass) from the reference (positive label, the
other half spread uniformly).  Rich families drive the loss to zero
everywhere; restricted ones - halfspace indicators, penalised logistic
regression, kernel SVMs - grade how central the query sits.
"""
from .baselines import OneClassSvmModel, lof_scores, ocsvm_fit
from .core import (
    DataMatrix,
    DepthResult,
    LossDepthError,
    NotConvergedError,
    Reporting,
    ValidationError,
    weighted_expectation,
)
from .depths import (
    BatchResult,
    DepthBatchRequest,
    HalfspaceConfig,
    depth_batch,
    halfspace_depth,
    halfspace_depth_as_loss,
    logistic_depth,
    svm_depth,
)
from .experiments import (
    BenchmarkRow,
    ConvergenceResult,
    benchmark_auc,
    contamination_grid,
    convergence_experiment,
    gen_bigaussian,
    gen_contaminated,
    method_scorer,
    mixture_density,
    rank_correlation_experiment,
    stratified_split,
)
from .io import ExperimentReport, LabeledDataset, ReportTable, read_csv, read_idx, write_report
from .kernels import DegenerateBandwidthError, KernelSpec, gram, median_heuristic
from .metrics import UndefinedCorrelationError, auc_roc, kendall_tau, spearman_rho
from .solvers import SolverConfig

__version__ = "0.1.0"

__all__ = [
    "BatchResult",
    "BenchmarkRow",
    "ConvergenceResult",
    "DataMatrix",
    "DegenerateBandwidthError",
    "DepthBatchRequest",
    "DepthResult",
    "ExperimentReport",
    "HalfspaceConfig",
    "KernelSpec",
    "LabeledDataset",
    "LossDepthError",
    "NotConvergedError",
    "OneClassSvmModel",
    "ReportTable",
    "Reporting",
    "SolverConfig",
    "UndefinedCorrelationError",
    "ValidationError",
    "auc_roc",
    "benchmark_auc",
    "contamination_grid",
    "convergence_experiment",
    "depth_batch",
    "gen_bigaussian",
    "gen_contaminated",
    "gram",
    "halfspace_depth",
    "halfspace_depth_as_loss",
    "kendall_tau",
    "lof_scores",
    "logistic_depth",
    "median_heuristic",
    "method_scorer",
    "mixture_density",
    "ocsvm_fit",
    "rank_correlation_experiment",
    "read_csv",
    "read_idx",
    "spearman_rho",
    "stratified_split",
    "svm_depth",
    "weighted_expectation",
    "write_report",
]
