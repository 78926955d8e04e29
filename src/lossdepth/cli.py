"""Command line front end.

Subcommands: depth (score queries against a reference), benchmark (AUC of
depths and baselines on labeled data), convergence (empirical rate fit),
grid (plane heatmap with quantile thresholds), rankcorr (agreement with the
true density on bimodal data).  Every command is a pure function of its
input files, flags and seed; thread count changes speed only, never bytes.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .baselines import lof_scores, ocsvm_fit
from .core import LossDepthError, Reporting, ValidationError
from .depths import (
    METHOD_HALFSPACE,
    METHOD_LOGISTIC,
    METHOD_SVM,
    DepthBatchRequest,
    HalfspaceConfig,
    default_halfspace_config,
    depth_batch,
    logistic_depth,
    svm_depth,
)
from .experiments import (
    benchmark_auc,
    contamination_grid,
    convergence_experiment,
    depth_scorer,
    gen_contaminated,
    rank_correlation_experiment,
    stratified_split,
)
from .io import ExperimentReport, ReportTable, read_csv, report_to_json, table_to_csv, write_report
from .kernels import KernelSpec, median_heuristic
from .solvers import SolverConfig

_METHOD_NAMES = {"halfspace": METHOD_HALFSPACE, "lr": METHOD_LOGISTIC, "svm": METHOD_SVM}

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_INVALID = 2


def _int_list(text: str):
    try:
        return tuple(int(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str):
    try:
        return tuple(float(p) for p in text.split(",") if p.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _str_list(text: str):
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _add_common(parser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="query-batch workers; 0 means one per cpu "
        "(default: LOSSDEPTH_THREADS or 1)",
    )
    parser.add_argument("--output", default=None, help="report path (default: print to stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_csv_options(parser) -> None:
    parser.add_argument("--has-header", action="store_true", help="first row names the columns")
    parser.add_argument(
        "--label-column",
        default=None,
        help="0/1 label column to split off: a 0-based index, or a name with --has-header",
    )


def _add_kernel_options(parser) -> None:
    parser.add_argument(
        "--kernel", choices=("gaussian", "laplacian", "imq", "linear"), default="gaussian"
    )
    bandwidth = parser.add_mutually_exclusive_group()
    bandwidth.add_argument("--gamma", type=float, default=None, help="gaussian bandwidth")
    bandwidth.add_argument(
        "--median-heuristic",
        action="store_true",
        help="set gamma from pairwise distances (also the default when --gamma is absent)",
    )
    parser.add_argument("--sigma", type=float, default=None, help="laplacian scale")
    parser.add_argument("--imq-c", type=float, default=1.0)
    parser.add_argument("--imq-beta", type=float, default=-0.5)


def _add_model_options(parser) -> None:
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0,
                        help="ridge strength (default 1)")
    parser.add_argument("--max-iterations", type=int, default=None)
    parser.add_argument("--tolerance", type=float, default=None)


def _threads_from(args) -> int:
    if args.threads is not None:
        return args.threads
    raw = os.environ.get("LOSSDEPTH_THREADS")
    if raw is None:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"LOSSDEPTH_THREADS must be an integer, got {raw!r}")


def _solver_from(args, default_tolerance: float) -> SolverConfig:
    return SolverConfig(
        max_iterations=args.max_iterations if args.max_iterations is not None else 10_000,
        tolerance=args.tolerance if args.tolerance is not None else default_tolerance,
    )


def _label_column(args):
    column = args.label_column
    if column is None:
        return None
    try:
        return int(column)
    except ValueError:
        return column


def _read_features(path, args) -> np.ndarray:
    dataset = read_csv(path, has_header=args.has_header, label_column=_label_column(args))
    return dataset.features


def _resolve_kernel(args, points) -> KernelSpec:
    if args.kernel == "linear":
        return KernelSpec.linear()
    if args.kernel == "imq":
        return KernelSpec.imq(args.imq_c, args.imq_beta)
    if args.kernel == "laplacian":
        if args.sigma is None:
            raise ValidationError("the laplacian kernel needs --sigma")
        return KernelSpec.laplacian(args.sigma)
    gamma = args.gamma if args.gamma is not None else median_heuristic(points)
    return KernelSpec.gaussian(gamma)


def _kernel_label(spec: KernelSpec | None) -> str:
    if spec is None:
        return ""
    if spec.family == "gaussian":
        return f"gaussian(gamma={spec.gamma:g})"
    if spec.family == "laplacian":
        return f"laplacian(sigma={spec.sigma:g})"
    if spec.family == "imq":
        return f"imq(c={spec.c:g},beta={spec.beta:g})"
    return "linear"


def _emit(report: ExperimentReport, args) -> None:
    if args.output:
        for path in write_report(report, args.output, args.format):
            print(path)
    elif args.format == "json":
        sys.stdout.write(report_to_json(report))
    else:
        for table in report.tables:
            sys.stdout.write(table_to_csv(table))


def cmd_depth(args) -> int:
    reference = _read_features(args.reference, args)
    queries = _read_features(args.queries, args)
    method = _METHOD_NAMES[args.method]
    threads = _threads_from(args)
    solver = _solver_from(args, default_tolerance=1e-8)

    kernel = None
    if method == METHOD_SVM:
        kernel = _resolve_kernel(args, reference)
    halfspace = None
    if method == METHOD_HALFSPACE:
        if args.directions is not None:
            halfspace = HalfspaceConfig.random_directions(args.directions, args.seed)
        else:
            halfspace = default_halfspace_config(reference.shape[1])

    request = DepthBatchRequest(
        reference=reference,
        queries=queries,
        method=method,
        lam=args.lam,
        kernel=kernel,
        intercept=args.intercept,
        reporting=Reporting(args.reporting),
        normalize=args.normalize,
        solver=solver,
        halfspace=halfspace,
    )
    outcome = depth_batch(request, threads)

    depths = ReportTable("depths", ("query", "depth", "converged", "iterations", "residual"))
    for i, result in enumerate(outcome.results):
        if result is not None:
            depths.append(i, result.value, result.converged, result.iterations, result.residual)
    tables = [depths]
    if args.coefficients:
        coefficients = ReportTable("coefficients", ("query", "coefficient", "value"))
        for i, result in enumerate(outcome.results):
            if result is not None and result.coefficients is not None:
                for j, value in enumerate(result.coefficients):
                    coefficients.append(i, j, float(value))
        tables.append(coefficients)
    if outcome.errors:
        failures = ReportTable("failures", ("query", "message"))
        for index, message in outcome.errors:
            failures.append(index, message)
        tables.append(failures)

    report = ExperimentReport(
        name="depth",
        config={
            "seed": args.seed,
            "method": args.method,
            "lambda": args.lam,
            "kernel": _kernel_label(kernel),
            "reporting": args.reporting,
            "normalize": args.normalize,
            "intercept": args.intercept,
            "directions": args.directions,
            "reference": str(args.reference),
            "queries": str(args.queries),
        },
        tables=tables,
    )
    _emit(report, args)
    for index, message in outcome.errors:
        print(f"query {index}: {message}", file=sys.stderr)
    return EXIT_PARTIAL if outcome.errors else EXIT_OK


def cmd_benchmark(args) -> int:
    if (args.test is None) == (not args.split):
        raise ValidationError("provide either a test file or --split, not both")
    train_set = read_csv(args.train, has_header=args.has_header, label_column=_label_column(args))
    if args.split:
        if train_set.labels is None:
            raise ValidationError("--split needs a label column on the input file")
        train_idx, test_idx = stratified_split(
            train_set.labels, test_fraction=args.test_fraction, seed=args.seed
        )
        train = train_set.features[train_idx]
        test = train_set.features[test_idx]
        test_labels = train_set.labels[test_idx]
    else:
        test_set = read_csv(args.test, has_header=args.has_header, label_column=_label_column(args))
        if test_set.labels is None:
            raise ValidationError("the test file needs a label column")
        train = train_set.features
        test = test_set.features
        test_labels = test_set.labels

    kernel = None
    if any(m in ("svm", "ocsvm") for m in args.methods):
        kernel = _resolve_kernel(args, train)
    solver = _solver_from(args, default_tolerance=1e-6)
    rows = benchmark_auc(
        train,
        test,
        test_labels == 0,  # label 1 marks an outlier
        methods=args.methods,
        lam=args.lam,
        kernel=kernel,
        lof_k=args.lof_k,
        nu=args.ocsvm_nu,
        solver=solver,
        threads=_threads_from(args),
    )
    table = ReportTable("auc", ("method", "parameter", "auc"))
    for row in rows:
        table.append(row.method, row.parameter, row.auc)
    report = ExperimentReport(
        name="benchmark",
        config={
            "seed": args.seed,
            "train": str(args.train),
            "test": "" if args.test is None else str(args.test),
            "split": bool(args.split),
            "test_fraction": args.test_fraction,
            "methods": list(args.methods),
            "lambda": args.lam,
            "kernel": _kernel_label(kernel),
            "lof_k": list(args.lof_k),
            "ocsvm_nu": args.ocsvm_nu,
        },
        tables=[table],
    )
    _emit(report, args)
    return EXIT_OK


def cmd_convergence(args) -> int:
    solver = _solver_from(args, default_tolerance=1e-6)
    lam = args.lam
    state = {"kernel": None}

    def depth_fn(sample, query):
        if args.method == "lr":
            return logistic_depth(query, sample, lam, solver=solver).value
        if state["kernel"] is None:
            # the reference sample comes first, and every later sample shares its kernel
            state["kernel"] = _resolve_kernel(args, sample)
        return svm_depth(query, sample, lam, kernel=state["kernel"], solver=solver).value

    result = convergence_experiment(
        depth_fn,
        d=args.d,
        n_grid=args.n_grid,
        repeats=args.repeats,
        master_seed=args.seed,
        n_reference=args.n_ref,
        query=np.asarray(args.query, dtype=float) if args.query is not None else None,
    )
    errors = ReportTable("convergence", ("n", "mean_error"))
    for n, mean in zip(result.n_grid, result.mean_errors):
        errors.append(int(n), float(mean))
    summary = ReportTable("summary", ("slope", "reference_depth", "n_reference"))
    summary.append(result.slope, result.reference_value, result.n_reference)
    report = ExperimentReport(
        name="convergence",
        config={
            "seed": args.seed,
            "method": args.method,
            "lambda": lam,
            "kernel": _kernel_label(state["kernel"]) if args.method == "svm" else "",
            "d": args.d,
            "n_grid": list(result.n_grid),
            "repeats": args.repeats,
            "query": [float(v) for v in result.query],
            "tolerance": solver.tolerance,
        },
        tables=[errors, summary],
    )
    _emit(report, args)
    return EXIT_OK


def cmd_grid(args) -> int:
    if (args.data is None) == (not args.contaminated):
        raise ValidationError("provide either a data file or --contaminated, not both")
    if args.contaminated:
        sample = gen_contaminated(
            n=args.n,
            center=args.center,
            contamination_center=args.contamination_center,
            rate=args.rate,
            seed=args.seed,
        )
        data = sample.points
    else:
        data = _read_features(args.data, args)
    threads = _threads_from(args)
    solver = _solver_from(args, default_tolerance=1e-6)

    kernel = None
    if args.method in ("svm", "ocsvm"):
        kernel = _resolve_kernel(args, data)
    if args.method in ("svm", "lr"):
        score_fn = depth_scorer(
            _METHOD_NAMES[args.method],
            data,
            lam=args.lam,
            kernel=kernel,
            solver=solver,
            threads=threads,
            require_convergence=False,
        )
    elif args.method == "ocsvm":
        model = ocsvm_fit(data, kernel, args.ocsvm_nu, solver)
        score_fn = model.score
    else:
        k = args.lof_k[0] if args.lof_k else 10
        score_fn = lambda pts: -lof_scores(data, pts, int(k))

    scan = contamination_grid(
        data, score_fn, resolution=args.resolution, quantiles=args.quantiles
    )
    grid_table = ReportTable("grid", ("x", "y", "score"))
    for (x, y), score in zip(scan.points, scan.scores):
        grid_table.append(float(x), float(y), float(score))
    threshold_table = ReportTable("thresholds", ("quantile", "threshold"))
    for level, threshold in zip(scan.quantiles, scan.thresholds):
        threshold_table.append(float(level), float(threshold))
    report = ExperimentReport(
        name="grid",
        config={
            "seed": args.seed,
            "method": args.method,
            "lambda": args.lam,
            "kernel": _kernel_label(kernel),
            "resolution": args.resolution,
            "quantiles": [float(q) for q in args.quantiles],
            "data": "" if args.data is None else str(args.data),
            "contaminated": bool(args.contaminated),
            "n": args.n,
            "rate": args.rate,
        },
        tables=[grid_table, threshold_table],
    )
    _emit(report, args)
    return EXIT_OK


def cmd_rankcorr(args) -> int:
    threads = _threads_from(args)
    solver = _solver_from(args, default_tolerance=1e-6)
    table = ReportTable("rankcorr", ("method", "d", "run", "kendall", "spearman"))
    for method in args.methods:
        if method not in ("lr", "svm"):
            raise ValidationError(f"rankcorr supports lr and svm, got {method!r}")
    config = {
        "seed": args.seed,
        "methods": list(args.methods),
        "lambda": args.lam,
        "d_grid": [int(d) for d in args.d_grid],
        "n": args.n,
        "runs": args.runs,
    }
    if "svm" in args.methods:  # the median heuristic sets gamma per sample
        config["kernel"] = (
            "gaussian(gamma=median-heuristic)" if args.kernel == "gaussian" and args.gamma is None
            else _kernel_label(_resolve_kernel(args, None))
        )
    for method in args.methods:
        def score_fn(sample, method=method):
            scorer = depth_scorer(
                _METHOD_NAMES[method],
                sample,
                lam=args.lam,
                kernel=_resolve_kernel(args, sample) if method == "svm" else None,
                solver=solver,
                threads=threads,
                require_convergence=False,
            )
            return scorer(sample)

        rows = rank_correlation_experiment(
            score_fn,
            d_grid=args.d_grid,
            n=args.n,
            runs=args.runs,
            master_seed=args.seed,
        )
        for row in rows:
            table.append(method, row.d, row.run, row.kendall, row.spearman)
    report = ExperimentReport(name="rankcorr", config=config, tables=[table])
    _emit(report, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossdepth",
        description="Centrality scores from the minimal loss of a classifier "
        "separating one query point from a reference sample.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    depth = commands.add_parser("depth", help="score query points against a reference sample")
    depth.add_argument("reference", help="reference sample csv")
    depth.add_argument("queries", help="query points csv")
    depth.add_argument("--method", choices=tuple(_METHOD_NAMES), default="lr")
    depth.add_argument("--reporting", choices=("loss", "loss+reg"), default="loss")
    depth.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True,
                       help="divide by the zero-classifier loss (logistic only)")
    depth.add_argument("--intercept", action=argparse.BooleanOptionalAction, default=None,
                       help="default: on for lr, off for svm")
    depth.add_argument("--directions", type=int, default=None,
                       help="random directions for halfspace depth in d >= 3")
    depth.add_argument("--coefficients", action="store_true",
                       help="emit a table of classifier coefficients per query")
    _add_model_options(depth)
    _add_kernel_options(depth)
    _add_csv_options(depth)
    _add_common(depth)
    depth.set_defaults(handler=cmd_depth)

    benchmark = commands.add_parser("benchmark", help="AUC of depths and baselines")
    benchmark.add_argument("train", help="training csv (the depth reference)")
    benchmark.add_argument("test", nargs="?", default=None, help="labeled test csv")
    benchmark.add_argument("--split", action="store_true",
                           help="stratified 80/20 split of the single input file")
    benchmark.add_argument("--test-fraction", type=float, default=0.2)
    benchmark.add_argument("--methods", type=_str_list, default=("lr", "svm", "lof", "ocsvm"))
    benchmark.add_argument("--lof-k", type=_int_list, default=(5, 10, 15, 20, 30))
    benchmark.add_argument("--ocsvm-nu", type=float, default=0.15)
    _add_model_options(benchmark)
    _add_kernel_options(benchmark)
    _add_csv_options(benchmark)
    _add_common(benchmark)
    benchmark.set_defaults(handler=cmd_benchmark)

    convergence = commands.add_parser("convergence", help="empirical rate of |D_n - D_ref|")
    convergence.add_argument("--method", choices=("lr", "svm"), default="lr")
    convergence.add_argument("--d", type=int, default=2)
    convergence.add_argument("--n-grid", type=_int_list, default=(50, 100, 200, 400, 800, 1600))
    convergence.add_argument("--repeats", type=int, default=20)
    convergence.add_argument("--n-ref", type=int, default=None,
                             help="reference sample size (default 50 * max n)")
    convergence.add_argument("--query", type=_float_list, default=None,
                             help="query point (default: all ones)")
    _add_model_options(convergence)
    _add_kernel_options(convergence)
    _add_common(convergence)
    convergence.set_defaults(handler=cmd_convergence)

    grid = commands.add_parser("grid", help="score a plane grid for heatmaps")
    grid.add_argument("data", nargs="?", default=None, help="two-column csv")
    grid.add_argument("--contaminated", action="store_true",
                      help="generate the two-Gaussian contamination sample instead")
    grid.add_argument("--n", type=int, default=200)
    grid.add_argument("--rate", type=float, default=0.1)
    grid.add_argument("--center", type=_float_list, default=(-1.0, -1.0))
    grid.add_argument("--contamination-center", type=_float_list, default=(2.0, 2.0))
    grid.add_argument("--method", choices=("svm", "lr", "ocsvm", "lof"), default="svm")
    grid.add_argument("--resolution", type=int, default=50)
    grid.add_argument("--quantiles", type=_float_list, default=(0.5, 0.6, 0.7, 0.8, 0.9))
    grid.add_argument("--lof-k", type=_int_list, default=(10,))
    grid.add_argument("--ocsvm-nu", type=float, default=0.15)
    _add_model_options(grid)
    _add_kernel_options(grid)
    _add_csv_options(grid)
    _add_common(grid)
    grid.set_defaults(handler=cmd_grid)

    rankcorr = commands.add_parser("rankcorr", help="rank agreement with the true density")
    rankcorr.add_argument("--methods", type=_str_list, default=("lr", "svm"))
    rankcorr.add_argument("--d-grid", type=_int_list, default=(2,))
    rankcorr.add_argument("--n", type=int, default=200)
    rankcorr.add_argument("--runs", type=int, default=10)
    _add_model_options(rankcorr)
    _add_kernel_options(rankcorr)
    _add_common(rankcorr)
    rankcorr.set_defaults(handler=cmd_rankcorr)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except LossDepthError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
