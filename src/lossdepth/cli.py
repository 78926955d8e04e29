"""Command line front end.

Subcommands: depth (score queries against a reference), benchmark (AUC of
depths and baselines on labeled data), convergence (empirical rate fit),
grid (plane heatmap with quantile thresholds), rankcorr (agreement with the
true density on bimodal data).  Every command is a pure function of its
input files, flags and seed.  --threads and LOSSDEPTH_THREADS are checked and
otherwise ignored: they change neither the bytes nor the speed.
The parser, a _NumberParser, reads a number or a comma list of numbers as a
value, never as an option, so `--imq-beta -1e-1` and `--center -1,2` parse.

The depths have one set of names, depths.METHODS (halfspace, lr, svm),
which the package uses too.  depth and convergence take one of them, grid
one of them, ocsvm or lof, and rankcorr and benchmark a comma list of any
name experiments.method_scorer takes (benchmark adds oracle).  grid,
benchmark, rankcorr and convergence turn a method name into a fitted scorer
through method_scorer, the package's one dispatch and the one gate on the
names of the list commands: an unknown one exits 2.  benchmark refuses a
depth solve or a one-class fit that stops before tolerance (exit 2); grid,
rankcorr and convergence report what it gives.

Each cmd_* handler returns its configuration, without the seed, and its
tables, and writes nothing.  main assembles and writes every report: an
ExperimentReport named after the subcommand, with the seed as its first
configuration key, written under --output or printed to stdout.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from .core import LossDepthError, Reporting, ValidationError
from .depths import METHOD_HALFSPACE, METHODS, DepthBatchRequest, HalfspaceConfig, depth_batch
from .experiments import (
    benchmark_auc,
    contamination_grid,
    convergence_experiment,
    gen_contaminated,
    method_scorer,
    rank_correlation_experiment,
    stratified_split,
)
from .io import ExperimentReport, ReportTable, read_csv, render_report, write_report
from .kernels import KernelSpec, median_heuristic
from .solvers import SolverConfig

EXIT_OK = 0
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


def _column(text: str):
    """A column index when the text is an integer, else a column name."""
    try:
        return int(text)
    except ValueError:
        return text


def _add_common(parser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility: a count >= 0 that changes neither "
        "results nor speed (default: LOSSDEPTH_THREADS)",
    )
    parser.add_argument("--output", default=None, help="report path (default: print to stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_csv_options(parser) -> None:
    parser.add_argument("--has-header", action="store_true", help="first row names the columns")
    parser.add_argument(
        "--label-column",
        type=_column,
        default=None,
        help="0/1 label column to split off: a 0-based index, or a name with --has-header",
    )


def _add_kernel_options(parser) -> None:
    parser.add_argument(
        "--kernel", choices=("gaussian", "laplacian", "imq", "linear"), default="gaussian"
    )
    parser.add_argument(
        "--gamma", type=float, default=None,
        help="gaussian bandwidth (default: the median heuristic, 1 / median squared distance)",
    )
    parser.add_argument("--sigma", type=float, default=None, help="laplacian scale")
    parser.add_argument("--imq-c", type=float, default=1.0)
    parser.add_argument("--imq-beta", type=float, default=-0.5)


def _add_model_options(parser, tolerance: float) -> None:
    parser.add_argument("--lambda", dest="lam", type=float, default=1.0,
                        help="ridge strength (default 1)")
    parser.add_argument("--max-iterations", type=int, default=SolverConfig.max_iterations)
    parser.add_argument("--tolerance", type=float, default=tolerance)


def _check_threads(args) -> None:
    """Reject a negative --threads or a malformed LOSSDEPTH_THREADS; the count
    itself is not used."""
    threads = args.threads
    if threads is None:
        raw = os.environ.get("LOSSDEPTH_THREADS")
        if raw is None:
            return
        try:
            threads = int(raw)
        except ValueError:
            raise ValidationError(f"LOSSDEPTH_THREADS must be an integer, got {raw!r}")
    if threads < 0:
        raise ValidationError("threads must be >= 0")


def _read_features(path, args) -> np.ndarray:
    dataset = read_csv(path, has_header=args.has_header, label_column=args.label_column)
    return dataset.features


def _resolve_kernel(args, methods, points) -> KernelSpec | None:
    """The kernel of the svm and ocsvm methods among methods, or None when none
    of them is asked for.  It is None too for the default Gaussian without
    points: method_scorer then takes the median heuristic of each sample."""
    if not {"svm", "ocsvm"} & set(methods):
        return None
    if args.kernel == "linear":
        return KernelSpec.linear()
    if args.kernel == "imq":
        return KernelSpec.imq(args.imq_c, args.imq_beta)
    if args.kernel == "laplacian":
        if args.sigma is None:
            raise ValidationError("the laplacian kernel needs --sigma")
        return KernelSpec.laplacian(args.sigma)
    if args.gamma is not None:
        return KernelSpec.gaussian(args.gamma)
    return None if points is None else KernelSpec.gaussian(median_heuristic(points))


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


def cmd_depth(args) -> tuple[dict, list]:
    reference = _read_features(args.reference, args)
    queries = _read_features(args.queries, args)
    solver = SolverConfig(args.max_iterations, args.tolerance)

    kernel = _resolve_kernel(args, (args.method,), reference)
    halfspace = None
    if args.method == METHOD_HALFSPACE and args.directions is not None:
        halfspace = HalfspaceConfig(args.directions, args.seed)

    request = DepthBatchRequest(
        reference=reference,
        queries=queries,
        method=args.method,
        lam=args.lam,
        kernel=kernel,
        intercept=args.intercept,
        reporting=Reporting(args.reporting),
        normalize=args.normalize,
        solver=solver,
        halfspace=halfspace,
    )
    batch = depth_batch(request)

    columns = (batch.values, batch.converged, batch.iterations, batch.residuals)
    tables = [ReportTable("depths", ("query", "depth", "converged", "iterations", "residual"),
                          zip(range(batch.values.size), *(c.tolist() for c in columns)))]
    if args.coefficients:  # (m, 0) for the halfspace depth: a header alone
        m, p = batch.coefficients.shape
        query, coefficient = np.repeat(np.arange(m), p), np.tile(np.arange(p), m)
        rows = zip(query.tolist(), coefficient.tolist(), batch.coefficients.ravel().tolist())
        tables.append(ReportTable("coefficients", ("query", "coefficient", "value"), rows))

    return {
        "method": args.method,
        "lambda": args.lam,
        "kernel": _kernel_label(kernel),
        "reporting": args.reporting,
        "normalize": args.normalize,
        "intercept": args.intercept,
        "directions": args.directions,
        "reference": str(args.reference),
        "queries": str(args.queries),
    }, tables


def cmd_benchmark(args) -> tuple[dict, list]:
    if not args.methods:
        raise ValidationError("--methods needs at least one method")
    if (args.test is None) == (not args.split):
        raise ValidationError("provide either a test file or --split, not both")
    train_set = read_csv(args.train, has_header=args.has_header, label_column=args.label_column)
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
        test_set = read_csv(args.test, has_header=args.has_header, label_column=args.label_column)
        if test_set.labels is None:
            raise ValidationError("the test file needs a label column")
        train = train_set.features
        test = test_set.features
        test_labels = test_set.labels

    kernel = _resolve_kernel(args, args.methods, train)
    solver = SolverConfig(args.max_iterations, args.tolerance)
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
    )
    return {
        "train": str(args.train),
        "test": "" if args.test is None else str(args.test),
        "split": bool(args.split),
        "test_fraction": args.test_fraction,
        "methods": list(args.methods),
        "lambda": args.lam,
        "kernel": _kernel_label(kernel),
        "lof_k": list(args.lof_k),
        "ocsvm_nu": args.ocsvm_nu,
    }, [ReportTable("auc", ("method", "parameter", "auc"),
                    [(row.method, row.parameter, row.auc) for row in rows])]


def cmd_convergence(args) -> tuple[dict, list]:
    solver = SolverConfig(args.max_iterations, args.tolerance)
    lam = args.lam
    state = {}

    def depth_fn(sample, query):
        if not state:
            # the reference sample comes first, and every later sample shares its kernel
            state["kernel"] = _resolve_kernel(args, (args.method,), sample)
        score = method_scorer(args.method, sample, lam=lam, kernel=state["kernel"],
                              solver=solver, require_convergence=False)
        return score(query.reshape(1, -1))[0]

    result = convergence_experiment(
        depth_fn,
        d=args.d,
        n_grid=args.n_grid,
        repeats=args.repeats,
        master_seed=args.seed,
        n_reference=args.n_ref,
        query=np.asarray(args.query, dtype=float) if args.query is not None else None,
    )
    return {
        "method": args.method,
        "lambda": lam,
        "kernel": _kernel_label(state.get("kernel")),
        "d": args.d,
        "n_grid": list(result.n_grid),
        "repeats": args.repeats,
        "query": [float(v) for v in result.query],
        "tolerance": solver.tolerance,
    }, [
        ReportTable("convergence", ("n", "mean_error"),
                    zip(result.n_grid, result.mean_errors.tolist())),
        ReportTable("summary", ("slope", "reference_depth", "n_reference"),
                    [(result.slope, result.reference_value, result.n_reference)]),
    ]


def cmd_grid(args) -> tuple[dict, list]:
    if (args.data is None) == (not args.contaminated):
        raise ValidationError("provide either a data file or --contaminated, not both")
    if len(args.lof_k) != 1:
        raise ValidationError(f"grid scores with one --lof-k, got {len(args.lof_k)}")
    lof_k = args.lof_k[0]
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
    solver = SolverConfig(args.max_iterations, args.tolerance)

    kernel = _resolve_kernel(args, (args.method,), data)
    score_fn = method_scorer(args.method, data, lam=args.lam, kernel=kernel, solver=solver,
                             nu=args.ocsvm_nu, lof_k=lof_k, require_convergence=False)
    scan = contamination_grid(
        data, score_fn, resolution=args.resolution, quantiles=args.quantiles
    )
    return {
        "method": args.method,
        "lambda": args.lam,
        "kernel": _kernel_label(kernel),
        "resolution": args.resolution,
        "quantiles": [float(q) for q in args.quantiles],
        "data": "" if args.data is None else str(args.data),
        "contaminated": bool(args.contaminated),
        "n": args.n,
        "rate": args.rate,
        "center": [float(c) for c in args.center],
        "contamination_center": [float(c) for c in args.contamination_center],
        "lof_k": lof_k,
        "ocsvm_nu": args.ocsvm_nu,
    }, [
        ReportTable("grid", ("x", "y", "score"),
                    np.column_stack([scan.points, scan.scores]).tolist()),
        ReportTable("thresholds", ("quantile", "threshold"),
                    zip(scan.quantiles, scan.thresholds.tolist())),
    ]


def cmd_rankcorr(args) -> tuple[dict, list]:
    solver = SolverConfig(args.max_iterations, args.tolerance)
    if not args.methods:
        raise ValidationError("--methods needs at least one method")
    config = {
        "methods": list(args.methods),
        "lambda": args.lam,
        "d_grid": [int(d) for d in args.d_grid],
        "n": args.n,
        "runs": args.runs,
    }
    kernel = _resolve_kernel(args, args.methods, None)
    if {"svm", "ocsvm"} & set(args.methods):
        config["kernel"] = _kernel_label(kernel) or "gaussian(gamma=median-heuristic)"

    def score_fn(method, sample):
        scorer = method_scorer(method, sample, lam=args.lam, kernel=kernel, solver=solver,
                               require_convergence=False)
        return scorer(sample)

    return config, [ReportTable("rankcorr", ("method", "d", "run", "kendall", "spearman"), [
        (method, row.d, row.run, row.kendall, row.spearman)
        for method in args.methods
        for row in rank_correlation_experiment(
            functools.partial(score_fn, method),
            d_grid=args.d_grid, n=args.n, runs=args.runs, master_seed=args.seed,
        )
    ])]


def _is_number_list(text: str) -> bool:
    try:
        return bool(_float_list(text))
    except argparse.ArgumentTypeError:
        return False


class _NumberParser(argparse.ArgumentParser):
    """An argument parser that reads a number, or a comma list of numbers, as
    a value: `--imq-beta -1e-1`, `--center -1,2` and `--lambda -inf` parse
    like `--imq-beta=-1e-1`.  argparse alone reads such a token as an option,
    since only plain negative numbers look like values to it.  Where no
    option takes the number it is a positional, as `-1` always was."""

    def _parse_optional(self, arg_string):
        # None is argparse's answer for "not an option"; the cheap prefix
        # test keeps float() off every other token
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and _is_number_list(arg_string):
            return None
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _NumberParser(
        prog="lossdepth",
        description="Centrality scores from the minimal loss of a classifier "
        "separating one query point from a reference sample.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    depth = commands.add_parser("depth", help="score query points against a reference sample")
    depth.add_argument("reference", help="reference sample csv")
    depth.add_argument("queries", help="query points csv")
    depth.add_argument("--method", choices=METHODS, default="lr")
    depth.add_argument("--reporting", choices=("loss", "loss+reg"), default="loss")
    depth.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True,
                       help="divide by the zero-classifier loss (logistic only)")
    depth.add_argument("--intercept", action=argparse.BooleanOptionalAction, default=None,
                       help="default: on for lr, off for svm")
    depth.add_argument("--directions", type=int, default=None,
                       help="bound halfspace depth from above with this many random "
                       "directions, in any dimension (default: the exact depth, d <= 2)")
    depth.add_argument("--coefficients", action="store_true",
                       help="emit a table of classifier coefficients per query")
    _add_model_options(depth, SolverConfig.tolerance)
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
    _add_model_options(benchmark, 1e-6)
    _add_kernel_options(benchmark)
    _add_csv_options(benchmark)
    _add_common(benchmark)
    benchmark.set_defaults(handler=cmd_benchmark)

    convergence = commands.add_parser("convergence", help="empirical rate of |D_n - D_ref|")
    convergence.add_argument("--method", choices=METHODS, default="lr")
    convergence.add_argument("--d", type=int, default=2)
    convergence.add_argument("--n-grid", type=_int_list, default=(50, 100, 200, 400, 800, 1600))
    convergence.add_argument("--repeats", type=int, default=20)
    convergence.add_argument("--n-ref", type=int, default=None,
                             help="reference sample size (default 50 * max n)")
    convergence.add_argument("--query", type=_float_list, default=None,
                             help="query point (default: all ones)")
    _add_model_options(convergence, 1e-6)
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
    grid.add_argument("--method", choices=(*METHODS, "ocsvm", "lof"), default="svm")
    grid.add_argument("--resolution", type=int, default=50)
    grid.add_argument("--quantiles", type=_float_list, default=(0.5, 0.6, 0.7, 0.8, 0.9))
    grid.add_argument("--lof-k", type=_int_list, default=(10,))
    grid.add_argument("--ocsvm-nu", type=float, default=0.15)
    _add_model_options(grid, 1e-6)
    _add_kernel_options(grid)
    _add_csv_options(grid)
    _add_common(grid)
    grid.set_defaults(handler=cmd_grid)

    rankcorr = commands.add_parser("rankcorr", help="rank agreement with the true density")
    rankcorr.add_argument("--methods", type=_str_list, default=("lr", "svm"))
    rankcorr.add_argument("--d-grid", type=_int_list, default=(2,))
    rankcorr.add_argument("--n", type=int, default=200)
    rankcorr.add_argument("--runs", type=int, default=10)
    _add_model_options(rankcorr, 1e-6)
    _add_kernel_options(rankcorr)
    _add_common(rankcorr)
    rankcorr.set_defaults(handler=cmd_rankcorr)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main reuses for every call in the process: building it
    costs a few milliseconds, and parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        _check_threads(args)
        if args.seed < 0:
            raise ValidationError("seed must be >= 0")
        config, tables = args.handler(args)
        report = ExperimentReport(args.command, {"seed": args.seed, **config}, tables)
        if args.output:
            for path in write_report(report, args.output, args.format):
                print(path)
        else:
            for _, text in render_report(report, args.format):
                sys.stdout.write(text)
        return EXIT_OK
    # OSError: a file that cannot be read or written; MemoryError: an array too large
    except (LossDepthError, OSError, MemoryError) as error:
        print(f"error: {error or 'out of memory'}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
