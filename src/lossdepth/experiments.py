"""Sampling-based experiment drivers.

Everything here is deterministic given a master seed: child random streams
are spawned per (experiment, grid index, repeat) so adding repeats or grid
points never reshuffles the draws of the existing ones.

method_scorer is the package's one scorer factory: the one map from a method
name (a depth of depths.METHODS, ocsvm or lof) to a scorer fitted to a
reference, the one gate on those names, the one place a missing kernel
becomes the reference's median-heuristic Gaussian, and the one place that
decides whether a fit stopped before tolerance is an error; every driver
scores through it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import lof_scores, lof_scores_per_k, ocsvm_fit
from .core import (
    LossDepthError,
    NotConvergedError,
    ValidationError,
    as_data_matrix,
)
from .depths import METHOD_HALFSPACE, DepthBatchRequest, bind_batch
from .kernels import KernelSpec, median_heuristic
from .metrics import auc_roc, kendall_tau, spearman_rho
from .solvers import SolverConfig

# spawn-key tags; one tag per consumer keeps streams independent
_REFERENCE_STREAM = 0
_SAMPLE_STREAM = 1
_MIXTURE_STREAM = 2
_SPLIT_STREAM = 3


class DegenerateFitError(LossDepthError):
    """Raised when a rate fit has nothing to regress on, e.g. zero errors."""


def _spawned_rng(master_seed: int, *key: int) -> np.random.Generator:
    sequence = np.random.SeedSequence(int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(sequence)


def _pad_center(center, d: int) -> np.ndarray:
    c = np.asarray(center, dtype=float).reshape(-1)
    if c.size > d:
        raise ValidationError(f"center has {c.size} coordinates but d={d}")
    return np.concatenate([c, np.zeros(d - c.size)])


BIMODAL_CENTERS = ((-3.5, -3.5), (3.5, 3.5))  # modes of the bimodal experiments


def gen_bigaussian(n_per_mode: int, centers=BIMODAL_CENTERS, d: int = 2,
                   seed=0) -> np.ndarray:
    """Sample equally from unit-covariance Gaussians at the given centers.

    Centers shorter than d are padded with zeros, so the modes separate in
    the leading coordinates while the rest stay standard normal.  Rows are
    blocked by mode in center order.
    """
    if n_per_mode < 1:
        raise ValidationError("n_per_mode must be >= 1")
    if d < 1:
        raise ValidationError("d must be >= 1")
    rng = np.random.default_rng(seed)
    blocks = [
        _pad_center(center, d) + rng.standard_normal((n_per_mode, d))
        for center in centers
    ]
    return np.vstack(blocks)


def mixture_density(points, centers) -> np.ndarray:
    """Density of the equal-weight mixture of unit-covariance Gaussians."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d = pts.shape[1]
    padded = [_pad_center(c, d) for c in centers]
    if not padded:
        raise ValidationError("mixture needs at least one center")
    norm = (2.0 * np.pi) ** (-0.5 * d)
    parts = [
        norm * np.exp(-0.5 * np.sum((pts - c) ** 2, axis=1))
        for c in padded
    ]
    return np.mean(parts, axis=0)


@dataclass(frozen=True, eq=False)
class ContaminatedSample:
    points: np.ndarray
    contaminated: np.ndarray  # boolean row mask


def gen_contaminated(n: int, center=(-1.0, -1.0), contamination_center=(2.0, 2.0),
                     rate: float = 0.1, seed=0) -> ContaminatedSample:
    """Unit-covariance Gaussian sample with a fraction redrawn elsewhere.

    floor(rate * n) rows, chosen uniformly without replacement, are replaced
    by draws around the contamination center.  rate 0 returns a clean sample.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not 0.0 <= rate <= 1.0:
        raise ValidationError(f"contamination rate must lie in [0, 1], got {rate}")
    base = np.asarray(center, dtype=float).reshape(-1)
    other = np.asarray(contamination_center, dtype=float).reshape(-1)
    if base.size != other.size:
        raise ValidationError("center and contamination_center disagree in dimension")
    for name, point in (("center", base), ("contamination_center", other)):
        if not np.all(np.isfinite(point)):
            raise ValidationError(f"{name} contains non-finite entries")
    d = base.size
    rng = np.random.default_rng(seed)
    points = base + rng.standard_normal((n, d))
    m = int(rate * n)
    mask = np.zeros(n, dtype=bool)
    if m > 0:
        replaced = rng.choice(n, size=m, replace=False)
        points[replaced] = other + rng.standard_normal((m, d))
        mask[replaced] = True
    return ContaminatedSample(points=points, contaminated=mask)


def method_scorer(method: str, reference, *, lam: float = 1.0, kernel: KernelSpec | None = None,
                  solver: SolverConfig | None = None, nu: float = 0.15, lof_k: int = 10,
                  require_convergence: bool = True):
    """Fit the scorer a method name means to the reference rows.

    Returns a callable mapping points to scores, larger meaning more central.
    ocsvm scores by the fitted one-class SVM margin, and lof by the negated
    local outlier factor with lof_k neighbours.  Every other name goes to
    the depth request as it is: a depth of depths.METHODS (halfspace, the
    exact depth, lr or svm) is bound to the reference once here
    (depths.bind_batch), so every call shares the reference-only work, and
    scores as depth_batch does with every other request setting at its
    default; any other name raises the request's ValidationError.  svm and
    ocsvm default to a Gaussian kernel at the median-heuristic bandwidth of
    the reference.  With require_convergence a depth solve or a one-class
    fit that stops before tolerance raises NotConvergedError.
    """
    ref = as_data_matrix(reference)
    if method == "lof":
        return lambda points: -lof_scores(ref.values, points, lof_k)
    if kernel is None and method in ("svm", "ocsvm"):
        kernel = KernelSpec.gaussian(median_heuristic(ref.values))
    if method == "ocsvm":
        model = ocsvm_fit(ref.values, kernel, nu, solver)
        if require_convergence and not model.converged:
            raise NotConvergedError(f"the one-class SVM fit stopped before tolerance after "
                                    f"{model.iterations} pair updates; residual {model.residual:g}")
        return model.score
    batch = bind_batch(DepthBatchRequest(reference=ref, queries=np.empty((0, ref.d)),
                                         method=method, lam=lam, kernel=kernel, solver=solver))

    def score(points) -> np.ndarray:
        outcome = batch(points)
        stalled = ~outcome.converged
        if require_convergence and stalled.any():
            raise NotConvergedError(
                f"{stalled.sum()} of {stalled.size} depth solves stopped "
                f"before tolerance; worst residual {outcome.residuals[stalled].max():g}"
            )
        return outcome.values

    return score


@dataclass(frozen=True, eq=False)
class ConvergenceResult:
    """Empirical depth error against a large-sample proxy, per sample size."""

    n_grid: tuple
    errors: np.ndarray  # len(n_grid) x repeats
    mean_errors: np.ndarray
    slope: float
    reference_value: float
    n_reference: int
    query: np.ndarray


def convergence_experiment(
    depth_fn,
    *,
    d: int = 2,
    n_grid=(50, 100, 200, 400, 800, 1600),
    repeats: int = 20,
    master_seed: int = 0,
    n_reference: int | None = None,
    query=None,
) -> ConvergenceResult:
    """Measure |depth_n - depth_proxy| over a grid of sample sizes.

    depth_fn maps (sample, query) to a scalar, and every sample is standard
    normal in d dimensions.  The proxy value comes from one sample 50 times
    larger than the biggest grid entry, and the reported slope is the
    least-squares fit of log mean error against log n.  The default query
    sits at the all-ones point rather than the sample mean: at a symmetry
    point of the sampling distribution the leading fluctuation terms cancel
    and the fit would measure a faster, unrepresentative rate.
    """
    if d < 1:
        raise ValidationError("d must be >= 1")
    grid = tuple(int(n) for n in n_grid)
    if len(set(grid)) < 2:
        raise ValidationError("convergence needs at least two distinct sample sizes")
    if any(n < 1 for n in grid):
        raise ValidationError("sample sizes must be >= 1")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    q = np.ones(d) if query is None else np.asarray(query, dtype=float).reshape(-1)
    if q.size != d:
        raise ValidationError(f"query has {q.size} coordinates but d={d}")
    n_ref = 50 * max(grid) if n_reference is None else int(n_reference)
    if n_ref <= max(grid):
        raise ValidationError("the reference sample must exceed every grid size")
    if not np.all(np.isfinite(q)):
        raise ValidationError("query point contains non-finite entries")

    reference = _spawned_rng(master_seed, _REFERENCE_STREAM, 0, 0).standard_normal((n_ref, d))
    reference_value = float(depth_fn(reference, q))

    errors = np.empty((len(grid), repeats))
    for i, n in enumerate(grid):
        for r in range(repeats):
            sample = _spawned_rng(master_seed, _SAMPLE_STREAM, i, r).standard_normal((n, d))
            errors[i, r] = abs(float(depth_fn(sample, q)) - reference_value)
    means = errors.mean(axis=1)
    if np.any(means <= 0.0):
        raise DegenerateFitError(
            "mean errors hit zero; nothing to fit a rate to at this precision"
        )
    slope = float(np.polyfit(np.log(np.asarray(grid, dtype=float)), np.log(means), 1)[0])
    return ConvergenceResult(
        n_grid=grid,
        errors=errors,
        mean_errors=means,
        slope=slope,
        reference_value=reference_value,
        n_reference=n_ref,
        query=q,
    )


@dataclass(frozen=True)
class RankCorrelationRow:
    d: int
    run: int
    kendall: float
    spearman: float


def rank_correlation_experiment(
    score_fn,
    *,
    d_grid=(2,),
    n: int = 200,
    runs: int = 10,
    master_seed: int = 0,
) -> list:
    """Correlate scores with the true sampling density on bimodal data, with
    modes at BIMODAL_CENTERS.

    score_fn maps a sample to one score per row (using the sample itself as
    the reference).  Each (dimension, run) cell gets its own child stream.
    Undefined correlations propagate as errors rather than being masked.
    """
    if runs < 1:
        raise ValidationError("runs must be >= 1")
    if n < 4:
        raise ValidationError("rank correlation needs n >= 4")
    if any(int(d) < 1 for d in d_grid):
        raise ValidationError("d must be >= 1")
    rows = []
    for d in d_grid:
        for run in range(runs):
            rng = _spawned_rng(master_seed, _MIXTURE_STREAM, int(d), run)
            sample = gen_bigaussian(n // 2, d=int(d), seed=rng)
            density = mixture_density(sample, BIMODAL_CENTERS)
            scores = np.asarray(score_fn(sample), dtype=float)
            rows.append(
                RankCorrelationRow(
                    d=int(d),
                    run=run,
                    kendall=kendall_tau(scores, density),
                    spearman=spearman_rho(scores, density),
                )
            )
    return rows


@dataclass(frozen=True, eq=False)
class GridScan:
    """Scores on a regular plane grid plus quantile thresholds of the data
    scores, for contour-style contamination pictures."""

    xs: np.ndarray
    ys: np.ndarray
    points: np.ndarray
    scores: np.ndarray
    data_scores: np.ndarray
    quantiles: tuple
    thresholds: np.ndarray


def contamination_grid(data, score_fn, *, resolution: int = 50,
                       quantiles=(0.5, 0.6, 0.7, 0.8, 0.9)) -> GridScan:
    """Score a regular grid spanning the data range plus 1 on every side.

    Grid rows run x-fastest.  Thresholds are the requested quantiles of the
    scores of the data points themselves; for nondecreasing quantile levels
    they weakly increase.
    """
    pts = np.atleast_2d(np.asarray(data, dtype=float))
    if pts.shape[1] != 2:
        raise ValidationError(f"grid scans need two-dimensional data, got d={pts.shape[1]}")
    if resolution < 2:
        raise ValidationError("resolution must be >= 2")
    levels = tuple(float(q) for q in quantiles)
    if any(not 0.0 <= q <= 1.0 for q in levels):
        raise ValidationError("quantile levels must lie in [0, 1]")
    xs = np.linspace(pts[:, 0].min() - 1.0, pts[:, 0].max() + 1.0, resolution)
    ys = np.linspace(pts[:, 1].min() - 1.0, pts[:, 1].max() + 1.0, resolution)
    gx, gy = np.meshgrid(xs, ys)
    grid_points = np.column_stack([gx.ravel(), gy.ravel()])
    scores = np.asarray(score_fn(grid_points), dtype=float)
    data_scores = np.asarray(score_fn(pts), dtype=float)
    thresholds = (
        np.quantile(data_scores, levels) if levels else np.empty(0)
    )
    return GridScan(
        xs=xs,
        ys=ys,
        points=grid_points,
        scores=scores,
        data_scores=data_scores,
        quantiles=levels,
        thresholds=np.asarray(thresholds, dtype=float),
    )


def stratified_split(labels, test_fraction: float = 0.2, seed: int = 0):
    """Index split preserving per-label proportions.

    Within each label the row indices are shuffled by a child stream and
    round(test_fraction * count) of them go to the test side, clamped so any
    label with two or more rows keeps at least one row on each side.  Both
    index arrays come back sorted.
    """
    y = np.asarray(labels).reshape(-1)
    if y.size < 2:
        raise ValidationError("splitting needs at least two rows")
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError(f"test fraction must lie in (0, 1), got {test_fraction}")
    test_parts = []
    train_parts = []
    for stratum, value in enumerate(np.unique(y)):
        indices = np.flatnonzero(y == value)
        rng = _spawned_rng(seed, _SPLIT_STREAM, stratum, 0)
        shuffled = rng.permutation(indices)
        count = indices.size
        n_test = int(round(test_fraction * count))
        if count >= 2:
            n_test = min(max(n_test, 1), count - 1)
        else:
            n_test = 0
        test_parts.append(shuffled[:n_test])
        train_parts.append(shuffled[n_test:])
    test_idx = np.sort(np.concatenate(test_parts))
    train_idx = np.sort(np.concatenate(train_parts))
    return train_idx, test_idx


@dataclass(frozen=True)
class BenchmarkRow:
    method: str
    parameter: str
    auc: float


def benchmark_auc(
    train,
    test,
    test_inlier,
    methods=("lr", "svm", "lof", "ocsvm"),
    *,
    lam: float = 1.0,
    kernel: KernelSpec | None = None,
    lof_k=(5, 10, 15, 20, 30),
    nu: float = 0.15,
    solver: SolverConfig | None = None,
) -> list:
    """Inlier-versus-outlier AUC of each scoring method on a held-out set.

    LOF gets one row per neighbourhood size plus a best-of row, from one
    sort of the distances for every size; its factor orders outliers first,
    so its negation enters the AUC.  The oracle method scores with the
    labels themselves and pins the ceiling at 1.  Every other method scores
    through method_scorer, fitted to the training rows, which raises on an
    unknown name, takes the training median heuristic where svm or ocsvm has
    no kernel, and refuses a depth solve or one-class fit that stops before
    tolerance (NotConvergedError).  Such a row's parameter cell reads nu for
    ocsvm, lam for lr and svm, and is empty for halfspace, which has no lam.
    """
    train_m = as_data_matrix(train)
    test_m = as_data_matrix(test)
    inlier = np.asarray(test_inlier, dtype=bool).reshape(-1)
    if inlier.size != test_m.n:
        raise ValidationError(
            f"test labels disagree with test rows: {inlier.size} vs {test_m.n}"
        )
    rows = []
    for method in methods:
        if method == "lof":
            if not lof_k:
                raise ValidationError("lof needs at least one neighbourhood size")
            best = None
            ks = [int(k) for k in lof_k]
            for k, factors in zip(ks, lof_scores_per_k(train_m.values, test_m.values, ks)):
                value = auc_roc(-factors, inlier)
                rows.append(BenchmarkRow("lof", f"k={k}", value))
                best = value if best is None else max(best, value)
            rows.append(BenchmarkRow("lof", "best", best))
        elif method == "oracle":
            rows.append(BenchmarkRow("oracle", "", auc_roc(inlier.astype(float), inlier)))
        else:
            score = method_scorer(method, train_m, lam=lam, kernel=kernel, solver=solver, nu=nu)
            parameter = {METHOD_HALFSPACE: "", "ocsvm": f"nu={nu:g}"}.get(method, f"lam={lam:g}")
            rows.append(BenchmarkRow(method, parameter, auc_roc(score(test_m.values), inlier)))
    return rows
