"""Acceptance checklist: one test per release criterion.

Every test prints a one-line measurement summary ending in PASS or FAIL
before asserting, so `pytest -v` (or `-s`) reads as a checklist.  The two
dataset criteria skip unless their data directories are supplied through
LOSSDEPTH_ODDS_DIR / LOSSDEPTH_FMNIST_DIR.
"""
import math
import os
import time

import numpy as np
import pytest

from lossdepth import cli
from lossdepth.core import (
    LOG2,
    DataMatrix,
    DepthProblem,
    LossKind,
    QueryPoint,
    Reporting,
)
from lossdepth.depths import (
    METHOD_SVM,
    halfspace_depth,
    halfspace_depth_as_loss,
    logistic_depth,
    svm_depth,
)
from lossdepth.experiments import (
    benchmark_auc,
    contamination_grid,
    convergence_experiment,
    depth_scorer,
    gen_bigaussian,
    gen_contaminated,
    rank_correlation_experiment,
    stratified_split,
)
from lossdepth.io import format_float, read_csv, read_idx
from lossdepth.kernels import KernelSpec, median_heuristic
from lossdepth.metrics import auc_roc
from lossdepth.solvers import (
    SolverConfig,
    logistic_objective,
    logistic_solve,
    svm_dual_solve,
    svm_duality_gap,
)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {detail} -> {'PASS' if ok else 'FAIL'}")


def _logistic_problem(reference, query, lam=1.0, intercept=True):
    return DepthProblem(
        reference=DataMatrix(reference),
        query=QueryPoint(query),
        loss=LossKind.LOGISTIC,
        lam=lam,
        intercept=intercept,
    )


def _hinge_problem(reference, query, lam=1.0, kernel=None):
    return DepthProblem(
        reference=DataMatrix(reference),
        query=QueryPoint(query),
        loss=LossKind.HINGE,
        lam=lam,
        kernel=kernel if kernel is not None else KernelSpec.gaussian(1.0),
        intercept=False,
    )


def _candidate_angles(points, z):
    diffs = points - z
    angles = np.arctan2(diffs[:, 1], diffs[:, 0])
    candidates = [0.0, 0.5 * np.pi]
    for theta in angles:
        for base in (theta + 0.5 * np.pi, theta - 0.5 * np.pi):
            for nudge in (-1e-9, 0.0, 1e-9):
                candidates.append(base + nudge)
    return candidates


def _enumerated_halfspace_2d(points, z):
    # closed-halfspace count minimised over every candidate separating
    # direction: normals of z - x_i nudged both ways plus the axes
    diffs = points - z
    best = points.shape[0]
    for angle in _candidate_angles(points, z):
        u = np.array([math.cos(angle), math.sin(angle)])
        margins = diffs @ u
        best = min(best, int(np.sum(margins >= 0.0)), int(np.sum(margins <= 0.0)))
    return best / points.shape[0]


def test_criterion_01_exact_halfspace_matches_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_exact = 0.0
    worst_loss = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 26))
        points = rng.standard_normal((n, 2))
        if rng.integers(2):
            points = np.round(points * 2.0) / 2.0  # grid data forces ties
        z = rng.standard_normal(2) if rng.integers(2) else points[int(rng.integers(n))]
        exact = halfspace_depth(z, points)
        oracle = _enumerated_halfspace_2d(points, z)
        worst_exact = max(worst_exact, abs(exact - oracle))

        units = np.array([[math.cos(a), math.sin(a)] for a in _candidate_angles(points, z)])
        directions = np.vstack([units, -units])
        as_loss = halfspace_depth_as_loss(z, points, directions)
        worst_loss = max(worst_loss, abs(as_loss - exact))
        strict = halfspace_depth_as_loss(z, points, directions, strict=True)
        assert strict <= as_loss + 1e-12  # dropping boundary atoms can only help
    elapsed = time.perf_counter() - started
    ok = worst_exact <= 1e-12 and worst_loss <= 1e-12 and elapsed < 10.0
    _verdict(
        "criterion 01 (exact 2d halfspace)",
        ok,
        f"max |exact-enumerated| {worst_exact:.2e}, max |as_loss-exact| "
        f"{worst_loss:.2e} over 200 sets in {elapsed:.1f}s",
    )
    assert worst_exact <= 1e-12
    assert worst_loss <= 1e-12
    assert elapsed < 10.0


def test_criterion_02_normalized_depths_stay_in_unit_interval():
    rng = np.random.default_rng(1)
    solver = SolverConfig(tolerance=1e-6, max_iterations=100_000)
    violations = 0
    lowest, highest = np.inf, -np.inf
    for trial in range(500):
        d = int(rng.integers(1, 11))
        n = int(rng.integers(1, 201))
        lam = float(10.0 ** rng.uniform(-2, 1))
        scale = float(10.0 ** rng.uniform(-1.5, 1.5))
        reference = rng.standard_normal((n, d)) * scale
        query = (rng.standard_normal(d) + rng.uniform(-2, 2, d)) * scale
        if trial % 2 == 0:
            value = logistic_depth(
                query, reference, lam,
                intercept=bool(rng.integers(2)), solver=solver,
            ).value
        else:
            kernel = KernelSpec.gaussian(float(10.0 ** rng.uniform(-2, 1)))
            value = svm_depth(query, reference, lam, kernel=kernel, solver=solver).value
        lowest = min(lowest, value)
        highest = max(highest, value)
        if not -1e-9 <= value <= 1.0 + 1e-9:
            violations += 1
    ok = violations == 0
    _verdict(
        "criterion 02 (unit interval)",
        ok,
        f"500 random problems, range [{lowest:.3g}, {highest:.6g}], "
        f"{violations} outside [0,1] beyond 1e-9",
    )
    assert violations == 0


def test_criterion_03_solver_certificates():
    started = time.perf_counter()
    rng = np.random.default_rng(2)

    worst_rel = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 7))
        n = int(rng.integers(2, 51))
        problem = _logistic_problem(
            rng.standard_normal((n, d)), rng.standard_normal(d),
            lam=float(10.0 ** rng.uniform(-2, 1)), intercept=bool(rng.integers(2)),
        )
        dim = d + (1 if problem.intercept else 0)
        w = rng.standard_normal(dim)
        _, grad = logistic_objective(w, problem)
        fd = np.empty_like(grad)
        for j in range(dim):
            h = 1e-6 * max(1.0, abs(w[j]))
            forward = w.copy(); forward[j] += h
            backward = w.copy(); backward[j] -= h
            fd[j] = (logistic_objective(forward, problem)[0]
                     - logistic_objective(backward, problem)[0]) / (2.0 * h)
        worst_rel = max(worst_rel, float(np.linalg.norm(grad - fd)
                                         / max(1.0, np.linalg.norm(grad))))

    worst_increase = -np.inf
    worst_norm_excess = -np.inf
    for _ in range(10):
        lam = float(10.0 ** rng.uniform(-2, 1))
        problem = _logistic_problem(
            rng.standard_normal((30, 3)) * 2.0, rng.standard_normal(3) * 2.0, lam=lam,
        )
        w, diag = logistic_solve(problem, SolverConfig(tolerance=1e-8),
                                 keep_history=True)
        values = np.asarray(diag.history.values)
        worst_increase = max(worst_increase, float(np.max(np.diff(values))))
        worst_norm_excess = max(
            worst_norm_excess, float(np.linalg.norm(w) - math.sqrt(LOG2 / lam))
        )

    worst_gap = -np.inf
    for _ in range(50):
        d = int(rng.integers(1, 6))
        problem = _hinge_problem(
            rng.standard_normal((20, d)), rng.standard_normal(d),
            lam=float(10.0 ** rng.uniform(-2, 1)),
            kernel=KernelSpec.gaussian(float(10.0 ** rng.uniform(-2, 1))),
        )
        alpha, diag = svm_dual_solve(problem, SolverConfig(tolerance=1e-9))
        labels = np.concatenate([np.ones(20), [-1.0]])
        gap = svm_duality_gap(alpha, labels, diag.function_values, problem.lam)
        assert gap >= -1e-12
        worst_gap = max(worst_gap, float(gap))

    elapsed = time.perf_counter() - started
    ok = (worst_rel <= 1e-5 and worst_increase <= 1e-12
          and worst_norm_excess <= 1e-9 and worst_gap <= 1e-6 and elapsed < 30.0)
    _verdict(
        "criterion 03 (solver certificates)",
        ok,
        f"grad rel err {worst_rel:.2e}, max objective increase {worst_increase:.2e}, "
        f"norm bound excess {worst_norm_excess:.2e}, max duality gap {worst_gap:.2e} "
        f"in {elapsed:.1f}s",
    )
    assert worst_rel <= 1e-5
    assert worst_increase <= 1e-12
    assert worst_norm_excess <= 1e-9
    assert worst_gap <= 1e-6
    assert elapsed < 30.0


def test_criterion_04_depth_error_shrinks_at_root_n_rate():
    started = time.perf_counter()
    solver = SolverConfig(tolerance=1e-6)

    def lr_fn(sample, query):
        return logistic_depth(query, sample, 1.0, solver=solver).value

    lr = convergence_experiment(lr_fn, d=2, master_seed=0)

    state = {}

    def svm_fn(sample, query):
        # the first call sees the largest sample; freeze the bandwidth there
        if "kernel" not in state:
            state["kernel"] = KernelSpec.gaussian(median_heuristic(sample))
        return svm_depth(query, sample, 1.0, kernel=state["kernel"],
                         solver=solver).value

    svm = convergence_experiment(svm_fn, d=2, master_seed=0)
    elapsed = time.perf_counter() - started
    ok = (-0.65 <= lr.slope <= -0.35 and -0.65 <= svm.slope <= -0.35
          and elapsed < 600.0)
    _verdict(
        "criterion 04 (root-n convergence)",
        ok,
        f"lr slope {lr.slope:.3f}, svm slope {svm.slope:.3f} "
        f"(target [-0.65, -0.35]) in {elapsed:.0f}s",
    )
    assert -0.65 <= lr.slope <= -0.35
    assert -0.65 <= svm.slope <= -0.35
    assert elapsed < 600.0


def test_criterion_05_objective_reported_depth_is_quasiconcave():
    reference = gen_bigaussian(100, seed=2)
    rng = np.random.default_rng(5)

    def depth(z):
        return logistic_depth(z, reference, 1.0,
                              reporting=Reporting.LOSS_PLUS_REG).value

    worst_deficit = np.inf
    for _ in range(200):
        z1 = rng.uniform(-6, 6, 2)
        z2 = rng.uniform(-6, 6, 2)
        floor = min(depth(z1), depth(z2))
        for t in (0.2, 0.4, 0.6, 0.8):
            worst_deficit = min(worst_deficit, depth((1 - t) * z1 + t * z2) - floor)
    ok = worst_deficit >= -1e-6
    _verdict(
        "criterion 05 (quasi-concavity)",
        ok,
        f"min segment deficit {worst_deficit:.2e} over 200 segments (floor -1e-6)",
    )
    assert worst_deficit >= -1e-6


def test_criterion_06_depth_is_lipschitz_in_the_query():
    rng = np.random.default_rng(6)
    reference = rng.standard_normal((100, 2))
    gamma = 1.0
    kernel = KernelSpec.gaussian(gamma)
    worst_lr = -np.inf
    worst_svm = -np.inf
    for _ in range(200):
        z1 = rng.uniform(-4, 4, 2)
        z2 = z1 + rng.standard_normal(2) * rng.uniform(0, 2)
        dist = float(np.linalg.norm(z1 - z2))

        # logistic, unnormalized; the augmented feature map [x, 1] leaves
        # query distances unchanged, so the metric constant is 1
        a = logistic_depth(z1, reference, 1.0, normalize=False).value
        b = logistic_depth(z2, reference, 1.0, normalize=False).value
        bound = 0.5 * math.sqrt(LOG2 / 1.0) * dist + 0.01
        worst_lr = max(worst_lr, abs(a - b) - bound)

        # gaussian rkhs distance is at most sqrt(2 gamma) times input distance
        a = svm_depth(z1, reference, 1.0, kernel=kernel).value
        b = svm_depth(z2, reference, 1.0, kernel=kernel).value
        bound = 0.5 * math.sqrt(1.0 / 1.0) * math.sqrt(2.0 * gamma) * dist + 0.01
        worst_svm = max(worst_svm, abs(a - b) - bound)
    ok = worst_lr <= 0.0 and worst_svm <= 0.0
    _verdict(
        "criterion 06 (lipschitz bound)",
        ok,
        f"max bound excess lr {worst_lr:.3f}, svm {worst_svm:.3f} over 200 pairs",
    )
    assert worst_lr <= 0.0
    assert worst_svm <= 0.0


def test_criterion_07_bimodal_heatmap_puts_both_modes_on_top():
    reference = gen_bigaussian(100, seed=1)
    scorer = depth_scorer(METHOD_SVM, reference, lam=1.0,
                          kernel=KernelSpec.gaussian(0.1))
    modes = np.array([[-3.5, -3.5], [3.5, 3.5]])
    probes = np.vstack([modes, [[0.0, 0.0], [8.0, 8.0]]])
    values = scorer(probes)
    again = scorer(probes)
    deterministic = np.array_equal(values, again)
    ordered = min(values[0], values[1]) > values[2] > values[3]

    scan = contamination_grid(reference, scorer, resolution=30)
    top = scan.points[scan.scores >= np.quantile(scan.scores, 0.9)]
    gaps = [float(np.min(np.linalg.norm(top - mode, axis=1))) for mode in modes]
    covered = max(gaps) < 1.0
    ok = deterministic and ordered and covered
    _verdict(
        "criterion 07 (bimodal heatmap)",
        ok,
        f"modes {values[0]:.3f}/{values[1]:.3f} > middle {values[2]:.3f} > "
        f"far {values[3]:.3f}; top decile within {max(gaps):.2f} of both modes; "
        f"deterministic={deterministic}",
    )
    assert deterministic
    assert ordered
    assert covered


def test_criterion_08_contamination_separates_centers():
    sample = gen_contaminated(200, rate=0.1, seed=0)
    scorer = depth_scorer(METHOD_SVM, sample.points, lam=1.0,
                          kernel=KernelSpec.gaussian(1.0))
    data_scores = scorer(sample.points)
    thresholds = np.quantile(data_scores, (0.5, 0.6, 0.7, 0.8, 0.9))
    authentic, contaminant = scorer(np.array([[-1.0, -1.0], [2.0, 2.0]]))
    band_auth = int(np.sum(thresholds <= authentic))
    band_cont = int(np.sum(thresholds <= contaminant))
    ok = band_auth > band_cont
    _verdict(
        "criterion 08 (contamination bands)",
        ok,
        f"authentic center above {band_auth}/5 thresholds, "
        f"contamination center above {band_cont}/5",
    )
    assert band_auth > band_cont


def test_criterion_09_depth_ranks_match_density_ranks():
    def score_fn(sample):
        scorer = depth_scorer(METHOD_SVM, sample, lam=1.0,
                              kernel=KernelSpec.gaussian(0.1),
                              solver=SolverConfig(tolerance=1e-6))
        return scorer(sample)

    rows = rank_correlation_experiment(score_fn, d_grid=(2,), n=200, runs=10,
                                       master_seed=0)
    taus = [row.kendall for row in rows]
    median_tau = float(np.median(taus))
    ok = median_tau > 0.5
    _verdict(
        "criterion 09 (rank agreement)",
        ok,
        f"median kendall tau {median_tau:.3f} over 10 runs "
        f"(min {min(taus):.3f}), threshold 0.5",
    )
    assert median_tau > 0.5


def _split_last_column_labels(path):
    dataset = read_csv(path)
    labels = dataset.features[:, -1]
    values = set(np.unique(labels))
    if not values <= {0.0, 1.0}:
        raise AssertionError(f"{path}: last column must be 0/1 labels, saw {sorted(values)}")
    return dataset.features[:, :-1], labels.astype(np.int64)


def test_criterion_10_odds_benchmark_windows():
    directory = os.environ.get("LOSSDEPTH_ODDS_DIR")
    if not directory:
        _verdict("criterion 10 (odds benchmarks)", True,
                 "SKIP: LOSSDEPTH_ODDS_DIR not set")
        pytest.skip("LOSSDEPTH_ODDS_DIR not set")
    windows = {
        "breastw": {"lr": 0.97, "svm": 0.99},
        "pima": {"svm": 0.67},
    }
    solver = SolverConfig(tolerance=1e-6)
    summaries = []
    ok = True
    for name, targets in windows.items():
        path = os.path.join(directory, f"{name}.csv")
        features, labels = _split_last_column_labels(path)
        train_idx, test_idx = stratified_split(labels, test_fraction=0.2, seed=0)
        started = time.perf_counter()
        rows = benchmark_auc(
            features[train_idx], features[test_idx], labels[test_idx] == 0,
            methods=tuple(targets), lam=1.0, solver=solver,
        )
        elapsed = time.perf_counter() - started
        measured = {row.method: row.auc for row in rows}
        for method, target in targets.items():
            hit = abs(measured[method] - target) <= 0.05
            ok = ok and hit
            summaries.append(f"{name}/{method} {measured[method]:.3f} (target {target}+-0.05)")
        ok = ok and elapsed < 300.0
        summaries.append(f"{name} in {elapsed:.0f}s")
    _verdict("criterion 10 (odds benchmarks)", ok, "; ".join(summaries))
    assert ok, summaries


def _idx_pair(directory, stem):
    for suffix in (".gz", ""):
        images = os.path.join(directory, f"{stem}-images-idx3-ubyte{suffix}")
        labels = os.path.join(directory, f"{stem}-labels-idx1-ubyte{suffix}")
        if os.path.exists(images) and os.path.exists(labels):
            return images, labels
    raise AssertionError(f"no {stem} idx files under {directory}")


def test_criterion_11_image_class_depth_window():
    directory = os.environ.get("LOSSDEPTH_FMNIST_DIR")
    if not directory:
        _verdict("criterion 11 (image benchmark)", True,
                 "SKIP: LOSSDEPTH_FMNIST_DIR not set")
        pytest.skip("LOSSDEPTH_FMNIST_DIR not set")
    started = time.perf_counter()
    train_images, train_labels = _idx_pair(directory, "train")
    test_images, test_labels = _idx_pair(directory, "t10k")
    reference = read_idx(train_images, train_labels, keep_classes=(5,), limit=100)
    test = read_idx(test_images, test_labels)
    scorer = depth_scorer(
        METHOD_SVM, reference.features, lam=1.0,
        kernel=KernelSpec.gaussian(median_heuristic(reference.features)),
        solver=SolverConfig(tolerance=1e-6),
    )
    auc = auc_roc(scorer(test.features), test.labels == 5)
    elapsed = time.perf_counter() - started
    ok = abs(auc - 0.92) <= 0.03 and elapsed < 1800.0
    _verdict(
        "criterion 11 (image benchmark)",
        ok,
        f"class-5 reference vs full test set auc {auc:.3f} "
        f"(target 0.92+-0.03) in {elapsed:.0f}s",
    )
    assert abs(auc - 0.92) <= 0.03
    assert elapsed < 1800.0


def _csv_file(path, array):
    rows = np.atleast_2d(np.asarray(array, dtype=float))
    text = "\n".join(",".join(format_float(v) for v in row) for row in rows)
    path.write_text(text + "\n")
    return str(path)


def _run_into(tmp_path, tag, argv):
    directory = tmp_path / tag
    directory.mkdir()
    out = directory / "report"
    assert cli.main(argv + ["--output", str(out)]) == cli.EXIT_OK
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_criterion_12_reports_are_byte_deterministic(tmp_path):
    rng = np.random.default_rng(12)
    reference = _csv_file(tmp_path / "ref.csv", rng.standard_normal((20, 2)))
    queries = _csv_file(tmp_path / "q.csv", rng.standard_normal((4, 2)))
    features = np.vstack([rng.standard_normal((40, 2)),
                          rng.standard_normal((10, 2)) + 5.0])
    labels = np.concatenate([np.zeros(40), np.ones(10)])
    labeled = _csv_file(tmp_path / "labeled.csv", np.column_stack([features, labels]))

    commands = {
        "depth-csv": ["depth", reference, queries, "--method", "svm", "--format", "csv"],
        "depth-json": ["depth", reference, queries, "--method", "svm",
                       "--coefficients", "--format", "json"],
        "benchmark": ["benchmark", labeled, "--split", "--label-column", "2",
                      "--methods", "lr,lof", "--lof-k", "3,5"],
        "grid": ["grid", "--contaminated", "--n", "60", "--method", "svm",
                 "--gamma", "0.5", "--resolution", "8"],
        "rankcorr": ["rankcorr", "--methods", "lr", "--runs", "2", "--n", "40",
                     "--tolerance", "1e-5"],
        "convergence": ["convergence", "--method", "lr", "--n-grid", "30,60",
                        "--repeats", "2", "--n-ref", "200", "--tolerance", "1e-5"],
    }
    mismatched = []
    for tag, argv in commands.items():
        single = _run_into(tmp_path, f"{tag}-t1", argv + ["--threads", "1"])
        pooled = _run_into(tmp_path, f"{tag}-t8", argv + ["--threads", "8"])
        if single != pooled:
            mismatched.append(tag)
    ok = not mismatched
    _verdict(
        "criterion 12 (byte determinism)",
        ok,
        f"{len(commands)} commands x threads {{1,8}}, "
        f"mismatches: {mismatched if mismatched else 'none'}",
    )
    assert not mismatched
