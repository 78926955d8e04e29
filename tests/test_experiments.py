"""Experiment drivers: samplers, scorers, rate fits, splits, benchmarks."""
import numpy as np
import pytest
from scipy import stats

from lossdepth import depths
from lossdepth.baselines import lof_scores, ocsvm_fit
from lossdepth.core import NotConvergedError, ValidationError
from lossdepth.depths import (
    METHOD_HALFSPACE,
    METHOD_LOGISTIC,
    METHOD_SVM,
    DepthBatchRequest,
    depth_batch,
)
from lossdepth.experiments import (
    DegenerateFitError,
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
from lossdepth.kernels import KernelSpec, median_heuristic
from lossdepth.solvers import SolverConfig


def test_gen_bigaussian_shape_and_mode_means():
    sample = gen_bigaussian(100, seed=1)
    assert sample.shape == (200, 2)
    first = sample[:100].mean(axis=0)
    second = sample[100:].mean(axis=0)
    assert np.allclose(first, [-3.5, -3.5], atol=0.5)
    assert np.allclose(second, [3.5, 3.5], atol=0.5)


def test_gen_bigaussian_is_deterministic():
    assert np.array_equal(gen_bigaussian(50, seed=9), gen_bigaussian(50, seed=9))
    assert not np.array_equal(gen_bigaussian(50, seed=9), gen_bigaussian(50, seed=10))


def test_gen_bigaussian_pads_centers_into_higher_dimensions():
    sample = gen_bigaussian(200, d=4, seed=0)
    assert sample.shape == (400, 4)
    # trailing coordinates are centered at zero for both modes
    assert np.allclose(sample[:, 2:].mean(axis=0), 0.0, atol=0.2)
    assert sample[:200, 0].mean() < 0 < sample[200:, 0].mean()


def test_gen_bigaussian_validation():
    with pytest.raises(ValidationError):
        gen_bigaussian(0)
    with pytest.raises(ValidationError):
        gen_bigaussian(10, d=0)
    with pytest.raises(ValidationError):
        gen_bigaussian(10, centers=((1.0, 2.0, 3.0),), d=2)


def test_mixture_density_matches_scipy():
    centers = ((-3.5, -3.5), (3.5, 3.5))
    points = np.array([[0.0, 0.0], [-3.5, -3.5], [1.0, -2.0]])
    ours = mixture_density(points, centers)
    reference = 0.5 * (
        stats.multivariate_normal.pdf(points, mean=centers[0])
        + stats.multivariate_normal.pdf(points, mean=centers[1])
    )
    assert np.allclose(ours, reference, rtol=1e-12)


def test_mixture_density_symmetry():
    centers = ((-3.5, -3.5), (3.5, 3.5))
    a = mixture_density([[1.0, 1.0]], centers)[0]
    b = mixture_density([[-1.0, -1.0]], centers)[0]
    assert a == pytest.approx(b, rel=1e-12)


def test_gen_contaminated_counts_and_mask():
    sample = gen_contaminated(200, rate=0.1, seed=0)
    assert sample.points.shape == (200, 2)
    assert sample.contaminated.dtype == bool
    assert int(sample.contaminated.sum()) == 20
    moved = sample.points[sample.contaminated]
    assert np.allclose(moved.mean(axis=0), [2.0, 2.0], atol=0.8)
    kept = sample.points[~sample.contaminated]
    assert np.allclose(kept.mean(axis=0), [-1.0, -1.0], atol=0.5)


def test_gen_contaminated_zero_rate_is_clean():
    sample = gen_contaminated(50, rate=0.0, seed=3)
    assert not sample.contaminated.any()


def test_gen_contaminated_validation():
    with pytest.raises(ValidationError):
        gen_contaminated(0)
    with pytest.raises(ValidationError):
        gen_contaminated(10, rate=1.5)
    with pytest.raises(ValidationError):
        gen_contaminated(10, center=(0.0,), contamination_center=(1.0, 1.0))


def test_method_scorer_matches_direct_batch():
    rng = np.random.default_rng(4)
    reference = rng.standard_normal((40, 2))
    queries = rng.standard_normal((6, 2))
    scorer = method_scorer("lr", reference)
    from lossdepth.depths import logistic_depth

    direct = [logistic_depth(q, reference, 1.0).value for q in queries]
    assert np.allclose(scorer(queries), direct, atol=0.0)


def test_method_scorer_resolves_median_heuristic_once():
    rng = np.random.default_rng(15)
    reference = rng.standard_normal((30, 2))
    queries = rng.standard_normal((4, 2))
    auto = method_scorer("svm", reference)
    explicit = method_scorer(
        "svm", reference, kernel=KernelSpec.gaussian(median_heuristic(reference))
    )
    assert np.array_equal(auto(queries), explicit(queries))


def test_a_bound_scorer_prepares_its_reference_once(monkeypatch):
    # two calls of one scorer share the closed form's row-means pass and the
    # lr features and pair products, and each gives depth_batch's bits
    calls = []

    def counting(name):
        original = getattr(depths, name)

        def wrapped(*args):
            calls.append(name)
            return original(*args)

        return wrapped

    for name in ("_kernel_row_means", "logistic_features", "logistic_pairs"):
        monkeypatch.setattr(depths, name, counting(name))
    rng = np.random.default_rng(16)
    reference = rng.standard_normal((40, 2))
    batches = [rng.standard_normal((5, 2)), rng.standard_normal((3, 2))]
    kernel = KernelSpec.gaussian(0.8)
    for method, settings, prepared in (
        ("svm", dict(kernel=kernel), ["_kernel_row_means"]),
        ("lr", {}, ["logistic_features", "logistic_pairs"]),
    ):
        calls.clear()
        scorer = method_scorer(method, reference, **settings)
        scored = [scorer(queries) for queries in batches]
        assert sorted(calls) == prepared, method
        for queries, values in zip(batches, scored):
            request = DepthBatchRequest(reference=reference, queries=queries,
                                        method=method, **settings)
            assert values.tobytes() == depth_batch(request).values.tobytes(), method


def test_method_scorer_raises_on_nonconvergence():
    rng = np.random.default_rng(2)
    reference = rng.standard_normal((30, 2))
    starved = SolverConfig(max_iterations=1, tolerance=1e-14)
    scorer = method_scorer("lr", reference, solver=starved)
    with pytest.raises(NotConvergedError):
        scorer(np.zeros((2, 2)))
    lenient = method_scorer("lr", reference, solver=starved,
                            require_convergence=False)
    values = lenient(np.zeros((2, 2)))
    assert values.shape == (2,)


def test_method_scorer_gives_the_bits_of_each_method():
    # the one dispatch adds nothing to the scorer it binds: halfspace, lr and
    # svm score as depth_batch does, ocsvm as its fitted model, lof as the
    # negated factor
    rng = np.random.default_rng(17)
    reference = rng.standard_normal((40, 2))
    points = rng.standard_normal((7, 2))
    kernel = KernelSpec.gaussian(median_heuristic(reference))

    def depth_values(method, **settings):
        request = DepthBatchRequest(reference=reference, queries=points, method=method,
                                    **settings)
        return depth_batch(request).values

    cases = [
        ("halfspace", {}, depth_values(METHOD_HALFSPACE)),
        ("lr", {}, depth_values(METHOD_LOGISTIC)),
        ("svm", {}, depth_values(METHOD_SVM, kernel=kernel)),  # closed form
        ("svm", dict(lam=0.02), depth_values(METHOD_SVM, lam=0.02, kernel=kernel)),  # dual
        ("ocsvm", dict(nu=0.3), ocsvm_fit(reference, kernel, 0.3).score(points)),
        ("lof", dict(lof_k=7), -lof_scores(reference, points, 7)),
    ]
    for method, settings, expected in cases:
        scores = method_scorer(method, reference, **settings)(points)
        assert scores.tobytes() == expected.tobytes(), (method, settings)


def test_method_scorer_refuses_an_unconverged_one_class_fit():
    rng = np.random.default_rng(18)
    reference = rng.standard_normal((40, 2))
    starved = SolverConfig(max_iterations=1)
    with pytest.raises(NotConvergedError, match="one-class SVM fit stopped"):
        method_scorer("ocsvm", reference, solver=starved)
    lenient = method_scorer("ocsvm", reference, solver=starved, require_convergence=False)
    assert lenient(reference[:3]).shape == (3,)
    with pytest.raises(ValidationError, match="unknown depth method"):
        method_scorer("nope", reference)


def test_convergence_experiment_fast_profile():
    def depth_fn(sample, query):
        from lossdepth.depths import logistic_depth

        return logistic_depth(query, sample, 1.0,
                              solver=SolverConfig(tolerance=1e-6)).value

    result = convergence_experiment(
        depth_fn, d=2, n_grid=(50, 100, 200), repeats=5, master_seed=0,
        n_reference=4000,
    )
    assert result.errors.shape == (3, 5)
    assert np.all(result.mean_errors > 0.0)
    assert result.n_reference == 4000
    assert np.array_equal(result.query, np.ones(2))
    assert result.slope < 0.0  # error shrinks with sample size


def test_convergence_experiment_is_deterministic():
    calls = []

    def depth_fn(sample, query):
        calls.append(sample.shape)
        return float(np.linalg.norm(sample.mean(axis=0) - query))

    a = convergence_experiment(depth_fn, n_grid=(20, 40), repeats=3,
                               master_seed=5, n_reference=500)
    b = convergence_experiment(depth_fn, n_grid=(20, 40), repeats=3,
                               master_seed=5, n_reference=500)
    assert np.array_equal(a.errors, b.errors)
    assert a.slope == b.slope
    assert calls[0] == (500, 2)  # the proxy reference is scored first


def test_convergence_experiment_validation():
    fn = lambda sample, query: 0.0
    with pytest.raises(ValidationError):
        convergence_experiment(fn, n_grid=(50,))
    with pytest.raises(ValidationError):
        convergence_experiment(fn, n_grid=(50, 100), repeats=0)
    with pytest.raises(ValidationError):
        convergence_experiment(fn, n_grid=(50, 100), n_reference=80)
    for query in ([np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(ValidationError, match="non-finite"):
            convergence_experiment(fn, n_grid=(50, 100), query=query)
    with pytest.raises(DegenerateFitError):
        convergence_experiment(fn, n_grid=(20, 40), repeats=2, n_reference=100)


def test_convergence_experiment_refuses_a_grid_with_one_distinct_size():
    # before, the rate fit over one distinct log n warned that it was poorly
    # conditioned and returned a meaningless slope
    fn = lambda sample, query: float(sample.mean())
    with pytest.raises(ValidationError, match="two distinct sample sizes"):
        convergence_experiment(fn, n_grid=(50, 50), repeats=2, n_reference=200)


def test_rank_correlation_rows_and_determinism():
    def score_fn(sample):
        scorer = method_scorer("lr", sample,
                               solver=SolverConfig(tolerance=1e-5))
        return scorer(sample)

    rows = rank_correlation_experiment(score_fn, d_grid=(2,), n=60, runs=3,
                                       master_seed=1)
    assert len(rows) == 3
    for row in rows:
        assert row.d == 2
        assert -1.0 <= row.kendall <= 1.0
        assert -1.0 <= row.spearman <= 1.0
    again = rank_correlation_experiment(score_fn, d_grid=(2,), n=60, runs=3,
                                        master_seed=1)
    assert [(r.kendall, r.spearman) for r in rows] == [
        (r.kendall, r.spearman) for r in again
    ]


def test_rank_correlation_validation():
    fn = lambda sample: sample[:, 0]
    with pytest.raises(ValidationError):
        rank_correlation_experiment(fn, runs=0)
    with pytest.raises(ValidationError):
        rank_correlation_experiment(fn, n=3)


def test_contamination_grid_layout():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((50, 2))
    score_fn = lambda pts: -np.linalg.norm(np.atleast_2d(pts), axis=1)
    scan = contamination_grid(data, score_fn, resolution=10)
    assert scan.points.shape == (100, 2)
    assert scan.scores.shape == (100,)
    # x varies fastest along the flattened grid
    assert scan.points[0, 1] == scan.points[1, 1]
    assert scan.points[0, 0] != scan.points[1, 0]
    assert scan.xs[0] == pytest.approx(data[:, 0].min() - 1.0)
    assert scan.xs[-1] == pytest.approx(data[:, 0].max() + 1.0)
    assert scan.ys[0] == pytest.approx(data[:, 1].min() - 1.0)


def test_contamination_grid_thresholds_are_data_quantiles():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((40, 2))
    score_fn = lambda pts: np.atleast_2d(pts)[:, 0]
    levels = (0.5, 0.6, 0.7, 0.8, 0.9)
    scan = contamination_grid(data, score_fn, resolution=5, quantiles=levels)
    expected = np.quantile(data[:, 0], levels)
    assert np.allclose(scan.thresholds, expected, atol=1e-12)
    assert np.all(np.diff(scan.thresholds) >= 0.0)


def test_contamination_grid_validation():
    fn = lambda pts: np.zeros(len(np.atleast_2d(pts)))
    with pytest.raises(ValidationError):
        contamination_grid(np.zeros((5, 3)), fn)
    with pytest.raises(ValidationError):
        contamination_grid(np.zeros((5, 2)), fn, resolution=1)
    with pytest.raises(ValidationError):
        contamination_grid(np.zeros((5, 2)), fn, quantiles=(1.5,))


def test_stratified_split_proportions():
    labels = np.array([0] * 10 + [1] * 5)
    train_idx, test_idx = stratified_split(labels, test_fraction=0.2, seed=0)
    assert len(test_idx) == 3  # 2 zeros + 1 one
    assert len(train_idx) == 12
    assert (np.sort(np.concatenate([train_idx, test_idx])) == np.arange(15)).all()
    assert int((labels[test_idx] == 0).sum()) == 2
    assert int((labels[test_idx] == 1).sum()) == 1
    assert np.all(np.diff(train_idx) > 0)  # sorted output


def test_stratified_split_keeps_both_sides_nonempty():
    labels = np.array([0, 0, 1, 1])
    train_idx, test_idx = stratified_split(labels, test_fraction=0.01, seed=1)
    # the clamp forces one test row per two-member class
    assert int((labels[test_idx] == 0).sum()) == 1
    assert int((labels[test_idx] == 1).sum()) == 1


def test_stratified_split_single_member_class_stays_in_train():
    labels = np.array([0, 0, 0, 0, 2])
    train_idx, test_idx = stratified_split(labels, test_fraction=0.25, seed=0)
    assert 4 in train_idx
    assert 4 not in test_idx


def test_stratified_split_deterministic_and_seed_sensitive():
    labels = np.tile([0, 1], 20)
    a = stratified_split(labels, seed=3)
    b = stratified_split(labels, seed=3)
    c = stratified_split(labels, seed=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[1], c[1])


def test_stratified_split_validation():
    with pytest.raises(ValidationError):
        stratified_split([0], test_fraction=0.2)
    with pytest.raises(ValidationError):
        stratified_split([0, 1], test_fraction=0.0)


def _toy_benchmark_data():
    rng = np.random.default_rng(11)
    train = rng.standard_normal((80, 2))
    test_in = rng.standard_normal((30, 2))
    test_out = rng.standard_normal((15, 2)) + 5.0
    test = np.vstack([test_in, test_out])
    inlier = np.concatenate([np.ones(30, dtype=bool), np.zeros(15, dtype=bool)])
    return train, test, inlier


def test_benchmark_auc_rows_and_quality():
    train, test, inlier = _toy_benchmark_data()
    rows = benchmark_auc(train, test, inlier,
                         methods=("lr", "svm", "lof", "ocsvm", "oracle"),
                         lof_k=(5, 10))
    by_key = {(r.method, r.parameter): r.auc for r in rows}
    assert by_key[("oracle", "")] == 1.0
    assert by_key[("lof", "best")] == max(by_key[("lof", "k=5")], by_key[("lof", "k=10")])
    assert by_key[("lr", "lam=1")] > 0.9  # far cluster is easy to flag
    assert by_key[("svm", "lam=1")] > 0.9
    for value in by_key.values():
        assert 0.0 <= value <= 1.0
    # row order follows the requested method order
    assert [r.method for r in rows] == ["lr", "svm", "lof", "lof", "lof", "ocsvm", "oracle"]


def test_benchmark_auc_validation():
    train, test, inlier = _toy_benchmark_data()
    with pytest.raises(ValidationError):
        benchmark_auc(train, test, inlier[:-1])
    with pytest.raises(ValidationError):
        benchmark_auc(train, test, inlier, methods=("nope",))
    with pytest.raises(ValidationError):
        benchmark_auc(train, test, inlier, methods=("lof",), lof_k=())
