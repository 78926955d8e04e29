"""End-to-end runs of the command line front end."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lossdepth import cli
from lossdepth.depths import BatchResult
from lossdepth.io import format_float
from lossdepth.kernels import median_heuristic

SEED_DATA = np.random.default_rng(21)


def _csv(path, array):
    rows = np.atleast_2d(np.asarray(array, dtype=float))
    text = "\n".join(",".join(format_float(v) for v in row) for row in rows)
    path.write_text(text + "\n")
    return str(path)


@pytest.fixture()
def sample_files(tmp_path):
    reference = _csv(tmp_path / "ref.csv", SEED_DATA.standard_normal((20, 2)))
    queries = _csv(tmp_path / "q.csv", [[0.0, 0.0], [0.5, -0.5], [4.0, 4.0]])
    return reference, queries


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a second at start-up; only the ranking metrics need it
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, lossdepth.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_build_parser_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["depth", "r.csv", "q.csv"])
    assert args.method == "lr"
    assert args.lam == 1.0
    assert args.reporting == "loss"
    assert args.normalize is True
    assert args.intercept is None
    assert args.handler is cli.cmd_depth


def test_depth_command_writes_report(sample_files, tmp_path, capsys):
    reference, queries = sample_files
    out = tmp_path / "out.csv"
    code = cli.main(["depth", reference, queries, "--output", str(out)])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == str(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "query,depth,converged,iterations,residual"
    assert len(lines) == 4
    depths = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(0.0 <= v <= 1.0 for v in depths)
    assert depths[2] < depths[0]  # the remote query scores lowest


def test_depth_command_prints_to_stdout(sample_files, capsys):
    reference, queries = sample_files
    assert cli.main(["depth", reference, queries]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("query,depth,converged,iterations,residual\n")

    assert cli.main(["depth", reference, queries, "--format", "json"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("{\n")
    assert '"name": "depth"' in out


def test_depth_command_reruns_byte_identical(sample_files, tmp_path):
    reference, queries = sample_files
    argv = ["depth", reference, queries, "--method", "svm", "--format", "json"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert cli.main(argv + ["--output", str(a)]) == cli.EXIT_OK
    assert cli.main(argv + ["--output", str(b)]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_depth_svm_below_the_closed_form_ignores_the_seed(sample_files, capsys):
    # the greedy dual solver picks coordinates from the data alone
    reference, queries = sample_files
    argv = ["depth", reference, queries, "--method", "svm", "--lambda", "0.01"]
    tables = []
    for seed in ("0", "7"):
        assert cli.main(argv + ["--seed", seed]) == cli.EXIT_OK
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


def test_depth_command_thread_count_never_changes_bytes(sample_files, tmp_path):
    reference, queries = sample_files
    argv = ["depth", reference, queries, "--method", "svm", "--format", "json"]
    one = tmp_path / "one.json"
    eight = tmp_path / "eight.json"
    assert cli.main(argv + ["--threads", "1", "--output", str(one)]) == cli.EXIT_OK
    assert cli.main(argv + ["--threads", "8", "--output", str(eight)]) == cli.EXIT_OK
    assert one.read_bytes() == eight.read_bytes()


def test_depth_svm_defaults_to_median_heuristic(sample_files, tmp_path):
    reference, queries = sample_files
    auto = tmp_path / "auto.csv"
    explicit = tmp_path / "explicit.csv"
    gamma = median_heuristic(np.loadtxt(reference, delimiter=","))
    base = ["depth", reference, queries, "--method", "svm"]
    assert cli.main(base + ["--output", str(auto)]) == cli.EXIT_OK
    assert cli.main(base + ["--gamma", repr(gamma), "--output", str(explicit)]) == cli.EXIT_OK
    assert auto.read_bytes() == explicit.read_bytes()


def test_depth_coefficients_table(sample_files, tmp_path):
    reference, queries = sample_files
    out = tmp_path / "out.csv"
    code = cli.main(["depth", reference, queries, "--coefficients",
                     "--output", str(out)])
    assert code == cli.EXIT_OK
    sibling = tmp_path / "out.coefficients.csv"
    lines = sibling.read_text().splitlines()
    assert lines[0] == "query,coefficient,value"
    # lr with an intercept fits d + 1 = 3 coefficients per query
    assert len(lines) == 1 + 3 * 3


def test_depth_halfspace_needs_directions_beyond_2d(tmp_path, capsys):
    reference = _csv(tmp_path / "r3.csv", SEED_DATA.standard_normal((15, 3)))
    queries = _csv(tmp_path / "q3.csv", [[0.0, 0.0, 0.0]])
    code = cli.main(["depth", reference, queries, "--method", "halfspace"])
    assert code == cli.EXIT_INVALID
    assert capsys.readouterr().err.startswith("error:")

    code = cli.main(["depth", reference, queries, "--method", "halfspace",
                     "--directions", "200"])
    assert code == cli.EXIT_OK


def test_depth_laplacian_requires_sigma(sample_files, capsys):
    reference, queries = sample_files
    code = cli.main(["depth", reference, queries, "--method", "svm",
                     "--kernel", "laplacian"])
    assert code == cli.EXIT_INVALID
    assert "--sigma" in capsys.readouterr().err


def test_depth_partial_failure_exit_code(sample_files, tmp_path, capsys, monkeypatch):
    reference, queries = sample_files

    def broken_batch(request):
        return BatchResult(results=[None] * len(request.queries),
                           errors=[(0, "boom"), (2, "boom")])

    monkeypatch.setattr(cli, "depth_batch", broken_batch)
    out = tmp_path / "out.csv"
    code = cli.main(["depth", reference, queries, "--output", str(out)])
    assert code == cli.EXIT_PARTIAL
    err = capsys.readouterr().err
    assert "query 0: boom" in err and "query 2: boom" in err
    failures = (tmp_path / "out.failures.csv").read_text().splitlines()
    assert failures == ["query,message", "0,boom", "2,boom"]


def test_threads_env_variable(sample_files, tmp_path, monkeypatch, capsys):
    reference, queries = sample_files
    flagged = tmp_path / "flag.csv"
    via_env = tmp_path / "env.csv"
    assert cli.main(["depth", reference, queries, "--threads", "2",
                     "--output", str(flagged)]) == cli.EXIT_OK
    monkeypatch.setenv("LOSSDEPTH_THREADS", "2")
    assert cli.main(["depth", reference, queries,
                     "--output", str(via_env)]) == cli.EXIT_OK
    assert flagged.read_bytes() == via_env.read_bytes()

    monkeypatch.setenv("LOSSDEPTH_THREADS", "lots")
    capsys.readouterr()
    assert cli.main(["depth", reference, queries]) == cli.EXIT_INVALID
    assert "LOSSDEPTH_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["lr", "svm"])
@pytest.mark.parametrize("lam", ["0", "-1", "nan", "inf"])
def test_depth_rejects_a_bad_lambda_once_per_request(sample_files, capsys, method, lam):
    reference, queries = sample_files
    code = cli.main(["depth", reference, queries, "--method", method, "--lambda", lam])
    assert code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "lambda" in lines[0]


@pytest.mark.parametrize("flags", [
    ["--gamma", "inf"],
    ["--gamma", "inf", "--lambda", "0.01"],
    ["--kernel", "laplacian", "--sigma", "inf"],
    ["--kernel", "imq", "--imq-c", "inf"],
    ["--kernel", "imq", "--imq-beta=-inf"],
])
def test_depth_rejects_a_non_finite_kernel_parameter(sample_files, capsys, flags):
    reference, queries = sample_files
    code = cli.main(["depth", reference, queries, "--method", "svm", *flags])
    assert code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "finite" in lines[0]


@pytest.mark.parametrize("flags", [
    ["--method", "lr"],
    ["--method", "svm", "--lambda", "0.01"],
])
def test_depth_rejects_an_infinite_tolerance(sample_files, capsys, flags):
    reference, queries = sample_files
    code = cli.main(["depth", reference, queries, *flags, "--tolerance", "inf"])
    assert code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "tolerance" in lines[0]


@pytest.mark.parametrize("command", [
    ["depth", "{reference}", "{queries}"],
    ["benchmark", "{labeled}", "--split", "--label-column", "2", "--methods", "lr"],
    ["convergence", "--n-grid", "10", "--repeats", "1", "--n-ref", "20"],
    ["grid", "--contaminated", "--n", "20", "--resolution", "2"],
    ["rankcorr", "--n", "20", "--runs", "1"],
])
def test_negative_threads_exit_two_on_every_subcommand(sample_files, labeled_file, capsys,
                                                       command):
    reference, queries = sample_files
    argv = [part.format(reference=reference, queries=queries, labeled=labeled_file)
            for part in command]
    assert cli.main(argv + ["--threads", "-1"]) == cli.EXIT_INVALID
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "threads" in lines[0]


@pytest.fixture()
def labeled_file(tmp_path):
    inliers = SEED_DATA.standard_normal((40, 2))
    outliers = SEED_DATA.standard_normal((10, 2)) + 5.0
    features = np.vstack([inliers, outliers])
    labels = np.concatenate([np.zeros(40), np.ones(10)])
    return _csv(tmp_path / "labeled.csv", np.column_stack([features, labels]))


def test_benchmark_split_with_oracle(labeled_file, tmp_path):
    out = tmp_path / "auc.csv"
    code = cli.main(["benchmark", labeled_file, "--split", "--label-column", "2",
                     "--methods", "lr,lof,oracle", "--lof-k", "3,5",
                     "--output", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "method,parameter,auc"
    assert lines[-1] == "oracle,,1"
    methods = [line.split(",")[0] for line in lines[1:]]
    assert methods == ["lr", "lof", "lof", "lof", "oracle"]


def test_benchmark_requires_one_test_source(labeled_file, tmp_path, capsys):
    code = cli.main(["benchmark", labeled_file, "--label-column", "2"])
    assert code == cli.EXIT_INVALID
    assert "either a test file or --split" in capsys.readouterr().err

    code = cli.main(["benchmark", labeled_file, labeled_file, "--split",
                     "--label-column", "2"])
    assert code == cli.EXIT_INVALID


def test_benchmark_split_needs_labels(tmp_path, capsys):
    unlabeled = _csv(tmp_path / "u.csv", SEED_DATA.standard_normal((30, 2)))
    code = cli.main(["benchmark", unlabeled, "--split"])
    assert code == cli.EXIT_INVALID
    assert "label column" in capsys.readouterr().err


def test_grid_contaminated_layout(tmp_path):
    out = tmp_path / "grid.csv"
    code = cli.main(["grid", "--contaminated", "--method", "lof", "--n", "60",
                     "--resolution", "10", "--output", str(out)])
    assert code == cli.EXIT_OK
    grid_lines = out.read_text().splitlines()
    assert grid_lines[0] == "x,y,score"
    assert len(grid_lines) == 1 + 100
    thresholds = (tmp_path / "grid.thresholds.csv").read_text().splitlines()
    assert thresholds[0] == "quantile,threshold"
    assert len(thresholds) == 1 + 5
    assert [line.split(",")[0] for line in thresholds[1:]] == [
        "0.5", "0.59999999999999998", "0.69999999999999996", "0.80000000000000004", "0.90000000000000002"
    ]


def test_grid_ocsvm_honours_the_solver_flags(tmp_path):
    base = ["grid", "--contaminated", "--method", "ocsvm", "--n", "60", "--resolution", "8"]
    reports = []
    for flags in ([], ["--max-iterations", "1", "--tolerance", "1e-3"]):
        out = tmp_path / f"grid{len(reports)}.csv"
        assert cli.main(base + flags + ["--output", str(out)]) == cli.EXIT_OK
        reports.append(out.read_text())
    assert reports[0] != reports[1]


def test_grid_requires_one_data_source(tmp_path, capsys):
    code = cli.main(["grid"])
    assert code == cli.EXIT_INVALID
    assert "either a data file or --contaminated" in capsys.readouterr().err

    data = _csv(tmp_path / "d.csv", SEED_DATA.standard_normal((10, 2)))
    code = cli.main(["grid", data, "--contaminated"])
    assert code == cli.EXIT_INVALID


def test_rankcorr_small_run(tmp_path):
    out = tmp_path / "rc.csv"
    code = cli.main(["rankcorr", "--methods", "lr", "--runs", "2", "--n", "40",
                     "--tolerance", "1e-5", "--output", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "method,d,run,kendall,spearman"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "lr"
        assert -1.0 <= float(cells[3]) <= 1.0


def test_rankcorr_honours_the_kernel_flags(tmp_path, capsys):
    base = ["rankcorr", "--methods", "svm", "--runs", "1", "--n", "40", "--tolerance", "1e-5"]
    code = cli.main(base + ["--kernel", "laplacian"])
    assert code == cli.EXIT_INVALID
    assert "--sigma" in capsys.readouterr().err

    tables = {}
    for name, flags in (("gaussian", []), ("linear", ["--kernel", "linear"])):
        out = tmp_path / f"{name}.csv"
        assert cli.main(base + flags + ["--output", str(out)]) == cli.EXIT_OK
        tables[name] = out.read_text()
    assert tables["gaussian"] != tables["linear"]


def test_rankcorr_echoes_the_kernel(capsys):
    base = ["rankcorr", "--methods", "svm", "--runs", "1", "--n", "40", "--tolerance", "1e-5",
            "--format", "json"]
    kernels = []
    for flags in ([], ["--kernel", "linear"]):
        assert cli.main(base + flags) == cli.EXIT_OK
        kernels.append(json.loads(capsys.readouterr().out)["config"]["kernel"])
    assert kernels == ["gaussian(gamma=median-heuristic)", "linear"]
    assert cli.main(["rankcorr", "--methods", "lr", "--runs", "1", "--n", "40",
                     "--format", "json"]) == cli.EXIT_OK
    assert "kernel" not in json.loads(capsys.readouterr().out)["config"]


def test_rankcorr_rejects_unsupported_method(capsys):
    code = cli.main(["rankcorr", "--methods", "halfspace", "--runs", "1"])
    assert code == cli.EXIT_INVALID
    assert "rankcorr supports lr and svm" in capsys.readouterr().err


def test_convergence_small_run(tmp_path):
    out = tmp_path / "conv.csv"
    code = cli.main(["convergence", "--method", "lr", "--n-grid", "30,60",
                     "--repeats", "2", "--n-ref", "200", "--tolerance", "1e-5",
                     "--output", str(out)])
    assert code == cli.EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "n,mean_error"
    assert [line.split(",")[0] for line in lines[1:]] == ["30", "60"]
    summary = (tmp_path / "conv.summary.csv").read_text().splitlines()
    assert summary[0] == "slope,reference_depth,n_reference"
    assert summary[1].endswith(",200")


def test_bad_arguments_exit_two(sample_files):
    reference, queries = sample_files
    with pytest.raises(SystemExit) as info:
        cli.main(["nonsense"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["depth", reference, queries, "--method", "quantum"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main([])
    assert info.value.code == 2
