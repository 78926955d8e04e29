"""End-to-end runs of the command line front end."""
import argparse
import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lossdepth import baselines, cli, experiments, native
from lossdepth.core import ValidationError
from lossdepth.depths import METHODS
from lossdepth.io import format_float
from lossdepth.kernels import median_heuristic
from lossdepth.solvers import SolverConfig

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


def _fresh_run(code, **env):
    """Run code in a new interpreter that imports lossdepth from this checkout,
    with env added to its environment; the finished process, which must exit 0."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **env)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)


def _fresh_python(code, **env):
    """The standard output of _fresh_run."""
    return _fresh_run(code, **env).stdout


# prints whether this process has imported the compiled library's loader,
# which no import and no lr run needs
NATIVE_TRIED = "import sys; print('lossdepth.native' in sys.modules)\n"


def test_cli_import_leaves_scipy_stats_unloaded(tmp_path):
    # scipy.spatial and scipy.stats cost most of a second at start-up; only
    # the ranking metrics, and the kernels and LOF without the compiled
    # library, import them, on first use; and no import compiles, loads or
    # caches the compiled library
    code = (
        "import sys\n"
        "def scipy_loaded(): return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "import lossdepth; print(scipy_loaded())\n"
        "import lossdepth.cli; print(scipy_loaded())\n"
    ) + NATIVE_TRIED
    cache = tmp_path / "cache"
    assert _fresh_python(code, XDG_CACHE_HOME=str(cache)).split() == ["False"] * 3
    assert not cache.exists()


def test_halfspace_and_lr_depths_run_without_scipy(sample_files, tmp_path):
    # lr does not touch the compiled library or its cache either; the 2-d
    # halfspace sweep loads the library, where it can be had, and so do grid
    # and convergence with the halfspace depth
    reference, queries = sample_files
    outputs = [str(tmp_path / f"{name}.csv") for name in ("lr", "halfspace", "grid", "rate")]
    drivers = [["grid", "--contaminated", "--method", "halfspace", "--resolution", "5"],
               ["convergence", "--method", "halfspace", "--n-grid", "20,40", "--repeats", "2"]]
    code = (
        "import sys\n"
        "from lossdepth import cli\n"
        f"argv = ['depth', {reference!r}, {queries!r}, '--output']\n"
        f"codes = [cli.main([*argv, {outputs[0]!r}, '--method', 'lr'])]\n"
        + NATIVE_TRIED
        + f"codes.append(cli.main([*argv, {outputs[1]!r}, '--method', 'halfspace']))\n"
        f"for driver, out in zip({drivers!r}, {outputs[2:]!r}):\n"
        "    codes.append(cli.main([*driver, '--output', out]))\n"
        "from lossdepth import native\n"
        "print(native._library() is not None)\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    cache = tmp_path / "cache"
    # cli.main prints each output path; the verdict lines follow them
    lines = _fresh_python(code, XDG_CACHE_HOME=str(cache)).splitlines()
    compiled = native._library() is not None
    assert [lines[1], *lines[-2:]] == ["False", str(compiled), f"{[cli.EXIT_OK] * 4} []"]
    assert all(Path(out).read_text().startswith("query,depth,") for out in outputs[:2])
    assert Path(outputs[2]).read_text().startswith("x,y,score\n")
    assert Path(outputs[3]).read_text().startswith("n,mean_error\n")
    assert bool(list(cache.rglob("dual-*.so"))) == compiled


@pytest.mark.parametrize("form", ["csv", "json"])
def test_a_halfspace_depth_has_the_same_bytes_without_the_compiled_sweep(
    form, tmp_path, monkeypatch
):
    # ties, collinear points, repeats and queries on reference rows; the 1-d
    # depth and random directions never call the library
    if native._library() is None:
        pytest.skip("no C compiler: the numpy sweep is the only one")
    rng = np.random.default_rng(17)
    planar = np.round(rng.standard_normal((30, 2)) * 2.0) / 2.0
    commands = []
    for d in (2, 1):
        points = planar[:, :d]
        reference = _csv(tmp_path / f"ref{d}.csv", points)
        queries = _csv(tmp_path / f"q{d}.csv",
                       np.vstack([points[:5], np.round(rng.standard_normal((20, d)))]))
        depth = ["depth", reference, queries, "--method", "halfspace", "--format", form]
        commands += [depth, depth + ["--directions", "50"]]
    compiled = [_write_reports(argv, tmp_path / f"compiled{i}") for i, argv in enumerate(commands)]
    monkeypatch.setattr(native, "_library", lambda: None)
    assert [_write_reports(argv, tmp_path / f"looped{i}")
            for i, argv in enumerate(commands)] == compiled


def test_kernel_commands_match_in_a_fresh_interpreter(sample_files, tmp_path):
    # the kernels and LOF load the compiled library on first use; a process
    # that loads it on the spot prints the bytes of one that already has it
    reference, queries = sample_files
    commands = {
        "svm.json": ["depth", reference, queries, "--method", "svm", "--format", "json",
                     "--coefficients"],
        "lof.csv": ["grid", "--contaminated", "--method", "lof", "--n", "60",
                    "--resolution", "8"],
    }
    for side in ("fresh", "here"):
        (tmp_path / side).mkdir()
    for name, argv in commands.items():
        fresh = str(tmp_path / "fresh" / name)
        _fresh_python(f"from lossdepth import cli; "
                      f"raise SystemExit(cli.main({argv + ['--output', fresh]!r}))")
        assert cli.main(argv + ["--output", str(tmp_path / "here" / name)]) == cli.EXIT_OK
    fresh_files = sorted(path.name for path in (tmp_path / "fresh").iterdir())
    assert fresh_files == sorted(path.name for path in (tmp_path / "here").iterdir())
    assert len(fresh_files) > len(commands)  # grid also writes its thresholds
    for name in fresh_files:
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def _two_cpus():
    """Whether this process may run on two CPUs, which a second BLAS thread needs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def _overcommits_always():
    """Whether the kernel grants any allocation (Linux overcommit mode 1), so
    that an array too large for the machine is granted and then filled."""
    path = Path("/proc/sys/vm/overcommit_memory")
    return path.is_file() and path.read_text().strip() == "1"


BLAS_THREAD_CASES = {
    "lr": pytest.param(
        ["--method", "lr", "--coefficients"],
        marks=pytest.mark.xfail(
            strict=True,
            reason="lr report bytes depend on the BLAS thread count: at d = 40 (D = 41, above "
                   "solvers.PAIR_HESSIAN_MAX_DIM) solvers._logistic_hessian forms the Hessians "
                   "by a stacked matrix product, which rounds differently with more threads",
        ),
    ),
    "svm-linear": ["--method", "svm", "--kernel", "linear", "--coefficients"],
    "svm-linear-small-lambda": ["--method", "svm", "--kernel", "linear", "--lambda", "0.03",
                                "--coefficients"],
    "halfspace": ["--method", "halfspace", "--directions", "500"],
}


@pytest.mark.skipif(not _two_cpus(), reason="a second BLAS thread needs a second CPU")
@pytest.mark.parametrize("flags", list(BLAS_THREAD_CASES.values()), ids=list(BLAS_THREAD_CASES))
def test_report_bytes_do_not_depend_on_the_blas_thread_count(flags, tmp_path):
    rng = np.random.default_rng(24)
    reference = _csv(tmp_path / "ref.csv", rng.standard_normal((500, 40)))
    queries = _csv(tmp_path / "q.csv", rng.standard_normal((16, 40)))
    argv = ["depth", reference, queries, *flags, "--format", "json"]
    code = f"from lossdepth import cli; raise SystemExit(cli.main({argv!r}))"
    one, two = (_fresh_python(code, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
    assert one.startswith("{") and one == two


def _write_reports(argv, folder):
    """Run argv with its reports in folder, and return them by name."""
    folder.mkdir()
    assert cli.main(argv + ["--output", str(folder / "report")]) == cli.EXIT_OK
    return {path.name: path.read_bytes() for path in sorted(folder.iterdir())}


def test_reports_have_the_same_bytes_with_and_without_the_compiled_loop(
    sample_files, labeled_file, tmp_path, monkeypatch
):
    # every command that runs a no-intercept dual below kappa/4, every kernel,
    # and the compiled distance pass: the closed form at the default lambda
    # for every kernel, lof, and the median heuristic's gamma
    if native._library() is None:
        pytest.skip("no C compiler: the numpy loop is the only one")
    reference, queries = sample_files
    depth = ["depth", reference, queries, "--method", "svm", "--coefficients", "--format", "json"]
    kernels = ([], ["--kernel", "laplacian", "--sigma", "1"], ["--kernel", "imq"],
               ["--kernel", "linear"])
    commands = [depth + lam + kernel for lam in ([], ["--lambda", "0.05"]) for kernel in kernels]
    commands += [
        ["grid", "--contaminated", "--method", "svm", "--lambda", "0.05", "--n", "40",
         "--resolution", "5"],
        ["grid", "--contaminated", "--method", "lof", "--n", "60", "--resolution", "8"],
        ["benchmark", labeled_file, "--split", "--label-column", "2", "--methods", "svm,ocsvm",
         "--lambda", "0.05"],
        ["rankcorr", "--methods", "svm", "--lambda", "0.05", "--runs", "2", "--n", "30"],
        ["convergence", "--method", "svm", "--lambda", "0.05", "--n-grid", "20,40",
         "--repeats", "2"],
    ]
    # tied and duplicate pairs, and a subsample of 2000 rows from 2600
    points = np.round(np.random.default_rng(31).standard_normal((2600, 3)), 1)

    def run(side):
        folders = [tmp_path / f"{side}{i}" for i in range(len(commands))]
        reports = [_write_reports(argv, folder) for argv, folder in zip(commands, folders)]
        return reports, np.float64(median_heuristic(points)).tobytes()

    compiled = run("compiled")
    monkeypatch.setattr(native, "_library", lambda: None)
    assert compiled == run("looped")


def test_a_kernel_depth_leaves_scipy_spatial_unloaded_with_the_compiled_library(
    sample_files, tmp_path
):
    # the compiled pass computes every distance; scipy.spatial is the fallback
    if native._library() is None:
        pytest.skip("no C compiler: scipy computes the distances")
    reference, queries = sample_files
    code = (
        "import sys\n"
        "from lossdepth import cli, native\n"
        f"code = cli.main(['depth', {reference!r}, {queries!r}, '--method', 'svm',\n"
        f"                 '--output', {str(tmp_path / 'out.csv')!r}])\n"
        "print(code, native._library() is not None, 'scipy.spatial' in sys.modules)\n"
    )
    assert _fresh_python(code).splitlines()[-1] == f"{cli.EXIT_OK} True False"


# values whose kernel argument overflows to -inf in numpy's scaling step
# (reference, query, options)
OVERFLOWING_ARGUMENTS = {
    "gaussian": ([[0.0]], [[1e154]], ["--gamma", "1e300"]),
    "laplacian": ([[0.0]], [[1e300]], ["--kernel", "laplacian", "--sigma", "1e-300"]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "scipy"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING_ARGUMENTS))
def test_an_overflowing_kernel_argument_runs_without_a_warning(
    case, compiled, tmp_path, capsys, monkeypatch
):
    # the kernel value is exp(-inf) = 0; before, the scipy path raised a raw
    # numpy overflow warning on the way
    if compiled and native._library() is None:
        pytest.skip("no C compiler: the scipy path is the only one")
    if not compiled:
        monkeypatch.setattr(native, "_library", lambda: None)
    reference, query, options = OVERFLOWING_ARGUMENTS[case]
    argv = ["depth", _csv(tmp_path / "ref.csv", reference), _csv(tmp_path / "q.csv", query),
            "--method", "svm", *options]
    assert cli.main(argv) == cli.EXIT_OK
    header, row = capsys.readouterr().out.splitlines()
    assert (header, row) == ("query,depth,converged,iterations,residual", "0,0.75,true,0,0")


def test_random_direction_halfspace_on_overflowing_data_runs_without_a_warning(
    tmp_path, capsys
):
    # a difference past 1.8e308 is an infinity, counted on its side; before,
    # numpy warned of an overflow in subtract and in matmul
    reference = _csv(tmp_path / "ref.csv", [[1e308, 0.0], [-1e308, 1.0], [0.0, 0.0]])
    queries = _csv(tmp_path / "q.csv", [[-1e308, 0.0], [1e308, 1e308]])
    argv = ["depth", reference, queries, "--method", "halfspace", "--directions", "5"]
    assert cli.main(argv) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1:] == ["0,0,true,0,0", "1,0,true,0,0"]


def test_an_intercept_svm_moves_a_point_at_the_origin(tmp_path, capsys):
    # with the linear kernel a point at the origin has a zero kernel diagonal;
    # it was pinned at alpha = 0 and the depth printed 1.0034722, converged,
    # above the zero function's loss of 1; the optimum is the box, 0.996528
    reference = _csv(tmp_path / "ref.csv", [[0.0], [0.0], [1.0]])
    queries = _csv(tmp_path / "q.csv", [[0.5]])
    argv = ["depth", reference, queries, "--method", "svm", "--kernel", "linear", "--intercept"]
    assert cli.main(argv) == cli.EXIT_OK
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[2] == "true" and float(row[1]) == pytest.approx(1.0 - 1.0 / 288.0, abs=1e-12)


@pytest.mark.parametrize("case", ["no compiler", "unwritable cache"])
def test_a_run_without_the_compiled_loop_gives_the_same_bytes_silently(
    case, sample_files, tmp_path, capsys
):
    reference, queries = sample_files
    argv = ["depth", reference, queries, "--method", "svm", "--lambda", "0.05",
            "--coefficients", "--format", "json"]
    assert cli.main(argv) == cli.EXIT_OK
    expected = capsys.readouterr().out
    cache = tmp_path / "cache"
    code = "from lossdepth import cli, native\n"
    if case == "no compiler":
        code += "native._compiler = lambda: [" + repr(str(tmp_path / "no-such-cc")) + "]\n"
    else:  # a file where the cache directory's parent should be
        cache.write_text("")
    code += f"code = cli.main({argv!r})\nassert native._library() is None\nraise SystemExit(code)\n"
    run = _fresh_run(code, XDG_CACHE_HOME=str(cache))
    assert (run.stdout, run.stderr) == (expected, "")
    assert cache.is_file() or not list(cache.rglob("*.so"))


def test_a_second_process_loads_the_cached_loop_without_compiling(tmp_path):
    cache = tmp_path / "cache"
    first = "from lossdepth import native\nprint(native._library() is not None)\n"
    if _fresh_python(first, XDG_CACHE_HOME=str(cache)) != "True\n":
        pytest.skip("no C compiler: nothing is cached")
    folder = cache / "lossdepth"
    assert folder.stat().st_mode & 0o777 == 0o700
    names = [path.name for path in folder.iterdir()]
    assert len(names) == 1 and re.fullmatch(r"dual-[0-9a-f]{16}\.so", names[0])  # no temporary
    second = (
        "import sys\n"
        "from lossdepth import native\n"
        "def refuse(*args): raise AssertionError('compiled again')\n"
        "native._compile = refuse\n"
    ) + first + "print('subprocess' in sys.modules)\n"  # only compiling imports it
    assert _fresh_python(second, XDG_CACHE_HOME=str(cache)) == "True\nFalse\n"


def test_benchmark_lof_rows_have_the_bytes_of_one_lof_call_per_k(
    labeled_file, tmp_path, monkeypatch
):
    # the neighbour order is sorted once for every --lof-k; each k's
    # factors are still those of its own lof_scores call
    argv = ["benchmark", labeled_file, "--split", "--label-column", "2", "--methods", "lof",
            "--lof-k", "3,1,10,5"]
    once = _write_reports(argv, tmp_path / "once")
    monkeypatch.setattr(
        experiments, "lof_scores_per_k",
        lambda train, test, ks: [baselines.lof_scores(train, test, k) for k in ks],
    )
    assert _write_reports(argv, tmp_path / "per-k") == once
    assert len(once["report"].splitlines()) == 6  # header, four sizes and the best


def test_build_parser_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["depth", "r.csv", "q.csv"])
    assert args.method == "lr"
    assert args.lam == 1.0
    assert args.reporting == "loss"
    assert args.normalize is True
    assert args.intercept is None
    assert args.handler is cli.cmd_depth


def test_the_parser_holds_every_solver_default():
    # each handler builds its SolverConfig from the parsed values alone
    minimal = {"depth": ["r.csv", "q.csv"], "benchmark": ["t.csv"], "convergence": [],
               "grid": [], "rankcorr": []}
    parser = cli.build_parser()
    for command, argv in minimal.items():
        args = parser.parse_args([command, *argv])
        assert args.max_iterations == SolverConfig().max_iterations, command
        assert args.tolerance == (1e-8 if command == "depth" else 1e-6), command
    for text, column in (("2", 2), ("lab", "lab")):
        args = parser.parse_args(["depth", "r.csv", "q.csv", "--label-column", text])
        assert args.label_column == column


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

    # d = 1 and d = 2 score with or without directions and report no failures
    for d in (1, 2):
        reference = _csv(tmp_path / f"r{d}.csv", SEED_DATA.standard_normal((15, d)))
        queries = _csv(tmp_path / f"q{d}.csv", SEED_DATA.standard_normal((3, d)))
        for flags in ([], ["--directions", "50"]):
            out = tmp_path / f"out{d}{len(flags)}.csv"
            code = cli.main(["depth", reference, queries, "--method", "halfspace", *flags,
                             "--output", str(out)])
            assert code == cli.EXIT_OK
            assert out.read_text().count("\n") == 4
    assert list(tmp_path.glob("*.failures.csv")) == []


def test_depth_dimension_mismatch_reads_the_same_for_every_method(tmp_path, capsys):
    # halfspace checks the dimensions before it finds no exact algorithm for d = 3
    rng = np.random.default_rng(8)
    reference = _csv(tmp_path / "r3.csv", rng.standard_normal((15, 3)))
    queries = _csv(tmp_path / "q2.csv", rng.standard_normal((2, 2)))
    for method in ("halfspace", "lr", "svm"):
        code = cli.main(["depth", reference, queries, "--method", method])
        assert code == cli.EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: dimension mismatch: reference has d=3, queries have d=2\n"
        )


def test_depth_laplacian_requires_sigma(sample_files, capsys):
    reference, queries = sample_files
    code = cli.main(["depth", reference, queries, "--method", "svm",
                     "--kernel", "laplacian"])
    assert code == cli.EXIT_INVALID
    assert "--sigma" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", [
    ["depth", "{reference}", "{queries}"],
    ["depth", "{reference}", "{queries}", "--method", "halfspace", "--directions", "5"],
    ["depth", "{reference}", "{queries}", "--method", "svm"],
    ["benchmark", "{labeled}", "--split", "--label-column", "2", "--methods", "lr"],
    ["benchmark", "{labeled}", "{labeled}", "--label-column", "2", "--methods", "lr"],
    ["convergence", "--n-grid", "10", "--repeats", "1", "--n-ref", "20"],
    ["grid", "--contaminated", "--n", "20", "--resolution", "2"],
    ["rankcorr", "--n", "20", "--runs", "1"],
])
def test_negative_seed_exits_two_on_every_subcommand(sample_files, labeled_file, capsys,
                                                     command):
    reference, queries = sample_files
    argv = [part.format(reference=reference, queries=queries, labeled=labeled_file)
            for part in command]
    assert cli.main(argv + ["--seed", "-1"]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "seed" in lines[0]


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


def test_two_file_benchmark_scores_as_benchmark_auc(tmp_path, capsys):
    rng = np.random.default_rng(23)
    train = np.vstack([rng.standard_normal((40, 2)), rng.standard_normal((8, 2)) + 4.0])
    test = np.vstack([rng.standard_normal((15, 2)), rng.standard_normal((5, 2)) + 4.0])
    train_labels = np.r_[np.zeros(40), np.ones(8)]
    test_labels = np.r_[np.zeros(15), np.ones(5)]
    train_path = _csv(tmp_path / "train.csv", np.column_stack([train, train_labels]))
    test_path = _csv(tmp_path / "test.csv", np.column_stack([test, test_labels]))
    methods = "halfspace,lr,svm,lof,ocsvm,oracle"
    code = cli.main(["benchmark", train_path, test_path, "--label-column", "2",
                     "--methods", methods])
    assert code == cli.EXIT_OK
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    expected = experiments.benchmark_auc(
        train, test, test_labels == 0, methods=methods.split(","),
        solver=SolverConfig(max_iterations=10_000, tolerance=1e-6),
    )
    assert rows[0] == ["method", "parameter", "auc"]
    assert [(m, p, float(auc)) for m, p, auc in rows[1:]] == [
        (row.method, row.parameter, row.auc) for row in expected
    ]
    # the halfspace depth has no lambda, so its parameter cell is empty
    assert [row[:2] for row in rows[1:3]] == [["halfspace", ""], ["lr", "lam=1"]]
    assert 0.5 < float(rows[1][2]) <= 1.0

    # with no label column named, the test file has none to score against
    unlabeled = [_csv(tmp_path / f"{name}.csv", data) for name, data in
                 (("train-u", train), ("test-u", test))]
    assert cli.main(["benchmark", *unlabeled]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the test file needs a label column\n"


def test_only_benchmark_refuses_an_unconverged_one_class_fit(labeled_file, capsys):
    # benchmark requires every fit to converge, as it does for its depths;
    # grid reports what a stopped fit gives, as it does for its depths
    code = cli.main(["benchmark", labeled_file, "--split", "--label-column", "2",
                     "--methods", "ocsvm", "--max-iterations", "1"])
    assert code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: the one-class SVM fit stopped before tolerance[^\n]*\n",
                        captured.err), captured.err
    code = cli.main(["grid", "--contaminated", "--method", "ocsvm", "--n", "60",
                     "--resolution", "4", "--max-iterations", "1"])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, message", [
    (["benchmark", "{labeled}", "--split", "--label-column", "2", "--methods", ""],
     "--methods needs at least one method"),
    (["rankcorr", "--methods", "", "--runs", "1"], "--methods needs at least one method"),
    (["grid", "--contaminated", "--method", "lof", "--lof-k", ""],
     "grid scores with one --lof-k, got 0"),
], ids=["benchmark-methods", "rankcorr-methods", "grid-lof-k"])
def test_an_empty_list_exits_two_with_one_line(argv, message, labeled_file, capsys):
    # before, the first two printed a header-only table and grid scored with k = 10
    argv = [arg.format(labeled=labeled_file) for arg in argv]
    assert cli.main(argv) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# every name method_scorer takes: the depths, the one-class SVM and LOF
SCORER_NAMES = (*METHODS, "ocsvm", "lof")


def test_every_driver_method_choice_builds_a_scorer():
    # the parser offers no method the one dispatch cannot fit, and the depth
    # choices are the package's own names
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    rng = np.random.default_rng(24)
    reference, points = rng.standard_normal((30, 2)), rng.standard_normal((4, 2))
    choices = {command: next(a for a in commands.choices[command]._actions
                             if "--method" in a.option_strings).choices
               for command in ("depth", "grid", "convergence")}
    assert choices == {"depth": METHODS, "grid": SCORER_NAMES, "convergence": METHODS}
    for command in ("grid", "convergence"):
        for method in choices[command]:
            scores = experiments.method_scorer(method, reference)(points)
            assert scores.shape == (4,) and np.all(np.isfinite(scores)), (command, method)
    with pytest.raises(ValidationError, match="unknown depth method 'nope'"):
        experiments.method_scorer("nope", reference)


def test_the_list_drivers_run_every_scorer_name(labeled_file, capsys):
    # rankcorr and benchmark take every name method_scorer takes, and an
    # unknown one exits 2 with the request's one line
    for method in SCORER_NAMES:
        for argv in (["rankcorr", "--methods", method, "--n", "30", "--runs", "1"],
                     ["benchmark", labeled_file, "--split", "--label-column", "2",
                      "--methods", method, "--lof-k", "5"]):
            assert cli.main([*argv, "--format", "json"]) == cli.EXIT_OK, argv
            report = json.loads(capsys.readouterr().out)
            rows = report["tables"][0]["rows"]
            assert rows and all(row[0] == method for row in rows), argv
            assert np.all(np.isfinite([row[-1] for row in rows])), argv
    for argv in (["rankcorr", "--methods", "lr,nope", "--n", "30", "--runs", "1"],
                 ["benchmark", labeled_file, "--split", "--label-column", "2",
                  "--methods", "lr,nope"]):
        assert cli.main(argv) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown depth method 'nope'\n"


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


def test_grid_config_names_every_scoring_option(capsys):
    base = ["grid", "--contaminated", "--method", "lof", "--n", "60", "--resolution", "4",
            "--format", "json"]
    configs = []
    for flags in ([], ["--center", "0,0"], ["--contamination-center", "3,3"],
                  ["--lof-k", "5"], ["--ocsvm-nu", "0.3"]):
        assert cli.main(base + flags) == cli.EXIT_OK
        configs.append(json.loads(capsys.readouterr().out)["config"])
    assert configs[0]["center"] == [-1.0, -1.0]
    assert configs[0]["contamination_center"] == [2.0, 2.0]
    assert configs[0]["lof_k"] == 10 and configs[0]["ocsvm_nu"] == 0.15
    assert configs[1]["center"] == [0.0, 0.0]
    assert configs[2]["contamination_center"] == [3.0, 3.0]
    assert configs[3]["lof_k"] == 5
    assert configs[4]["ocsvm_nu"] == 0.3
    # grid scores with one k, so a list of several is refused, not cut to its first
    for method in ("lof", "svm"):
        assert cli.main(base + ["--method", method, "--lof-k", "5,10"]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == "" and "one --lof-k" in captured.err


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


REPORT_COMMANDS = {
    "depth": ["depth", "{reference}", "{queries}", "--coefficients"],
    "grid": ["grid", "--contaminated", "--method", "lr", "--n", "30", "--resolution", "3"],
    "rankcorr": ["rankcorr", "--n", "20", "--runs", "2", "--tolerance", "1e-5"],
    "convergence": ["convergence", "--method", "lr", "--n-grid", "20,40", "--repeats", "2",
                    "--n-ref", "100", "--tolerance", "1e-5"],
    "benchmark": ["benchmark", "{labeled}", "--split", "--label-column", "2", "--lof-k", "3,5",
                  "--tolerance", "1e-5"],
}


def _same_cell(text, value) -> bool:
    """Whether a CSV cell read back carries the JSON cell's value."""
    if value is None:
        return text == ""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, (int, float)):
        return type(value)(text) == value
    return text == value


@pytest.mark.parametrize("case", sorted(REPORT_COMMANDS))
def test_csv_and_json_reports_carry_the_same_cells(case, sample_files, labeled_file, tmp_path):
    reference, queries = sample_files
    argv = [part.format(reference=reference, queries=queries, labeled=labeled_file)
            for part in REPORT_COMMANDS[case]]
    for fmt in ("csv", "json"):
        out = str(tmp_path / f"report.{fmt}")
        assert cli.main(argv + ["--format", fmt, "--output", out]) == cli.EXIT_OK
    report = json.loads((tmp_path / "report.json").read_text())
    # main names every report after its subcommand and records the seed first
    assert report["name"] == argv[0]
    assert next(iter(report["config"])) == "seed"
    tables = report["tables"]
    assert tables
    for i, table in enumerate(tables):
        path = tmp_path / ("report.csv" if i == 0 else f"report.{table['name']}.csv")
        with open(path, newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == table["columns"] and len(rows) == len(table["rows"]) > 0
        for csv_row, json_row in zip(rows, table["rows"]):
            assert len(csv_row) == len(json_row)
            assert all(map(_same_cell, csv_row, json_row)), (csv_row, json_row)


def test_rankcorr_rejects_unsupported_method(capsys):
    code = cli.main(["rankcorr", "--methods", "nope", "--runs", "1"])
    assert code == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown depth method 'nope'\n"


def test_rankcorr_echoes_the_kernel_of_the_one_class_svm(capsys):
    # the config names the kernel whenever svm or ocsvm is scored
    argv = ["rankcorr", "--n", "30", "--runs", "1", "--kernel", "linear", "--format", "json"]
    for methods, kernel in (("ocsvm", "linear"), ("lr,ocsvm", "linear"), ("lr", None)):
        assert cli.main([*argv, "--methods", methods]) == cli.EXIT_OK
        config = json.loads(capsys.readouterr().out)["config"]
        assert config.get("kernel") == kernel, methods


def test_rankcorr_echoes_the_baseline_settings(capsys):
    # lof's neighbourhood size and ocsvm's nu are named when that method runs
    argv = ["rankcorr", "--n", "30", "--runs", "1", "--format", "json"]
    for methods, echoed in (("lof", {"lof_k": experiments.LOF_K}),
                            ("ocsvm", {"ocsvm_nu": experiments.OCSVM_NU}),
                            ("halfspace,lof,ocsvm", {"lof_k": 10, "ocsvm_nu": 0.15}),
                            ("lr,svm", {})):
        assert cli.main([*argv, "--methods", methods]) == cli.EXIT_OK
        config = json.loads(capsys.readouterr().out)["config"]
        assert {key: config[key] for key in ("lof_k", "ocsvm_nu") if key in config} == echoed


@pytest.mark.parametrize("argv, message", [
    (["rankcorr", "--methods", "", "--max-iterations", "0"],
     "solver needs max_iterations >= 1"),
    (["convergence", "--repeats", "0", "--tolerance", "inf"],
     "solver needs a finite positive tolerance"),
], ids=["rankcorr", "convergence"])
def test_the_solver_flags_are_checked_first(argv, message, capsys):
    assert cli.main(argv) == cli.EXIT_INVALID
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("method", ["lr", "svm"])
def test_depth_ignores_directions_for_the_loss_depths(method, sample_files, capsys):
    # a halfspace config is built for the halfspace depth alone
    reference, queries = sample_files
    assert cli.main(["depth", reference, queries, "--method", method]) == cli.EXIT_OK
    plain = capsys.readouterr().out
    assert cli.main(["depth", reference, queries, "--method", method,
                     "--directions", "0"]) == cli.EXIT_OK
    assert capsys.readouterr().out == plain


def test_convergence_takes_the_median_heuristic_of_the_reference_sample_once(monkeypatch):
    calls = []

    def counting(points):
        calls.append(len(points))
        return median_heuristic(points)

    monkeypatch.setattr(cli, "median_heuristic", counting)
    assert cli.main(["convergence", "--method", "svm", "--n-grid", "10,20", "--repeats", "2",
                     "--n-ref", "100"]) == cli.EXIT_OK
    assert calls == [100]


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


FILE_ERROR_CASES = {
    "missing-input": (["depth", "{tmp}/missing.csv", "{queries}", "--output", "{tmp}/out.csv"],
                      "missing.csv"),
    "missing-output-directory": (["depth", "{reference}", "{queries}",
                                  "--output", "{tmp}/none/out.csv"], "none/out.csv"),
    "output-is-a-directory": (["depth", "{reference}", "{queries}", "--output", "{tmp}/data"],
                              "Is a directory: '{tmp}/data'"),
    "undecodable-input": (["depth", "{tmp}/latin1.csv", "{queries}",
                           "--output", "{tmp}/out.csv"], "latin1.csv: not UTF-8 text"),
}


@pytest.mark.parametrize("case", sorted(FILE_ERROR_CASES))
def test_file_errors_exit_two_without_a_report(case, tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    reference = _csv(data / "ref.csv", SEED_DATA.standard_normal((20, 2)))
    queries = _csv(data / "q.csv", [[0.0, 0.0]])
    (tmp_path / "latin1.csv").write_bytes(b"\xff,1\n2,3\n")
    argv, named = FILE_ERROR_CASES[case]
    argv = [arg.format(tmp=tmp_path, reference=reference, queries=queries) for arg in argv]
    named = named.format(tmp=tmp_path)
    before = sorted(os.listdir(tmp_path)), sorted(os.listdir(data))
    assert cli.main(argv) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    # one line that names the file, and never the random temporary file
    assert re.fullmatch(r"error: [^\n]*\n", captured.err) and named in captured.err
    assert ".report-" not in captured.err
    assert (sorted(os.listdir(tmp_path)), sorted(os.listdir(data))) == before


NEGATIVE_VALUE_CASES = {
    "imq-beta": (["depth", "{reference}", "{queries}", "--method", "svm", "--kernel", "imq"],
                 "--imq-beta", "-1e-1"),
    "center": (["grid", "--contaminated", "--method", "lof", "--n", "60", "--resolution", "6"],
               "--center", "-1,2"),
    "contamination-center": (["grid", "--contaminated", "--method", "lof", "--n", "60",
                              "--resolution", "6"], "--contamination-center", "-1,-2"),
    "query": (["convergence", "--method", "lr", "--n-grid", "30,60", "--repeats", "2",
               "--n-ref", "200", "--tolerance", "1e-5"], "--query", "-1,0"),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_VALUE_CASES))
def test_negative_option_values_parse_as_values(case, sample_files, tmp_path):
    reference, queries = sample_files
    base, option, value = NEGATIVE_VALUE_CASES[case]
    base = [arg.format(reference=reference, queries=queries) for arg in base]
    reports = []
    for i, flags in enumerate(([option, value], [f"{option}={value}"], [])):
        out = tmp_path / f"report{i}.json"
        assert cli.main(base + flags + ["--format", "json", "--output", str(out)]) == cli.EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert reports[0] != reports[2]


def _subcommands(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def test_a_new_flag_never_takes_a_following_negative_number():
    # the rule is the parser's own, so a flag added to any subcommand leaves a
    # following number to the positional at once, as `--` does
    parser = cli.build_parser()
    _subcommands(parser)["grid"].add_argument("--that-flag", action="store_true")
    args = parser.parse_args(["grid", "--that-flag", "-1e-1"])
    assert args.that_flag and args.data == "-1e-1"
    assert parser.parse_args(["grid", "--", "-1e-1"]).data == "-1e-1"
    args = parser.parse_args(["convergence", "--imq-beta", "-inf", "--query", "-1,-2"])
    assert args.imq_beta == -np.inf and args.query == (-1.0, -2.0)


@pytest.mark.parametrize("command", ["depth", "benchmark", "convergence", "grid", "rankcorr"])
def test_every_value_option_takes_a_negative_number(command, capsys):
    # derived from the parser, so an option added later is covered at once: it
    # takes -1e-1 as its value, or its own type or choices refuse it
    parser = cli.build_parser()
    actions = _subcommands(parser)[command]._actions
    positionals = [a.dest for a in actions if not a.option_strings and a.nargs is None]
    options = [(option, a) for a in actions if a.option_strings and a.nargs is None
               for option in a.option_strings if option.startswith("--")]
    taken = 0
    for option, action in options:
        try:
            args = parser.parse_args([command, *positionals, option, "-1e-1"])
        except SystemExit as stop:
            err = capsys.readouterr().err
            assert stop.code == 2
            assert re.search(f"error: argument {option}: (?!expected one argument)", err), err
        else:
            assert getattr(args, action.dest) != action.default, option
            assert all(getattr(args, dest) == dest for dest in positionals), option
            taken += 1
    assert taken >= 5  # the model and kernel options take it: the check is never vacuous


def test_unknown_options_still_exit_two(sample_files):
    reference, queries = sample_files
    for extra in (["--bogus"], ["--bogus", "-1e-1"]):
        with pytest.raises(SystemExit) as info:
            cli.main(["depth", reference, queries, *extra])
        assert info.value.code == 2


def test_median_heuristic_flag_is_gone(sample_files, capsys):
    # the median heuristic is the default without --gamma; the flag that asked
    # for it again is no longer accepted, on any kernel command
    reference, queries = sample_files
    for argv in (["depth", reference, queries, "--method", "svm"],
                 ["grid", "--contaminated", "--n", "40", "--resolution", "4"]):
        with pytest.raises(SystemExit) as info:
            cli.main([*argv, "--median-heuristic"])
        assert info.value.code == 2
        assert "unrecognized arguments: --median-heuristic" in capsys.readouterr().err


OVERFLOW_CASES = {  # kernels whose values overflow on the sample: (scale, options)
    "imq-tiny-c-intercept": (1.0, ["--kernel", "imq", "--imq-c", "1e-200", "--intercept"]),
    "imq-tiny-c": (1.0, ["--kernel", "imq", "--imq-c", "1e-200"]),
    "imq-huge-c": (1.0, ["--kernel", "imq", "--imq-c", "1e200"]),
    "linear-huge-data": (1e200, ["--kernel", "linear"]),
    "linear-huge-data-intercept": (1e200, ["--kernel", "linear", "--intercept"]),
    "gaussian-huge-data": (1e200, []),  # the median squared distance overflows
}


@pytest.mark.parametrize("case", sorted(OVERFLOW_CASES))
def test_an_overflowing_kernel_exits_two_at_once(case, tmp_path, capsys):
    # before, these printed a NaN depth marked converged or ran the whole
    # iteration budget (seconds per query) and then printed NaN
    scale, options = OVERFLOW_CASES[case]
    rng = np.random.default_rng(5)
    reference = _csv(tmp_path / "ref.csv", rng.standard_normal((100, 2)) * scale)
    queries = _csv(tmp_path / "q.csv", rng.standard_normal((1, 2)) * scale)
    started = time.perf_counter()
    code = cli.main(["depth", reference, queries, "--method", "svm", *options])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID and captured.out == ""
    assert re.fullmatch(r"error: [^\n]*overflow[^\n]*\n", captured.err), captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("intercept", ["--intercept", "--no-intercept"])
def test_an_overflowing_logistic_hessian_exits_two_at_once(intercept, tmp_path, capsys):
    # before, numpy overflow warnings and the row 0,1,false,0,inf, with exit 0
    rng = np.random.default_rng(5)
    reference = _csv(tmp_path / "ref.csv", rng.standard_normal((100, 2)) * 1e200)
    queries = _csv(tmp_path / "q.csv", [[0.0, 0.0]])
    started = time.perf_counter()
    code = cli.main(["depth", reference, queries, "--method", "lr", intercept])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID and captured.out == ""
    assert re.fullmatch(r"error: [^\n]*overflow[^\n]*\n", captured.err), captured.err
    assert elapsed < 1.0


def test_a_singular_logistic_newton_system_exits_two(tmp_path, capsys):
    # the first Hessian, 0.125 q q' + X'X / (8n) + 2 lam I, is positive definite,
    # but 2 lam is lost next to 1.25e9 and LU meets an exact zero pivot; before,
    # a LinAlgError traceback and exit 1
    reference = _csv(tmp_path / "ref.csv",
                     np.random.default_rng(0).standard_normal((20, 2)) * 1e-4)
    queries = _csv(tmp_path / "q.csv", [[1e5, 1e5]])
    code = cli.main(["depth", reference, queries, "--method", "lr", "--lambda", "1e-8",
                     "--no-intercept"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID and captured.out == ""
    assert re.fullmatch(r"error: singular Newton system at lambda = 1e-08: [^\n]*--lambda[^\n]*\n",
                        captured.err), captured.err


@pytest.mark.parametrize("argv", [
    ["depth", "--method", "halfspace", "--directions", "1000000000000"],  # 14.6 TiB
    ["grid", "--contaminated", "--n", "100000000000"],  # 1.46 TiB
    ["convergence", "--n-ref", "100000000000000", "--n-grid", "1,2", "--repeats", "1"],
    ["rankcorr", "--n", "100000000000000", "--runs", "1"],
], ids=["depth", "grid", "convergence", "rankcorr"])
@pytest.mark.skipif(_overcommits_always(), reason="the allocation would be granted, then filled")
def test_an_array_too_large_to_allocate_exits_two_with_one_line(argv, sample_files, capsys):
    # each first allocation is at least 1 TiB and is refused at once; before,
    # numpy's _ArrayMemoryError traceback and exit 1
    if argv[0] == "depth":
        argv = [argv[0], *sample_files, *argv[1:]]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INVALID and captured.out == ""
    assert re.fullmatch(r"error: Unable to allocate [^\n]*\n", captured.err), captured.err


@pytest.mark.parametrize("argv", [
    ["convergence", "--d", "-1", "--n-grid", "1,2", "--repeats", "1", "--n-ref", "3"],
    ["convergence", "--d", "0", "--n-grid", "1,2", "--repeats", "1", "--n-ref", "3"],
    ["rankcorr", "--n", "4", "--runs", "1", "--d-grid", "-1"],
    ["rankcorr", "--n", "4", "--runs", "1", "--d-grid", "2,0"],
], ids=["convergence-negative", "convergence-zero", "rankcorr-negative", "rankcorr-zero"])
def test_a_dimension_below_one_exits_two_before_any_sample(argv, capsys):
    # before, a negative d died with a ValueError traceback and convergence
    # --d 0 blamed the reference sample's shape
    assert cli.main(argv) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: d must be >= 1\n"


def test_convergence_with_one_distinct_grid_size_exits_two(capsys):
    # before, numpy warned that the fit was poorly conditioned and the command
    # printed a meaningless slope with exit 0
    argv = ["convergence", "--n-grid", "50,50", "--repeats", "2", "--n-ref", "200"]
    assert cli.main(argv) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: convergence needs at least two distinct sample sizes\n"


@pytest.mark.parametrize("flags, name", [
    (["--center", "nan,0"], "center"),
    (["--center", "inf,0", "--method", "lof"], "center"),
    (["--contamination-center", "2,-inf"], "contamination_center"),
], ids=["nan-center", "inf-center-lof", "inf-contamination-center"])
def test_a_non_finite_grid_center_exits_two_with_one_line(flags, name, capsys):
    # before, nan blamed a --gamma that was never given, and lof printed a
    # numpy RuntimeWarning ahead of its error
    assert cli.main(["grid", "--contaminated", *flags]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} contains non-finite entries\n"


def test_an_overflowing_kernel_exits_two_on_the_ocsvm_commands(tmp_path, capsys):
    rng = np.random.default_rng(6)
    data = _csv(tmp_path / "data.csv", rng.standard_normal((40, 2)) * 1e200)
    labelled = np.column_stack([rng.standard_normal((40, 2)) * 1e200, np.arange(40) % 4 == 0])
    train = _csv(tmp_path / "train.csv", labelled)
    for argv in (["grid", data, "--method", "ocsvm", "--resolution", "4"],
                 ["grid", data, "--method", "svm", "--lambda", "0.01", "--resolution", "4"],
                 ["benchmark", train, "--split", "--label-column", "2",
                  "--methods", "svm,ocsvm"]):
        assert cli.main([*argv, "--kernel", "linear"]) == cli.EXIT_INVALID
        assert re.fullmatch(r"error: kernel values overflow[^\n]*\n", capsys.readouterr().err)


def test_main_reuses_one_parser(monkeypatch, sample_files):
    reference, queries = sample_files
    first = cli._shared_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    assert cli.main(["depth", reference, queries, "--method", "halfspace"]) == cli.EXIT_OK
    assert cli._shared_parser() is first


def test_depth_reaches_each_layer_through_the_cli_module(sample_files, tmp_path, monkeypatch):
    # perfbench's --trace 1 times these layers by wrapping the cli module's attributes
    reference, queries = sample_files
    reached = []
    for name in ("read_csv", "median_heuristic", "depth_batch", "write_report"):
        original = getattr(cli, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            reached.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
    out = tmp_path / "out.csv"
    assert cli.main(["depth", reference, queries, "--method", "svm",
                     "--output", str(out)]) == cli.EXIT_OK
    assert reached == ["read_csv", "read_csv", "median_heuristic", "depth_batch", "write_report"]
