"""Depth benchmark: drives `lossdepth depth` through its CLI on seeded inputs.

    python3 perfbench/run.py --workload plane-grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Every call goes through ``lossdepth.cli.main`` in this process, on CSV files
the benchmark writes from --seed, with --threads 1 and one BLAS thread.  A run
first makes one checked call per method on a seeded sample of the queries
(these double as the warm-up), then repeats rounds of one call per method
(halfspace, lr, svm, halfspace, ...) for --seconds, and finally checks the
sampled values against oracles computed apart from the program.

The output is one line per metric, then as its last line one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Exit code 2 means the
benchmark could not run at all (no program source, bad arguments).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

# One BLAS/OpenMP thread for every library numpy might load.  These are read
# when numpy is first imported, so main() sets them before importing it.
PINNED_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

# One fresh interpreter varies by about a tenth from launch to launch, so
# setup_s is the median of several.  It is not scaled by the host calibration
# (see host.py): start-up time hardly follows the host's phases, and scaling
# it made it spread more.
SETUP_LAUNCHES = 5
SETUP_CODE = (
    "import sys, time\n"
    "import lossdepth.cli\n"
    "from lossdepth.io import read_csv\n"
    "read_csv(sys.argv[1])\n"
    "print(repr(time.monotonic()))\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "halfspace.qps": "queries/s",
    "lr.qps": "queries/s",
    "svm.qps": "queries/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "io.read_csv_s": "s",
    "io.rows_read": "rows",
    "io.write_report_s": "s",
    "io.bytes_written": "bytes",
    "kernels.median_heuristic_s": "s",
    "kernels.gram_s": "s",
    "kernels.gram_calls": "calls",
    "kernels.evals": "evals",
    "kernels.evals_per_query": "evals/query",
    "depths.batch_s": "s",
    "depths.self_s": "s",
    "depths.halfspace_s": "s",
    "solvers.lr_s": "s",
    "solvers.lr_iterations": "iterations",
    "solvers.svm_self_s": "s",
    "solvers.svm_sweeps": "sweeps",
    "solvers.unconverged": "queries",
    "trace.self_share": "ratio",
}
# per-layer values that are counts: they must repeat exactly from round to round
COUNTED = {name for name, unit in PER_LAYER_UNITS.items() if unit not in ("s", "ratio")}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def pin_environment() -> None:
    os.environ.update(PINNED_ENV)
    os.environ.pop("LOSSDEPTH_THREADS", None)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


def import_cli():
    if not (SRC / "lossdepth" / "cli.py").is_file():
        raise BenchmarkError(f"no program source at {SRC / 'lossdepth'}")
    sys.path.insert(0, str(SRC))
    import lossdepth.cli

    if not Path(lossdepth.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"lossdepth imported from {lossdepth.cli.__file__}, not from {SRC}")
    return lossdepth.cli


def setup_seconds(reference: Path) -> float:
    """Launch to `lossdepth.cli` imported and the reference read, in a fresh
    interpreter; both ends read the system-wide monotonic clock."""
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(reference)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"set-up launch failed: {done.stderr.strip()[-400:]}")
    return float(done.stdout.split()[-1]) - start


def steal_jiffies():
    """(steal, total) CPU jiffies of the host, or None where /proc is absent."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


class Calls:
    """Runs `lossdepth depth` in this process and counts operations.

    Each (query, method) pair of a call is one operation.  It fails when the
    call exits non-zero, its report row is missing, its converged column is
    false, or it fails a correctness check.
    """

    def __init__(self, cli, recorder=None):
        self.cli = cli
        self.recorder = recorder
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list = []

    def run(self, argv: list) -> tuple:
        """(exit code, wall seconds, stderr text) of one call."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if self.recorder is not None:
                    code = self.recorder.call("cli", self.cli.main, argv)
                else:
                    code = self.cli.main(argv)
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 2
            except Exception:  # noqa: BLE001 - a crash is a failed call, not a benchmark error
                traceback.print_exc()
                code = 1
            seconds = time.perf_counter() - start
        return code, seconds, err.getvalue()

    def tally(self, label: str, queries: int, code: int, stderr: str, rows: dict) -> None:
        self.attempted += queries
        if code != 0:
            self.failed += queries
            self.notes.append(f"{label}: exit code {code}: {stderr.strip()[-300:]}")
            return
        bad = [i for i in range(queries) if i not in rows or not rows[i][1]]
        if bad:
            self.failed += len(bad)
            self.notes.append(f"{label}: {len(bad)} queries missing or not converged, first {bad[0]}")

    def wrong_value(self, label: str, reason: str) -> None:
        self.failed += 1
        self.wrong += 1
        self.notes.append(f"{label}: {reason}")


def read_csv_report(path: Path) -> dict:
    """query -> (depth, converged, iterations) from a CSV depth report."""
    if not path.is_file():
        return {}
    with open(path, newline="") as handle:
        return {
            int(r["query"]): (float(r["depth"]), r["converged"] == "true", int(r["iterations"]))
            for r in csv.DictReader(handle)
        }


def read_json_report(path: Path):
    """(config, query -> row, query -> coefficient array) from a JSON report."""
    import numpy as np

    if not path.is_file():
        return {}, {}, {}
    with open(path) as handle:
        report = json.load(handle)
    tables = {t["name"]: t for t in report["tables"]}
    depth = tables["depths"]
    col = {c: k for k, c in enumerate(depth["columns"])}
    rows = {
        int(r[col["query"]]): (float(r[col["depth"]]), bool(r[col["converged"]]), int(r[col["iterations"]]))
        for r in depth["rows"]
    }
    coefficients: dict = {}
    if "coefficients" in tables:
        table = tables["coefficients"]
        col = {c: k for k, c in enumerate(table["columns"])}
        for r in table["rows"]:
            coefficients.setdefault(int(r[col["query"]]), []).append(
                (int(r[col["coefficient"]]), float(r[col["value"]]))
            )
        coefficients = {q: np.array([v for _, v in sorted(pairs)]) for q, pairs in coefficients.items()}
    return report["config"], rows, coefficients


def stated_gamma(config: dict) -> float | None:
    match = re.fullmatch(r"gaussian\(gamma=([^)]+)\)", str(config.get("kernel", "")))
    return float(match.group(1)) if match else None


def check_sample(workload, method, reference, sample, values, config, coefficients) -> dict:
    """Sample position -> failure reason, for the sampled queries of one method."""
    import numpy as np
    import oracles

    failures: dict = {}
    if method == "svm":
        gamma = stated_gamma(config)
        if gamma is None:
            return {j: f"no gaussian bandwidth in the report: {config.get('kernel')!r}" for j in range(len(sample))}
        if workload.closed_form:
            mean_gram = oracles.gaussian_gram_mean(reference, gamma)
        else:
            # the dual check needs the bandwidth to the last bit, which the
            # report does not carry, so it recomputes the median heuristic
            own = oracles.median_heuristic_gamma(reference)
            if float(format(own, "g")) != gamma:
                return {j: f"report states gamma {gamma!r}, the median heuristic is {own!r}" for j in range(len(sample))}
            gamma = own
    for j, query in enumerate(sample):
        if j not in values:
            continue  # counted already as a missing row
        depth = values[j][0]
        if method == "halfspace":
            reason = oracles.check_halfspace(reference, query, depth)
        elif method == "lr":
            weights = coefficients.get(j, np.empty(0))
            reason = oracles.check_logistic(reference, query, depth, weights, workload.lam, workload.lr_accuracy)
        elif workload.closed_form:
            reason = oracles.check_svm_closed_form(reference, query, depth, gamma, workload.lam, mean_gram)
        else:
            alpha = coefficients.get(j, np.empty(0))
            reason = oracles.check_svm_dual(
                reference, query, depth, alpha, gamma, workload.lam, workload.svm_max_gap
            )
        if reason is not None:
            failures[j] = reason
    return failures


def layer_values(layers: dict, reports: dict, svm_queries: int, wall: float) -> dict:
    """Per-layer metrics of one round from its spans and its three reports."""

    def field(name, k):
        return layers.get(name, (0, 0.0, 0.0, 0))[k]

    calls, busy, own, count = range(4)
    evals = field("kernels.gram", count)
    rows = [row for report in reports.values() for row in report.values()]
    return {
        "cli.self_s": field("cli", own),
        "io.read_csv_s": field("io.read_csv", own),
        "io.rows_read": field("io.read_csv", count),
        "io.write_report_s": field("io.write_report", own),
        "io.bytes_written": field("io.write_report", count),
        "kernels.median_heuristic_s": field("kernels.median_heuristic", own),
        "kernels.gram_s": field("kernels.gram", own),
        "kernels.gram_calls": field("kernels.gram", calls),
        "kernels.evals": evals,
        "kernels.evals_per_query": evals / svm_queries,
        "depths.batch_s": field("depths.batch", busy),
        "depths.self_s": field("depths.batch", own),
        "depths.halfspace_s": field("depths.halfspace", own),
        "solvers.lr_s": field("solvers.lr", own),
        "solvers.lr_iterations": sum(r[2] for r in reports["lr"].values()),
        "solvers.svm_self_s": field("solvers.svm", own),
        "solvers.svm_sweeps": sum(r[2] for r in reports["svm"].values()),
        "solvers.unconverged": sum(1 for r in rows if not r[1]),
        "trace.self_share": sum(v[own] for v in layers.values()) / wall,
    }


def write_inputs(workload, seed: int, work: Path):
    """Write the reference, each method's queries and its oracle sample as CSV.

    Returns (inputs, reference path, method -> query path, method -> sorted
    sample indices, method -> sample path).
    """
    import numpy as np
    import workloads

    rng = np.random.default_rng(seed)
    inputs = workload.build(rng)
    ref_path = work / "reference.csv"
    workloads.write_csv(ref_path, inputs.reference)
    query_paths, samples, sample_paths = {}, {}, {}
    for method in workloads.METHODS:
        queries = inputs.queries[method]
        query_paths[method] = work / f"queries.{method}.csv"
        workloads.write_csv(query_paths[method], queries)
        samples[method] = np.sort(rng.choice(len(queries), size=workload.samples[method], replace=False))
        sample_paths[method] = work / f"sample.{method}.csv"
        workloads.write_csv(sample_paths[method], queries[samples[method]])
    return inputs, ref_path, query_paths, samples, sample_paths


def timed_rounds(calls, workload, inputs, ref_path, query_paths, samples, checked, seconds, work):
    """Rounds of one call per method until the next round would overrun.

    Each call sits between two host calibration passes, and its rate is scaled
    by their mean (see host.py).  Returns the scaled and unscaled rates per
    method, every pass time, the per-layer values of each round when tracing,
    the span label of each recorded span, the number of rounds and the seconds
    measured.
    """
    import host
    from workloads import METHODS

    recorder = calls.recorder
    agree = {"halfspace": 1e-12, "lr": workload.lr_accuracy, "svm": 1e-6}
    rates = {m: [] for m in METHODS}
    raw_rates = {m: [] for m in METHODS}
    per_round, span_labels, passes = [], [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        first_span = len(span_labels)
        reports, wall = {}, 0.0
        for method in METHODS:
            out = work / f"timed.{method}.csv"
            out.unlink(missing_ok=True)
            argv = ["depth", str(ref_path), str(query_paths[method]), *workload.options(method)]
            before = host.calibration_pass()
            code, elapsed, stderr = calls.run(argv + ["--output", str(out)])
            after = host.calibration_pass()
            passes += [before, after]
            wall += elapsed
            m = len(inputs.queries[method])
            raw_rates[method].append(m / elapsed)
            rates[method].append(m / elapsed * (before + after) / (2.0 * host.REFERENCE_S))
            rows = read_csv_report(out)
            calls.tally(f"round {rounds} {method}", m, code, stderr, rows)
            for j, index in enumerate(samples[method]):
                want, got = checked[method][1].get(j), rows.get(int(index))
                if want is not None and got is not None and not abs(got[0] - want[0]) <= agree[method]:
                    calls.wrong_value(
                        f"round {rounds} {method} query {index}",
                        f"timed call gives {got[0]!r}, checked call {want[0]!r}",
                    )
            reports[method] = rows
            if recorder is not None:
                span_labels += [f"{rounds}:{method}"] * (len(recorder.spans) - len(span_labels))
        if recorder is not None:
            layers = recorder.layers(first_span)
            per_round.append(layer_values(layers, reports, len(inputs.queries["svm"]), wall))
        rounds += 1
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            return rates, raw_rates, passes, per_round, span_labels, rounds, now - start


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import spans
    import workloads
    from workloads import METHODS

    if name not in workloads.WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r}; have {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[name]
    cli = import_cli()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        inputs, ref_path, query_paths, samples, sample_paths = write_inputs(workload, seed, work)
        metrics: dict = {}
        if not trace:
            setup = statistics.median(setup_seconds(ref_path) for _ in range(SETUP_LAUNCHES))

        # checked calls on the oracle sample; they also warm every code path
        calls = Calls(cli)
        checked = {}
        for method in METHODS:
            out = work / f"check.{method}.json"
            argv = ["depth", str(ref_path), str(sample_paths[method]), *workload.options(method)]
            argv += ["--format", "json", "--output", str(out)]
            if method == "lr" or (method == "svm" and not workload.closed_form):
                argv.append("--coefficients")
            code, _, stderr = calls.run(argv)
            checked[method] = read_json_report(out)
            calls.tally(f"check {method}", len(samples[method]), code, stderr, checked[method][1])

        steal_before = steal_jiffies()
        if trace:
            calls.recorder = spans.Recorder()
            calls.recorder.install()
        try:
            rates, raw_rates, passes, per_round, span_labels, rounds, measured = timed_rounds(
                calls, workload, inputs, ref_path, query_paths, samples, checked, seconds, work
            )
        finally:
            if trace:
                calls.recorder.uninstall()
        steal_after = steal_jiffies()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        for method in METHODS:
            config, rows, coefficients = checked[method]
            sample = inputs.queries[method][samples[method]]
            failures = check_sample(workload, method, inputs.reference, sample, rows, config, coefficients)
            for j, reason in sorted(failures.items()):
                calls.wrong_value(f"check {method} query {samples[method][j]}", reason)

        info = {
            "rounds": rounds,
            "measured_s": measured,
            "rates": {m: statistics.median(r) for m, r in rates.items()},
            "raw_rates": {m: statistics.median(r) for m, r in raw_rates.items()},
            "pass_s": statistics.median(passes),
        }
        if steal_before and steal_after and steal_after[1] > steal_before[1]:
            info["steal_share"] = (steal_after[0] - steal_before[0]) / (steal_after[1] - steal_before[1])
        if trace:
            for key in PER_LAYER_UNITS:
                values = [r[key] for r in per_round]
                if key in COUNTED and len(set(values)) > 1:
                    calls.notes.append(f"{key} differs between rounds: {values}")
                metrics[key] = values[0] if key in COUNTED else statistics.median(values)
            trace_path = WORK / f"{name}.trace.csv"
            calls.recorder.write(trace_path, span_labels)
            info["trace_file"] = str(trace_path.relative_to(ROOT))
            info["absent_hooks"] = calls.recorder.absent
        else:
            metrics["setup_s"] = setup
            metrics.update({f"{m}.qps": info["rates"][m] for m in METHODS})
            metrics["peak_rss_mb"] = peak_rss_mb
        return {
            "correct": calls.wrong == 0,
            "attempted": calls.attempted,
            "failed": calls.failed,
            "metrics": metrics,
            "units": PER_LAYER_UNITS if trace else END_TO_END_UNITS,
            "notes": calls.notes,
            "info": info,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_result(name: str, seed: int, result: dict) -> None:
    info = result["info"]
    print(
        f"workload {name}  seed {seed}  rounds {info['rounds']}  measured {info['measured_s']:.1f} s  "
        f"attempted {result['attempted']}  failed {result['failed']}  correct {str(result['correct']).lower()}"
    )
    for key, value in result["metrics"].items():
        print(f"  {key:<28} {value:.6g} {result['units'][key]}")
    raw = ", ".join(f"{m} {v:.4g}" for m, v in info["raw_rates"].items())
    print(f"  (unscaled rates, queries/s: {raw}; median calibration pass {1000 * info['pass_s']:.3g} ms)")
    if "steal_share" in info:
        print(f"  (host steal time {100 * info['steal_share']:.1f}% of CPU time during the timed calls)")
    if "trace_file" in info:
        rates = ", ".join(f"{m} {v:.4g}" for m, v in info["rates"].items())
        print(f"  (traced rates, queries/s: {rates}; spans in {info['trace_file']})")
        if info["absent_hooks"]:
            print(f"  (absent hooks: {', '.join(info['absent_hooks'])})")
    for note in result["notes"]:
        print(f"  ! {note}")


def payload(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS and caches stay apart."""
    import workloads

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchmarkError(f"workload {name} failed: {done.stderr.strip()[-400:]}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="plane-grid, solve-bound, big-reference or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="length of the timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_environment()
    sys.path.insert(0, str(HERE))
    try:
        if args.workload == "all":
            print(json.dumps(run_all(args)))
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print_result(args.workload, args.seed, result)
    print(json.dumps(payload(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
