"""Record every byte a fixed list of lossdepth commands writes.

    PYTHONPATH=<checkout>/src python3 tools/report_bytes.py OUT.json

Writes seeded input files into a temporary directory and runs each command
of COMMANDS there through lossdepth.cli.main, all in this one process, four
times: in csv and in json, to stdout and to --output.  OUT is one JSON
object keyed by the command line as run: its exit code, its stdout, its
stderr and the text of every file it wrote.  lossdepth is imported from
PYTHONPATH alone, so the script measures whichever checkout that names; two
checkouts print the same reports when their OUT files compare equal:

    PYTHONPATH=parent/src python3 tools/report_bytes.py parent.json
    PYTHONPATH=src python3 tools/report_bytes.py change.json
    cmp parent.json change.json
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np

from lossdepth import cli

DEPTH = "depth ref.csv queries.csv"
LABELLED = "labelled.csv labelled.csv --has-header"

# Each line is one command; a leading NAME=value sets an environment variable
# for that command alone.  A command's own --format or --output overrides the
# variant's, which is inserted right after the subcommand.
COMMANDS = [
    *(f"{DEPTH} --method {method}{options}"
      for method in ("halfspace", "lr", "svm")
      for options in ("", " --coefficients", " --intercept --lambda 0.01",
                      " --tolerance 1e-5 --max-iterations 3")),
    f"{DEPTH} --method halfspace --directions 50",
    f"{DEPTH} --method lr --reporting loss+reg",
    f"{DEPTH} --method svm --reporting loss+reg",  # lambda >= kappa/4: the box solve
    f"{DEPTH} --method svm --lambda 0.05 --reporting loss+reg",  # the dual solves
    # above 2^19 pairs, median_heuristic's selection pass; 2,500 rows, the row means' many blocks
    *(f"depth big.csv queries.csv --method svm{options}" for options in ("", " --gamma 0.5")),
    f"{DEPTH} --method svm --kernel imq --imq-c 0.5 --imq-beta -1e-1",
    f"{DEPTH} --method svm --kernel imq --imq-c 0.5 --imq-beta=-1e-1",
    f"{DEPTH} --method svm --kernel laplacian --sigma 1 --intercept",
    *(f"depth origin.csv half.csv --method svm --intercept {kernel}"
      for kernel in ("--kernel linear", "--gamma 1")),
    f"depth {LABELLED} --label-column 2",
    f"depth {LABELLED} --label-column label --method svm",
    f"depth {LABELLED} --label-column missing",
    *(f"grid ref.csv --method {method} --resolution 5"
      for method in ("svm", "lr", "ocsvm", "lof", "halfspace")),
    "grid ref.csv --method svm --lambda 0.05 --resolution 5",
    "grid --contaminated --n 40 --method lr --resolution 4",
    "grid --contaminated --n 40 --method lr --resolution 4 --center -1,2"
    " --contamination-center=-2,-1",
    "rankcorr --n 30 --runs 2",
    "rankcorr --n 30 --runs 2 --methods svm --kernel linear",
    "rankcorr --n 30 --runs 2 --methods svm --kernel laplacian --sigma 1",
    "rankcorr --n 30 --runs 2 --methods svm --kernel laplacian",
    "rankcorr --n 30 --runs 2 --methods lr,svm --gamma 0.5",
    "rankcorr --n 30 --runs 2 --methods halfspace,lof,ocsvm",
    # the json config names lof's k and ocsvm's nu when that method runs
    *(f"rankcorr --n 30 --runs 2 --methods {method}" for method in ("lof", "ocsvm")),
    "rankcorr --n 30 --runs 2 --methods nope",
    *(f"convergence --method {method} --n-grid 10,20 --repeats 2 --n-ref 100"
      for method in ("lr", "svm", "halfspace")),
    "convergence --n-grid 10,20 --repeats 2 --n-ref 100 --query -1,0",
    "convergence --n-grid -1,2 --repeats 2 --n-ref 100",
    "benchmark labelled.csv --split --has-header --label-column label --lof-k 5",
    f"benchmark {LABELLED} --label-column 2 --methods lr,svm,lof --lof-k 5,10",
    f"benchmark {LABELLED} --label-column 2 --methods halfspace,lr --lof-k 5",
    f"benchmark {LABELLED} --label-column 2 --methods bogus",
    f"benchmark {LABELLED} --label-column 2 --methods ocsvm --ocsvm-nu 0.3",
    f"{DEPTH} --tolerance inf",
    f"{DEPTH} --max-iterations 0",
    "depth missing.csv queries.csv",
    "depth ref.csv -1e-1",  # a number where no option takes it is a positional
    "grid --contaminated --n 40 --resolution 4 -1e-1",
    f"{DEPTH} --seed -1",
    f"{DEPTH} --threads -2",
    f"LOSSDEPTH_THREADS=x {DEPTH}",
    f"{DEPTH} --output missing/out.csv",
    "rankcorr --methods '' --max-iterations 0",  # two faults: the first one checked is reported
    "grid --tolerance inf",
]


def write_inputs(directory: Path) -> None:
    """The seeded input files every command reads."""
    rng = np.random.default_rng(0)

    def save(name, rows, header=""):
        np.savetxt(directory / name, rows, fmt="%.17g", delimiter=",", header=header,
                   comments="")

    save("ref.csv", rng.standard_normal((30, 2)))
    save("queries.csv", rng.standard_normal((5, 2)) * 1.5)
    inliers = np.column_stack([rng.standard_normal((40, 2)), np.zeros(40)])
    outliers = np.column_stack([rng.normal(3.0, 0.5, (10, 2)), np.ones(10)])
    save("labelled.csv", np.vstack([inliers, outliers]), header="x,y,label")
    save("origin.csv", [[0.0], [0.0], [1.0]])  # a pairwise solve that ends with no violation
    save("half.csv", [[0.5]])
    save("big.csv", np.random.default_rng(1).standard_normal((2500, 2)))


def variants(line: str):
    """The command in csv and json, to stdout and to --output."""
    words = line.split(" ")
    at = next(i for i, word in enumerate(words) if "=" not in word) + 1  # after the subcommand
    for fmt in ("csv", "json"):
        for output in ("", f" --output out.{fmt}"):
            yield " ".join([*words[:at], f"--format {fmt}{output}", *words[at:]])


def run(line: str) -> dict:
    """One command line through main: its exit code, output streams and the
    text of each file it added to the working directory."""
    tokens = shlex.split(line)
    env = {}
    while "=" in tokens[0]:
        name, value = tokens.pop(0).split("=", 1)
        env[name] = value
    before = set(Path().iterdir())
    out, err = io.StringIO(), io.StringIO()
    os.environ.update(env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(tokens)
            except SystemExit as stop:  # argparse refused the command line
                code = stop.code
    finally:
        for name in env:
            del os.environ[name]
    files = {}
    for path in sorted(set(Path().iterdir()) - before):
        files[path.name] = path.read_bytes().decode("utf-8")
        path.unlink()
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "files": files}


def main(out_path: str) -> None:
    os.environ.pop("LOSSDEPTH_THREADS", None)
    out_path = Path(out_path).resolve()
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(Path(directory))
        os.chdir(directory)
        try:
            record = {line: run(line) for command in COMMANDS
                      for line in variants(command)}
        finally:
            os.chdir(start)
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
