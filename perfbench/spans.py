"""Layer spans recorded from outside the program.

The recorder wraps public functions of lossdepth's modules where the calling
module looks them up (``lossdepth.cli.read_csv``, ``lossdepth.solvers.gram``,
...), so the program itself carries no timing code.  Spans stay in memory as
[name, start, end, parent, count] and are written out once, at the end.  A
hook whose function a later version removes or renames is listed as absent
and its layer reads 0; its time then shows in the caller's self time.
"""
from __future__ import annotations

import importlib
import os
import time

import numpy as np


def _rows_read(result) -> int:
    return int(result.features.shape[0])


def _bytes_written(result) -> int:
    return sum(os.path.getsize(path) for path in result)


def _kernel_evals(result) -> int:
    return int(np.size(result))


# (module that calls the function, attribute, layer name, count from result)
HOOKS = (
    ("lossdepth.cli", "read_csv", "io.read_csv", _rows_read),
    ("lossdepth.cli", "write_report", "io.write_report", _bytes_written),
    ("lossdepth.cli", "median_heuristic", "kernels.median_heuristic", None),
    ("lossdepth.cli", "depth_batch", "depths.batch", None),
    ("lossdepth.depths", "halfspace_depth", "depths.halfspace", None),
    ("lossdepth.depths", "gradient_descent", "solvers.lr", None),
    ("lossdepth.depths", "svm_dual_solve", "solvers.svm", None),
    ("lossdepth.depths", "gram", "kernels.gram", _kernel_evals),
    ("lossdepth.solvers", "gram", "kernels.gram", _kernel_evals),
)

NAME, START, END, PARENT, COUNT = range(5)


class Recorder:
    """Spans of one thread: the benchmark measures with --threads 1."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._installed: list = []
        self.absent: list = []

    def call(self, name: str, fn, *args, counter=None, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            span[COUNT] = counter(result)
        return result

    def _wrap(self, name: str, fn, counter):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, counter=counter, **kwargs)

        return wrapped

    def install(self) -> None:
        for module_name, attribute, name, counter in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute, None)
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            setattr(module, attribute, self._wrap(name, original, counter))
            self._installed.append((module, attribute, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._installed):
            setattr(module, attribute, original)
        self._installed.clear()

    def layers(self, first: int = 0) -> dict:
        """name -> (calls, total seconds, self seconds, count) over spans[first:]."""
        spans = self.spans[first:]
        durations = np.array([s[END] - s[START] for s in spans])
        child_time = np.zeros(len(spans))
        parents = np.array([s[PARENT] - first for s in spans], dtype=np.int64)
        inside = parents >= 0
        np.add.at(child_time, parents[inside], durations[inside])
        out: dict = {}
        for span, total, children in zip(spans, durations, child_time):
            calls, busy, own, count = out.get(span[NAME], (0, 0.0, 0.0, 0))
            out[span[NAME]] = (calls + 1, busy + total, own + total - children, count + span[COUNT])
        return out

    def write(self, path, labels: list) -> None:
        """One CSV row per span; labels[i] names the timed call span i belongs to."""
        with open(path, "w") as out:
            out.write("span,parent,call,name,start_s,end_s,count\n")
            for index, (span, label) in enumerate(zip(self.spans, labels)):
                out.write(
                    f"{index},{span[PARENT]},{label},{span[NAME]},"
                    f"{span[START]!r},{span[END]!r},{span[COUNT]}\n"
                )
