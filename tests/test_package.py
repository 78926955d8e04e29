"""The package's public names."""
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import lossdepth


def test_every_exported_name_resolves():
    missing = [name for name in lossdepth.__all__ if not hasattr(lossdepth, name)]
    assert missing == []
    assert len(set(lossdepth.__all__)) == len(lossdepth.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lossdepth import *", namespace)
    assert set(lossdepth.__all__) <= set(namespace)


def test_every_name_the_readme_cites_resolves():
    # a backticked `head.name` or `head.name(...)`, where head is a lossdepth
    # submodule or an exported class, must name something that exists
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    heads = {info.name: importlib.import_module(f"lossdepth.{info.name}")
             for info in pkgutil.iter_modules(lossdepth.__path__)}
    heads.update((name, getattr(lossdepth, name)) for name in lossdepth.__all__
                 if isinstance(getattr(lossdepth, name), type))
    cited = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", readme)
    cited = [name for name in cited if name.split(".")[0] in heads]
    assert {"depths.LOGISTIC_BLOCK_ENTRIES", "solvers.svm_dual_solves"} <= set(cited)

    def resolves(name):
        head, *parts = name.split(".")
        target = heads[head]
        for part in parts:
            if not hasattr(target, part):
                return False
            target = getattr(target, part)
        return True

    assert [name for name in cited if not resolves(name)] == []


def test_the_benchmark_trace_hooks_still_resolve():
    # perfbench/spans.py times layers by wrapping functions of the modules
    # that call them; a renamed or removed function silently zeroes its layer.
    # Two hooks name functions that are gone and are known to read 0.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("spans_under_test", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    recorder = spans.Recorder()
    try:
        recorder.install()
    finally:
        recorder.uninstall()
    assert sorted(recorder.absent) == [
        "lossdepth.depths.gradient_descent",
        "lossdepth.depths.svm_dual_solve",
    ]


CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment

# a comment line


class Thing:
    """Class docstring."""

    def method(self):
        """Method
        docstring."""
        text = """a string
that is code"""
        return text, os
'''


def test_code_line_counter_skips_blanks_comments_and_docstrings():
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines_under_test", path)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    # import, class, def, the two lines of the string literal and return
    assert code_lines.code_lines(CODE_LINES_FIXTURE) == 6


def test_the_report_byte_harness_runs_every_subcommand(tmp_path):
    # tools/report_bytes.py records what each command writes, to compare two
    # checkouts; each command exits 0 silently, or 2 with one error line and
    # no report
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "bytes.json"
    env = dict(os.environ, PYTHONPATH=str(Path(lossdepth.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, str(root / "tools" / "report_bytes.py"), str(out)],
                   env=env, check=True, timeout=300)
    record = json.loads(out.read_text(encoding="utf-8"))
    commands = {next(word for word in line.split() if "=" not in word) for line in record}
    assert commands == {"depth", "benchmark", "convergence", "grid", "rankcorr"}
    for line, result in record.items():
        assert result["exit"] in (0, 2), line
        if result["exit"] == 2:
            assert result["stderr"].startswith("error: "), line
            assert result["stderr"].count("\n") == 1 and result["stderr"].endswith("\n"), line
            assert result["stdout"] == "" and result["files"] == {}, line
        else:
            assert result["stderr"] == "", line
