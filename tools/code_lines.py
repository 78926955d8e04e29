"""Count the code lines of each module in src/lossdepth.

A code line holds a token other than a comment and lies outside every
module, class and function docstring; blank lines, comment lines and
docstring lines are not counted.  Prints one count per module, largest
first, then the total.

    python tools/code_lines.py
"""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lossdepth"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(PACKAGE.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<16}{count:>6,}")
    print(f"{'total':<16}{sum(counts.values()):>6,}")


if __name__ == "__main__":
    main()
