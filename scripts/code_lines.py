#!/usr/bin/env python3
"""Line counts of the fedkd package, per module and in total.

Usage:
    python3 scripts/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/fedkd beside this script's directory.  For
each *.py file, sorted by name, it prints the `wc -l` count (newline
characters) and the code lines: the lines that hold a token other than a
comment, a docstring or layout (newlines, indentation).  A docstring is
the string literal that opens a module, class or function body, as ast
finds it; every line it spans is left out, and a multi-line statement
counts each line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of tree span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code (see the module doc)."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _LAYOUT:
            continue
        lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skip)
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "fedkd"
    print(f"{'module':<16}{'wc -l':>8}{'code':>8}")
    total_wc = total_code = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        wc, code = source.count("\n"), code_lines(source)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.name:<16}{wc:>8}{code:>8}")
    print(f"{'total':<16}{total_wc:>8}{total_code:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
