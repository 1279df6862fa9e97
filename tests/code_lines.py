"""Print the code-line count of each ``src/polysphere/*.py`` module, and the
total, to measure a change by the size of the package it leaves.

    python tests/code_lines.py [--max N]

With ``--max N`` it exits 1 when the total is above N; CI runs it with the
ceiling that the last change left, so a change that adds code lines has to
raise N, and say why.

A code line is a line that holds a token other than a comment; a string
that spans lines holds all of them. Module, class and function docstrings
do not count, nor do blank lines and lines of comments only.

The file is not a test module, so pytest does not collect it.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polysphere"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> int:
    parser = argparse.ArgumentParser(description="Count the code lines of src/polysphere.")
    parser.add_argument("--max", type=int, help="exit 1 when the total is above this ceiling")
    ceiling = parser.parse_args().max
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    if ceiling is not None and total > ceiling:
        print(f"{total} code lines exceed the ceiling of {ceiling}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
