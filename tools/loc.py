"""Line counts of the ``mjones`` package: each module's total lines and its
code lines, those left after blank lines, comment lines and docstring lines
are dropped, then the totals.

Usage: ``python tools/loc.py [PACKAGE_DIR]``, by default the repository's
``src/mjones``.  Standard library only.
"""

from __future__ import annotations

import ast
import pathlib
import sys
import tokenize


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of the module, its classes and
    its functions."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: pathlib.Path) -> tuple[int, int]:
    """(total lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    skipped = _docstring_lines(ast.parse(text))
    # a line holding only a comment is no code; tokenize tells a '#' inside
    # a string from one that starts a comment
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.COMMENT and not lines[tok.start[0] - 1][:tok.start[1]].strip():
                skipped.add(tok.start[0])
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and number not in skipped)
    return len(lines), code


def main(argv: list[str]) -> int:
    root = (pathlib.Path(argv[0]) if argv
            else pathlib.Path(__file__).resolve().parents[1] / "src" / "mjones")
    rows = [(path.name, *count(path)) for path in sorted(root.glob("*.py"))]
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
