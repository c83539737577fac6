"""Count the code lines of Python files: no blank lines, comments or docstrings.

A line counts when a token other than a comment or layout token touches
it, so every line of a multi-line expression or string literal counts.
The lines of a module, class or function docstring do not.

    python tools/code_lines.py src/garchmc tests

prints each file's count, then each path's total.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file at `path`."""
    text = path.read_text(encoding="utf-8")
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: python tools/code_lines.py PATH [PATH ...]", file=sys.stderr)
        return 2
    for name in paths:
        root = Path(name)
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        counts = {path: code_lines(path) for path in files}
        for path, count in counts.items():
            print(f"{count:6d}  {path}")
        print(f"{sum(counts.values()):6d}  {root} (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
