"""Count code lines (non-blank lines outside comments and docstrings) and
defaulted parameters.

A line counts when it holds a token other than a comment or a line break,
and no docstring (the leading string of a module, class or function) covers
it. A defaulted parameter is a parameter of a function, method or lambda
that has a default value: a value each caller may set or leave. Standard
library only (`tokenize` + `ast`).

    python tools/code_lines.py              # every module of src/suprec
    python tools/code_lines.py a.py b.py    # the given files

prints one line per file, code lines then defaulted parameters, and the
totals.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "suprec"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def defaulted_parameters(tree: ast.AST) -> int:
    """Number of parameters with a default value in a parsed module."""
    return sum(len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))


def code_lines(path: Path) -> int:
    """Number of code lines of one Python source file."""
    with open(path, "rb") as source:
        tokens = list(tokenize.tokenize(source.readline))
    docs = docstring_lines(ast.parse(path.read_bytes()))
    lines = set()
    for token in tokens:
        if token.type not in SKIP:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docs)


def main(argv: list) -> int:
    paths = [Path(p) for p in argv] or sorted(SOURCE.glob("*.py"))
    lines = defaults = 0
    for path in paths:
        count, options = code_lines(path), defaulted_parameters(ast.parse(path.read_bytes()))
        lines, defaults = lines + count, defaults + options
        print(f"{count:6d} {options:4d}  {path.name if not argv else path}")
    print(f"{lines:6d} {defaults:4d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
