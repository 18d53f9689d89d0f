"""Count code lines (non-blank lines outside comments and docstrings) and
defaulted parameters.

A line counts when it holds a token other than a comment or a line break,
and no docstring (the leading string of a module, class or function) covers
it. A defaulted parameter is a parameter of a function, method or lambda
that has a default value: a value each caller may set or leave. Standard
library only (`tokenize` + `ast`).

    python tools/code_lines.py              # every module of src/suprec
    python tools/code_lines.py a.py b.py    # the given files
    python tools/code_lines.py --list       # every defaulted parameter by name

prints one line per file, code lines then defaulted parameters, and the
totals; with `--list`, one line per defaulted parameter instead, as
`module:function(param)` (a method is `Class.method`, a nested function
`outer.inner`, a lambda `<lambda>`).
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


def defaulted_parameters(tree: ast.AST, prefix: str = "") -> list:
    """`function(param)` of every parameter with a default value in a parsed
    module, in source order."""
    names = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(node, "name", "<lambda>")
            args = node.args
            positional = args.posonlyargs + args.args
            names += [f"{name}({a.arg})" for a in positional[len(positional) - len(args.defaults):]]
            names += [f"{name}({a.arg})" for a, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
            names += defaulted_parameters(node, name + ".")
        else:
            names += defaulted_parameters(
                node, prefix + node.name + "." if isinstance(node, ast.ClassDef) else prefix)
    return names


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
    listing = "--list" in argv
    argv = [arg for arg in argv if arg != "--list"]
    paths = [Path(p) for p in argv] or sorted(SOURCE.glob("*.py"))
    lines = defaults = 0
    for path in paths:
        names = defaulted_parameters(ast.parse(path.read_bytes()))
        if listing:
            for name in names:
                print(f"{path.stem}:{name}")
            continue
        count, options = code_lines(path), len(names)
        lines, defaults = lines + count, defaults + options
        print(f"{count:6d} {options:4d}  {path.name if not argv else path}")
    if not listing:
        print(f"{lines:6d} {defaults:4d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
