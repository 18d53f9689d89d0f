import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

# 13 code lines: the docstrings, comments and blank lines do not count, and
# the two-line statement counts twice. 7 defaulted parameters: a keyword-only
# parameter with a default counts, one without (d) does not.
FIXTURE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a full-line comment


def function(a, b=1, *, c=2, d):
    """Function docstring."""
    total = (a +
             b)
    return total


class Class:
    """Class docstring,
    over two lines."""

    def method(self, x=None):
        return x


def outer(p, q=3):
    def inner(r=4):
        """Nested docstring."""
        return r
    return inner(lambda s=5: s)


square = lambda v, w=6: v * w
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_and_defaulted_parameters(tmp_path, capsys):
    tool = load_tool()
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert tool.code_lines(path) == 13
    assert tool.main([str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [f"    13    7  {path}", "    13    7  total"]


def test_lists_each_defaulted_parameter_by_name(tmp_path, capsys):
    tool = load_tool()
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert tool.main(["--list", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "fixture:function(b)", "fixture:function(c)", "fixture:Class.method(x)",
        "fixture:outer(q)", "fixture:outer.inner(r)", "fixture:outer.<lambda>(s)",
        "fixture:<lambda>(w)"]
