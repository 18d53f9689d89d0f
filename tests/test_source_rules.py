"""Rules on the package source that no call can show: which functions name
a given `numpy.linalg` routine. `spectra` decides how every covariance and
Gram is factored, so `_whitener` alone calls `np.linalg.cholesky` and
`_inverse_factor` alone calls `np.linalg.inv`."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "suprec"


def linalg_users(routine, source):
    """`module.function` (a method `module.Class.method`, module level
    `module`) of every place in the modules of the directory `source` that
    names `linalg.<routine>`: as an attribute of a `linalg` module, or
    imported from one."""
    users = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
            if ((isinstance(child, ast.Attribute) and child.attr == routine
                 and ast.unparse(child.value).endswith("linalg"))
                    or (isinstance(child, ast.ImportFrom) and (child.module or "").endswith("linalg")
                        and any(alias.name == routine for alias in child.names))):
                users.add(name)
            visit(child, name)

    for path in sorted(source.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return users


@pytest.mark.parametrize("routine, owner", [
    ("cholesky", "spectra._whitener"),
    ("inv", "spectra._inverse_factor"),
])
def test_one_function_names_each_factoring_routine(routine, owner):
    assert linalg_users(routine, SOURCE) == {owner}


def test_the_scan_sees_imports_and_nested_functions(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from numpy.linalg import inv\n"
        "import numpy as np\n\n\n"
        "class C:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return np.linalg.inv\n"
        "        return scipy.linalg.inv(1), np.inv\n")
    assert linalg_users("inv", tmp_path) == {"mod", "mod.C.f", "mod.C.f.g"}
