"""Rules on the package source that no call can show: which functions name
a given routine. `spectra` decides how every covariance and Gram is
factored, so `_whitener` alone calls `np.linalg.cholesky` and
`_inverse_factor` alone calls `np.linalg.inv`; `model` holds the one
definition of the field Gaussian, so `_field_normals` alone calls a
generator's `standard_normal`."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "suprec"


def routine_users(routine, source, owner=""):
    """`module.function` (a method `module.Class.method`, module level
    `module`) of every place in the modules of the directory `source` that
    names `routine` as an attribute of an object whose expression ends in
    `owner` (any object for the empty `owner`), or imports it from a module
    whose name ends so."""
    users = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}"
            if ((isinstance(child, ast.Attribute) and child.attr == routine
                 and ast.unparse(child.value).endswith(owner))
                    or (isinstance(child, ast.ImportFrom) and (child.module or "").endswith(owner)
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
    assert routine_users(routine, SOURCE, "linalg") == {owner}


def test_one_function_draws_standard_normals():
    assert routine_users("standard_normal", SOURCE) == {"model._field_normals"}


def test_the_scan_sees_imports_and_nested_functions(tmp_path):
    (tmp_path / "mod.py").write_text(
        "from numpy.linalg import inv\n"
        "import numpy as np\n\n\n"
        "class C:\n"
        "    def f(self):\n"
        "        def g():\n"
        "            return np.linalg.inv\n"
        "        return scipy.linalg.inv(1), np.inv\n\n\n"
        "def draw(rng):\n"
        "    return rng.standard_normal(3), rng.normal(3)\n")
    assert routine_users("inv", tmp_path, "linalg") == {"mod", "mod.C.f", "mod.C.f.g"}
    assert routine_users("standard_normal", tmp_path) == {"mod.draw"}
