"""Pauli tables have one representation: int bit-masks, never numpy arrays.

Only ``oracle.py`` (the independent dense cross-check) may use numpy.
"""

import ast
import pathlib

import pytest

import icmverify

SRC = pathlib.Path(icmverify.__file__).parent


def _imported_modules(path: pathlib.Path) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module)
    return names


@pytest.mark.parametrize("module", ["pauli", "table", "specfmt", "verifier"])
def test_table_modules_do_not_import_numpy(module):
    imported = _imported_modules(SRC / f"{module}.py")
    assert not {name for name in imported if name.split(".")[0] == "numpy"}
