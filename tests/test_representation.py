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


# the oracle cross-checks the derivation engine, so it may take data types
# and the seed set from it, but no derivation or table algebra
ORACLE_MAY_IMPORT = {
    "circuit": None,  # the circuit IR, anything
    "pauli": {"PauliOperator", "TableRow"},
    "table": {"StabiliserTruthTable", "seed_rows"},
}


def test_oracle_imports_no_derivation_code():
    tree = ast.parse((SRC / "oracle.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "icmverify" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.split(".")[0] != "icmverify":
                    continue
                module = module.partition(".")[2]
            assert module in ORACLE_MAY_IMPORT, f"oracle.py imports from {module or '.'!r}"
            allowed = ORACLE_MAY_IMPORT[module]
            names = {a.name for a in node.names}
            assert allowed is None or names <= allowed, f"oracle.py imports {names - allowed}"
