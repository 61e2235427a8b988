"""The package's modules reach each other only through public names: no
module of ``src/latentbias`` imports a name that starts with ``_`` from
another, so each private helper has one owner. Dunder names such as
``__version__`` are public and allowed."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "latentbias").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private, private
