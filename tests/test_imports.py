"""The package's modules reach each other only through public names: no
module of ``src/latentbias`` imports a name that starts with ``_`` from
another, so each private helper has one owner. Dunder names such as
``__version__`` are public and allowed. No module but ``__init__.py``,
whose imports are re-exports, imports a name that it never reads. Every
private module-level name (a function, class or constant) is read in its
own module, so no helper outlives its callers. The model's equations have
one owner: only ``model.py`` reaches the cell masses or reads their scale
``sa`` and correlation parameter ``r``, only ``kernel.py`` defines a target's
``log_density``, and ``gaussians.py`` is model-free math that names neither
noise variance."""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "latentbias").glob("*.py"))

# private names read only from outside their module: the tests take the
# bias-conditional sampler as their reference, and the benchmark's tracer
# wraps it by name
READ_ELSEWHERE = {("inference.py", "_sample_bias_conditional")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private, private


@pytest.mark.parametrize("path", [path for path in SOURCES if path.name != "__init__.py"],
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [f"line {line}: {name}" for name, line in imported.items() if name not in read]
    assert not unused, unused


def _defined_names(node):
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_private_module_name_is_read_in_its_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = {name: node.lineno for node in tree.body for name in _defined_names(node)
               if name.startswith("_") and not name.endswith("__")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = [f"line {line}: {name}" for name, line in defined.items()
              if name not in read and (path.name, name) not in READ_ELSEWHERE]
    assert not unread, unread


def _modules_where(predicate):
    """The names of the package's modules in which some AST node satisfies ``predicate``."""
    return sorted({path.name for path in SOURCES
                   if any(map(predicate, ast.walk(ast.parse(path.read_text(encoding="utf-8")))))})


@pytest.mark.parametrize("name", ["log_orthant_masses", "zero_threshold_masses"])
def test_only_the_model_reaches_the_cell_masses(name):
    # by import or by attribute, so later work cannot spread the model's
    # (alpha, gamma) -> (h, k, r) map back over the package
    assert _modules_where(lambda node: (isinstance(node, ast.ImportFrom)
                                        and any(alias.name == name for alias in node.names))
                          or (isinstance(node, ast.Attribute) and node.attr == name)) == ["model.py"]


def test_only_the_kernel_defines_a_log_density():
    # one target class: a model adds cells, not a second target
    assert _modules_where(lambda node: isinstance(node, ast.FunctionDef)
                          and node.name == "log_density") == ["kernel.py"]


def test_only_the_model_reads_the_cell_scale_and_correlation():
    # the chain rule through h = beta/sa and the masses' r stay with the model
    assert _modules_where(lambda node: isinstance(node, ast.Attribute)
                          and isinstance(node.ctx, ast.Load)
                          and node.attr in ("sa", "r")) == ["model.py"]


def test_gaussians_names_no_noise_variance():
    # in its code, its comments or its docstrings
    text = (SOURCES[0].parent / "gaussians.py").read_text(encoding="utf-8")
    assert not re.findall(r"\b(?:alpha|gamma)\b", text)
