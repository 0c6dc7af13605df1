"""Tests of the top-level package interface (lazy re-exports, version)."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro


def test_version_string():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_lazy_exports_resolve():
    assert repro.HeatTransferProblem is not None
    assert repro.FetiSolver is not None
    assert repro.AssemblyConfig is not None
    assert repro.structured_mesh(2, 1).nnodes == 4
    # resolved names are cached in the module namespace
    assert "FetiSolver" in vars(repro)


def test_dir_lists_lazy_names():
    names = dir(repro)
    assert "FetiProblem" in names
    assert "DualOperatorApproach" in names


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        _ = repro.not_a_real_symbol


PACKAGES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", ["repro", *PACKAGES])
def test_every_name_in_all_resolves(name):
    """``from <package> import *`` works: each ``__all__`` entry exists."""
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


#: What the numeric solve must not import: the simulated machine and the
#: cost replays, which reach an operator only as its price list.
SIMULATION = ("repro.gpu", "repro.cluster", "repro.feti.operators.replay")


def _imported(module) -> set[str]:
    """Every module (and ``module.name``) ``module``'s source imports, at any
    depth — function-level and ``TYPE_CHECKING`` imports included."""
    source = importlib.util.find_spec(module).origin
    package = module.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(Path(source).read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0] if node.level > 1 else package
                base = f"{parent}.{base}" if base else parent
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


@pytest.mark.parametrize("module", ["repro.feti.operators.base", "repro.feti.solver"])
def test_the_numeric_solve_imports_no_simulated_machine(module):
    forbidden = [
        name
        for name in _imported(module)
        if any(name == prefix or name.startswith(prefix + ".") for prefix in SIMULATION)
    ]
    assert not forbidden, forbidden
