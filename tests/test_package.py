"""Tests of the top-level package interface (lazy re-exports, version)."""

from __future__ import annotations

import importlib
import pkgutil

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
