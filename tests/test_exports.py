"""Every exported name resolves, so deleted definitions leave no stale exports."""

import importlib
import pkgutil

import pytest

import gztower

MODULES = ["gztower"] + [f"gztower.{m.name}" for m in pkgutil.iter_modules(gztower.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)
