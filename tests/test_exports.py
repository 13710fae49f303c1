"""Every exported name resolves, so deleted definitions leave no stale exports."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import gztower

MODULES = ["gztower"] + [f"gztower.{m.name}" for m in pkgutil.iter_modules(gztower.__path__)]
PRODUCTION = sorted(
    path for path in pathlib.Path(gztower.__file__).parent.glob("*.py") if path.name != "oracles.py"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    assert len(set(exported)) == len(exported)


def _names(node):
    """Every identifier a node binds, reads or imports."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield node.name
    elif isinstance(node, ast.alias):
        yield node.name
        if node.asname:
            yield node.asname
    elif isinstance(node, ast.arg):
        yield node.arg


def _imports_oracles(node):
    if isinstance(node, ast.Import):
        return any(alias.name == "gztower.oracles" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 0:
            return module == "gztower.oracles" or (
                module == "gztower" and any(a.name == "oracles" for a in node.names)
            )
        return module == "oracles" or (not module and any(a.name == "oracles" for a in node.names))
    return False


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda path: path.name)
def test_production_forms_no_kronecker_operator(path):
    # The Kronecker forms are references for the tests, kept in oracles.py;
    # production code neither forms one nor reaches them.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    kron = sorted({name for node in ast.walk(tree) for name in _names(node) if "kron" in name.lower()})
    assert kron == []
    assert not any(_imports_oracles(node) for node in ast.walk(tree))


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda path: path.name)
def test_production_has_one_tangent_representation(path):
    # Production forms tangents only as the matcore.tangent_values stack; the
    # one-at-a-time TowerTangent is the reference for it in oracles.py.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {name for node in ast.walk(tree) for name in _names(node)}
    assert names.isdisjoint({"TowerTangent", "anchor", "isotropy_check"})


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda path: path.name)
def test_production_forms_no_all_pairs_bracket(path):
    # Production pairs each level block at its own level; the all-pairs GEMM
    # at X_N is the reference for those blocks, kept in oracles.py.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {name for node in ast.walk(tree) for name in _names(node)}
    assert names.isdisjoint({"bracket_matrix", "_bracket"})


def test_version_has_one_source():
    # pyproject.toml reads the version off the package, without importing it.
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(gztower.__file__).parents[2] / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("gztower is not imported from a source checkout")
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "gztower.__version__"}
