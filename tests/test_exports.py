"""Every exported name resolves, so deleted definitions leave no stale exports."""

import ast
import importlib
import importlib.util
import pathlib
import pkgutil
import sys

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
    # Production forms no bracket, only the centralizer certificate; the
    # all-pairs GEMM at X_N is its reference, kept in oracles.py.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {name for node in ast.walk(tree) for name in _names(node)}
    assert names.isdisjoint(
        {"bracket_matrix", "_bracket", "level_pairings", "_level_pairings", "_pairing_block"}
    )


def _operands(node):
    """The names a comparison operand reads, outside calls: a call's arguments are its own."""
    if isinstance(node, ast.Call):
        return
    yield from _names(node)
    for child in ast.iter_child_nodes(node):
        yield from _operands(child)


@pytest.mark.parametrize("path", PRODUCTION, ids=lambda path: path.name)
def test_residual_tolerances_are_compared_only_in_the_fold(path):
    # Every identity check decides through regularity.residual_verdict: no
    # other code compares an rtol constant or `gz flow`'s --drift-tol.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    fold = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "residual_verdict"
        for inner in ast.walk(node)
    }
    read = {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and id(node) not in fold
        for operand in [node.left, *node.comparators]
        for name in _operands(operand)
    }
    assert sorted(name for name in read if name.endswith("_RTOL") or name == "drift_tol") == []


def test_one_residual_fold():
    # The fold is defined once; cli._verdict only adds the note of a left-out count.
    defined = sorted(
        (path.name, node.name)
        for path in PRODUCTION
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and ("ratios" in node.name or "verdict" in node.name)
    )
    assert defined == [
        ("cli.py", "_verdict"),
        ("regularity.py", "residual_ratios"),
        ("regularity.py", "residual_verdict"),
    ]


def test_commands_exit_through_one_rule():
    # `gz check`, `gz orbit` and `gz flow` map verdicts to exit codes only
    # through cli._exit_code; an exit-code constant named in them is a second rule.
    from gztower import cli

    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    commands = {
        node.name: node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("cmd_check", "cmd_orbit", "cmd_flow")
    }
    assert sorted(commands) == ["cmd_check", "cmd_flow", "cmd_orbit"]
    for name, command in commands.items():
        returns = [node.value for node in ast.walk(command) if isinstance(node, ast.Return)]
        assert returns, name
        for value in returns:
            assert isinstance(value, ast.Call) and getattr(value.func, "id", None) == "_exit_code", name
        constants = {n for node in ast.walk(command) for n in _names(node) if n.startswith("EXIT_")}
        assert constants == set(), name


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


def _bench_module(name):
    """A module of the benchmark, loaded from its file: ``bench/`` is not a package."""
    path = pathlib.Path(gztower.__file__).parents[2] / "bench" / f"{name}.py"
    if not path.exists():
        pytest.skip("gztower is not imported from a source checkout")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up while the class body runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_benchmark_contract():
    # The benchmark times every check member by name, counts the verdicts of
    # `gz check`, and reaches into these names; none may go without it.
    from gztower import cli, matcore, regularity

    spans, gate = _bench_module("spans"), _bench_module("gate")
    assert list(cli.CHECKS) == list(spans.CHECK_MEMBERS)
    assert len(cli.CHECKS) == gate.VERDICT_COUNT["check"]
    assert hasattr(cli, "ThreadPoolExecutor")
    for name in ("is_sreg_differentials", "is_sreg_centralizers", "is_sreg_tangents"):
        assert callable(getattr(regularity, name))
    assert callable(matcore.spectra_disjoint)
