"""The package's public surface: every name in ``ammfg.__all__`` is real, the
modules import nothing beyond the standard library and numpy, and the README's
quick start calls the package as its signatures allow."""
import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import ammfg

ROOT = Path(__file__).resolve().parents[1]


def _declared_dependencies() -> set[str]:
    """Names of the [project] dependencies in pyproject.toml (numpy alone today)."""
    listed = re.search(r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(),
                       re.M | re.S).group(1)
    return {re.match(r"[\w.-]+", req).group(0) for req in re.findall(r'"([^"]+)"', listed)}


def test_all_entries_resolve_and_star_import_binds_them():
    names = ammfg.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if n.startswith("_")] == ["__version__"]
    missing = [n for n in names if not hasattr(ammfg, n)]
    assert missing == []
    namespace = {}
    exec("from ammfg import *", namespace)
    assert set(names) <= namespace.keys()


def test_modules_import_only_the_standard_library_and_declared_dependencies():
    allowed = sys.stdlib_module_names | _declared_dependencies()
    assert "numpy" in allowed
    modules = sorted((ROOT / "src" / "ammfg").glob("*.py"))
    assert modules
    undeclared = set()
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            undeclared |= {(module.name, name) for name in names
                           if name.split(".")[0] not in allowed}
    assert undeclared == set()


def _readme_quick_start() -> str:
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_binds_to_the_package_signatures():
    # parsed, not run: each call of a name imported from the package must bind
    # to that callable's signature, so a renamed or removed argument fails here
    tree = ast.parse(_readme_quick_start())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ammfg":
            module = importlib.import_module(node.module)
            imported.update({alias.asname or alias.name: getattr(module, alias.name)
                             for alias in node.names})
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in imported]
    assert len({call.func.id for call in calls}) >= 8
    unbound = []
    for call in calls:
        try:
            inspect.signature(imported[call.func.id]).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as exc:
            unbound.append(f"line {call.lineno}: {call.func.id}: {exc}")
    assert unbound == []


def test_the_reward_hooks_and_the_floor_live_in_one_place_each():
    # the finite-N deviant is built by solve_hjb's hook; the weak-form check
    # values the built-in reward alone
    hooked = [f.__name__ for f in (ammfg.solve_hjb, ammfg.solve_mfg, ammfg.evaluate,
                                   ammfg.girsanov_evaluate)
              if "reward_fn" in inspect.signature(f).parameters]
    assert hooked == ["solve_hjb", "solve_mfg", "evaluate"]
    # the reserve floor is stated by grids.reserve_floor, and no path keeps a copy
    assert [f.name for f in dataclasses.fields(ammfg.MeanControlPath)] == [
        "times", "values", "cumulative", "reserve"]
