"""The package's public surface: every name in ``ammfg.__all__`` is real, and
the modules import nothing beyond the standard library and numpy."""
import ast
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
