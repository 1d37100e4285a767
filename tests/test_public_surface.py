"""The package's public surface: every name in ``ammfg.__all__`` is real."""
import ammfg


def test_all_entries_resolve_and_star_import_binds_them():
    names = ammfg.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if n.startswith("_")] == ["__version__"]
    missing = [n for n in names if not hasattr(ammfg, n)]
    assert missing == []
    namespace = {}
    exec("from ammfg import *", namespace)
    assert set(names) <= namespace.keys()
