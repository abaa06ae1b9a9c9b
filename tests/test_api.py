"""The public surface of each gpkit module: ``__all__`` and ``import *``."""

import importlib

import pytest

MODULES = ("quadspace", "weilrep", "epsilon", "lparam", "conjclass", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve_and_star_import_works(name):
    module = importlib.import_module(f"gpkit.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"stale __all__ entries in gpkit.{name}: {missing}"
    namespace = {}
    exec(f"from gpkit.{name} import *", namespace)


@pytest.mark.parametrize(
    "name,attr",
    [
        ("weilrep", "trace"),
        ("weilrep", "WeilElement"),
        ("conjclass", "token_to_complex"),
    ],
)
def test_test_oracles_are_not_exported(name, attr):
    # these live in tests/trace_reference.py, not in the library
    module = importlib.import_module(f"gpkit.{name}")
    assert not hasattr(module, attr)
    assert attr not in getattr(module, "__all__", ())
