import importlib
import pkgutil

import pytest

import swmac

MODULES = ["swmac"] + [f"swmac.{info.name}" for info in pkgutil.iter_modules(swmac.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_each_public_name_is_declared_in_one_module():
    # the package re-exports each module's __all__; the CLI modules export nothing
    modules = [importlib.import_module(name) for name in MODULES[1:]]
    modules = [m for m in modules if m.__name__ not in ("swmac.cli", "swmac.__main__")]
    assert [m.__name__ for m in modules if not hasattr(m, "__all__")] == []
    names = [name for module in modules for name in module.__all__]
    assert sorted(name for name in set(names) if names.count(name) > 1) == []
    assert swmac.__all__ == ["__version__", *names]
