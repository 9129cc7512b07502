import importlib
import pkgutil

import pytest

import vorwaves

_MODULES = ["vorwaves", *(f"vorwaves.{m.name}" for m in pkgutil.iter_modules(vorwaves.__path__))]


@pytest.mark.parametrize("name", _MODULES)
def test_every_export_resolves(name):
    # a deletion must take its name out of __all__ too
    module = importlib.import_module(name)
    stale = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not stale


def test_dir_lists_every_export():
    # the exports are imported on first use, and dir() lists them all along
    assert set(vorwaves.__all__) <= set(dir(vorwaves))
    assert dir(vorwaves) == sorted(dir(vorwaves))
