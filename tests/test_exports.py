"""Every public export of the package resolves.

A deletion that leaves its name in some module's ``__all__`` breaks
``from module import *`` only when someone runs it; this finds it first.
"""

import importlib
import pkgutil

import convexflows


def _modules():
    yield convexflows
    for info in pkgutil.walk_packages(convexflows.__path__, prefix="convexflows."):
        yield importlib.import_module(info.name)


def test_every_name_in_all_resolves():
    checked = 0
    for module in _modules():
        names = getattr(module, "__all__", ())
        assert len(set(names)) == len(names), module.__name__
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
        checked += len(names)
    assert checked > 0
