"""Every name a ``repro`` module lists in ``__all__`` resolves.

Moving or deleting code leaves export lists behind; a stale name makes
``from repro.x import *`` raise and misleads readers of ``__all__``.
"""

import importlib
import pkgutil

import repro


def test_every_export_resolves():
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    exported = 0
    missing = []
    for module in modules:
        for name in getattr(module, "__all__", ()):
            exported += 1
            if not hasattr(module, name):
                missing.append(f"{module.__name__}.{name}")
    assert missing == []
    assert exported > 500  # the walk reached the whole package
