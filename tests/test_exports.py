import importlib
import pkgutil

import combslope


def test_every_export_resolves():
    modules = [combslope] + [
        importlib.import_module(f"combslope.{info.name}")
        for info in pkgutil.iter_modules(combslope.__path__)
    ]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names what it lacks: {missing}"
