import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import combslope


def test_every_export_resolves():
    modules = [combslope] + [
        importlib.import_module(f"combslope.{info.name}")
        for info in pkgutil.iter_modules(combslope.__path__)
    ]
    for mod in modules:
        missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert not missing, f"{mod.__name__}.__all__ names what it lacks: {missing}"


def test_import_leaves_numpy_fft_unloaded():
    # only the grid oracle's box solve uses numpy.fft, also as the
    # preconditioner of conjugate gradients on masked grids, and it reaches
    # it by attribute, so runs that solve no grid do not pay for loading it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import combslope, sys; assert 'numpy.fft' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_benchmark_spans_resolve(monkeypatch):
    # the benchmark wraps named functions and methods of six modules from
    # outside; a renamed or removed one would report its metrics as absent
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    spans = importlib.import_module("spans")
    ns = types.SimpleNamespace(
        **{name: importlib.import_module(f"combslope.{name}")
           for name in ("analyzer", "cli", "comb", "exact", "semigroup", "wos")}
    )
    with spans.Tracer() as tracer:
        spans.install(tracer, ns)
    assert tracer.missing == {}
