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
    # only the grid oracle's box solve uses numpy.fft, and it reaches it by
    # attribute, so runs that solve no grid do not pay for loading it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import combslope, sys; assert 'numpy.fft' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def _benchmark(monkeypatch):
    """perfbench's ``spans`` and ``workloads`` modules, and the six combslope
    modules they wrap, read from outside as the benchmark reads them."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    ns = types.SimpleNamespace(
        **{name: importlib.import_module(f"combslope.{name}")
           for name in ("analyzer", "cli", "comb", "exact", "semigroup", "wos")}
    )
    return importlib.import_module("spans"), importlib.import_module("workloads"), ns


def test_benchmark_spans_resolve(monkeypatch):
    # the benchmark wraps named functions and methods of six modules from
    # outside; a renamed or removed one would report its metrics as absent
    spans, _, ns = _benchmark(monkeypatch)
    with spans.Tracer() as tracer:
        spans.install(tracer, ns)
    assert tracer.missing == {}


def test_surgery_variants_are_combs_the_benchmark_can_tell():
    # the benchmark files an estimate as surgery by this class, read with
    # getattr(..., None): without it every surgery estimate reads "between"
    domain = combslope.comb.pseudo_strip(1.0, 3.0, 8.0)
    for kind in (combslope.comb.SEAL_GAP, combslope.comb.DROP_TOOTH):
        variant = combslope.comb.surgery(domain, kind, 1)
        assert isinstance(variant, combslope.comb.SurgeryVariant)
        assert isinstance(variant, combslope.comb.CombDomain)
        assert all(isinstance(t.ray, combslope.geometry.HalfLine) for t in variant.teeth)


def test_traced_verify_forward_resolves_every_span(monkeypatch, tmp_path):
    # the benchmark's forward pipeline at few walkers, run as the benchmark
    # runs it: a span it cannot resolve would end its run with a null metric
    spans, workloads, ns = _benchmark(monkeypatch)
    plan, out = str(tmp_path / "plan.json"), str(tmp_path / "report")
    with spans.Tracer() as tracer:
        spans.install(tracer, ns)
        rc, _ = workloads._cli(ns, tracer, "cli.plan", [
            "plan", *workloads.PLAN_FLAGS, "--calibrate", "--seed", "42", "-o", plan])
        assert rc == 0
        rc, _ = workloads._cli(ns, tracer, "cli.verify", [
            "verify", "--plan", plan, "--walkers", "2000", "--seed", "42", "--out-dir", out])
        assert rc == 0
    assert spans.absent_spans(tracer, workloads.VerifyForward.expected_spans, 0.0) == {}
    values = spans.layer_values(tracer.spans, False)
    counts = {kind: values[f"analyzer.verify.{kind}.n"] for kind in workloads.VERIFY_ESTIMATES}
    assert counts == workloads.VERIFY_ESTIMATES == {"anchors": 7, "between": 18, "surgery": 18}


def test_traced_oracle_grid_resolves_every_span(monkeypatch, tmp_path):
    # the benchmark's oracle-grid operation, run as the benchmark runs it: it
    # calls exact's builders, solver and labels by name
    spans, workloads, ns = _benchmark(monkeypatch)
    grid = workloads.OracleGrid()
    state = grid.setup(ns, tmp_path)
    with spans.Tracer() as tracer:
        spans.install(tracer, ns)
        outcome = grid.op(ns, state, 42, tracer)
    assert [c for c in outcome.checks if not c[1]] == []
    assert outcome.attempted > 0
    assert spans.absent_spans(tracer, grid.expected_spans, 0.0) == {}
    values = spans.layer_values(tracer.spans, False)
    assert values["exact.unknowns"] == workloads.GRID_UNKNOWNS
