"""Spans around the calls into each combslope module, installed from outside.

The tracer replaces a function by a timing wrapper in every ``combslope``
module that holds it, so a name that ``cli`` or ``analyzer`` imported is
wrapped there too, and puts the originals back on exit.  Nothing under
``src/`` changes.  Spans live in memory; the per-layer metrics are derived
from them after each traced operation.

A span that the program no longer offers (a private helper that was
renamed or removed) or that records no call on a workload that exercises
it (the work moved into worker processes, say) makes every metric that
depends on it ``absent`` with a reason, never zero.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
import tracemalloc

_MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "attrs")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.attrs: dict = {}

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0

    def within(self, name: str) -> "Span | None":
        """The nearest enclosing span called ``name``."""
        p = self.parent
        while p is not None and p.name != name:
            p = p.parent
        return p


class Tracer:
    """Records spans while active; ``memory=True`` also tracks, with
    tracemalloc, the peak allocation inside each span marked ``mem``."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.missing: dict[str, str] = {}
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str, mem: bool) -> Span:
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        if mem and self.memory:
            tracemalloc.reset_peak()
            span.attrs["mem0"] = tracemalloc.get_traced_memory()[0]
        span.t0 = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        if "mem0" in span.attrs:
            span.attrs["peak_alloc"] = tracemalloc.get_traced_memory()[1] - span.attrs.pop("mem0")
        self._stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        span = self._open(name, False)
        try:
            yield span
        finally:
            self._close(span)

    # -- patching --------------------------------------------------------
    def _wrapper(self, name, fn, before, after, mem):
        tracer = self
        sig = inspect.signature(fn)

        def hook(f, span, args, kwargs, *rest):
            # a hook that no longer fits the program marks its span absent
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                f(span, bound.arguments, *rest)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                tracer.missing[name] = f"its arguments or result changed ({exc!r})"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, mem)
            if before is not None:
                hook(before, span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                hook(after, span, args, kwargs, result)
            return result

        return traced

    def wrap_function(self, name, module, attr, before=None, after=None, mem=False):
        """Wrap ``module.attr`` in every combslope module that holds it."""
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing[name] = f"{module.__name__}.{attr} not found"
            return
        wrapped = self._wrapper(name, fn, before, after, mem)
        for modname, mod in list(sys.modules.items()):
            if modname != "combslope" and not modname.startswith("combslope."):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def wrap_method(self, name, module, cls_name, attr, before=None, after=None):
        cls = getattr(module, cls_name, None)
        fn = getattr(cls, attr, None) if cls is not None else None
        if not callable(fn):
            self.missing[name] = f"{module.__name__}.{cls_name}.{attr} not found"
            return
        self._patches.append((cls, attr, fn))
        setattr(cls, attr, self._wrapper(name, fn, before, after, False))

    def __enter__(self):
        if self.memory:
            tracemalloc.start()
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()
        if self.memory:
            tracemalloc.stop()
        return False


def wrapper_cost_s(calls: int = 20_000) -> float:
    """Seconds one wrapped call with an after-hook adds, timed on a no-op."""
    def noop(x):
        return x

    wrapped = Tracer()._wrapper("probe", noop, None, lambda span, a, r: None, False)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop(1)
    t1 = time.perf_counter()
    for _ in range(calls):
        wrapped(1)
    t2 = time.perf_counter()
    return max(0.0, (t2 - t1) - (t1 - t0)) / calls


# ---------------------------------------------------------------------------
# the spans of this benchmark


def install(tracer: Tracer, cs) -> None:
    """Wrap the public calls into each layer, plus the two private WoS
    helpers that split an estimate into kernel, angle stream and loop."""
    wos, analyzer, comb, exact, semigroup = (
        cs.wos, cs.analyzer, cs.comb, cs.exact, cs.semigroup
    )
    surgery_cls = getattr(comb, "SurgeryVariant", None)

    def estimate_after(span, a, est):
        span.attrs["walkers"] = a["params"].walkers
        span.attrs["absorbed"] = est.walkers_used
        verify = span.within("analyzer.verify")
        if verify is not None:
            if surgery_cls is not None and isinstance(a["domain"], surgery_cls):
                kind = "surgery"
            elif complex(a["point"]).real in verify.attrs.get("anchor_ts", ()):
                kind = "anchors"
            else:
                kind = "between"
            span.attrs["verify_kind"] = kind

    def verify_before(span, a):
        span.attrs["anchor_ts"] = set(comb.midpoints(a["plan"]))

    def size_after(key):
        def after(span, a, result):
            span.attrs[key] = int(result.size)
        return after

    def unknowns_after(span, a, value):
        span.attrs["unknowns"] = int((a["problem"].labels == exact.INTERIOR).sum())

    tracer.wrap_function("wos.estimate", wos, "estimate_upper_measure",
                         after=estimate_after, mem=True)
    tracer.wrap_method("wos.kernel", wos, "_FeatureArrays", "distances",
                       after=size_after("pairs"))
    tracer.wrap_function("wos.angles", wos, "_uniform_angles", after=size_after("draws"))
    tracer.wrap_function("analyzer.calibrate", analyzer, "calibrate_widths")
    tracer.wrap_function("analyzer.verify", analyzer, "verify_construction",
                         before=verify_before)
    tracer.wrap_function("comb.build", comb, "build_comb")
    tracer.wrap_function("comb.surgery", comb, "surgery")
    tracer.wrap_function("exact.solve", exact, "grid_laplace_measure",
                         after=unknowns_after, mem=True)
    tracer.wrap_function("semigroup.trajectory", semigroup, "trajectory")
    tracer.wrap_function("semigroup.slope", semigroup, "slope_plus")


# metric -> (unit, better, spans it needs); ".estimates" names the estimates
# that ran inside that stage
_EST = ("wos.estimate",)
_KERNEL = ("wos.estimate", "wos.kernel")
_ANGLES = ("wos.estimate", "wos.angles")
_VERIFY = ("analyzer.verify", "analyzer.verify.estimates")
PER_LAYER = {
    "wos.estimates": ("count", "lower", _EST),
    "wos.estimate_s": ("s", "lower", _EST),
    "wos.kernel_s": ("s", "lower", _KERNEL),
    "wos.kernel_pairs": ("count", "lower", _KERNEL),
    "wos.angles_s": ("s", "lower", _ANGLES),
    "wos.walker_steps": ("count", "lower", _ANGLES),
    "wos.loop_self_s": ("s", "lower", ("wos.estimate", "wos.kernel", "wos.angles")),
    "wos.steps_per_walker": ("1", "lower", _ANGLES),
    "wos.loop_iters_max": ("count", "lower", _KERNEL),
    "wos.absorbed_frac": ("1", "higher", _EST),
    "wos.peak_alloc_mb": ("MB", "lower", _EST),
    "analyzer.calibrate_s": ("s", "lower", ("analyzer.calibrate",)),
    "analyzer.calibrate_estimates": (
        "count", "lower", ("analyzer.calibrate", "analyzer.calibrate.estimates")),
    "analyzer.verify.anchors_s": ("s", "lower", _VERIFY),
    "analyzer.verify.anchors.n": ("count", "lower", _VERIFY),
    "analyzer.verify.between_s": ("s", "lower", _VERIFY),
    "analyzer.verify.between.n": ("count", "lower", _VERIFY),
    "analyzer.verify.surgery_s": ("s", "lower", _VERIFY),
    "analyzer.verify.surgery.n": ("count", "lower", _VERIFY),
    "analyzer.verify_self_s": ("s", "lower", _VERIFY),
    "comb.build_s": ("s", "lower", ("comb.build", "comb.surgery")),
    "cli.artifacts_s": ("s", "lower", ("cli.verify", "analyzer.calibrate", "analyzer.verify")),
    "exact.solve_s": ("s", "lower", ("exact.solve",)),
    "exact.unknowns": ("count", "lower", ("exact.solve",)),
    "exact.peak_alloc_mb": ("MB", "lower", ("exact.solve",)),
    "semigroup.trajectory_s": ("s", "lower", ("semigroup.trajectory", "semigroup.slope")),
}

# counts that must repeat exactly between two traced operations on one seed
WORK_COUNTS = (
    "wos.estimates",
    "wos.walker_steps",
    "wos.kernel_pairs",
    "analyzer.calibrate_estimates",
    "analyzer.verify.anchors.n",
    "analyzer.verify.between.n",
    "analyzer.verify.surgery.n",
    "exact.unknowns",
)


def absent_spans(tracer: Tracer, expected: tuple[str, ...], child_cpu_s: float) -> dict:
    """Span name -> reason, for spans the program no longer offers, spans
    the workload should exercise that recorded no call here, and the
    estimates of a calibration or verification that ran none here.

    Child processes that used CPU during the operation mean some of the
    work ran where these wrappers cannot see it, so every WoS count in this
    process is partial and reported absent.
    """
    seen = {s.name for s in tracer.spans}
    out = dict(tracer.missing)
    for name in expected:
        if name not in seen:
            out.setdefault(name, "no call recorded in this process")
    est = [s for s in tracer.spans if s.name == "wos.estimate"]
    for stage in ("analyzer.calibrate", "analyzer.verify"):
        if stage in seen and not any(s.within(stage) for s in est):
            out.setdefault(f"{stage}.estimates", f"{stage} ran no estimate in this process")
    if child_cpu_s > 0.0:
        reason = f"child processes used {child_cpu_s:.2f} s CPU; counts here are partial"
        partial = ["wos.estimate", "wos.kernel", "wos.angles"]
        partial += [f"{stage}.estimates" for stage in ("analyzer.calibrate", "analyzer.verify")
                    if stage in seen]
        for name in partial:
            out[name] = reason
    return out


def layer_values(spans: list[Span], memory: bool) -> dict:
    """Every per-layer metric as a number, from one operation's spans."""
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def total(name, pred=lambda s: True):
        return sum(s.seconds for s in by.get(name, ()) if pred(s))

    est = by.get("wos.estimate", [])
    in_est = lambda s: s.within("wos.estimate") is not None
    kernel = [s for s in by.get("wos.kernel", ()) if in_est(s)]
    angles = [s for s in by.get("wos.angles", ()) if in_est(s)]
    walkers = sum(s.attrs.get("walkers", 0) for s in est)
    steps = sum(s.attrs.get("draws", 0) for s in angles)
    absorbed = sum(s.attrs.get("absorbed", 0) for s in est)
    iters: dict[int, int] = {}
    for s in kernel:
        key = id(s.within("wos.estimate"))
        iters[key] = iters.get(key, 0) + 1
    v = {
        "wos.estimates": len(est),
        "wos.estimate_s": sum(s.seconds for s in est),
        "wos.kernel_s": sum(s.seconds for s in kernel),
        "wos.kernel_pairs": sum(s.attrs.get("pairs", 0) for s in kernel),
        "wos.angles_s": sum(s.seconds for s in angles),
        "wos.walker_steps": steps,
        "wos.steps_per_walker": steps / walkers if walkers else 0.0,
        "wos.loop_iters_max": max(iters.values(), default=0),
        "wos.absorbed_frac": absorbed / walkers if walkers else 0.0,
        "wos.peak_alloc_mb": max((s.attrs.get("peak_alloc", 0) for s in est), default=0) / _MB,
    }
    v["wos.loop_self_s"] = v["wos.estimate_s"] - v["wos.kernel_s"] - v["wos.angles_s"]

    v["analyzer.calibrate_s"] = total("analyzer.calibrate")
    v["analyzer.calibrate_estimates"] = sum(
        1 for s in est if s.within("analyzer.calibrate") is not None
    )
    for kind in ("anchors", "between", "surgery"):
        mine = [s for s in est if s.attrs.get("verify_kind") == kind]
        v[f"analyzer.verify.{kind}_s"] = sum(s.seconds for s in mine)
        v[f"analyzer.verify.{kind}.n"] = len(mine)
    v["analyzer.verify_self_s"] = total("analyzer.verify") - sum(
        s.seconds for s in est if "verify_kind" in s.attrs
    )
    v["comb.build_s"] = total("comb.build") + total("comb.surgery")
    in_cli_verify = lambda s: s.within("cli.verify") is not None
    v["cli.artifacts_s"] = (
        total("cli.verify")
        - total("analyzer.calibrate", in_cli_verify)
        - total("analyzer.verify", in_cli_verify)
    )
    solves = by.get("exact.solve", [])
    v["exact.solve_s"] = total("exact.solve")
    v["exact.unknowns"] = sum(s.attrs.get("unknowns", 0) for s in solves)
    v["exact.peak_alloc_mb"] = max((s.attrs.get("peak_alloc", 0) for s in solves), default=0) / _MB
    v["semigroup.trajectory_s"] = total("semigroup.trajectory") + total("semigroup.slope")
    if not memory:
        v.pop("wos.peak_alloc_mb")
        v.pop("exact.peak_alloc_mb")
    return v
