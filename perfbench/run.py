#!/usr/bin/env python3
"""combslope benchmark: three workloads timed end to end, traced layer by layer.

Run it from the root of a checkout; it imports the package from ``src/``:

    python3 perfbench/run.py --workload verify-forward --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all    # every workload, on the seed and the seed + 1

Workloads (see ``workloads.py`` for why each was chosen):

- ``verify-forward``: ``combslope plan --calibrate`` and ``combslope verify``
  at 10^5 walkers, through ``combslope.cli.main`` in-process.
- ``measure-large``: one ``combslope measure`` of 10^6 walkers.
- ``oracle-grid``: the 100x4000 strip grid oracle and the strip-model loop.

Each run is one process with one sequential caller (a closed loop).  It
times a fresh process that imports the package and does the workload's
set-up (``setup_s``, median of several), then repeats the workload's
operation until ``--seconds`` are used, at least ``min_ops`` times, and
checks every output.  Two operations on one seed must write byte-identical
artifacts.

``--trace 0`` measures with tracing off and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced operations, reports the
per-layer metrics from ``spans.py`` and the tracing overhead, and checks the
work counts against known counts and against a second traced operation.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when one failed, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import types
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

from spans import (
    PER_LAYER, WORK_COUNTS, Tracer, absent_spans, install, layer_values, wrapper_cost_s,
)
from workloads import GRID_UNKNOWNS, VERIFY_ESTIMATES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7

END_TO_END = ("setup_s", "op_s", "peak_rss_mb")  # gated in BENCHMARK.json
STAGES = ("plan_s", "verify_s", "measure_s", "oracle_s")


def require_sources() -> None:
    if not (SRC / "combslope" / "__init__.py").is_file():
        print(f"perfbench: no combslope sources under {SRC}", file=sys.stderr)
        sys.exit(2)


def load_combslope() -> types.SimpleNamespace:
    require_sources()
    sys.path.insert(0, str(SRC))
    import combslope
    from combslope import analyzer, cli, comb, exact, semigroup, wos

    if SRC.resolve() not in Path(combslope.__file__).resolve().parents:
        print(f"perfbench: imported combslope from {combslope.__file__}", file=sys.stderr)
        sys.exit(2)
    return types.SimpleNamespace(
        analyzer=analyzer, cli=cli, comb=comb, exact=exact, semigroup=semigroup, wos=wos
    )


# ---------------------------------------------------------------------------
# machine record


def _cache_sizes() -> dict[str, int]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        mult = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        sizes[f"L{level}"] = int(size.rstrip("KM")) * mult
    return sizes


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(pkg: str) -> str:
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return "absent"


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if n < 1024 or unit == "GiB":
            return f"{n:.3g} {unit}"
        n /= 1024


def print_machine(caches: dict[str, int]) -> None:
    cache_txt = " ".join(f"{k} {_fmt_bytes(v)}" for k, v in caches.items()) or "unknown"
    print(
        f"machine: nproc {os.cpu_count()} | cpu {_cpu_model()} | caches (per instance) {cache_txt}"
        f" | python {platform.python_version()} numpy {_version('numpy')}"
        f" scipy {_version('scipy')}"
    )


# ---------------------------------------------------------------------------
# one run


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure_setup(workload: str, probe_dir: Path) -> list[float]:
    """Wall time of a fresh process that imports combslope and does the
    workload's set-up, from spawn to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload,
           "--dir", str(probe_dir)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd)
        # a blocking wait: Popen.wait(timeout) polls and rounds up to 50 ms
        watchdog = threading.Timer(120.0, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited with {rc}")
    return times


class TracedOp(NamedTuple):
    outcome: object
    seconds: float
    values: dict  # per-layer metric -> value
    absent: dict  # span name -> reason
    spans: int


def traced_op(cs, wl, state, seed, memory) -> TracedOp:
    cpu0 = _children_cpu()
    with Tracer(memory=memory) as tracer:
        install(tracer, cs)
        t0 = time.perf_counter()
        outcome = wl.op(cs, state, seed, tracer)
        dt = time.perf_counter() - t0
    absent = absent_spans(tracer, wl.expected_spans, _children_cpu() - cpu0)
    return TracedOp(outcome, dt, layer_values(tracer.spans, memory), absent, len(tracer.spans))


def run(args) -> int:
    wl = WORKLOADS[args.workload]
    cs = load_combslope()
    caches = _cache_sizes()
    print(f"perfbench: workload {wl.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    print(f"why: {wl.why}")
    print_machine(caches)

    workdir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_times = measure_setup(wl.name, workdir / "probe")
        state = wl.setup(cs, workdir)
        measure = _run_traced if args.trace else _run_untraced
        ops, metrics, n_plain = measure(cs, wl, state, args)
        for label, walkers, feats in wl.working_set(cs, state):
            ws = walkers * feats * 8
            print(f"working set {label}: {walkers} x {feats} x 8 B = {_fmt_bytes(ws)}"
                  f" (L2 {_fmt_bytes(caches.get('L2', 0))}, L3 {_fmt_bytes(caches.get('L3', 0))})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(o.attempted for o, _ in ops)
    failed = sum(o.failed for o, _ in ops)
    if len(ops) > 1:
        digests = {o.digest for o, _ in ops}
        attempted += 1
        failed += 0 if len(digests) == 1 else 1
        print(f"check {'PASS' if len(digests) == 1 else 'FAIL'}  {len(ops)} operations on "
              f"seed {args.seed} wrote identical outputs ({len(digests)} distinct digests)")
    shown = {}  # check name -> (passed in every operation, detail of the first miss)
    for o, _ in ops:
        for name, ok, detail in o.checks:
            if name not in shown or (shown[name][0] and not ok):
                shown[name] = (ok, detail)
    for name, (ok, detail) in shown.items():
        print(f"check {'PASS' if ok else 'FAIL'}  {name}: {detail}")

    setup_s = statistics.median(setup_times)
    print(f"setup: {SETUP_REPEATS} fresh processes, "
          f"{' '.join(f'{t:.3f}' for t in setup_times)} s")
    rows = _end_to_end(ops[:n_plain], setup_s, failed, attempted)
    print("end-to-end metrics (untraced operations):")
    for name, (value, unit) in rows.items():
        text = "n/a on this workload" if value is None else f"{value:.6g} {unit}"
        print(f"  {name:12s} {text}")
    if args.trace:
        # the stage times of the untraced operations ride along as per-layer metrics
        for name in (*STAGES, "stderr_max"):
            value, unit = rows[name]
            metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    else:
        metrics = {name: {"value": rows[name][0], "unit": rows[name][1]} for name in END_TO_END}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _run_untraced(cs, wl, state, args):
    ops = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome = wl.op(cs, state, args.seed)
        dt = time.perf_counter() - t0
        ops.append((outcome, dt))
        print(f"op {len(ops)}: {dt:.4f} s  " + "  ".join(
            f"{k} {v:.4f}" for k, v in outcome.stages.items()))
        elapsed = time.perf_counter() - start
        typical = statistics.median(d for _, d in ops)
        if len(ops) >= wl.min_ops and elapsed + typical > args.seconds:
            return ops, None, len(ops)


def _run_traced(cs, wl, state, args):
    """Untraced and traced operations in pairs, then one traced operation
    under tracemalloc for the allocation peaks."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome = wl.op(cs, state, args.seed)
        plain.append((outcome, time.perf_counter() - t0))
        traced.append(traced_op(cs, wl, state, args.seed, memory=False))
        print(f"pair {len(plain)}: untraced {plain[-1][1]:.4f} s, "
              f"traced {traced[-1].seconds:.4f} s")
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(plain) > args.seconds:
            break
    mem = traced_op(cs, wl, state, args.seed, memory=True)

    absent = {}
    for t in traced + [mem]:
        absent.update(t.absent)
    # known counts and repeatability of every work count
    first = traced[0]
    for name in WORK_COUNTS:
        if _absent_reason(name, absent):
            continue
        runs = {t.values[name] for t in traced + [mem]}
        first.outcome.check(f"{name} repeats across traced operations", len(runs) == 1,
                            f"values {sorted(runs)}")
    if wl.name == "verify-forward" and not _absent_reason("analyzer.verify.anchors.n", absent):
        for kind, want in VERIFY_ESTIMATES.items():
            got = first.values[f"analyzer.verify.{kind}.n"]
            first.outcome.check(f"verify traced {want} {kind} estimates", got == want, f"{got}")
    if wl.name == "oracle-grid" and not _absent_reason("exact.unknowns", absent):
        got = first.values["exact.unknowns"]
        first.outcome.check("traced grid unknowns", got == GRID_UNKNOWNS, f"{got}")

    metrics = {}
    print("per-layer metrics (traced operations; times are medians):")
    for name, (unit, _, _) in PER_LAYER.items():
        reason = _absent_reason(name, absent)
        if reason:
            metrics[name] = {"value": None, "unit": unit, "absent": reason}
            print(f"  {name:30s} absent: {reason}")
            continue
        if name.endswith("peak_alloc_mb"):
            value = mem.values[name]
        elif unit == "s":
            value = statistics.median(t.values[name] for t in traced)
        else:
            value = first.values[name]
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:30s} {value:.6g} {unit}")
    est = metrics["wos.estimate_s"]["value"]
    parts = [metrics[k]["value"] for k in ("wos.kernel_s", "wos.angles_s", "wos.loop_self_s")]
    if est and None not in parts:
        print(f"  kernel + angles + loop self = {sum(parts):.4f} s of estimate {est:.4f} s "
              f"({100 * parts[0] / est:.0f}% / {100 * parts[1] / est:.0f}% / "
              f"{100 * parts[2] / est:.0f}%)")
    untraced_s = statistics.median(dt for _, dt in plain)
    traced_s = statistics.median(t.seconds for t in traced)
    overhead = traced_s / untraced_s - 1.0
    print(f"  tracing overhead: traced {traced_s:.4f} s vs untraced {untraced_s:.4f} s "
          f"= {100 * overhead:+.2f}%")
    # the machine's speed drifts by more than the wrappers cost between two
    # operations; their cost timed on a no-op estimates the true overhead
    cost = wrapper_cost_s() * first.spans
    print(f"  wrapper cost: {first.spans} spans = {cost:.4f} s "
          f"({100 * cost / untraced_s:.3f}% of the untraced operation)")
    metrics["trace.overhead"] = {"value": overhead, "unit": "1"}
    ops = plain + [(t.outcome, t.seconds) for t in traced + [mem]]
    return ops, metrics, len(plain)


def _absent_reason(metric: str, absent: dict) -> str:
    for span in PER_LAYER[metric][2]:
        if span in absent:
            return f"{span}: {absent[span]}"
    return ""


def _end_to_end(ops, setup_s, failed, attempted) -> dict:
    """Name -> (value, unit) of every end-to-end figure, None where the
    workload has no such stage; END_TO_END names the gated ones."""
    outcomes = [o for o, _ in ops]
    rows = {"setup_s": (setup_s, "s")}
    for stage in STAGES:
        vals = [o.stages[stage] for o in outcomes if stage in o.stages]
        rows[stage] = (statistics.median(vals) if vals else None, "s")
    rows["op_s"] = (statistics.median(dt for _, dt in ops), "s")
    rows["peak_rss_mb"] = (_peak_rss_mb(), "MB")
    stderrs = [o.stderr_max for o in outcomes if o.stderr_max is not None]
    rows["stderr_max"] = (max(stderrs) if stderrs else None, "1")
    rows["fail_frac"] = (failed / attempted, "1")
    return rows


# ---------------------------------------------------------------------------
# every workload on two seeds


def run_all(args) -> int:
    """Each workload in its own process on the seed and on the seed + 1,
    one after another; the second seed is fixed by this rule, not chosen."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    summary = []
    for seed in (args.seed, args.seed + 1):
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            total["correct"] &= res["correct"] and proc.returncode == 0
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for metric, v in res["metrics"].items():
                total["metrics"][f"{name}.s{seed}.{metric}"] = v
            summary.append((name, seed, res))
            print()
    print("summary:")
    for name, seed, res in summary:
        shown = "  ".join(
            f"{m} {v['value']:.4g} {v['unit']}" if v["value"] is not None else f"{m} absent"
            for m, v in res["metrics"].items()
        )
        print(f"  {name:15s} seed {seed}: correct {res['correct']}  "
              f"fail_frac {res['failed'] / max(res['attempted'], 1):.3g}  {shown}")
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", choices=list(WORKLOADS), help=argparse.SUPPRESS)
    p.add_argument("--dir", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.setup_probe:
        cs = load_combslope()
        args.dir.mkdir(parents=True, exist_ok=True)
        WORKLOADS[args.setup_probe].setup(cs, args.dir)
        return 0
    require_sources()
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
