"""The three workloads: their set-up, one operation, and its checks.

Each operation returns an ``Outcome``: a digest of what the program wrote
(two operations on one seed must give the same digest), the pass/fail of
every check, and the wall time of each stage.  The bounds of the checks
come from the acceptance suite in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

THETA1 = "-0.25pi"
THETA2 = repr(math.pi / 6)
PLAN_FLAGS = ["--forward", "--theta1", THETA1, "--theta2", THETA2, "--r1", "6", "--n", "4"]
README_WIDTHS = "432,1152,2592,6912,15552,41472,93312,248832"
VERIFY_ESTIMATES = {"anchors": 7, "between": 18, "surgery": 18}
GRID_UNKNOWNS = 391_804
CALIBRATION_WALKERS = 20_000  # calibrate_widths caps its walkers here


@dataclass
class Outcome:
    digest: str = ""
    checks: list = field(default_factory=list)  # (name, ok, detail)
    stages: dict = field(default_factory=dict)  # stage metric -> seconds
    attempted: int = 0
    failed: int = 0
    stderr_max: float | None = None

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        self.failed += 0 if ok else 1


def _cli(cs, tracer, span: str, argv: list[str]) -> tuple[int, float]:
    """One CLI command in-process, its stdout swallowed; (exit code, seconds)."""
    ctx = tracer.span(span) if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()), ctx:
        t0 = time.perf_counter()
        rc = cs.cli.main(argv)
        dt = time.perf_counter() - t0
    return rc, dt


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def _within(mean: float, target: float, stderr: float) -> tuple[bool, float]:
    tol = max(0.05, 3.0 * stderr)
    return abs(mean - target) <= tol, tol


class VerifyForward:
    name = "verify-forward"
    why = ("the full user pipeline: plan --calibrate then verify at 1e5 walkers, "
           "43 estimates with 7.2 MB temporaries, the surgery runs use the segment branch")
    # one operation takes about 25 s; the traced run repeats it on the same seed
    min_ops = 1
    expected_spans = ("wos.estimate", "wos.kernel", "wos.angles", "analyzer.calibrate",
                      "analyzer.verify", "comb.build", "comb.surgery", "cli.plan", "cli.verify")

    def setup(self, cs, workdir: Path) -> dict:
        return {"plan": workdir / "plan.json", "out": workdir / "report"}

    def op(self, cs, state: dict, seed: int, tracer=None) -> Outcome:
        o = Outcome()
        plan_path, out = str(state["plan"]), state["out"]
        rc, o.stages["plan_s"] = _cli(cs, tracer, "cli.plan", [
            "plan", *PLAN_FLAGS, "--calibrate", "--seed", str(seed), "-o", plan_path])
        o.check("plan exit code", rc == 0, f"rc {rc}")
        rc, o.stages["verify_s"] = _cli(cs, tracer, "cli.verify", [
            "verify", "--plan", plan_path, "--walkers", "100000", "--seed", str(seed),
            "--out-dir", str(out)])
        o.check("verify exit code", rc == 0, f"rc {rc}")
        files = [state["plan"]] + [out / n for n in ("report.json", "report.txt",
                                                     "comb.svg", "profile.csv")]
        o.digest = _digest(files)

        report = json.loads((out / "report.json").read_text())
        plan = cs.comb.plan_from_dict(json.loads(state["plan"].read_text()))
        o.check("overall is not fail", report["overall"] != "fail", report["overall"])
        for row in report["anchors"]:
            target = cs.comb.anchor_target(plan, row["n"])
            ok, tol = _within(row["mean"], target, row["stderr"])
            o.check(f"anchor {row['n']} near its target", ok and row["valid"],
                    f"mean {row['mean']:.5f} target {target:.5f} tol {tol:.4f}")
        for kind in ("anchors", "between", "surgery"):
            for i, row in enumerate(report[kind], 1):
                ok = row["status"] != "fail" and row.get("valid", True)
                o.check(f"{kind} row {i}", ok, f"status {row['status']}")
        n_est = len(report["anchors"]) + len(report["between"]) + 2 * len(report["surgery"])
        o.check("verify ran 43 estimates", n_est == sum(VERIFY_ESTIMATES.values()),
                f"{n_est} estimates")
        for end, want in (("lo", -math.pi / 4), ("hi", math.pi / 6)):
            got = report["interval"][end]
            o.check(f"interval {end} endpoint", abs(got - want) <= 0.05 * math.pi,
                    f"{got / math.pi:+.4f} pi vs {want / math.pi:+.4f} pi")
        o.stderr_max = max(row["stderr"] for row in report["anchors"])
        return o

    def working_set(self, cs, state: dict) -> list[tuple[str, int, int]]:
        plan = cs.comb.plan_from_dict(json.loads(state["plan"].read_text()))
        domain = cs.comb.build_comb(plan)
        sealed = cs.comb.surgery(domain, cs.comb.SEAL_GAP, 1)
        return [("calibration", CALIBRATION_WALKERS, 2),
                ("verify", 100_000, len(sealed.features()))]


class MeasureLarge:
    name = "measure-large"
    why = ("one 1e6-walker estimate at the block-3 anchor of the README comb: "
           "nothing to schedule, temporaries above L2 and inside L3")
    min_ops = 2  # every run checks that one seed gives one output
    expected_spans = ("wos.estimate", "wos.kernel", "wos.angles", "comb.build", "cli.measure")

    def setup(self, cs, workdir: Path) -> dict:
        plan = workdir / "plan.json"
        rc, _ = _cli(cs, None, "cli.plan", [
            "plan", *PLAN_FLAGS, "--widths", README_WIDTHS, "-o", str(plan)])
        if rc != 0:
            raise RuntimeError(f"plan --widths exited with {rc}")
        return {"plan": plan, "out": workdir / "measure.json"}

    def op(self, cs, state: dict, seed: int, tracer=None) -> Outcome:
        o = Outcome()
        rc, o.stages["measure_s"] = _cli(cs, tracer, "cli.measure", [
            "measure", "--plan", str(state["plan"]), "--at", "2880",
            "--walkers", "1000000", "--seed", str(seed), "-o", str(state["out"])])
        o.check("measure exit code", rc == 0, f"rc {rc}")
        o.digest = _digest([state["out"]])
        doc = json.loads(state["out"].read_text())
        plan = cs.comb.plan_from_dict(json.loads(state["plan"].read_text()))
        target = cs.comb.anchor_target(plan, 3)
        ok, tol = _within(doc["mean"], target, doc["stderr"])
        o.check("anchor 3 target is 3/4", target == 0.75, f"target {target}")
        o.check("estimate valid and near target", ok and doc["valid"],
                f"mean {doc['mean']:.5f} target {target:.5f} tol {tol:.4f}")
        # every walker is an operation: a lost walker counts as failed
        o.attempted += doc["walkers"] + doc["lost"]
        o.failed += doc["lost"]
        o.stderr_max = doc["stderr"]
        return o

    def working_set(self, cs, state: dict) -> list[tuple[str, int, int]]:
        plan = cs.comb.plan_from_dict(json.loads(state["plan"].read_text()))
        return [("measure", 1_000_000, len(cs.comb.build_comb(plan).features()))]


class OracleGrid:
    name = "oracle-grid"
    why = ("the 100x4000 strip grid oracle plus the strip-model loop: exact does "
           "the work and wos none")
    # two solves average out the machine's speed drift, which a single
    # 20 s solve shows as a 12% spread between runs
    min_ops = 2
    expected_spans = ("exact.solve", "semigroup.trajectory", "semigroup.slope")
    Y0 = (-0.6, 0.0, 0.6)

    def setup(self, cs, workdir: Path) -> dict:
        problem = cs.exact.strip_problem(1.0, 3.0, rows=100, cols=4000)
        times = [100.0 * (i + 1) / 400 for i in range(400)]
        return {"problem": problem, "times": times}

    def op(self, cs, state: dict, seed: int, tracer=None) -> Outcome:
        # the oracle has no randomness: every seed gives the same inputs
        o = Outcome()
        exact, semigroup = cs.exact, cs.semigroup
        t0 = time.perf_counter()
        grid = exact.grid_laplace_measure(state["problem"])
        slopes = []
        for y0 in self.Y0:
            model = semigroup.StripModel(1.0)
            z = model.koenigs_inverse(complex(0.0, y0))
            si = semigroup.slope_plus(semigroup.trajectory(model, z, state["times"]))
            slopes.append((y0, si.lo, si.hi))
        o.stages["oracle_s"] = time.perf_counter() - t0

        o.digest = hashlib.sha256(repr((grid, slopes)).encode()).hexdigest()
        unknowns = int((state["problem"].labels == exact.INTERIOR).sum())
        o.check("grid unknowns", unknowns == GRID_UNKNOWNS, f"{unknowns}")
        o.check("grid oracle near 3/4", abs(grid - 0.75) < 2e-3,
                f"grid {grid:.8f} err {abs(grid - 0.75):.2e}")
        for y0, lo, hi in slopes:
            want = math.pi * (0.5 - exact.strip_upper_measure(1.0 - y0, 1.0 + y0))
            dev = max(abs(lo - want), abs(hi - want))
            o.check(f"strip model slope at y0 {y0:+.1f}", dev < 1e-3, f"dev {dev:.2e}")
        return o

    def working_set(self, cs, state: dict) -> list[tuple[str, int, int]]:
        rows, cols = state["problem"].shape
        return [("grid field", rows * cols, 1)]


WORKLOADS = {w.name: w for w in (VerifyForward(), MeasureLarge(), OracleGrid())}
