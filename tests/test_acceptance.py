"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy comb
verifications share module-scoped fixtures so the whole suite stays inside
its runtime budgets.
"""

import cmath
import dataclasses
import math
import time

import numpy as np
import pytest

import combslope as cs
from combslope.analyzer import calibrate_widths, verify_construction
from combslope.comb import DROP_TOOTH, SEAL_GAP, anchor_target, midpoints, surgery
from combslope.exact import grid_laplace_measure, rectangle_problem, strip_problem
from combslope.geometry import BoundaryArc, level_set_arc, mobius_to_zero, slope_of, tangent_ray
from combslope.wos import WosParams, estimate_upper_measure


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")


@pytest.fixture(scope="module")
def forward_run():
    """Calibrated 6-growth forward comb, verified at acceptance scale."""
    t0 = time.perf_counter()
    plan = cs.plan_forward(-math.pi / 4, math.pi / 6, 6.0, 4)
    params = WosParams(walkers=100_000, seed=42)
    plan = calibrate_widths(plan, params)
    report = verify_construction(plan, params)
    return plan, params, report, time.perf_counter() - t0


def test_strip_formula_exact_and_grid_oracle():
    t0 = time.perf_counter()
    exact = cs.strip_upper_measure(1.0, 3.0)
    problem = strip_problem(1.0, 3.0, rows=100, cols=4000)
    grid = grid_laplace_measure(problem)
    elapsed = time.perf_counter() - t0
    ok = exact == 0.75 and abs(grid - 0.75) < 2e-3 and elapsed < 30.0
    _report(
        "strip formula vs grid oracle",
        ok,
        f"exact {exact}, grid {grid:.8f} (err {abs(grid - 0.75):.2e}), {elapsed:.1f}s",
    )
    assert exact == 0.75
    assert abs(grid - 0.75) < 2e-3
    assert elapsed < 30.0


def test_level_arc_and_tangent_ray_identities():
    levels = (0.1, 0.25, 0.5, 0.75, 0.9)
    arcs = (
        BoundaryArc(-1, 1),
        BoundaryArc(cmath.exp(2.9j), cmath.exp(0.8j)),
        BoundaryArc(cmath.exp(-1.0j), cmath.exp(-2.4j)),
    )
    worst_slope = 0.0
    worst_angle = 0.0
    for level in levels:
        want = math.pi * (0.5 - level)
        for arc in arcs:
            ray = tangent_ray(level, arc)
            for frac in np.linspace(0.01, 0.95, 20):
                got = slope_of(arc.end, ray.point_at(frac * ray.max_param))
                worst_slope = max(worst_slope, abs(got - want))
            la = level_set_arc(level, arc)
            meet = abs(cmath.phase(la.tangent_at_end() / (-1j * arc.end)))
            worst_angle = max(worst_angle, abs(meet - level * math.pi))
    ok = worst_slope <= 1e-12 and worst_angle <= 1e-9
    _report(
        "level-arc / tangent-ray identities",
        ok,
        f"max slope dev {worst_slope:.2e}, max circle-angle dev {worst_angle:.2e}",
    )
    assert worst_slope <= 1e-12
    assert worst_angle <= 1e-9


def test_pseudo_strip_width_convergence():
    t0 = time.perf_counter()
    rows = []
    for width in (4.0, 8.0, 16.0, 32.0):
        dom = cs.pseudo_strip(1.0, 3.0, width)
        est = estimate_upper_measure(dom, 0j, WosParams(walkers=100_000, seed=42))
        rows.append((width, est))
    elapsed = time.perf_counter() - t0
    errs = [abs(e.mean - 0.75) for _, e in rows]
    lost_frac = max(e.lost_fraction for _, e in rows)
    # the true bias decays with width; past the first doubling it sits below
    # the Monte Carlo noise floor, so the decrease is asserted up to the
    # 3-sigma band of the difference
    decreasing = all(
        errs[i + 1] <= errs[i] + 3.0 * math.hypot(rows[i][1].stderr, rows[i + 1][1].stderr)
        for i in range(len(errs) - 1)
    )
    ok = decreasing and errs[-1] <= 0.01 and lost_frac < 1e-3 and elapsed < 120.0
    _report(
        "pseudo-strip width convergence",
        ok,
        "errors " + ", ".join(f"{w:g}:{e:.5f}" for (w, _), e in zip(rows, errs))
        + f"; lost<= {lost_frac:.2e}; {elapsed:.0f}s",
    )
    assert decreasing
    assert errs[-1] <= 0.01
    assert lost_frac < 1e-3
    assert elapsed < 120.0


def test_forward_comb_anchors_and_interval(forward_run):
    plan, params, report, elapsed = forward_run
    worst = max(abs(r.estimate.mean - r.target) for r in report.anchor_rows)
    lo_err = abs(report.interval.lo - (-math.pi / 4)) / math.pi
    hi_err = abs(report.interval.hi - math.pi / 6) / math.pi
    ok = worst <= 0.05 and lo_err <= 0.05 and hi_err <= 0.05 and elapsed < 900.0
    _report(
        "forward comb anchors and interval",
        ok,
        f"worst anchor dev {worst:.4f}, interval err ({lo_err:.4f}, {hi_err:.4f}) pi, "
        f"{elapsed:.0f}s",
    )
    assert all(r.status == "pass" for r in report.anchor_rows)
    assert worst <= 0.05
    assert lo_err <= 0.05 and hi_err <= 0.05
    assert elapsed < 900.0


def test_sandwich_bounds_hold_everywhere(forward_run):
    _, _, report, _ = forward_run
    violations = [r for r in report.between_rows if r.status != "pass"]
    ok = not violations
    _report(
        "sandwich bounds in between anchors",
        ok,
        f"{len(report.between_rows)} samples, {len(violations)} violations",
    )
    assert len(report.between_rows) >= 18
    assert not violations


@pytest.fixture(scope="module")
def backward_runs():
    params = WosParams(walkers=100_000, seed=42)
    t0 = time.perf_counter()
    plan_b = calibrate_widths(cs.plan_backward(-math.pi / 4, math.pi / 6, 1 / 3, 4), params)
    rep_b = verify_construction(plan_b, params)
    plan_fi = calibrate_widths(cs.plan_backward_special("full_interval", 1.0, 6), params)
    rep_fi = verify_construction(plan_fi, params)
    return rep_b, rep_fi, time.perf_counter() - t0


def test_backward_combs(backward_runs):
    rep_b, rep_fi, elapsed = backward_runs
    failures = []

    worst_b = max(abs(r.estimate.mean - r.target) for r in rep_b.anchor_rows)
    if worst_b > 0.05:
        failures.append(f"backward anchor dev {worst_b:.4f} > 0.05")

    # full-interval: anchors approach 0 and 1 monotonically in the pair index
    lows = [r.estimate.mean for r in rep_fi.anchor_rows if r.n % 2 == 1]
    highs = [r.estimate.mean for r in rep_fi.anchor_rows if r.n % 2 == 0]
    strictly_closer = (
        lows[-1] < lows[-2] < lows[-3] and highs[-1] > highs[-2] > highs[-3]
    )
    if not strictly_closer:
        failures.append(f"last pairs not strictly closer: lows {lows}, highs {highs}")

    lo_err = abs(rep_fi.interval.lo - (-math.pi / 2)) / math.pi
    hi_err = abs(rep_fi.interval.hi - math.pi / 2) / math.pi
    if lo_err > 0.15:
        failures.append(f"interval lo endpoint off by {lo_err:.4f} pi > 0.15 pi")
    if hi_err > 0.15:
        failures.append(f"interval hi endpoint off by {hi_err:.4f} pi > 0.15 pi")
    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.0f}s")

    _report(
        "backward combs (limits and full interval)",
        not failures,
        f"backward dev {worst_b:.4f}; fi lows {lows[-1]:.4f}->0, highs {highs[-1]:.4f}->1; "
        f"endpoints ({lo_err:.4f}, {hi_err:.4f}) pi; {elapsed:.0f}s",
    )
    assert not failures, failures


def test_strip_model_closed_loop():
    t0 = time.perf_counter()
    worst = 0.0
    for y0 in (-0.6, 0.0, 0.6):
        model = cs.StripModel(1.0)
        z = model.koenigs_inverse(complex(0.0, y0))
        traj = cs.trajectory(model, z, [100.0 * (i + 1) / 400 for i in range(400)])
        si = cs.slope_plus(traj)
        want = math.pi * (0.5 - cs.strip_upper_measure(1.0 - y0, 1.0 + y0))
        worst = max(worst, abs(si.lo - want), abs(si.hi - want))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 1.0
    _report("strip-model closed loop", ok, f"max dev {worst:.2e}, {elapsed*1e3:.0f}ms")
    assert worst < 1e-3
    assert elapsed < 1.0


def test_property_suites():
    rng = np.random.default_rng(2024)

    # semigroup law, 500 random triples across both models
    worst_law = 0.0
    for model in (cs.StripModel(1.0), cs.HalfPlaneModel()):
        for _ in range(250):
            z = complex(rng.uniform(-0.65, 0.65), rng.uniform(-0.65, 0.65))
            t, s = rng.uniform(0.0, 5.0, size=2)
            w0 = model.koenigs(z)
            direct = model.koenigs_inverse(w0 + t + s)
            stepped = model.koenigs_inverse(
                model.koenigs(model.koenigs_inverse(w0 + s)) + t
            )
            worst_law = max(worst_law, abs(direct - stepped))

    # conformal invariance of the disk-arc measure, 500 random cases
    worst_mob = 0.0
    for _ in range(500):
        z = rng.uniform(0, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        a = rng.uniform(0, 0.9) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        p1, p2 = rng.uniform(0, 2 * math.pi, size=2)
        if abs(cmath.exp(1j * p1) - cmath.exp(1j * p2)) < 1e-6:
            continue
        arc = BoundaryArc(cmath.exp(1j * p1), cmath.exp(1j * p2))
        t = mobius_to_zero(a)
        worst_mob = max(
            worst_mob,
            abs(cs.disk_arc_measure(z, arc) - cs.disk_arc_measure(t(z), t.apply_arc(arc))),
        )

    # grid-oracle domain monotonicity on 50 nested rectangle pairs
    violations = 0
    for _ in range(50):
        h2 = rng.uniform(1.4, 2.2)
        h1 = rng.uniform(0.8, h2 - 0.3)
        width = rng.uniform(1.5, 3.0)
        ev = complex(rng.uniform(-width / 4, width / 4), h1 * rng.uniform(0.3, 0.7))
        rows1 = 24
        h = h1 / (rows1 - 1)
        rows2 = int(round(h2 / h)) + 1
        small = rectangle_problem(width, h1, rows1, ev, one_side="top",
                                  origin=complex(-width / 2, 0.0))
        big = rectangle_problem(width, (rows2 - 1) * h, rows2, ev, one_side="top",
                                origin=complex(-width / 2, h1 - (rows2 - 1) * h))
        if grid_laplace_measure(small) > grid_laplace_measure(big) + 1e-8:
            violations += 1

    # bit-identical repeat of a seeded estimate
    dom = cs.pseudo_strip(1.0, 3.0, 24.0)
    p = WosParams(walkers=20_000, seed=7)
    e1 = estimate_upper_measure(dom, 0j, p)
    e2 = estimate_upper_measure(dom, 0j, p)
    deterministic = (e1.mean, e1.stderr, e1.walkers_used, e1.lost) == (
        e2.mean, e2.stderr, e2.walkers_used, e2.lost,
    )

    ok = worst_law <= 1e-12 and worst_mob <= 1e-12 and violations == 0 and deterministic
    _report(
        "property suites",
        ok,
        f"law dev {worst_law:.2e}, mobius dev {worst_mob:.2e}, "
        f"monotonicity violations {violations}/50, deterministic {deterministic}",
    )
    assert worst_law <= 1e-12
    assert worst_mob <= 1e-12
    assert violations == 0
    assert deterministic


def test_surgery_ordering(forward_run):
    plan, params, report, _ = forward_run
    rows = list(report.surgery_rows)
    # a tenth sampled point on top of the nine from the verification run
    domain = cs.build_comb(plan)
    xs = midpoints(plan)
    t = 0.5 * (xs[0] + xs[1])
    base = estimate_upper_measure(
        domain, complex(t, 0.0), dataclasses.replace(params, seed=909)
    )
    hi = estimate_upper_measure(
        surgery(domain, SEAL_GAP, 1), complex(t, 0.0),
        dataclasses.replace(params, seed=910),
    )
    lo = estimate_upper_measure(
        surgery(domain, DROP_TOOTH, 1), complex(t, 0.0),
        dataclasses.replace(params, seed=911),
    )
    band_lo = 3.0 * math.hypot(base.stderr, lo.stderr)
    band_hi = 3.0 * math.hypot(base.stderr, hi.stderr)
    extra_ok = lo.mean - band_lo <= base.mean <= hi.mean + band_hi
    ok = extra_ok and len(rows) >= 9 and all(r.status == "pass" for r in rows)
    _report(
        "surgery ordering",
        ok,
        f"{len(rows) + 1} bracketed points, extra point "
        f"{lo.mean:.4f} <= {base.mean:.4f} <= {hi.mean:.4f}",
    )
    assert len(rows) + 1 >= 10
    assert all(r.status == "pass" for r in rows)
    assert extra_ok


def test_calibrated_plans_verify_across_intervals():
    # the paper's construction holds for any interval: narrow, wide and
    # hugging either end, forward and backward, and the full interval; each
    # endpoint must lie within its report's own limit band of the limit the
    # truncated comb reaches, its extreme anchor target
    t0 = time.perf_counter()
    params = WosParams(walkers=20_000, seed=42)
    plans = []
    for lo, hi in ((-0.45, 0.45), (-0.1, 0.1), (-0.45, -0.40), (0.40, 0.45)):
        plans.append(cs.plan_forward(lo * math.pi, hi * math.pi, 6.0, 4))
        plans.append(cs.plan_backward(lo * math.pi, hi * math.pi, 1 / 3, 4))
    plans.append(cs.plan_backward_special("full_interval", 1.0, 4))
    failures, worst = [], 0.0
    for plan in plans:
        plan = calibrate_widths(plan, params)
        report = verify_construction(plan, params)
        name = (f"{plan.direction} {plan.special or ''} targets "
                f"{plan.target_limsup:.3f}, {plan.target_liminf:.3f}")
        if report.overall != "pass":  # every row passed, none inconclusive
            failures.append(f"{name}: overall {report.overall}")
        # forward combs carry the limsup plateau on odd anchors, backward on even
        forward = plan.direction == "forward"
        high = [anchor_target(plan, r.n) for r in report.anchor_rows if (r.n % 2 == 1) == forward]
        low = [anchor_target(plan, r.n) for r in report.anchor_rows if (r.n % 2 == 1) != forward]
        reached_sup, reached_inf = max(high), min(low)
        for end, got, want, band in (
            ("lo", report.interval.lo, math.pi * (0.5 - reached_sup), report.limits.limsup_band),
            ("hi", report.interval.hi, math.pi * (0.5 - reached_inf), report.limits.liminf_band),
        ):
            worst = max(worst, abs(got - want) / (math.pi * band))
            if abs(got - want) > math.pi * band:
                failures.append(
                    f"{name}: {end} {got / math.pi:+.4f} pi, want {want / math.pi:+.4f} pi")
    _report(
        "calibrated plans verify across intervals",
        not failures,
        f"{len(plans)} plans, worst endpoint at {worst:.2f} of its band, "
        f"{time.perf_counter() - t0:.1f}s",
    )
    assert not failures, failures
