import dataclasses
import math

import numpy as np
import pytest

from combslope import analyzer
from combslope.analyzer import (
    LimitPair,
    OmegaProfile,
    ProfilePoint,
    SlopeInterval,
    TailWindow,
    calibrate_widths,
    judge,
    plan_jobs,
    render_comb_svg,
    report_to_dict,
    report_to_text,
    slope_interval_from_limits,
    tail_extrema,
    verify_construction,
)
from combslope.comb import (
    SurgeryVariant,
    assign_widths,
    build_comb,
    midpoints,
    plan_backward,
    plan_forward,
    plan_pseudo_strip,
)
from combslope.errors import DomainError, PlanError
from combslope.wos import MeasureEstimate, WosParams, estimate_upper_measure


def _est(mean, stderr=0.001):
    return MeasureEstimate(mean, stderr, 10_000, 0, 0.0, True)


def _profile(direction, values, ts=None):
    pts = []
    for i, v in enumerate(values):
        t = ts[i] if ts else float(i + 1) * (1 if direction == "forward" else -1)
        pts.append(ProfilePoint(t, _est(v), i + 1))
    return OmegaProfile(direction, tuple(pts))


class TestSlopeInterval:
    def test_from_limits_examples(self):
        si = slope_interval_from_limits(1.0, 0.0)
        assert (si.lo, si.hi) == pytest.approx((-math.pi / 2, math.pi / 2))
        si = slope_interval_from_limits(0.5, 0.5)
        assert (si.lo, si.hi) == (0.0, 0.0)
        si = slope_interval_from_limits(0.75, 1 / 3)
        assert si.lo == pytest.approx(-math.pi / 4)
        assert si.hi == pytest.approx(math.pi / 6)

    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            slope_interval_from_limits(0.3, 0.6)

    def test_range_enforced(self):
        with pytest.raises(DomainError):
            slope_interval_from_limits(1.2, 0.0)

    def test_order_reversing_on_grid(self):
        grid = [i / 10 for i in range(11)]
        for a in grid:
            for a2 in grid:
                if a2 > a:
                    continue
                si = slope_interval_from_limits(a, a2)
                for b in grid:
                    for b2 in grid:
                        if b2 > b or (b, b2) == (a, a2):
                            continue
                        sj = slope_interval_from_limits(b, b2)
                        if b > a:
                            assert sj.lo < si.lo
                        if b2 > a2:
                            assert sj.hi < si.hi

    def test_singleton_identity(self):
        for a in (0.0, 0.25, 0.8, 1.0):
            assert slope_interval_from_limits(a, a).is_singleton(0.0)

    def test_interval_validation(self):
        with pytest.raises(DomainError):
            SlopeInterval(0.5, 0.4)
        with pytest.raises(DomainError):
            SlopeInterval(-2.0, 0.0)


class TestTailExtrema:
    def test_constant_profile(self):
        lp = tail_extrema(_profile("forward", [0.5] * 6))
        assert (lp.limsup_hat, lp.liminf_hat) == (0.5, 0.5)

    def test_alternating_profile(self):
        lp = tail_extrema(_profile("forward", [0.75, 1 / 3, 0.75, 1 / 3]))
        assert lp.limsup_hat == 0.75
        assert lp.liminf_hat == pytest.approx(1 / 3)

    def test_backward_parity_swaps(self):
        # backward combs put the limsup plateau on even anchors
        lp = tail_extrema(_profile("backward", [1 / 3, 0.75, 1 / 3, 0.75]))
        assert lp.limsup_hat == 0.75
        assert lp.liminf_hat == pytest.approx(1 / 3)

    def test_late_window_is_used(self):
        # early anchors drift; the late window must ignore them
        vals = [0.9, 0.1, 0.76, 0.34, 0.75, 1 / 3]
        lp = tail_extrema(_profile("forward", vals), TailWindow(fraction=0.5))
        assert lp.limsup_hat == pytest.approx(0.75)
        assert lp.liminf_hat == pytest.approx(1 / 3)

    def test_window_extends_for_parity(self):
        vals = [0.7, 0.3, 0.72, 0.31, 0.74]
        lp = tail_extrema(_profile("forward", vals), TailWindow(fraction=0.2))
        assert lp.liminf_hat == pytest.approx(0.31)

    def test_too_few_anchors(self):
        with pytest.raises(DomainError):
            tail_extrema(_profile("forward", [0.5, 0.5, 0.5]))

    def test_bands_come_from_the_extremal_anchors(self):
        ests = [_est(0.75, 0.002), _est(0.33, 0.003), _est(0.74, 0.004), _est(0.34, 0.005)]
        pts = tuple(ProfilePoint(float(i + 1), e, i + 1) for i, e in enumerate(ests))
        lp = tail_extrema(OmegaProfile("forward", pts), TailWindow(fraction=1.0))
        assert lp.limsup_band == pytest.approx(3 * ests[0].smoothed_stderr)
        assert lp.liminf_band == pytest.approx(3 * ests[1].smoothed_stderr)


class TestProfileTypes:
    def test_profile_monotonicity_enforced(self):
        pts = (ProfilePoint(1.0, _est(0.5), 1), ProfilePoint(0.5, _est(0.5), 2))
        with pytest.raises(DomainError):
            OmegaProfile("forward", pts)

    def test_profile_rejects_invalid_estimates(self):
        bad = MeasureEstimate(0.5, 0.01, 100, 50, 0.0, False)
        with pytest.raises(DomainError):
            OmegaProfile("forward", (ProfilePoint(1.0, bad, 1),))

    def test_limit_pair_ordering(self):
        with pytest.raises(DomainError):
            LimitPair(0.3, 0.5, 0.01, 0.01)
        LimitPair(0.5, 0.5, 0.0, 0.0)


class TestCalibration:
    def test_widths_increase_and_floor_applies(self):
        plan = plan_pseudo_strip(1.0, 3.0, 2)
        params = WosParams(walkers=4_000, seed=3)
        out = calibrate_widths(plan, params)
        w = out.block_widths
        assert len(w) == 4
        assert all(b > a for a, b in zip(w, w[1:]))
        # vacuous tolerance at the first block returns the floor width
        assert w[0] == pytest.approx(8.0 * 4.0)
        assert out.widths_mode == "calibrated"

    def test_block_count_follows_direction(self):
        params = WosParams(walkers=2_000, seed=3)
        backward = calibrate_widths(plan_backward(-math.pi / 4, math.pi / 6, 1 / 3, 2), params)
        forward = calibrate_widths(plan_forward(-math.pi / 4, math.pi / 6, 6.0, 2), params)
        for out, count in ((backward, 5), (forward, 4)):
            w = out.block_widths
            assert len(w) == count
            assert all(b > a for a, b in zip(w, w[1:]))

    def test_rejects_plans_with_widths(self):
        plan = assign_widths(plan_pseudo_strip(1.0, 1.0, 1), [10, 20])
        with pytest.raises(PlanError):
            calibrate_widths(plan, WosParams(walkers=100, seed=0))


@pytest.fixture(scope="module")
def pseudo_report():
    plan = assign_widths(plan_pseudo_strip(1.0, 1.0, 3), [16, 18, 20, 23, 26, 30])
    params = WosParams(walkers=8_000, seed=17)
    return verify_construction(plan, params)


class TestVerifyConstruction:
    def test_symmetric_pseudo_strip_gives_singleton_zero(self, pseudo_report):
        rep = pseudo_report
        assert rep.overall == "pass"
        band = rep.limits.limsup_band + rep.limits.liminf_band
        assert abs(rep.interval.lo) <= band
        assert abs(rep.interval.hi) <= band

    def test_no_false_alarms_in_between(self, pseudo_report):
        assert all(r.status == "pass" for r in pseudo_report.between_rows)

    def test_anchor_targets_are_strip_value(self, pseudo_report):
        assert all(r.target == 0.5 for r in pseudo_report.anchor_rows)

    def test_surgery_rows_bracket(self, pseudo_report):
        assert all(r.status == "pass" for r in pseudo_report.surgery_rows)

    def test_wide_bands_mark_inconclusive_not_fail(self):
        plan = assign_widths(plan_pseudo_strip(1.0, 1.0, 3), [16, 18, 20, 23, 26, 30])
        rep = verify_construction(plan, WosParams(walkers=30, seed=5))
        assert rep.overall == "inconclusive"
        assert all(r.status in ("pass", "inconclusive") for r in rep.anchor_rows)
        assert any(r.status == "inconclusive" for r in rep.anchor_rows)

    def test_requires_widths(self):
        with pytest.raises(PlanError):
            verify_construction(plan_pseudo_strip(1, 1, 2), WosParams(walkers=10, seed=0))

    def test_backward_plans_skip_surgery(self):
        plan = assign_widths(plan_backward(-0.5, 0.2, 1.0, 3), [8, 9, 10, 11, 12, 13])
        rep = verify_construction(plan, WosParams(walkers=2_000, seed=9))
        assert rep.surgery_rows == ()
        assert len(rep.anchor_rows) == 4

    def test_is_plan_jobs_then_judge(self, pseudo_report, monkeypatch):
        # verify adds nothing to its parts: it runs each job once, in job
        # order, and its report is the judge's report on those estimates
        plan, params = pseudo_report.plan, pseudo_report.params
        calls = []

        def recording(domain, point, p):
            est = estimate_upper_measure(domain, point, p)
            calls.append(((domain, point, p), est))
            return est

        monkeypatch.setattr(analyzer, "estimate_upper_measure", recording)
        rep = verify_construction(plan, params)
        jobs = plan_jobs(plan, params.seed)
        assert [c for c, _ in calls] == [
            (job.domain, complex(job.t, 0.0), dataclasses.replace(params, seed=job.seed))
            for job in jobs
        ]
        assert rep == judge(plan, params, jobs, [est for _, est in calls])
        assert report_to_dict(rep) == report_to_dict(pseudo_report)


def _never_estimate(*args, **kwargs):
    raise AssertionError("an estimate ran")


class TestPlanJobs:
    # the benchmark's forward plan with its seed-42 calibrated widths
    WIDTHS = [
        431.99999999999994, 1151.9999999999998, 2591.999999999999, 6911.999999999997,
        15551.999999999993, 41471.99999999998, 93311.99999999994, 248831.99999999985,
    ]

    def test_benchmark_forward_plan(self):
        plan = assign_widths(
            plan_forward(-math.pi / 4, math.pi / 6, 6.0, 4), self.WIDTHS, mode="calibrated"
        )
        jobs = plan_jobs(plan, 42)
        assert len(jobs) == 43
        roles = [job.role for job in jobs]
        assert {r: roles.count(r) for r in set(roles)} == {
            "anchor": 7, "between": 18, "sealed": 9, "dropped": 9
        }
        # anchors first, then each in-between sample before its brackets
        assert roles[:7] == ["anchor"] * 7
        assert roles[7:13] == ["between", "sealed", "dropped", "between", "sealed", "dropped"]
        xs = midpoints(plan)
        assert [job.t for job in jobs[:7]] == list(xs[:7])
        surgery_jobs = [job for job in jobs if job.role in ("sealed", "dropped")]
        assert {job.block for job in surgery_jobs} == {1, 3, 5}
        for job in jobs:
            assert isinstance(job.domain, SurgeryVariant) == (job in surgery_jobs)
        # the child seeds behind report.json, written out
        assert jobs[0].seed == 2949826092126892291  # derive_seed(42, 1)
        assert jobs[6].seed == 14769051326987775908  # derive_seed(42, 7)
        assert jobs[7].seed == 18176936610276739249  # derive_seed(42, 1_000_000 + 1000)
        assert jobs[8].seed == 13246708583417637524  # derive_seed(42, 2_000_000 + 1000)
        dropped = [job for job in jobs if job.role == "dropped"]
        assert dropped[-1].block == 5
        assert dropped[-1].seed == 2076505820001205766  # derive_seed(42, 3_000_000 + 5002)

    @pytest.mark.parametrize("n_pairs", [1, 2])
    def test_short_plans_raise_before_any_estimate(self, n_pairs, monkeypatch):
        monkeypatch.setattr(analyzer, "estimate_upper_measure", _never_estimate)
        forward = plan_forward(-math.pi / 4, math.pi / 6, 6.0, n_pairs)
        backward = plan_backward(-math.pi / 4, math.pi / 6, 1 / 3, n_pairs)
        for plan in (forward, backward):
            plan = assign_widths(plan, [10.0 * 2**i for i in range(plan.max_blocks)])
            with pytest.raises(DomainError, match="need at least 4 anchors"):
                plan_jobs(plan, 0)
            with pytest.raises(DomainError, match="need at least 4 anchors"):
                verify_construction(plan, WosParams(walkers=2_000, seed=1))


def _at(mean, walkers=1_000_000, valid=True):
    # a made-up estimate: Bernoulli stderr at the given walker count
    return MeasureEstimate(
        mean, math.sqrt(mean * (1.0 - mean) / walkers), walkers, 0, 0.0, valid
    )


class TestJudge:
    """The judge on made-up estimates: every row on its target but one."""

    PLAN = assign_widths(plan_pseudo_strip(1.0, 1.0, 3), [16, 18, 20, 23, 26, 30])

    @pytest.fixture(autouse=True)
    def _no_monte_carlo(self, monkeypatch):
        monkeypatch.setattr(analyzer, "estimate_upper_measure", _never_estimate)

    def _judge(self, role=None, index=0, est=None):
        jobs = plan_jobs(self.PLAN, 0)
        estimates = [_at(0.5) for _ in jobs]
        if role is not None:
            estimates[[i for i, job in enumerate(jobs) if job.role == role][index]] = est
        return judge(self.PLAN, WosParams(walkers=1_000_000, seed=0), jobs, estimates)

    def test_on_target_passes(self):
        rep = self._judge()
        assert rep.overall == "pass"
        assert (len(rep.anchor_rows), len(rep.between_rows), len(rep.surgery_rows)) == (5, 12, 6)
        assert rep.limits.limsup_hat == rep.limits.liminf_hat == 0.5

    def test_anchor_off_target_fails(self):
        rep = self._judge("anchor", 0, _at(0.56))
        assert rep.anchor_rows[0].status == "fail"
        assert rep.overall == "fail"

    def test_invalid_anchor_fails(self):
        rep = self._judge("anchor", 0, _at(0.5, valid=False))
        assert rep.anchor_rows[0].status == "fail"
        assert rep.overall == "fail"

    @pytest.mark.parametrize("role, index, mean", [
        ("anchor", 0, 0.8), ("between", -1, 0.95), ("sealed", 0, 0.1),
    ])
    def test_wide_band_is_inconclusive_not_fail(self, role, index, mean):
        # the same miss fails at 10^6 walkers, but at 100 walkers 3 sigma
        # exceeds the 0.05 tolerance
        for walkers, status in ((1_000_000, "fail"), (100, "inconclusive")):
            rep = self._judge(role, index, _at(mean, walkers=walkers))
            rows = {"anchor": rep.anchor_rows, "between": rep.between_rows,
                    "sealed": rep.surgery_rows}[role]
            assert rows[index].status == status
            assert rep.overall == status

    def test_wide_anchor_on_target_is_inconclusive(self):
        # an anchor passes only where its band resolves the tolerance
        rep = self._judge("anchor", 0, _at(0.5, walkers=100))
        assert rep.anchor_rows[0].status == "inconclusive"

    def test_invalid_between_sample_fails(self):
        rep = self._judge("between", 0, _at(0.5, valid=False))
        assert rep.between_rows[0].status == "fail"

    def test_a_fail_outranks_an_inconclusive_row(self):
        jobs = plan_jobs(self.PLAN, 0)
        estimates = [_at(0.5) for _ in jobs]
        estimates[0] = _at(0.8, walkers=100)  # anchor 1: inconclusive
        estimates[1] = _at(0.56)  # anchor 2: fail
        rep = judge(self.PLAN, WosParams(), jobs, estimates)
        assert [r.status for r in rep.anchor_rows[:2]] == ["inconclusive", "fail"]
        assert rep.overall == "fail"

    def test_base_below_dropped_fails_surgery(self):
        rep = self._judge("dropped", 1, _at(0.6))
        assert [r.status for r in rep.surgery_rows] == ["pass", "fail"] + ["pass"] * 4
        assert all(r.status == "pass" for r in rep.between_rows)
        assert rep.overall == "fail"

    def test_base_above_sealed_fails_surgery(self):
        rep = self._judge("sealed", 5, _at(0.4))
        assert [r.status for r in rep.surgery_rows] == ["pass"] * 5 + ["fail"]
        assert rep.overall == "fail"

    def test_needs_one_estimate_per_job(self):
        jobs = plan_jobs(self.PLAN, 0)
        with pytest.raises(ValueError):
            judge(self.PLAN, WosParams(), jobs, [_at(0.5)] * (len(jobs) - 1))


class TestReportRendering:
    def test_dict_shape(self, pseudo_report):
        d = report_to_dict(pseudo_report)
        assert d["schema"] == "combslope/report-v1"
        assert d["rng"] == "splitmix64-angles-v1"
        assert d["seed"] == 17
        assert len(d["anchors"]) == len(pseudo_report.anchor_rows)
        assert {"limsup_hat", "liminf_hat", "limsup_band", "liminf_band"} <= set(
            d["limits"]
        )
        assert "elapsed" not in str(d)

    def test_text_mentions_every_anchor(self, pseudo_report):
        text = report_to_text(pseudo_report)
        assert "overall PASS" in text
        for row in pseudo_report.anchor_rows:
            assert f"\n  {row.n:3d}" in text

    def test_svg_renders(self, pseudo_report):
        plan = pseudo_report.plan
        svg = render_comb_svg(build_comb(plan), pseudo_report.anchor_rows)
        assert svg.startswith("<svg")
        assert svg.count("<line") >= len(build_comb(plan).teeth)

    def test_svg_log_scale_differs_for_growing_teeth(self):
        from combslope.comb import plan_forward

        plan = assign_widths(plan_forward(-0.7, 0.5, 1.0, 2), [10, 20, 30, 40])
        dom = build_comb(plan)
        assert render_comb_svg(dom, log_y=True) != render_comb_svg(dom, log_y=False)
