import math

import numpy as np
import pytest

from combslope.analyzer import (
    LimitPair,
    OmegaProfile,
    ProfilePoint,
    SlopeInterval,
    TailWindow,
    calibrate_widths,
    render_comb_svg,
    report_to_dict,
    report_to_text,
    slope_interval_from_limits,
    tail_extrema,
    verify_construction,
)
from combslope.comb import (
    assign_widths,
    build_comb,
    plan_backward,
    plan_forward,
    plan_pseudo_strip,
)
from combslope.errors import DomainError, PlanError
from combslope.wos import MeasureEstimate, WosParams


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
