import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from combslope.comb import (
    DROP_TOOTH,
    SEAL_GAP,
    anchor_target,
    assign_widths,
    boundary_distance,
    build_comb,
    domain_from_dict,
    domain_to_dict,
    midpoints,
    plan_backward,
    plan_backward_special,
    plan_forward,
    plan_from_dict,
    plan_pseudo_strip,
    plan_to_dict,
    pseudo_strip,
    surgery,
    usable_anchor_indices,
    witness_rect,
)
from combslope.errors import BuildError, DomainError, PlanError
from combslope.exact import GridProblem, INTERIOR, ONE, ZERO, grid_laplace_measure


@pytest.fixture(scope="module")
def six_plan():
    return plan_forward(-math.pi / 4, math.pi / 6, 6.0, 4)


@pytest.fixture(scope="module")
def six_plan_widths(six_plan):
    return assign_widths(six_plan, [10, 20, 30, 40, 50, 60, 70, 80])


class TestForwardPlan:
    def test_targets_from_angles(self, six_plan):
        assert six_plan.target_limsup == pytest.approx(0.75, abs=1e-15)
        assert six_plan.target_liminf == pytest.approx(1 / 3, abs=1e-15)

    def test_geometric_heights(self, six_plan):
        for k, (r, rho) in enumerate(zip(six_plan.upper_heights, six_plan.lower_depths)):
            assert r == pytest.approx(6.0 ** (k + 1), rel=1e-12)
            assert rho == pytest.approx(3.0 * 6.0 ** (k + 1), rel=1e-12)

    def test_ratio_identities(self, six_plan):
        r, rho = six_plan.upper_heights, six_plan.lower_depths
        for n in range(1, len(r)):
            assert rho[n - 1] / (rho[n - 1] + r[n - 1]) == pytest.approx(0.75, rel=1e-12)
            assert rho[n - 1] / (rho[n - 1] + r[n]) == pytest.approx(1 / 3, rel=1e-12)

    def test_strictly_increasing(self, six_plan):
        assert list(six_plan.upper_heights) == sorted(six_plan.upper_heights)
        assert six_plan.upper_heights[0] < six_plan.upper_heights[1]

    def test_equal_angles_rejected(self):
        with pytest.raises(PlanError):
            plan_forward(0.3, 0.3, 1.0, 2)

    def test_out_of_range_angles_rejected(self):
        with pytest.raises(PlanError):
            plan_forward(-math.pi / 2, 0.1, 1.0, 2)
        with pytest.raises(PlanError):
            plan_forward(0.1, math.pi / 2, 1.0, 2)

    def test_bad_first_height(self):
        with pytest.raises(PlanError):
            plan_forward(-0.5, 0.5, 0.0, 2)

    def test_bad_pair_count(self):
        with pytest.raises(PlanError):
            plan_forward(-0.5, 0.5, 1.0, 0)


class TestBackwardPlan:
    def test_reference_sequences(self):
        plan = plan_backward(-math.pi / 4, math.pi / 6, 1 / 3, 4)
        for k, (r, rho) in enumerate(zip(plan.upper_heights, plan.lower_depths)):
            assert r == pytest.approx((1 / 3) * 6.0 ** (-k), rel=1e-12)
            assert rho == pytest.approx(6.0 ** (-(k + 1)), rel=1e-12)

    def test_same_index_ratio_is_liminf(self):
        plan = plan_backward(-math.pi / 4, math.pi / 6, 1 / 3, 3)
        r, rho = plan.upper_heights, plan.lower_depths
        for rn, rhon in zip(r, rho):
            assert rhon / (rhon + rn) == pytest.approx(1 / 3, rel=1e-12)

    def test_decreasing(self):
        plan = plan_backward(-0.3, 0.4, 1.0, 3)
        assert all(b < a for a, b in zip(plan.upper_heights, plan.upper_heights[1:]))

    def test_equal_angles_allowed(self):
        plan = plan_backward(0.2, 0.2, 1.0, 2)
        assert plan.target_limsup == plan.target_liminf

    def test_bad_height(self):
        with pytest.raises(PlanError):
            plan_backward(-0.4, 0.2, -1.0, 2)


class TestSpecialPlans:
    def test_full_interval_reference_values(self):
        plan = plan_backward_special("full_interval", 1.0, 3)
        # direct recurrence evaluation, cross-checked by hand:
        # r1=1, rho1=1, r2=1/2, rho2=1/4, r3=1/12, rho3=1/36
        assert plan.upper_heights[:3] == pytest.approx((1.0, 0.5, 1 / 12), rel=1e-12)
        assert plan.lower_depths[:3] == pytest.approx((1.0, 0.25, 1 / 36), rel=1e-12)
        assert (plan.target_limsup, plan.target_liminf) == (1.0, 0.0)

    def test_liminf_zero_ratios_vanish(self):
        plan = plan_backward_special("liminf_zero", 1.0, 5, target_limsup=0.75, m=3)
        r, rho = plan.upper_heights, plan.lower_depths
        for i, (rn, rhon) in enumerate(zip(r, rho)):
            n = i + 1
            assert rhon / (rhon + rn) == pytest.approx(1 / (n + 3 + 1), rel=1e-12)
        # cross ratios stay at the limsup target
        for i in range(1, len(r)):
            assert rho[i - 1] / (rho[i - 1] + r[i]) == pytest.approx(0.75, rel=1e-12)

    def test_limsup_one_ratios_approach_one(self):
        plan = plan_backward_special("limsup_one", 1.0, 5, target_liminf=1 / 3, m=5)
        r, rho = plan.upper_heights, plan.lower_depths
        for i in range(1, len(r)):
            n = i + 1
            got = rho[i - 1] / (rho[i - 1] + r[i])
            assert got == pytest.approx((n + 5) / (n + 5 + 1), rel=1e-12)

    def test_m_too_small_names_constraint(self):
        with pytest.raises(PlanError, match="limsup"):
            plan_backward_special("liminf_zero", 1.0, 3, target_limsup=0.05, m=2)
        with pytest.raises(PlanError, match="liminf"):
            plan_backward_special("limsup_one", 1.0, 3, target_liminf=0.9, m=3)

    def test_verbatim_reading_kept_behind_flag(self):
        plan = plan_backward_special(
            "liminf_zero", 1.0, 3, target_limsup=0.75, m=3, verbatim=True
        )
        # the literal reading pins r_n to a constant for n >= 2
        assert plan.upper_heights[1] == plan.upper_heights[2] == pytest.approx(1 / 3)

    def test_unknown_mode(self):
        with pytest.raises(PlanError):
            plan_backward_special("nonsense", 1.0, 3)


class TestWidths:
    def test_prefix_sums(self):
        plan = assign_widths(plan_pseudo_strip(1, 1, 2), [10, 20, 30])
        assert plan.cum_widths == (10.0, 30.0, 60.0)

    def test_must_increase(self):
        with pytest.raises(PlanError):
            assign_widths(plan_pseudo_strip(1, 1, 2), [10, 10, 30])

    def test_midpoints_forward(self):
        plan = assign_widths(plan_pseudo_strip(1, 1, 2), [10, 20, 30])
        assert midpoints(plan) == (5.0, 20.0, 45.0)

    def test_midpoints_backward(self):
        plan = assign_widths(plan_backward(-0.3, 0.4, 1.0, 2), [10, 20, 30])
        assert midpoints(plan) == (-5.0, -20.0, -45.0)

    def test_empty_widths_give_empty_midpoints(self):
        plan = assign_widths(plan_pseudo_strip(1, 1, 2), [])
        assert midpoints(plan) == ()

    def test_too_many_widths(self):
        with pytest.raises(PlanError):
            assign_widths(plan_pseudo_strip(1, 1, 1), [1, 2, 3])


class TestBuildComb:
    def test_reference_anchors(self, six_plan):
        domain = build_comb(assign_widths(six_plan, [10, 20, 30, 40]))
        anchors = [t.ray.anchor for t in domain.teeth]
        assert anchors[0] == pytest.approx(10 + 6j)
        assert anchors[1] == pytest.approx(30 - 18j)
        assert anchors[2] == pytest.approx(60 + 36j)
        assert anchors[3] == pytest.approx(100 - 108j)
        assert [t.label for t in domain.teeth] == ["upper", "lower", "upper", "lower"]

    def test_membership(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        assert domain.contains(0j)
        assert not domain.contains(10 + 6j)  # anchor sits on a removed tooth

    def test_convex_in_positive_direction(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = complex(rng.uniform(-50, 400), rng.uniform(-150, 150))
            if not domain.contains(z):
                continue
            for t in (1.0, 10.0, 100.0):
                assert domain.contains(z + t)

    def test_needs_widths(self, six_plan):
        with pytest.raises(BuildError):
            build_comb(six_plan)

    def test_backward_anchors_negative(self):
        plan = assign_widths(plan_backward(-0.4, 0.3, 1.0, 2), [1, 2, 3, 4])
        domain = build_comb(plan)
        assert all(t.ray.anchor.real < 0 for t in domain.teeth)
        assert domain.teeth[1].ray.anchor.imag < 0  # mirrored lower family

    def test_backward_verbatim_sign_flag(self):
        plan = assign_widths(
            plan_backward(-0.4, 0.3, 1.0, 2, verbatim_tooth_sign=True), [1, 2, 3, 4]
        )
        domain = build_comb(plan)
        assert all(t.ray.anchor.imag > 0 for t in domain.teeth)
        assert all(t.label == "upper" for t in domain.teeth)


class TestWitnessRect:
    def test_first_block_dims(self, six_plan_widths):
        rect = witness_rect(six_plan_widths, 1)
        assert (rect.up, rect.down, rect.width) == (6.0, 18.0, 10.0)
        assert rect.center == 5 + 0j

    def test_second_block_dims(self, six_plan_widths):
        rect = witness_rect(six_plan_widths, 2)
        assert rect.up == pytest.approx(36.0, rel=1e-12)
        assert rect.down == 18.0
        assert rect.width == 20.0

    def test_rect_avoids_teeth_and_borders_lie_on_them(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        rng = np.random.default_rng(3)
        for n in usable_anchor_indices(six_plan_widths):
            rect = witness_rect(six_plan_widths, n)
            for _ in range(200):
                p = complex(
                    rng.uniform(rect.x_lo, rect.x_hi), rng.uniform(rect.y_lo, rect.y_hi)
                )
                if rect.contains(p):
                    assert domain.contains(p)
            top, bottom = rect.horizontal_border()
            for seg in (top, bottom):
                for frac in (0.01, 0.5, 0.99):
                    x = seg.x_lo + frac * (seg.x_hi - seg.x_lo)
                    d, _ = boundary_distance(domain, complex(x, seg.y))
                    assert d == pytest.approx(0.0, abs=1e-9)

    def test_backward_shifted_indices(self):
        plan = assign_widths(plan_backward(-math.pi / 4, math.pi / 6, 1 / 3, 3), [1, 2, 3, 4, 5, 6])
        assert usable_anchor_indices(plan) == (3, 4, 5, 6)
        rect = witness_rect(plan, 3)
        # the covering pair behind the midpoint is the first one
        assert rect.up == plan.upper_heights[0]
        assert rect.down == plan.lower_depths[0]
        with pytest.raises(PlanError):
            witness_rect(plan, 2)

    def test_out_of_range(self, six_plan_widths):
        with pytest.raises(PlanError):
            witness_rect(six_plan_widths, 8)  # last even anchor has no ceiling


class TestAnchorTargets:
    def test_forward_parity(self, six_plan_widths):
        targets = [anchor_target(six_plan_widths, n) for n in usable_anchor_indices(six_plan_widths)]
        assert targets == pytest.approx([0.75, 1 / 3, 0.75, 1 / 3, 0.75, 1 / 3, 0.75], rel=1e-12)

    def test_backward_parity_swapped(self):
        plan = assign_widths(plan_backward(-math.pi / 4, math.pi / 6, 1 / 3, 3), [1, 2, 3, 4, 5, 6])
        targets = [anchor_target(plan, n) for n in usable_anchor_indices(plan)]
        assert targets == pytest.approx([1 / 3, 0.75, 1 / 3, 0.75], rel=1e-12)


class TestBlockCap:
    """Backward plans place their extra upper height as tooth 2n + 1."""

    def test_backward_takes_one_more_width(self):
        plan = plan_backward(-math.pi / 4, math.pi / 6, 1 / 3, 3)
        assert plan.max_blocks == 7
        assert assign_widths(plan, range(1, 8)).n_teeth == 7
        with pytest.raises(PlanError):
            assign_widths(plan, range(1, 9))

    def test_forward_cap_unchanged(self, six_plan):
        assert six_plan.max_blocks == 8
        assert assign_widths(six_plan, range(1, 9)).n_teeth == 8
        with pytest.raises(PlanError):
            assign_widths(six_plan, range(1, 10))

    def test_backward_last_block_is_usable(self):
        plan = assign_widths(plan_backward(-math.pi / 4, math.pi / 6, 1 / 3, 3), range(1, 8))
        assert usable_anchor_indices(plan) == (3, 4, 5, 6, 7)
        rect = witness_rect(plan, 7)
        # witnessed by the last full pair; the extra tooth closes it on the left
        assert (rect.up, rect.down) == (plan.upper_heights[2], plan.lower_depths[2])
        last = build_comb(plan).teeth[-1]
        assert last.ray.anchor == complex(-28.0, plan.upper_heights[3])
        assert last.label == "upper"

    def test_full_interval_reaches_one_over_n_plus_one(self):
        plan = plan_backward_special("full_interval", 1.0, 6)
        assert anchor_target(plan, 11) == pytest.approx(1 / 6, rel=1e-12)
        assert anchor_target(plan, 13) == 1 / 7
        assert anchor_target(plan, 12) == pytest.approx(6 / 7, rel=1e-12)
        plan = assign_widths(plan, range(1, 14))
        assert usable_anchor_indices(plan)[-1] == 13
        witness_rect(plan, 13)


class TestSurgery:
    def test_seal_gap_turns_interior_into_boundary(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        sealed = surgery(domain, SEAL_GAP, 1)
        p = 15 + 6j  # on the sealed segment between the first two anchors
        assert domain.contains(p)
        assert not sealed.contains(p)

    def test_backward_seal_continues_the_tooth_rightward(self):
        # backward teeth extend left from -U_j, so the seal over block 2k - 1
        # runs from -U_{2k-1} to -U_{2k-2} (U_0 = 0), off the tooth itself
        plan = assign_widths(
            plan_backward(-math.pi / 4, math.pi / 6, 6.0, 2), [200 * (i + 1) ** 2 for i in range(5)]
        )
        domain = build_comb(plan)
        u = (0.0, *plan.cum_widths)
        for k in (1, 2):
            sealed = surgery(domain, SEAL_GAP, k)
            seal = sealed.segment
            height = plan.tooth_height(2 * k - 1)
            assert (seal.x_lo, seal.x_hi, seal.y) == (-u[2 * k - 1], -u[2 * k - 2], height)
            p = complex((seal.x_lo + seal.x_hi) / 2, height)
            assert domain.contains(p)
            assert not sealed.contains(p)

    def test_drop_tooth_opens_the_anchor(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        dropped = surgery(domain, DROP_TOOTH, 1)
        assert not domain.contains(10 + 6j)
        assert dropped.contains(10 + 6j)

    def test_inclusions_sampled(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        sealed = surgery(domain, SEAL_GAP, 2)
        dropped = surgery(domain, DROP_TOOTH, 2)
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = complex(rng.uniform(-20, 300), rng.uniform(-120, 120))
            if sealed.contains(z):
                assert domain.contains(z)
            if domain.contains(z):
                assert dropped.contains(z)

    def test_bad_kind_and_index(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        with pytest.raises(DomainError):
            surgery(domain, "weld", 1)
        with pytest.raises(DomainError):
            surgery(domain, SEAL_GAP, 5)

    def test_variants_stay_convex_in_positive_direction(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        rng = np.random.default_rng(23)
        for variant in (surgery(domain, SEAL_GAP, 1), surgery(domain, DROP_TOOTH, 1)):
            for _ in range(60):
                z = complex(rng.uniform(-30, 300), rng.uniform(-120, 120))
                if not variant.contains(z):
                    continue
                for t in (1.0, 10.0, 100.0):
                    assert variant.contains(z + t)


class TestBoundaryDistance:
    def test_brute_force_agreement(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        rng = np.random.default_rng(5)
        # dense sampling of each tooth as an independent oracle
        cloud = []
        for tooth in domain.teeth:
            a = tooth.ray.anchor
            for back in np.linspace(0, 2000, 30001):
                cloud.append(complex(a.real - back, a.imag))
        cloud = np.array(cloud)
        for _ in range(25):
            p = complex(rng.uniform(-30, 300), rng.uniform(-100, 100))
            d, _ = boundary_distance(domain, p)
            brute = np.min(np.abs(cloud - p))
            assert d <= brute + 1e-9
            assert d == pytest.approx(brute, abs=2000 / 30000 + 1e-9)

    def test_points_on_teeth(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        d, _ = boundary_distance(domain, 10 + 6j)
        assert d == 0.0
        d, _ = boundary_distance(domain, -500 + 6j)
        assert d == 0.0

    def test_far_right_sees_anchor_tips(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        p = 500 + 0j
        d, i = boundary_distance(domain, p)
        tips = [abs(t.ray.anchor - p) for t in domain.teeth]
        assert d == pytest.approx(min(tips), rel=1e-12)

    def test_origin_distance_is_first_height(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        d, i = boundary_distance(domain, 0j)
        assert d == 6.0
        assert domain.teeth[i].label == "upper"

    def test_nearest_point(self, six_plan_widths):
        # the nearest boundary point of 5 is 5 + 6i, on the first tooth
        domain = build_comb(six_plan_widths)
        d, i = boundary_distance(domain, 5 + 0j)
        assert (d, i) == (6.0, 0)
        assert domain.teeth[i].ray.anchor == 10 + 6j

    def test_segments_must_follow_half_lines(self, six_plan_widths):
        # the kernel's rows follow the features; a reordered list is refused
        domain = build_comb(six_plan_widths)
        seal = surgery(domain, SEAL_GAP, 2)
        reordered = SimpleNamespace(features=lambda: ((seal.segment, "upper"), *domain.features()))
        with pytest.raises(DomainError):
            boundary_distance(reordered, 5 + 0j)


class TestClassifyHit:
    def test_examples(self, six_plan_widths):
        # a hit takes the label of the feature it lands on
        domain = build_comb(six_plan_widths)
        labels = [label for _, label in domain.features()]
        for hit, want in ((10 + 6j, "upper"), (30 - 18j, "lower")):
            d, i = boundary_distance(domain, hit)
            assert d == 0.0 and labels[i] == want


class TestSerialization:
    def test_plan_round_trip(self, six_plan_widths):
        doc = plan_to_dict(six_plan_widths)
        clone = plan_from_dict(json.loads(json.dumps(doc)))
        assert clone == six_plan_widths

    def test_plan_schema_checked(self):
        with pytest.raises(PlanError):
            plan_from_dict({"schema": "nope"})

    def test_domain_round_trip(self, six_plan_widths):
        domain = build_comb(six_plan_widths)
        clone = domain_from_dict(json.loads(json.dumps(domain_to_dict(domain))))
        assert clone == domain

    def test_domain_schema_checked(self):
        with pytest.raises(BuildError):
            domain_from_dict({"schema": "nope", "teeth": []})


def _comb_grid_problem(domain, eval_x, h, x_lo, x_hi, y_lo, y_hi):
    """Rasterize a comb onto a grid problem (teeth one cell thick)."""
    nx = int(round((x_hi - x_lo) / h)) + 1
    ny = int(round((y_hi - y_lo) / h)) + 1
    xs = x_lo + h * np.arange(nx)
    ys = y_lo + h * np.arange(ny)
    X, Y = np.meshgrid(xs, ys)
    labels = np.full((ny, nx), INTERIOR, dtype=np.int8)
    for tooth in domain.teeth:
        a = tooth.ray.anchor
        on = (np.abs(Y - a.imag) <= h / 2 + 1e-12) & (X <= a.real + 1e-12)
        labels[on] = ONE if a.imag > 0 else ZERO
    labels[0, :] = ZERO
    labels[-1, :] = ONE
    labels[:, 0] = np.where(ys > 0, ONE, ZERO)
    labels[:, -1] = np.where(ys > 0, ONE, ZERO)
    return GridProblem(labels, h, complex(eval_x, 0.0), complex(x_lo, y_lo))


class TestBackwardParityAgainstGrid:
    """The covering pair behind a backward midpoint governs its measure.

    This pins the direction-dependent anchor parity: the grid oracle must
    reproduce the local strip ratio of the *previous* tooth pair, which for
    the full-interval plan separates cleanly (1/3 here) from the ratio of
    the pair ahead (3/4).
    """

    def test_full_interval_midpoint(self):
        plan = assign_widths(
            plan_backward_special("full_interval", 1.0, 3), [2, 4, 6, 8, 10, 12]
        )
        domain = build_comb(plan)
        x5 = midpoints(plan)[4]
        assert x5 == -25.0
        predicted = anchor_target(plan, 5)
        assert predicted == pytest.approx(1 / 3, rel=1e-12)
        # h chosen so the nearby tooth heights (0.5, 0.25) sit exactly on
        # grid rows; the truncated far teeth only matter at exp(-20) level
        problem = _comb_grid_problem(domain, x5, 0.05, -36.0, 2.0, -4.0, 4.0)
        measured = grid_laplace_measure(problem, tol=1e-8)
        assert measured == pytest.approx(predicted, abs=0.02)
        assert abs(measured - 0.75) > 0.3  # the unshifted pairing is far off
