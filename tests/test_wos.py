import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combslope.analyzer import plan_jobs
from combslope.comb import (
    DROP_TOOTH,
    SEAL_GAP,
    CombDomain,
    Tooth,
    assign_widths,
    boundary_distance,
    build_comb,
    plan_backward,
    plan_forward,
    pseudo_strip,
    surgery,
)
from combslope import wos
from combslope.errors import DomainError, EstimationError
from combslope.geometry import HalfLine
from combslope.exact import pseudo_strip_upper_measure, strip_upper_measure
from combslope.wos import (
    RNG_ALGORITHM,
    MeasureEstimate,
    WosParams,
    _STEP_SALT,
    _mix64,
    _step_keys,
    _uniform_angles,
    derive_seed,
    estimate_profile,
    estimate_to_dict,
    estimate_upper_measure,
    profile_to_csv,
)


def _angles(seed_mixed, ids, step):
    """Every walker's angle at one step."""
    return _uniform_angles(ids, _step_keys(seed_mixed, step + 1)[step])


class TestStream:
    """The angle stream is versioned; these values must never change."""

    def test_frozen_mix64(self):
        assert _mix64(0) == 0
        assert _mix64(1) == 6238072747940578789

    def test_frozen_derive_seed(self):
        assert derive_seed(0, 0) == 16294208416658607535
        assert derive_seed(42, 7) == 14769051326987775908

    def test_frozen_angles(self):
        ids = np.arange(4, dtype=np.uint64)
        got = _angles(_mix64(1), ids, 3)
        want = [
            0.2165345885196064,
            2.5548394035497424,
            4.275552244433822,
            0.5971527570685436,
        ]
        assert got == pytest.approx(want, abs=0.0)

    def test_step_keys_follow_the_scalar_rule(self):
        seed_mixed = _mix64(11)
        keys = _step_keys(seed_mixed, 100_000)
        assert keys.dtype == np.uint64 and keys.size == 100_000
        for s in [*range(300), 99_999]:
            assert int(keys[s]) == _mix64(seed_mixed + (s + 1) * _STEP_SALT)
        # a longer table extends a shorter one
        assert np.array_equal(_step_keys(seed_mixed, 300), keys[:300])

    def test_angles_depend_only_on_walker_and_step(self):
        # batching must not matter: a sub-slice sees identical values
        ids = np.arange(100, dtype=np.uint64)
        all_angles = _angles(_mix64(9), ids, 17)
        sub = _angles(_mix64(9), ids[40:50], 17)
        assert np.array_equal(all_angles[40:50], sub)

    def test_walkers_at_different_steps_draw_in_one_call(self):
        # a refilled pool: older walkers at later steps, in one draw
        seed_mixed = _mix64(9)
        ids = np.arange(40, 140, dtype=np.uint64)
        steps = np.repeat([25, 7, 3, 0], 25)
        mixed = _uniform_angles(ids, _step_keys(seed_mixed, 26).take(steps))
        for s in (25, 7, 3, 0):
            at = steps == s
            assert np.array_equal(mixed[at], _angles(seed_mixed, ids[at], s))
        # the same walker at another step draws another angle
        assert not np.array_equal(mixed[:25], _angles(seed_mixed, ids[:25], 7))

    def test_angle_range(self):
        ids = np.arange(10_000, dtype=np.uint64)
        a = _angles(_mix64(3), ids, 0)
        assert a.min() >= 0.0 and a.max() < 2 * math.pi
        assert abs(a.mean() - math.pi) < 0.05

    def test_algorithm_name_pinned(self):
        assert RNG_ALGORITHM == "splitmix64-angles-v1"


class TestParams:
    def test_validation(self):
        with pytest.raises(EstimationError):
            WosParams(walkers=0)
        with pytest.raises(EstimationError):
            WosParams(epsilon_shell=0.0)
        with pytest.raises(EstimationError):
            WosParams(max_steps=0)
        for bad in (math.nan, -1.0, 1.5):
            with pytest.raises(EstimationError):
                WosParams(max_lost_fraction=bad)
        # calibration tolerates every lost walker
        assert WosParams(max_lost_fraction=1.0).max_lost_fraction == 1.0


class TestEstimator:
    def test_pseudo_strip_three_quarters(self):
        dom = pseudo_strip(1.0, 3.0, 32.0)
        est = estimate_upper_measure(dom, 0j, WosParams(walkers=20_000, seed=2))
        assert abs(est.mean - 0.75) < max(0.01, 3 * est.stderr)
        assert est.stderr == pytest.approx(
            math.sqrt(est.mean * (1 - est.mean) / est.walkers_used)
        )
        assert est.valid

    def test_symmetric_half(self):
        dom = pseudo_strip(2.0, 2.0, 40.0)
        est = estimate_upper_measure(dom, 0j, WosParams(walkers=20_000, seed=3))
        assert abs(est.mean - 0.5) < 4 * est.stderr

    def test_matches_exact_ratio_for_other_proportions(self):
        dom = pseudo_strip(2.0, 1.0, 30.0)
        est = estimate_upper_measure(dom, 0j, WosParams(walkers=20_000, seed=4))
        assert abs(est.mean - strip_upper_measure(2.0, 1.0)) < max(0.01, 3 * est.stderr)

    def test_deterministic_repeat(self):
        dom = pseudo_strip(1.0, 3.0, 16.0)
        p = WosParams(walkers=5_000, seed=5)
        a = estimate_upper_measure(dom, 0j, p)
        b = estimate_upper_measure(dom, 0j, p)
        assert (a.mean, a.stderr, a.walkers_used, a.lost) == (
            b.mean,
            b.stderr,
            b.walkers_used,
            b.lost,
        )

    def test_seed_changes_result(self):
        dom = pseudo_strip(1.0, 3.0, 16.0)
        a = estimate_upper_measure(dom, 0j, WosParams(walkers=5_000, seed=5))
        b = estimate_upper_measure(dom, 0j, WosParams(walkers=5_000, seed=6))
        assert a.mean != b.mean

    def test_rescale_invariance_of_scaled_domain(self):
        # the same geometry at 1000x scale gives the identical estimate
        a = estimate_upper_measure(
            pseudo_strip(1.0, 3.0, 24.0), 0j, WosParams(walkers=2_000, seed=8)
        )
        b = estimate_upper_measure(
            pseudo_strip(1000.0, 3000.0, 24000.0), 0j, WosParams(walkers=2_000, seed=8)
        )
        assert a.mean == b.mean

    def test_labels_decide_classification(self):
        # a hit counts by its feature's label, whatever the feature's height
        teeth = pseudo_strip(1.0, 1.0, 30.0).teeth
        relabeled = CombDomain(tuple(Tooth(t.ray, "upper") for t in teeth), "forward", 1)
        est = estimate_upper_measure(relabeled, 0j, WosParams(walkers=5_000, seed=9))
        assert est.mean == 1.0

    def test_start_too_close_to_boundary(self):
        dom = pseudo_strip(1.0, 1.0, 20.0)
        # absolute-units check: under rescale the shell is relative to the
        # starting distance, so only an exact boundary point is rejected
        with pytest.raises(EstimationError):
            estimate_upper_measure(
                dom, 10 + 0.9999999j, WosParams(walkers=10, seed=0, rescale=False)
            )
        with pytest.raises(EstimationError):
            estimate_upper_measure(dom, 3 + 1j, WosParams(walkers=10, seed=0))

    def test_overflowing_start_distance_is_named(self):
        # the squared-distance kernel reads a distance above about 1.3e154 as
        # inf; that is an overflow, not a start inside the epsilon shell
        with pytest.raises(EstimationError, match="overflows") as info:
            estimate_upper_measure(pseudo_strip(1.0, 3.0, 8.0), 1e155 + 0j, WosParams(walkers=10))
        assert "shell" not in str(info.value)

    def test_overflowing_feature_distance_is_inf_in_the_walk(self):
        # a tooth more than about 1.3e154 start distances away squares to inf
        # in the walk's kernel, the right distance for it, without numpy's
        # overflow warning; the tally is the one without that tooth
        def tally(anchors):
            teeth = tuple(Tooth(HalfLine(a), label) for a, label in anchors)
            est = estimate_upper_measure(
                CombDomain(teeth, "forward", 1), 0j, WosParams(walkers=3000, seed=1)
            )
            return dataclasses.replace(est, elapsed=0.0)

        pair = [(0.5 + 1j, "upper"), (0.5 - 3j, "lower")]
        assert tally(pair + [(0.5 + 1e160j, "upper")]) == tally(pair)

    def test_features_inside_one_shell_are_named(self):
        # from 1e150 the teeth 2 apart lie within 2e-150 start distances of
        # each other: every distance ties, and the estimate read 1.0 with
        # stderr 0 where symmetry makes it 1/2
        dom = pseudo_strip(1.0, 1.0, 2.0)
        with pytest.raises(EstimationError, match="tell the upper features from the lower"):
            estimate_upper_measure(dom, 1e150 + 0j, WosParams(walkers=2_000))
        # a start point whose shell still resolves the teeth estimates as before
        est = estimate_upper_measure(dom, 1e5 + 0j, WosParams(walkers=2_000))
        assert abs(est.mean - 0.5) < 3 * est.stderr

    @pytest.mark.parametrize("point", [complex(math.nan, 0.0), complex(math.inf, 0.0)])
    def test_non_finite_start_point_is_a_domain_error(self, point):
        with pytest.raises(DomainError, match="non-finite"):
            estimate_upper_measure(pseudo_strip(1.0, 3.0, 8.0), point, WosParams(walkers=10))

    def test_lost_walkers_reported_not_dropped(self):
        dom = pseudo_strip(1.0, 3.0, 8.0)
        p = WosParams(walkers=2_000, seed=1, max_steps=12, max_lost_fraction=1e-3)
        est = estimate_upper_measure(dom, 0j, p)
        assert est.lost > 0
        assert est.walkers_used + est.lost == 2_000
        assert not est.valid  # lost fraction above the threshold is flagged
        assert est.lost_fraction == est.lost / 2_000

    def test_all_lost_raises(self):
        dom = pseudo_strip(1.0, 3.0, 8.0)
        with pytest.raises(EstimationError):
            estimate_upper_measure(dom, 0j, WosParams(walkers=50, seed=1, max_steps=1))

    def test_unbiased_at_symmetry_across_seeds(self):
        dom = pseudo_strip(1.5, 1.5, 30.0)
        hits = 0
        for seed in range(20):
            est = estimate_upper_measure(dom, 0j, WosParams(walkers=4_000, seed=seed))
            if abs(est.mean - 0.5) < 4 * est.stderr:
                hits += 1
        assert hits >= 19

    @pytest.mark.parametrize("width", [1.0, 2.0, 4.0, 8.0, 16.0])
    def test_two_tooth_oracle_within_three_sigma(self, width):
        # the short widths put the start point near the tips
        est = estimate_upper_measure(
            pseudo_strip(1.0, 3.0, width), 0j, WosParams(walkers=20_000, seed=42)
        )
        exact = pseudo_strip_upper_measure(1.0, 3.0, width, 0j)
        assert est.lost == 0
        assert est.valid
        assert abs(est.mean - exact) <= 3.0 * est.stderr

    def test_uncapped_radius_matches_physics(self):
        dom = pseudo_strip(1.0, 3.0, 32.0)
        est = estimate_upper_measure(dom, 0j, WosParams(walkers=10_000, seed=12))
        assert abs(est.mean - 0.75) < max(0.015, 4 * est.stderr)


README_WIDTHS = [432, 1152, 2592, 6912, 15552, 41472, 93312, 248832]


@pytest.fixture(scope="module")
def readme_comb():
    plan = assign_widths(plan_forward(-math.pi / 4, math.pi / 6, 6.0, 4), README_WIDTHS)
    return build_comb(plan)


def _tally(domain, t, params):
    est = estimate_upper_measure(domain, complex(t, 0.0), params)
    return est.mean, est.stderr, est.walkers_used, est.lost


class TestGoldenTallies:
    """Fixed-seed tallies; a kernel that rounds differently moves them."""

    def test_readme_comb_block_3_anchor(self, readme_comb):
        got = _tally(readme_comb, 2880.0, WosParams(walkers=3_000, seed=42))
        assert got == (0.758, 0.007819548154038911, 3000, 0)

    def test_sealed_surgery_past_the_seal(self, readme_comb):
        # just past the sealed first tooth's new anchor, U_2 = 1584
        sealed = surgery(readme_comb, SEAL_GAP, 1)
        got = _tally(sealed, 1590.0, WosParams(walkers=3_000, seed=42))
        assert got == (0.694, 0.008413560482934679, 3000, 0)

    def test_readme_comb_block_3_anchor_walker_steps(self, readme_comb):
        est = estimate_upper_measure(readme_comb, 2880 + 0j, WosParams(walkers=3_000, seed=42))
        assert est.walker_steps == 10_544


def _backward_comb():
    plan = plan_backward(-math.pi / 4, math.pi / 6, 6.0, 3)
    return build_comb(assign_widths(plan, [200 * (i + 1) ** 2 for i in range(7)]))


class TestWholeEstimates:
    """Whole estimates at 20,000 walkers, seed 9, pinned: mean, stderr,
    walkers used, lost, valid and walker-steps.  A rework of the walk that
    keeps tallies bit-identical keeps every one of them; each case guards a
    rule that such a rework can break."""

    @staticmethod
    def _whole(domain, t, **params):
        params = WosParams(walkers=20_000, seed=9, **params)
        est = estimate_upper_measure(domain, complex(t, 0.0), params)
        return est.mean, est.stderr, est.walkers_used, est.lost, est.valid, est.walker_steps

    def test_block_5_anchor_unscaled(self, readme_comb):
        # unscaled, d2 = 3 d holds exactly at this anchor: the half-disk
        # gate must compare the computed ratio d2 / d with 3
        got = self._whole(readme_comb, 18864.0, rescale=False)
        assert got == (0.75105, 0.003057563552078681, 20_000, 0, True, 70_111)

    def test_lost_walkers_at_a_short_budget(self):
        # a walker that leaves through a wall's diameter on its last step
        # is lost, like every walker still out after max_steps
        got = self._whole(pseudo_strip(1.0, 3.0, 8.0), 0.0, max_steps=12)
        assert got == (0.7575991359358124, 0.0030733015786747466, 19_443, 557, False, 73_011)

    def test_dropped_variant(self, readme_comb):
        got = self._whole(surgery(readme_comb, DROP_TOOTH, 1), 400.0)
        assert got == (0.33845, 0.003345904941118322, 20_000, 0, True, 74_965)

    def test_sealed_variant(self, readme_comb):
        got = self._whole(surgery(readme_comb, SEAL_GAP, 1), 1590.0)
        assert got == (0.6848, 0.003285186143888958, 20_000, 0, True, 221_693)

    def test_backward_anchors(self):
        dom = _backward_comb()
        assert self._whole(dom, -100.0) == (
            0.8891, 0.002220373729803161, 20_000, 0, True, 342_208)
        assert self._whole(dom, -600.0, rescale=False) == (
            0.99435, 0.0005300036556477721, 20_000, 0, True, 24_657)


def _foot_clearance(p: complex, geom) -> float:
    """Distance from ``p`` to one closed half-line, in plain Python."""
    a = geom.anchor
    return math.hypot(p.real - min(p.real, a.real), p.imag - a.imag)


def _tangent(theta):
    """The half-angle tangent both steps share, as the walk computes it."""
    return np.tan(theta * 0.5)


def _trig_exit(d, radius, theta):
    """The half-disk exit law in its trigonometric form, from the walker's
    angle: ``phi = 4 atan(d/R)``, ``s = cos phi + sin phi tan(pi (U - 1/2))``,
    ``U = theta / 2 pi``; ``s >= 0`` leaves through the diameter, else the
    walker moves along and away from the wall by ``zeta = R (w - 1)/(w + 1)``,
    ``w = i sqrt(-s)``.  Returns ``(exits, along, away)``."""
    phi = 4.0 * np.arctan(d / radius)
    s = np.cos(phi) + np.sin(phi) * np.tan((theta / (2.0 * np.pi) - 0.5) * np.pi)
    q = np.maximum(-s, 0.0)
    return s >= 0.0, radius * (q - 1.0) / (q + 1.0), 2.0 * radius * np.sqrt(q) / (q + 1.0)


def _wall_walkers(d, radius, side, n):
    """``n`` walkers at depth ``d`` on ``side`` of one half-line along
    ``Im = 0`` ending at ``x = 0``, at ``x = -R``, with the arrays the step
    reads: ``(feats, x, y, near, second, index)``."""
    feats = wos._FeatureArrays([(HalfLine(0j), "upper")])
    x, y = np.full(n, -radius), np.full(n, side * d)
    return feats, x, y, np.full(n, d), np.full(n, np.inf), np.zeros(n, dtype=np.intp)


class TestHalfDiskStep:
    """The exact wall step: where it may be taken, and its exit law."""

    def test_half_disk_is_clear_of_every_other_feature(self, readme_comb):
        sealed = surgery(readme_comb, SEAL_GAP, 1)
        geoms = [g for g, _ in sealed.features()]
        feats = wos._FeatureArrays(sealed.features())
        rng = np.random.default_rng(5)
        # points just off each feature, from deep in its wall to past its end
        k = rng.integers(0, len(geoms), 4_000)
        lo = feats.x_hi[k] - 10.0 ** rng.uniform(-3, 4, k.size)
        x = rng.uniform(lo - 5.0, feats.x_hi[k] + 5.0)
        y = feats.wall_y[k] + rng.choice([-1, 1], k.size) * 10.0 ** rng.uniform(-4, 1.5, k.size)
        second, index = np.empty_like(x), np.empty(x.shape, dtype=np.intp)
        near = feats.distances(x, y, second, index)
        theta = _angles(_mix64(5), np.arange(x.size, dtype=np.uint64), 0)
        d, d2 = near.copy(), second.copy()
        exits, j, radius = wos._half_disk_steps(
            feats, x.copy(), y.copy(), near, second, index, _tangent(theta))
        assert 500 < j.size < x.size
        for w, r in zip(j.tolist(), radius.tolist()):
            f = index[w]
            foot = complex(x[w], feats.wall_y[f])
            assert 2 * d[w] < r <= d2[w] - d[w]
            assert r <= feats.x_hi[f] - x[w]
            # the triangle inequality, up to the rounding of d2 - d
            others = [_foot_clearance(foot, g) for i, g in enumerate(geoms) if i != f]
            assert min(others) >= r * (1.0 - 1e-12)
        assert 0 < exits.size < j.size and np.isin(exits, j).all()
        assert (near[np.setdiff1d(j, exits)] == 0.0).all()

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_exit_law_at_fixed_depth_and_radius(self, side):
        d, radius, n = 0.3, 1.0, 200_000
        feats, x, y, near, second, index = _wall_walkers(d, radius, side, n)
        x0, y0 = x.copy(), y.copy()
        theta = _angles(_mix64(17), np.arange(n, dtype=np.uint64), 0)
        exits, j, got = wos._half_disk_steps(feats, x, y, near, second, index, _tangent(theta))
        assert j.size == n and (got == radius).all()
        # walkers that leave through the diameter stay put: the walk absorbs them
        assert (x[exits] == x0[exits]).all() and (y[exits] == y0[exits]).all()
        p = 1.0 - 4.0 * math.atan(d / radius) / math.pi
        assert abs(exits.size / n - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)
        arc = np.setdiff1d(j, exits)
        zeta = (x - x0)[arc] + 1j * np.abs(y[arc])
        assert np.abs(np.abs(zeta) - radius).max() <= 1e-12
        assert (np.sign(y[arc]) == side).all()
        assert (near[arc] == 0.0).all()

    @pytest.mark.parametrize("side", [1.0, -1.0])
    @pytest.mark.parametrize("r", [0.05, 0.3, 0.45])
    def test_rational_law_matches_the_trigonometric_one(self, r, side):
        # U = 0 (t = 0), U = 1/2 (t about 1.6e16) and the largest U below 1,
        # as the angle stream draws them, then a sweep of U; the sweep keeps
        # 2**-20 from U = 0, where pi (U - 1/2) loses the low bits of U and
        # the trigonometric form with them (at U = 0 both see tan(-pi/2)
        # in doubles)
        half = 1 << 52
        k = np.concatenate([
            np.array([0, half, 2 * half - 1], dtype=np.uint64),
            np.linspace(1 << 33, 2 * half - 1, 20_001).astype(np.uint64),
        ])
        theta = k * wos._ANGLE_UNIT
        radius = 2.0
        feats, x, y, near, second, index = _wall_walkers(r * radius, radius, side, k.size)
        x0 = x.copy()
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            exits, j, _ = wos._half_disk_steps(feats, x, y, near, second, index, _tangent(theta))
        assert j.size == k.size
        assert np.isfinite(x).all() and np.isfinite(y).all()
        want_exit, along, away = _trig_exit(r * radius, radius, theta)
        got_exit = np.zeros(k.size, dtype=bool)
        got_exit[exits] = True
        assert (got_exit == want_exit).all()
        arc = ~got_exit
        assert np.abs((x - x0)[arc] - along[arc]).max() <= 1e-12 * radius
        assert np.abs(y[arc] - side * away[arc]).max() <= 1e-12 * radius
        # U = 0 reaches the arc next to the tip, U = 1/2 leaves through the
        # diameter only where phi < pi/2, the largest U leaves through it
        assert not got_exit[0] and (x - x0)[0] > radius * (1.0 - 1e-6)
        assert got_exit[1] == (4.0 * math.atan(r) < math.pi / 2.0)
        assert got_exit[2]


class TestPlainStep:
    """The plain step's direction, from the half-angle tangent."""

    def test_direction_matches_cos_and_sin(self):
        # U = k / 2**53: a dense sweep, then 0, 1/4, 1/2, 3/4, 1/2 -+ 2**-53
        # and the largest U below 1, as the angle stream draws them
        half = 1 << 52
        special = [0, half >> 1, half, 3 * (half >> 1), half - 1, half + 1, 2 * half - 1]
        k = np.concatenate([
            np.linspace(0, 2 * half - 1, 1_000_001).astype(np.uint64),
            np.array(special, dtype=np.uint64),
        ])
        theta = k * wos._ANGLE_UNIT
        x, y = np.zeros(k.size), np.zeros(k.size)
        wos._plain_step(x, y, np.ones(k.size), _tangent(theta), np.empty(k.size))
        assert np.isfinite(x).all() and np.isfinite(y).all()
        assert np.abs(x - np.cos(theta)).max() <= 4e-16
        assert np.abs(y - np.sin(theta)).max() <= 4e-16
        # U = 1/2 draws theta = pi, where tan(theta / 2) is largest
        at_pi = theta == math.pi
        assert at_pi.any() and (x[at_pi] == -1.0).all()

    def test_step_has_the_radius(self):
        theta = _angles(_mix64(3), np.arange(10_000, dtype=np.uint64), 0)
        near = 10.0 ** np.linspace(-6, 6, theta.size)
        x, y = np.full(theta.size, 2.0), np.full(theta.size, -1.0)
        wos._plain_step(x, y, near, _tangent(theta), np.empty(theta.size))
        assert np.allclose(np.hypot(x - 2.0, y + 1.0), near, rtol=1e-15, atol=1e-15)


def _outcome(domain, t, params):
    """An estimate's tally, or the text of the error it raised."""
    try:
        return _tally(domain, t, params)
    except EstimationError as exc:
        return str(exc)


class TestChunks:
    """The walker pool: at most ``_CHUNK`` walkers, refilled with the next
    walker ids as others are absorbed.  Its size never changes a result,
    and it bounds an estimate's memory."""

    def test_chunk_size_never_changes_the_tally(self, readme_comb, monkeypatch):
        # 1,003 walkers: a multiple of neither 7 nor 1000
        default = wos._CHUNK
        for max_steps in (1, 2, 3, 100_000):
            p = WosParams(walkers=1_003, seed=42, max_steps=max_steps)
            monkeypatch.setattr(wos, "_CHUNK", default)
            want = _outcome(readme_comb, 2880.0, p)
            if max_steps < 3:
                # no walker reaches a wall in its first step: every one is lost
                assert want == (f"all 1003 walkers lost (max_steps = {max_steps}, "
                                "epsilon_shell = 1e-06, scale = 35.99999999999999)")
            for chunk in (1, 7, 1000):
                monkeypatch.setattr(wos, "_CHUNK", chunk)
                assert _outcome(readme_comb, 2880.0, p) == want

    def test_lost_walkers_add_up_across_chunks(self, monkeypatch):
        dom = pseudo_strip(1.0, 3.0, 8.0)
        default = wos._CHUNK
        for max_steps in (1, 2, 3, 12):
            p = WosParams(walkers=2_000, seed=1, max_steps=max_steps)
            monkeypatch.setattr(wos, "_CHUNK", default)
            want = _outcome(dom, 0.0, p)
            if max_steps < 3:
                assert want.startswith("all 2000 walkers lost")
            else:
                assert want[3] > 0
            for chunk in (1, 7, 1000):
                monkeypatch.setattr(wos, "_CHUNK", chunk)
                assert _outcome(dom, 0.0, p) == want

    def test_the_pool_is_refilled(self, readme_comb, monkeypatch):
        # walkers enter as others leave, so 32 times the walkers take far
        # fewer than 32 times the kernel passes: a loop over chunks of the
        # pool's size would pay every chunk's tail
        monkeypatch.setattr(wos, "_CHUNK", 1024)
        calls = []
        kernel = wos._FeatureArrays.distances

        def counted(self, *args):
            calls[-1] += 1
            return kernel(self, *args)

        monkeypatch.setattr(wos._FeatureArrays, "distances", counted)
        for seed in (42, 1, 2):
            for walkers in (1_024, 32_768):
                calls.append(0)
                estimate_upper_measure(readme_comb, 2880 + 0j, WosParams(walkers=walkers, seed=seed))
            assert calls[-1] <= 12 * calls[-2]

    def test_the_key_table_doubles_up_to_max_steps(self, readme_comb, monkeypatch):
        # the table follows the pool's largest step, wherever that walker
        # sits, and never holds a key past the last step
        counts = []
        step_keys = wos._step_keys

        def recorded(seed_mixed, count):
            counts.append(count)
            return step_keys(seed_mixed, count)

        monkeypatch.setattr(wos, "_step_keys", recorded)
        cases = ((readme_comb, 2880.0, 1_003, 42), (pseudo_strip(1.0, 3.0, 8.0), 0.0, 2_000, 1))
        grown = 0
        for domain, t, walkers, seed in cases:
            # at 100 steps the table grows past its first 64 keys
            for max_steps, chunks in ((3, (1, 7, 1000)), (12, (1, 7, 1000)), (100, (1000,))):
                p = WosParams(walkers=walkers, seed=seed, max_steps=max_steps)
                for chunk in chunks:
                    monkeypatch.setattr(wos, "_CHUNK", chunk)
                    counts.clear()
                    _outcome(domain, t, p)
                    assert counts == [min(64 << i, max_steps) for i in range(len(counts))]
                    grown += len(counts) > 1
        assert grown

    def test_memory_is_bounded_by_the_chunk(self, readme_comb, monkeypatch):
        monkeypatch.setattr(wos, "_CHUNK", 1024)
        peaks = []
        for walkers in (4_096, 32_768):
            p = WosParams(walkers=walkers, seed=42)
            tracemalloc.start()
            try:
                estimate_upper_measure(readme_comb, 2880 + 0j, p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

    def test_memory_of_a_large_estimate(self, readme_comb):
        # one 10**6-walker estimate at the default pool size
        tracemalloc.start()
        try:
            estimate_upper_measure(readme_comb, 2880 + 0j, WosParams(walkers=1_000_000, seed=42))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


class TestDrop:
    """Removing walkers from the pool: the survivors from its tail fill the
    holes, so the pool's order changes but no walker's fields part."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_drop_fills_the_holes_from_the_tail(self, data):
        size = data.draw(st.integers(1, 80))
        m = data.draw(st.integers(0, size))
        gone = np.array(sorted(data.draw(st.sets(st.integers(0, max(m - 1, 0))))) if m else [],
                        dtype=np.intp)
        # walker w holds w, w + 0.5 and -w in its slot
        walkers = np.arange(size)
        buffers = (walkers.astype(np.uint64), walkers + 0.5, -walkers)
        before = [a.copy() for a in buffers]
        rest = wos._drop(buffers, m, gone)
        assert rest == m - gone.size
        kept = buffers[0][:rest].astype(np.intp)
        assert sorted(kept.tolist()) == sorted(set(range(m)) - set(gone.tolist()))
        for a, old in zip(buffers, before):
            assert np.array_equal(a[:rest], old[kept])
            assert np.count_nonzero(a != old) <= gone.size
            assert np.array_equal(a[m:], old[m:])


class TestKernelWork:
    """The points an estimate passes through ``FeatureArrays.distances``: the
    start distance of ``boundary_distance``, the start point once for all
    walkers, one per walker-step but each walker's last, and one per walker
    that the epsilon shell absorbs.  A walker that leaves through a wall's
    diameter is absorbed in its step, and one whose last allowed step is
    drawn is lost where it stands; neither reaches the kernel again.  The
    benchmark's kernel spans count these."""

    @staticmethod
    def _points(monkeypatch, domain, t, params):
        sizes, shell = [], []
        kernel = wos._FeatureArrays.distances

        def counted(self, x, *rest):
            sizes.append(x.size)
            near = kernel(self, x, *rest)
            shell.append(int(np.count_nonzero(near <= params.epsilon_shell)))
            return near

        monkeypatch.setattr(wos._FeatureArrays, "distances", counted)
        est = estimate_upper_measure(domain, complex(t, 0.0), params)
        assert sum(sizes) == est.walker_steps + sum(shell) + 2 - params.walkers
        return sum(sizes), est

    def test_readme_comb_block_3_anchor(self, readme_comb, monkeypatch):
        points, est = self._points(
            monkeypatch, readme_comb, 2880.0, WosParams(walkers=1_000_000, seed=42))
        assert (points, est.walker_steps, est.walkers_used) == (2_520_830, 3_519_919, 1_000_000)

    def test_lost_walkers(self, monkeypatch):
        params = WosParams(walkers=2_000, seed=1, max_steps=12)
        points, est = self._points(monkeypatch, pseudo_strip(1.0, 3.0, 8.0), 0.0, params)
        assert est.lost > 0
        assert points == 5_327


class _FullKernel(wos._FeatureArrays):
    """The distance kernel without its local candidate set."""

    def __init__(self, features, origin=0j, scale=1.0):
        super().__init__(features, origin, scale)
        self._local = None


class TestCandidateSets:
    @pytest.mark.parametrize("rescale", [True, False])
    def test_candidate_sets_never_change_an_estimate(self, readme_comb, monkeypatch, rescale):
        sealed = surgery(readme_comb, SEAL_GAP, 1)
        runs = [(readme_comb, 2880.0), (readme_comb, 500.0), (sealed, 1590.0)]
        p = WosParams(walkers=3_000, seed=42, rescale=rescale)
        local = [dataclasses.replace(estimate_upper_measure(dom, complex(t), p), elapsed=0.0)
                 for dom, t in runs]
        for dom, t in runs:
            assert wos._FeatureArrays(dom.features(), complex(t))._local is not None
        monkeypatch.setattr(wos, "_FeatureArrays", _FullKernel)
        full = [dataclasses.replace(estimate_upper_measure(dom, complex(t), p), elapsed=0.0)
                for dom, t in runs]
        assert local == full

    # the benchmark's forward plan with its calibrated widths, the same on
    # seeds 7 and 42
    CALIBRATED = [
        431.99999999999994, 1151.9999999999998, 2591.999999999999, 6911.999999999997,
        15551.999999999993, 41471.99999999998, 93311.99999999994, 248831.99999999985,
    ]

    def test_anchors_measure_in_a_channel(self, readme_comb):
        # in the walkers' frame at each anchor the candidate set is the
        # channel's two covering walls, one on each side, with the channel's
        # height as the limit bound, so the anchors' walkers take the short path
        plan = assign_widths(plan_forward(-math.pi / 4, math.pi / 6, 6.0, 4), self.CALIBRATED,
                             mode="calibrated")
        anchors = [(job.domain, job.t) for job in plan_jobs(plan, 42) if job.role == "anchor"]
        assert len(anchors) == 7
        for dom, t in [(readme_comb, 2880.0)] + anchors:
            d0, _ = boundary_distance(dom, complex(t))
            local = wos._FeatureArrays(dom.features(), complex(t), d0)._local
            assert len(local.features) == 2, t
            (_, hx_dn, dn), (_, hx_up, up) = sorted(local.features, key=lambda f: float(f[2]))
            assert hx_dn is None and hx_up is None and dn < 0.0 < up
            assert local.limit_sq <= float(up - dn) ** 2


class TestSurgeryOrdering:
    def test_bracketing_at_one_point(self):
        plan = assign_widths(
            plan_forward(-math.pi / 4, math.pi / 6, 6.0, 2), [200, 1200, 2600, 7000]
        )
        domain = build_comb(plan)
        sealed = surgery(domain, SEAL_GAP, 1)
        dropped = surgery(domain, DROP_TOOTH, 1)
        t = complex(400.0, 0.0)
        p = WosParams(walkers=8_000, seed=21)
        base = estimate_upper_measure(domain, t, p)
        hi = estimate_upper_measure(sealed, t, dataclasses.replace(p, seed=22))
        lo = estimate_upper_measure(dropped, t, dataclasses.replace(p, seed=23))
        band = 3 * math.hypot(base.stderr, hi.stderr) + 3 * math.hypot(base.stderr, lo.stderr)
        assert lo.mean - band <= base.mean <= hi.mean + band

    @pytest.mark.parametrize("k, t", [(1, -100.0), (2, -1900.0)])
    def test_backward_bracketing_under_each_seal(self, k, t):
        # t lies under the k-th seal, midway across block 2k - 1
        plan = assign_widths(
            plan_backward(-math.pi / 4, math.pi / 6, 6.0, 2), [200 * (i + 1) ** 2 for i in range(5)]
        )
        domain = build_comb(plan)
        p = WosParams(walkers=4_000, seed=31)
        lo, base, hi = (
            estimate_upper_measure(dom, complex(t, 0.0), dataclasses.replace(p, seed=p.seed + i))
            for i, dom in enumerate(
                (surgery(domain, DROP_TOOTH, k), domain, surgery(domain, SEAL_GAP, k))
            )
        )
        assert lo.mean <= base.mean + 3 * math.hypot(lo.stderr, base.stderr)
        assert base.mean <= hi.mean + 3 * math.hypot(base.stderr, hi.stderr)
        # the seal is not a no-op here
        assert hi.mean > base.mean + 3 * math.hypot(base.stderr, hi.stderr)


class TestProfile:
    def test_empty(self):
        assert estimate_profile(pseudo_strip(1, 1, 10), []) == []

    def test_per_point_seeds_differ(self):
        dom = pseudo_strip(1.0, 1.0, 30.0)
        entries = estimate_profile(dom, [0.0, 0.0], WosParams(walkers=2_000, seed=5))
        assert entries[0].estimate.mean != entries[1].estimate.mean

    def test_failures_reported_per_entry(self):
        dom = pseudo_strip(1.0, 1.0, 30.0)
        entries = estimate_profile(
            dom, [0.0, 15.0 + 0.0], WosParams(walkers=500, seed=5)
        )
        assert entries[0].error is None
        # t = 15 sits exactly on the anchor abscissa at height 0, interior;
        # force a failure with a step budget that loses every walker instead
        entries = estimate_profile(dom, [0.0], WosParams(walkers=10, seed=0, max_steps=1))
        assert "all 10 walkers lost" in entries[0].error
        assert entries[0].estimate is None

    def test_deterministic(self):
        dom = pseudo_strip(1.0, 2.0, 30.0)
        p = WosParams(walkers=1_000, seed=33)
        a = estimate_profile(dom, [0.0, 1.0, 2.0], p)
        b = estimate_profile(dom, [0.0, 1.0, 2.0], p)
        assert [e.estimate.mean for e in a] == [e.estimate.mean for e in b]


class TestSerialization:
    def test_csv_header_names_rng_and_seed(self):
        dom = pseudo_strip(1.0, 1.0, 20.0)
        p = WosParams(walkers=500, seed=77)
        entries = estimate_profile(dom, [0.0, 2.0], p)
        text = profile_to_csv(entries, p)
        head, cols = text.splitlines()[:2]
        assert "splitmix64-angles-v1" in head and "seed 77" in head
        assert cols == "t,mean,stderr,walkers,lost"
        assert len(text.splitlines()) == 4

    def test_csv_deterministic(self):
        dom = pseudo_strip(1.0, 1.0, 20.0)
        p = WosParams(walkers=500, seed=78)
        a = profile_to_csv(estimate_profile(dom, [0.0], p), p)
        b = profile_to_csv(estimate_profile(dom, [0.0], p), p)
        assert a == b

    def test_estimate_dict_omits_elapsed(self):
        est = MeasureEstimate(0.5, 0.01, 100, 0, 1.23, True)
        d = estimate_to_dict(est)
        assert "elapsed" not in d
        assert d["mean"] == 0.5 and d["valid"] is True
