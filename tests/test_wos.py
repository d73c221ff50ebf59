import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from combslope.comb import (
    DROP_TOOTH,
    SEAL_GAP,
    CombDomain,
    Tooth,
    assign_widths,
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
    _mix64,
    _uniform_angles,
    derive_seed,
    estimate_profile,
    estimate_to_dict,
    estimate_upper_measure,
    profile_to_csv,
)


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
        got = _uniform_angles(_mix64(1), ids, 3)
        want = [
            0.2165345885196064,
            2.5548394035497424,
            4.275552244433822,
            0.5971527570685436,
        ]
        assert got == pytest.approx(want, abs=0.0)

    def test_angles_depend_only_on_walker_and_step(self):
        # batching must not matter: a sub-slice sees identical values
        ids = np.arange(100, dtype=np.uint64)
        all_angles = _uniform_angles(_mix64(9), ids, 17)
        sub = _uniform_angles(_mix64(9), ids[40:50], 17)
        assert np.array_equal(all_angles[40:50], sub)

    def test_angle_range(self):
        ids = np.arange(10_000, dtype=np.uint64)
        a = _uniform_angles(_mix64(3), ids, 0)
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

    def test_sealed_surgery_segment_branch(self, readme_comb):
        # just past the end of the sealing segment over block 1
        sealed = surgery(readme_comb, SEAL_GAP, 1)
        got = _tally(sealed, 1590.0, WosParams(walkers=3_000, seed=42))
        assert got == (0.694, 0.008413560482934679, 3000, 0)

    def test_readme_comb_block_3_anchor_walker_steps(self, readme_comb):
        est = estimate_upper_measure(readme_comb, 2880 + 0j, WosParams(walkers=3_000, seed=42))
        assert est.walker_steps == 10_544


def _foot_clearance(p: complex, geom) -> float:
    """Distance from ``p`` to one closed feature, in plain Python."""
    x_lo, x_hi, y = (
        (-math.inf, geom.anchor.real, geom.anchor.imag)
        if isinstance(geom, HalfLine)
        else (geom.x_lo, geom.x_hi, geom.y)
    )
    return math.hypot(p.real - min(max(p.real, x_lo), x_hi), p.imag - y)


class TestHalfDiskStep:
    """The exact wall step: where it may be taken, and its exit law."""

    def test_half_disk_is_clear_of_every_other_feature(self, readme_comb):
        sealed = surgery(readme_comb, SEAL_GAP, 1)
        geoms = [g for g, _ in sealed.features()]
        feats = wos._FeatureArrays(sealed.features())
        rng = np.random.default_rng(5)
        # points just off each feature, from deep in its wall to past its end
        k = rng.integers(0, len(geoms), 4_000)
        lo = np.maximum(feats.x_lo[k], feats.x_hi[k] - 10.0 ** rng.uniform(-3, 4, k.size))
        x = rng.uniform(lo - 5.0, feats.x_hi[k] + 5.0)
        y = feats.wall_y[k] + rng.choice([-1, 1], k.size) * 10.0 ** rng.uniform(-4, 1.5, k.size)
        second, index = np.empty_like(x), np.empty(x.shape, dtype=np.intp)
        near = feats.distances(x, y, second, index)
        theta = _uniform_angles(_mix64(5), np.arange(x.size, dtype=np.uint64), 0)
        d, d2 = near.copy(), second.copy()
        j, radius = wos._half_disk_steps(
            feats, x.copy(), y.copy(), near, second, index, theta,
            np.ones(x.size, dtype=bool),
        )
        assert 500 < j.size < x.size
        for w, r in zip(j.tolist(), radius.tolist()):
            f = index[w]
            foot = complex(x[w], feats.wall_y[f])
            assert 2 * d[w] < r <= d2[w] - d[w]
            assert r <= min(x[w] - feats.x_lo[f], feats.x_hi[f] - x[w])
            # the triangle inequality, up to the rounding of d2 - d
            others = [_foot_clearance(foot, g) for i, g in enumerate(geoms) if i != f]
            assert min(others) >= r * (1.0 - 1e-12)
        assert (near[j] == 0.0).all()

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_exit_law_at_fixed_depth_and_radius(self, side):
        d, radius, n = 0.3, 1.0, 200_000
        # one half-line along Im = 0 ending at x = 0; walkers at x = -R
        feats = wos._FeatureArrays([(HalfLine(0j), "upper")])
        x0, y0 = np.full(n, -radius), np.full(n, side * d)
        x, y, near = x0.copy(), y0.copy(), np.full(n, d)
        theta = _uniform_angles(_mix64(17), np.arange(n, dtype=np.uint64), 0)
        j, got = wos._half_disk_steps(
            feats, x, y, near, np.full(n, np.inf), np.zeros(n, dtype=np.intp), theta,
            np.ones(n, dtype=bool),
        )
        assert j.size == n and (got == radius).all()
        on_wall = y == 0.0
        assert (x[on_wall] == x0[on_wall]).all()
        p = 1.0 - 4.0 * math.atan(d / radius) / math.pi
        assert abs(on_wall.mean() - p) <= 3.0 * math.sqrt(p * (1.0 - p) / n)
        zeta = (x - x0)[~on_wall] + 1j * np.abs(y[~on_wall])
        assert np.abs(np.abs(zeta) - radius).max() <= 1e-12
        assert (np.sign(y[~on_wall]) == side).all()


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
        wos._plain_step(x, y, np.ones(k.size), theta.copy())
        assert np.isfinite(x).all() and np.isfinite(y).all()
        assert np.abs(x - np.cos(theta)).max() <= 4e-16
        assert np.abs(y - np.sin(theta)).max() <= 4e-16
        # U = 1/2 draws theta = pi, where tan(theta / 2) is largest
        at_pi = theta == math.pi
        assert at_pi.any() and (x[at_pi] == -1.0).all()

    def test_step_has_the_radius(self):
        theta = _uniform_angles(_mix64(3), np.arange(10_000, dtype=np.uint64), 0)
        near = 10.0 ** np.linspace(-6, 6, theta.size)
        x, y = np.full(theta.size, 2.0), np.full(theta.size, -1.0)
        wos._plain_step(x, y, near, theta)
        assert np.allclose(np.hypot(x - 2.0, y + 1.0), near, rtol=1e-15, atol=1e-15)


class TestChunks:
    def test_chunk_size_never_changes_the_tally(self, readme_comb, monkeypatch):
        # 1,003 walkers: a multiple of neither 7 nor 1000
        p = WosParams(walkers=1_003, seed=42)
        want = _tally(readme_comb, 2880.0, p)
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(wos, "_CHUNK", chunk)
            assert _tally(readme_comb, 2880.0, p) == want

    def test_lost_walkers_add_up_across_chunks(self, monkeypatch):
        dom = pseudo_strip(1.0, 3.0, 8.0)
        p = WosParams(walkers=2_000, seed=1, max_steps=12)
        want = _tally(dom, 0.0, p)
        assert want[3] > 0
        for chunk in (1, 7, 1000):
            monkeypatch.setattr(wos, "_CHUNK", chunk)
            assert _tally(dom, 0.0, p) == want

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
