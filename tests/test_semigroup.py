import cmath
import math

import numpy as np
import pytest

from combslope.errors import DomainError
from combslope.exact import strip_upper_measure
from combslope.semigroup import (
    HalfPlaneModel,
    StripModel,
    slope_minus,
    slope_plus,
    trajectory,
    trajectory_to_csv,
)

STRIP = StripModel(1.0)
HALF = HalfPlaneModel()


def _disk_grid(n=10, rmax=0.93):
    pts = []
    for i in range(n):
        for j in range(n):
            z = complex(-rmax + 2 * rmax * i / (n - 1), -rmax + 2 * rmax * j / (n - 1))
            if abs(z) < rmax:
                pts.append(z)
    return pts


class TestKoenigsMaps:
    def test_strip_center(self):
        m = StripModel(math.pi / 2)
        assert m.koenigs(0) == 0

    def test_strip_unit_point(self):
        # h(tanh(1/2)) = 1 for the pi/2 strip since h inverts tanh(w/2)
        m = StripModel(math.pi / 2)
        assert m.koenigs(math.tanh(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_half_plane_center(self):
        assert HALF.koenigs(0) == 1j

    def test_round_trip_grids(self):
        for model in (STRIP, StripModel(0.35), HALF):
            for z in _disk_grid():
                w = model.koenigs(z)
                assert model.contains(w)
                assert model.koenigs_inverse(w) == pytest.approx(z, abs=1e-12)

    def test_strip_real_axis_to_real_line(self):
        for x in (-0.9, -0.2, 0.5, 0.99):
            assert STRIP.koenigs(x).imag == pytest.approx(0.0, abs=1e-15)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            STRIP.koenigs(1.2)
        with pytest.raises(DomainError):
            STRIP.koenigs_inverse(complex(0, 1.5))
        with pytest.raises(DomainError):
            HALF.koenigs_inverse(complex(0, -0.1))


class TestTrajectory:
    def test_time_zero_returns_start(self):
        for model in (STRIP, HALF):
            z = 0.2 - 0.3j
            traj = trajectory(model, z, [0.0, 1.0])
            assert traj.points[0] == pytest.approx(z, abs=1e-13)

    def test_strip_approaches_attracting_point(self):
        m = StripModel(math.pi / 2)
        traj = trajectory(m, 0, [1.0, 5.0, 20.0, 40.0])
        gaps = [abs(p - 1.0) for p in traj.points]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-12

    def test_semigroup_law(self):
        rng = np.random.default_rng(1)
        for model in (STRIP, HALF):
            for _ in range(100):
                z = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
                t, s = rng.uniform(0, 4, size=2)
                w0 = model.koenigs(z)
                direct = model.koenigs_inverse(w0 + t + s)
                mid = model.koenigs_inverse(w0 + s)
                two_step = model.koenigs_inverse(model.koenigs(mid) + t)
                assert direct == pytest.approx(two_step, abs=1e-12)

    def test_times_must_increase(self):
        with pytest.raises(DomainError):
            trajectory(STRIP, 0, [1.0, 1.0])

    def test_start_time_is_minus_infinity(self):
        # both model domains contain full leftward rays, so every time is legal
        for model in (STRIP, HALF):
            traj = trajectory(model, 0.1j if model is HALF else 0.1, [-1e6, -50.0, 0.0, 50.0])
            assert all(abs(z) <= 1.0 for z in traj.points)


class TestSlopes:
    def test_strip_center_slope_zero(self):
        traj = trajectory(STRIP, 0, [t / 4 for t in range(1, 401)])
        si = slope_plus(traj)
        assert si.is_singleton(1e-9)
        assert si.lo == pytest.approx(0.0, abs=1e-12)

    def test_strip_reference_offset(self):
        # h(z) = i pi/4 in a pi/2 strip: slope -pi/4, which equals
        # pi * (1/2 - strip ratio) for the distances (d - y0, d + y0)
        d, y0 = math.pi / 2, math.pi / 4
        m = StripModel(d)
        z = m.koenigs_inverse(complex(0, y0))
        traj = trajectory(m, z, [t for t in range(1, 201)])
        si = slope_plus(traj)
        assert si.is_singleton(1e-9)
        want = math.pi * (0.5 - strip_upper_measure(d - y0, d + y0))
        assert si.lo == pytest.approx(want, abs=1e-9)
        assert si.lo == pytest.approx(-math.pi / 4, abs=1e-9)

    @pytest.mark.parametrize("y0", [-0.6, 0.0, 0.6])
    def test_strip_closed_loop(self, y0):
        m = StripModel(1.0)
        z = m.koenigs_inverse(complex(0, y0))
        traj = trajectory(m, z, [100.0 * (i + 1) / 400 for i in range(400)])
        si = slope_plus(traj)
        want = math.pi * (0.5 - strip_upper_measure(1 - y0, 1 + y0))
        assert abs(si.lo - want) < 1e-3 and abs(si.hi - want) < 1e-3

    def test_survives_collapse_to_attracting_point(self):
        # beyond t ~ 47 d the naive 1 - gamma(t) underflows to denormal dust
        # with no usable angle; the stable slope evaluation must keep working
        m = StripModel(1.0)
        z = m.koenigs_inverse(0.4j)
        traj = trajectory(m, z, [250.0, 275.0, 300.0, 325.0])
        assert abs(1.0 - traj.points[-1]) < 1e-200  # the collapse is real
        si = slope_plus(traj, min_samples=4)
        assert si.lo == pytest.approx(-math.pi * 0.4 / 2.0, abs=1e-9)

    def test_doubling_horizon_keeps_singleton(self):
        m = StripModel(1.0)
        z = m.koenigs_inverse(-0.3j)
        a = slope_plus(trajectory(m, z, [60.0 * (i + 1) / 200 for i in range(200)]))
        b = slope_plus(trajectory(m, z, [120.0 * (i + 1) / 400 for i in range(400)]))
        assert a.lo == pytest.approx(b.lo, abs=1e-9)

    def test_half_plane_slope_is_half_pi_for_any_start(self):
        for y in (0.5, 1.0, 3.0):
            z = HALF.koenigs_inverse(complex(0, y))
            traj = trajectory(HALF, z, [400.0 * (i + 1) / 300 for i in range(300)])
            si = slope_plus(traj)
            assert abs(si.hi - math.pi / 2) < 0.02
            assert si.width < 0.01

    def test_half_plane_tail_is_monotone(self):
        z = HALF.koenigs_inverse(1j)
        traj = trajectory(HALF, z, [10.0 * (i + 1) for i in range(60)])
        slopes = [traj.model.slope_at(w, HALF.denjoy_wolff) for w in traj.w_values]
        assert slopes == sorted(slopes)

    def test_strip_backward_slope(self):
        # mirrored stable branch: as t -> -inf the slope tends to +pi*y0/(2d)
        m = StripModel(1.0)
        z = m.koenigs_inverse(0.4j)
        ts = sorted(-100.0 * (i + 1) / 300 for i in range(300))
        traj = trajectory(m, z, ts)
        si = slope_minus(traj)
        assert si.is_singleton(1e-6)
        assert si.lo == pytest.approx(math.pi * 0.4 / 2.0, abs=1e-6)

    def test_half_plane_backward_slope(self):
        z = HALF.koenigs_inverse(1j)
        ts = sorted(-300.0 * (i + 1) / 200 for i in range(200))
        traj = trajectory(HALF, z, ts)
        si = slope_minus(traj)
        assert abs(si.lo + math.pi / 2) < 0.02

    def test_insufficient_samples(self):
        traj = trajectory(STRIP, 0, [1.0, 2.0])
        with pytest.raises(DomainError):
            slope_plus(traj)


class TestCsv:
    def test_columns_and_length(self):
        traj = trajectory(STRIP, 0.1, [1.0, 2.0, 3.0])
        text = trajectory_to_csv(traj)
        lines = text.strip().splitlines()
        assert lines[0] == "t,re,im,slope"
        assert len(lines) == 4
        t, re, im, slope = lines[1].split(",")
        assert float(t) == 1.0
        assert abs(complex(float(re), float(im))) < 1.0
