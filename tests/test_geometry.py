import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from combslope.errors import DomainError
from combslope.geometry import (
    BoundaryArc,
    FeatureArrays,
    HalfLine,
    level_set_arc,
    mobius_to_zero,
    require_finite,
    slope_of,
    tangent_ray,
)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)
points = st.builds(complex, finite_floats, finite_floats)
angles = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)


def _dist(p: complex, geom) -> float:
    x, y = np.array([p.real]), np.array([p.imag])
    d = FeatureArrays([(geom, "upper")]).distances(x, y, np.empty(1), np.empty(1, dtype=np.intp))
    return float(d[0])


class TestHalfLine:
    def test_distance_examples(self):
        assert _dist(0j, HalfLine(1 + 1j)) == 1.0
        assert _dist(2 + 1j, HalfLine(1 + 1j)) == 1.0
        assert _dist(3 + 4j, HalfLine(0j)) == 5.0

    def test_nearest_examples(self):
        # distances to the nearest ray points 1j, 1 + 1j and -5
        assert _dist(0j, HalfLine(1 + 1j)) == abs(0j - 1j)
        assert _dist(2 + 1j, HalfLine(1 + 1j)) == abs(2 + 1j - (1 + 1j))
        assert _dist(-5 + 0.3j, HalfLine(1 + 0j)) == abs(-5 + 0.3j - (-5 + 0j))

    def test_on_ray_is_zero(self):
        h = HalfLine(2 - 1j)
        assert _dist(2 - 1j, h) == 0.0
        assert _dist(-7 - 1j, h) == 0.0

    @given(points, points)
    def test_distance_matches_nearest_point(self, p, anchor):
        # the nearest ray point is straight above or below p, or the anchor
        nearest = complex(min(p.real, anchor.real), anchor.imag)
        assert _dist(p, HalfLine(anchor)) == pytest.approx(abs(p - nearest), abs=1e-12)

    @given(points, points, st.floats(min_value=0, max_value=100))
    def test_nearest_point_is_minimal(self, p, anchor, back):
        assert _dist(p, HalfLine(anchor)) <= abs(p - (anchor - back)) + 1e-12

    def test_rejects_nonfinite_anchor(self):
        with pytest.raises(DomainError):
            HalfLine(complex(math.nan, 0))


# small integer coordinates make ties and exact hits common
coords = st.one_of(st.integers(-3, 3).map(float), finite_floats)


@st.composite
def feature_sets(draw):
    labels = st.sampled_from(["upper", "lower"])
    halves = draw(st.lists(st.builds(complex, coords, coords), min_size=1, max_size=7))
    return [(HalfLine(a), draw(labels)) for a in halves]


@st.composite
def probe_points(draw, feats):
    """Free points, points straight above or below an anchor (dx == 0.0),
    and a point at -0.0 beside an anchor at 0.0 (dx == -0.0)."""
    pts = draw(st.lists(st.builds(complex, coords, coords), max_size=6))
    for geom, _ in feats:
        pts.append(complex(geom.anchor.real, draw(coords)))
    pts.append(complex(-0.0, draw(coords)))
    return pts


def _reference(p: complex, geom) -> float:
    """One half-line's squared distance by the per-feature formula the
    kernel folds."""
    x, y = np.array([p.real]), np.array([p.imag])
    dx, dy = np.maximum(x - geom.anchor.real, 0.0), y - geom.anchor.imag
    return float((dy * dy + dx * dx)[0])


class TestKernel:
    @settings(max_examples=300)
    @given(st.data())
    def test_running_minimum_is_exact(self, data):
        feats = data.draw(feature_sets())
        if data.draw(st.booleans()):
            feats.insert(0, (HalfLine(complex(0.0, data.draw(coords))), "upper"))
        pts = data.draw(probe_points(feats))
        x = np.array([p.real for p in pts])
        y = np.array([p.imag for p in pts])
        arrays = FeatureArrays(feats)
        second, index = np.empty_like(x), np.empty(x.shape, dtype=np.intp)
        dist = arrays.distances(x, y, second, index)
        assert dist.shape == x.shape
        for k, p in enumerate(pts):
            ref = [_reference(p, geom) for geom, _ in feats]
            assert dist[k] == math.sqrt(min(ref))  # bit for bit
            assert index[k] == ref.index(min(ref))  # first index on ties
            # equal to the nearest on ties
            assert second[k] == math.sqrt(sorted(ref + [math.inf])[1])

    def test_distance_within_one_ulp_of_hypot(self):
        feats = [(HalfLine(0j), "upper"), (HalfLine(complex(-3e90, 2e100)), "lower"),
                 (HalfLine(complex(5e119, -1e130)), "lower"),
                 (HalfLine(complex(1e-90, 1e-120)), "upper")]
        rng = np.random.default_rng(12)
        n = 200_000
        x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 150, n)
        y = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-150, 150, n)
        second, index = np.empty_like(x), np.empty(x.shape, dtype=np.intp)
        near = FeatureArrays(feats).distances(x, y, second, index)
        refs = np.empty((len(feats), n))
        for f, (geom, _) in enumerate(feats):
            dx, dy = np.maximum(x - geom.anchor.real, 0.0), y - geom.anchor.imag
            refs[f] = np.hypot(dx, dy)
        refs.sort(axis=0)
        for got, ref in ((near, refs[0]), (second, refs[1])):
            ok = (ref >= 1e-150) & (ref <= 1e150)
            assert ok.mean() > 0.9
            assert (np.abs(got - ref) <= np.spacing(ref))[ok].all()

    @given(points, st.floats(min_value=0, max_value=100),
           st.floats(min_value=1e-150, max_value=1e150), st.sampled_from([-1.0, 1.0]))
    def test_on_axis_distance_is_exact(self, anchor, back, dy, sign):
        # straight above or below the ray, the distance is |dy| to the bit
        p = complex(anchor.real - back, anchor.imag + sign * dy)
        assert _dist(p, HalfLine(anchor)) == abs(p.imag - anchor.imag)

    def test_range_of_the_squares(self):
        wall = HalfLine(0j)
        # below about 1.5e-154 the square is subnormal and the distance
        # inexact but positive, so a point 1e-160 off the wall is inside
        assert _dist(-1 + 1e-150j, wall) == 1e-150
        assert 0.0 < _dist(-1 + 1e-160j, wall) != 1e-160
        # below about 1.5e-162 the square underflows and the distance reads 0
        assert _dist(-1 + 1e-163j, wall) == 0.0
        # above about 1.3e154 the square overflows and the distance reads
        # inf, without numpy's overflow warning
        assert _dist(-1 + 1e154j, wall) == 1e154
        assert _dist(-1 + 1e155j, wall) == math.inf

    def test_zero_on_features_and_ties_go_first(self):
        feats = [(HalfLine(0j), "upper"), (HalfLine(2j), "lower"),
                 (HalfLine(3 + 0j), "lower"), (HalfLine(3 + 2j), "upper")]
        arrays = FeatureArrays(feats)
        x, y = np.array([-0.0, 0.0, 0.5, 0.5]), np.array([1.0, 1.0, 0.0, 2.0])
        second, index = np.empty_like(x), np.empty(x.shape, dtype=np.intp)
        assert arrays.distances(x, y, second, index).tolist() == [1.0, 1.0, 0.0, 0.0]
        assert index.tolist() == [0, 0, 2, 3]
        assert second.tolist() == [1.0, 1.0, 0.5, 0.5]

    def test_end_distance_along_the_wall(self):
        feats = [(HalfLine(1 + 2j), "upper"), (HalfLine(3 + 0j), "lower")]
        arrays = FeatureArrays(feats)
        x = np.array([-5.0, 1.0, 0.0, 2.5, 4.0])
        assert arrays.end_distance(x, np.zeros(5, dtype=np.intp)).tolist() == [
            6.0, 0.0, 1.0, -1.5, -3.0]
        assert arrays.end_distance(x, np.ones(5, dtype=np.intp)).tolist() == [
            8.0, 2.0, 3.0, 0.5, -1.0]


def _run(arrays, x, y):
    second, index = np.empty_like(x), np.empty(x.shape, dtype=np.intp)
    near = arrays.distances(x, y, second, index)
    return near, second, index


def _same_as_full(feats, x, y, origin=0j, scale=1.0):
    """Runs the kernel with and without the local candidate set on the same
    points, asserts that distances, second minima and indices agree bit for
    bit, and returns the local arrays and the full kernel's results."""
    local = FeatureArrays(feats, origin, scale)
    full = FeatureArrays(feats, origin, scale)
    full._local = None
    want = _run(full, x, y)
    for got, ref in zip(_run(local, x, y), want):
        assert got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()
    return local, want


# wider integer coordinates put the fifth feature past the first four
wide_coords = st.one_of(st.integers(-40, 40).map(float), finite_floats)


@st.composite
def local_frames(draw):
    """Five to twelve features, one of them perhaps beyond 1.3e154, a frame
    with or without rescaling, and points around the frame's origin."""
    labels = st.sampled_from(["upper", "lower"])
    anchors = draw(st.lists(st.builds(complex, wide_coords, wide_coords), min_size=5,
                            max_size=12))
    if draw(st.booleans()):
        far = complex(draw(st.sampled_from([-1e160, 1e160, 0.0])),
                      draw(st.sampled_from([-1e160, 1e160])))
        anchors.insert(draw(st.integers(0, len(anchors))), far)
    feats = [(HalfLine(a), draw(labels)) for a in anchors]
    origin = draw(st.builds(complex, coords, coords))
    scale = 1.0
    if draw(st.booleans()):  # the walkers' frame: the start distance is 1
        x, y = np.array([origin.real]), np.array([origin.imag])
        scale = float(_run(FeatureArrays(feats), x, y)[0][0])
        assume(scale > 0.0)
    return feats, origin, scale


# disk radii: inside, just inside, on the edge, just outside, outside
radii = st.one_of(st.sampled_from([0.0, 0.5, 1.0 - 2e-12, 1.0, 1.0 + 2e-12, 2.0]),
                  st.floats(0.0, 4.0))


@st.composite
def channel_frames(draw):
    """A channel around the origin in an unscaled frame: walls at ``up > 0``
    and ``dn < 0``, shadow walls past them with gaps just below, at and just
    above the channel height ``up - dn`` or well past it, perhaps a wall
    between them with its tip far left and a wall through the origin, and
    far walls that set the disk; tips at powers of two, which the disk's
    radius ``rho`` is, or anywhere.  Returns the features in a random order
    and ``(dn, up)``."""
    up, dn = draw(st.floats(0.25, 8.0)), -draw(st.floats(0.25, 8.0))
    height = up - dn
    gaps = st.one_of(st.sampled_from([1.0 - 1e-9, 1.0 - 2e-12, 1.0, 1.0 + 2e-12, 1.0 + 1e-9]),
                     st.floats(1.5, 20.0))
    powers = st.sampled_from([2.0 ** k for k in range(-1, 13)])
    tips = st.one_of(powers, st.floats(-4.0, 1e4))
    # the pair's tips mostly cover the disk
    long = st.one_of(st.sampled_from([2.0 ** k for k in range(12, 1, -1)]), st.floats(2048.0, 1e5))
    walls = [complex(draw(long), up), complex(draw(long), dn)]
    for _ in range(draw(st.integers(1, 2))):
        gap = draw(gaps) * height
        walls.append(complex(draw(tips), up + gap if draw(st.booleans()) else dn - gap))
    if draw(st.integers(0, 3)) == 0:
        walls.append(complex(-draw(st.floats(0.0, 600.0)), draw(st.floats(dn, up))))
    if draw(st.integers(0, 3)) == 0:
        walls.append(complex(draw(tips), 0.0))
    far = draw(st.sampled_from([16.0, 64.0, 300.0])) * height
    walls += [complex(draw(tips), far), complex(draw(tips), -far * 1.5)]
    labels = st.sampled_from(["upper", "lower"])
    feats = [(HalfLine(a), draw(labels)) for a in draw(st.permutations(walls))]
    return feats, (dn, up)


class TestCandidateSets:
    """The local candidate set never changes a result."""

    @settings(max_examples=300)
    @given(st.data())
    def test_candidate_path_equals_the_full_kernel(self, data):
        feats, origin, scale = data.draw(local_frames())
        local = FeatureArrays(feats, origin, scale)._local
        # the disk test's radius, rho less its margin
        rho = math.sqrt(local.disk_sq) if local is not None else 1.0
        pts = [complex(v * rho, w * rho) for v, w in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        for r, phi in data.draw(st.lists(st.tuples(radii, angles), max_size=20)):
            pts.append(rho * r * cmath.exp(1j * phi))
        # integer points on the axes: in an unscaled frame with integer
        # features, second minima can tie with the bound L there
        pts += [complex(k, 0) for k in range(-40, 41)] + [complex(0, k) for k in range(-40, 41)]
        x = np.array([p.real for p in pts])
        y = np.array([p.imag for p in pts])
        _same_as_full(feats, x, y, origin, scale)

    def test_second_minimum_tied_with_the_bound(self):
        # D_k = 36, 1, 4, 6, 18: rho = 16, C = the last four, L = 36 - 16 = 20;
        # at 16i, on the disk's edge, the second minimum over C is 20 (the
        # wall at -4), tied with the skipped first feature at 36; at 17i,
        # outside the disk, that feature is second
        feats = [(HalfLine(complex(50, h)), "upper" if h > 0 else "lower")
                 for h in (36.0, -1.0, -4.0, -6.0, -18.0)]
        x, y = np.array([0.0, 0.0, 0.0]), np.array([16.0, 15.0, 17.0])
        local, (near, second, index) = _same_as_full(feats, x, y)
        assert [int(f[0]) for f in local._local.features] == [1, 2, 3, 4]
        limit = 20.0 * (1.0 - 1e-12)
        assert local._local.limit_sq == limit * limit
        assert second.tolist() == [20.0, 19.0, 19.0]
        assert index.tolist() == [1, 1, 1]

    def test_nan_points_take_the_full_kernel(self):
        # a NaN coordinate fails both of the candidate path's tests, so the
        # point runs over all features and reads the full kernel's index
        feats = [(HalfLine(complex(50, h)), "upper" if h > 0 else "lower")
                 for h in (36.0, -1.0, -4.0, -6.0, -18.0)]
        x, y = np.array([math.nan, 0.0, math.inf]), np.array([0.0, math.nan, math.nan])
        local, (near, second, index) = _same_as_full(feats, x, y)
        assert local._local is not None
        assert np.isnan(near).all() and np.isnan(second).all()
        assert index.tolist() == [0, 0, 0]

    def test_far_features_read_inf(self):
        # in an unscaled frame every feature more than about 1.3e154 away
        # reads inf on the candidate path too
        feats = [(HalfLine(complex(0.0, s * k * 1e160)), "upper") for k in range(1, 7)
                 for s in (1.0, -1.0)]
        x = np.array([0.0, 1e150, -1e159, 3.0])
        y = np.array([0.0, 0.0, 1e100, -1.0])
        local, (near, second, _) = _same_as_full(feats, x, y)
        assert local._local is not None
        assert np.isinf(near).all() and np.isinf(second).all()
        # with near features the far ones stay outside C: D_k = 1, 2, 4, 8
        # and 16 give rho = 4 and C = the first four of them
        feats += [(HalfLine(complex(5.0, h)), "upper") for h in (1.0, -2.0, 4.0, -8.0, 16.0)]
        local, (near, _, index) = _same_as_full(feats, x, y)
        assert [int(f[0]) for f in local._local.features] == [12, 13, 14, 15]
        assert (near[::3].tolist(), index[::3].tolist()) == ([1.0, 1.0], [12, 13])

    def test_disk_radius_is_capped(self):
        # in the walkers' frame of scale 1.5e-154 the feature at 9i lies
        # 6e154 away, so rho = 2**513, whose square overflows; capped at
        # 1e150 the disk stays finite, and so do the points on its edge
        feats = [(HalfLine(9j), "upper")] + [(HalfLine(0j), "upper")] * 4
        origin, scale = 1.5e-154j, 1.5e-154
        local = FeatureArrays(feats, origin, scale)._local
        assert local.disk_sq == (1e150 * (1.0 - 1e-12)) ** 2
        rho = math.sqrt(local.disk_sq)
        x = np.array([rho, -rho, 0.0, 0.0, 2.0 * rho, 0.0])
        y = np.array([0.0, 0.0, rho, -rho, 0.0, 1.0])
        _, (near, _, index) = _same_as_full(feats, x, y, origin, scale)
        assert np.isfinite(near).all()
        assert index.tolist() == [1] * 6

    def test_more_than_256_features_widen_the_index(self):
        rng = np.random.default_rng(30)
        anchors = rng.uniform(-150.0, 150.0, 300) + 1j * rng.uniform(-6.0, 6.0, 300)
        feats = [(HalfLine(complex(a)), "upper") for a in anchors]
        x = np.concatenate([rng.uniform(-160.0, 160.0, 2000), np.arange(-8.0, 9.0)])
        y = np.concatenate([rng.uniform(-8.0, 8.0, 2000), np.zeros(17)])
        local, (near, second, index) = _same_as_full(feats, x, y)
        assert local._local is not None
        assert local._features[0][0].dtype == np.uint16
        # _reference's formula, points by features
        dx = np.maximum(x[:, None] - anchors.real, 0.0)
        dy = y[:, None] - anchors.imag
        squares = dy * dy + dx * dx
        assert (index == squares.argmin(axis=1)).all()
        assert index.max() > 255
        assert (near == np.sqrt(squares.min(axis=1))).all()
        assert (second == np.sqrt(np.sort(squares, axis=1)[:, 1])).all()

    @settings(max_examples=300)
    @given(st.data())
    def test_channel_path_equals_the_full_kernel(self, data):
        feats, (dn, up) = data.draw(channel_frames())
        local = FeatureArrays(feats)._local
        if local is not None:
            # a wall through the origin with its tip right of it, as a point
            # on a tooth sees that tooth, lies on neither side of a channel
            # and is never shadowed: it stays a candidate
            kept = {int(f[0]) for f in local.features}
            assert all(k in kept for k, (geom, _) in enumerate(feats)
                       if geom.anchor.imag == 0.0 and geom.anchor.real >= 0.0)
        rho = math.sqrt(local.disk_sq) if local is not None else 1.0
        heights = sorted({geom.anchor.imag for geom, _ in feats})
        ys = [dn, up, math.nextafter(dn, -math.inf), math.nextafter(up, math.inf),
              math.nextafter(dn, math.inf), math.nextafter(up, -math.inf), 0.0]
        # across every wall: half-way to the next, and one ulp either side
        ys += [(a + b) / 2.0 for a, b in zip(heights, heights[1:])]
        ys += [math.nextafter(h, d) for h in heights for d in (-math.inf, math.inf)]
        ys += [dn + s * (up - dn) for s in data.draw(st.lists(st.floats(0.0, 1.0), max_size=20))]
        xs = [0.0, rho, -rho, math.nextafter(rho, math.inf)]
        xs += [r * rho for r in data.draw(st.lists(st.floats(-1.2, 1.2), max_size=8))]
        pts = [(v, w) for v in xs for w in ys]
        pts += [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan), (math.inf, math.nan),
                (0.0, math.inf), (-math.inf, 0.0)]
        x = np.array([p[0] for p in pts])
        y = np.array([p[1] for p in pts])
        _same_as_full(feats, x, y)

    # a channel of height 4: walls at 1 and -3, shadows at 6 and -18, far
    # walls at 100 and -150, every tip at 1024
    CHANNEL = [(HalfLine(complex(1024.0, h)), "upper" if h > 0 else "lower")
               for h in (6.0, 1.0, -3.0, -18.0, 100.0, -150.0)]

    def test_channel_keeps_the_pair(self):
        # D_k = 1, 3, 6, 18, 100: rho = 32, C = the first four, the pair
        # 1 and -3 of height 4 shadows 6 (5 past 1) and -18 (15 past -3);
        # the limit test's bound is the height, below L = 100 - 32
        local = FeatureArrays(self.CHANNEL)._local
        assert [int(f[0]) for f in local.features] == [1, 2]
        assert all(f[1] is None for f in local.features)  # both cover the disk
        assert local.limit_sq == 16.0
        y = np.array([0.0, 0.999, -2.5, 1.0, -3.0, 1.5, -4.0, 5.0, math.nan])
        x = np.array([0.0, 20.0, -31.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0])
        _, (near, second, index) = _same_as_full(self.CHANNEL, x, y)
        assert index.tolist()[:5] == [1, 1, 2, 1, 2]
        assert near.tolist()[:3] == [1.0, 1.0 - 0.999, 0.5]

    @pytest.mark.parametrize("gap, channel", [
        (4.0, False), (4.0 * (1.0 + 1e-13), False), (4.0 * (1.0 + 2e-12), True)])
    def test_shadow_gap_needs_the_margin(self, gap, channel):
        # the upper shadow wall lies past the pair's upper wall by gap
        feats = [(HalfLine(complex(1024.0, 1.0 + gap)), "upper")] + self.CHANNEL[1:]
        local = FeatureArrays(feats)._local
        assert (len(local.features) == 2) == channel
        y = np.array([0.0, 0.999999, -2.999999, 1.0, 0.5 + gap / 2.0])
        _same_as_full(feats, np.zeros(5), y)

    def test_wall_through_the_origin_keeps_todays_set(self):
        # a point on a tooth sees that tooth at hy = 0: no channel, and the
        # candidate set is the four nearest features of the plain rule
        feats = self.CHANNEL + [(HalfLine(complex(1024.0, 0.0)), "upper")]
        local = FeatureArrays(feats)._local
        assert [int(f[0]) for f in local.features] == [0, 1, 2, 6]
        y = np.array([0.0, 0.5, -0.5, 1.0, -3.0, 2.0])
        _same_as_full(feats, np.zeros(6), y)

    def test_shadow_by_the_disk(self):
        # a wall between the pair's heights whose tip lies far left of the
        # disk is shadowed by its distance from the disk instead; nearer
        # than the channel height past the disk, it keeps today's set
        # D_k = 1, 3, 18, about 40 or 35, 100: rho = 32, C = the first four
        for tip, channel in ((-40.0, True), (-35.0, False)):
            feats = [f for f in self.CHANNEL if f[0].anchor.imag != 6.0]
            feats.append((HalfLine(complex(tip, 0.5)), "upper"))
            local = FeatureArrays(feats)._local
            assert len(local.features) == (2 if channel else 4)
            x, y = np.array([0.0, -32.0, 31.9]), np.array([0.5, 0.5, -2.9])
            _same_as_full(feats, x, y)


class TestSlopeOf:
    def test_examples(self):
        assert slope_of(1, 0) == 0.0
        assert slope_of(1, 1 - 0.1j) == pytest.approx(math.pi / 2, abs=1e-15)
        assert slope_of(1, 0.9) == 0.0

    def test_undefined_at_base_point(self):
        with pytest.raises(DomainError):
            slope_of(1, 1)

    def test_rejects_points_beyond_tangent(self):
        with pytest.raises(DomainError):
            slope_of(1, 2 + 0j)

    def test_rejects_off_circle_base(self):
        with pytest.raises(DomainError):
            slope_of(0.5, 0)

    @given(angles, st.floats(min_value=0, max_value=0.999), angles)
    def test_range_on_closed_disk(self, phi, r, psi):
        b = cmath.exp(1j * phi)
        z = r * cmath.exp(1j * psi)
        val = slope_of(b, z)
        assert -math.pi / 2 <= val <= math.pi / 2


class TestMobius:
    def test_identity_at_zero(self):
        t = mobius_to_zero(0j)
        assert t(0.3 + 0.4j) == 0.3 + 0.4j

    def test_sends_base_to_zero(self):
        t = mobius_to_zero(0.5 + 0j)
        assert t(0.5) == 0
        assert t(1) == pytest.approx(1)

    def test_rejects_boundary_base(self):
        with pytest.raises(DomainError):
            mobius_to_zero(1 + 0j)

    @given(
        st.floats(min_value=0, max_value=0.95),
        angles,
        angles,
    )
    def test_preserves_unit_circle(self, r, phi, theta):
        t = mobius_to_zero(r * cmath.exp(1j * phi))
        assert abs(abs(t(cmath.exp(1j * theta))) - 1.0) < 1e-12


class TestBoundaryArc:
    def test_normalizes_endpoints(self):
        arc = BoundaryArc(-1 + 1e-12j, 1 + 0j)
        assert abs(abs(arc.start) - 1) == 0.0

    def test_central_angle(self):
        assert BoundaryArc(-1, 1).central_angle == pytest.approx(math.pi)
        assert BoundaryArc(1j, 1).central_angle == pytest.approx(math.pi / 2)
        assert BoundaryArc(1, 1j).central_angle == pytest.approx(3 * math.pi / 2)

    def test_complement_angle(self):
        arc = BoundaryArc(cmath.exp(2j), cmath.exp(0.7j))
        total = arc.central_angle + arc.complement().central_angle
        assert total == pytest.approx(2 * math.pi, abs=1e-12)

    def test_rejects_equal_endpoints(self):
        with pytest.raises(DomainError):
            BoundaryArc(1, 1)


class TestLevelArc:
    def test_half_level_of_antipodal_arcs_is_diameter(self):
        for start, end in ((-1, 1), (-1j, 1j)):
            la = level_set_arc(0.5, BoundaryArc(start, end))
            assert la.is_straight
            assert la.radius == math.inf
            mid = la.point_at(0.5)
            assert abs(mid - (complex(start) + complex(end)) / 2) < 1e-12

    def test_endpoints_are_exact(self):
        arc = BoundaryArc(cmath.exp(2.2j), cmath.exp(0.4j))
        la = level_set_arc(0.3, arc)
        assert la.point_at(0.0) == arc.start
        assert la.point_at(1.0) == arc.end

    def test_quarter_level_bulges_away_from_arc(self):
        # the k = 1/4 locus of the upper semicircle lies in the lower half disk
        la = level_set_arc(0.25, BoundaryArc(-1, 1))
        assert not la.is_straight
        assert la.point_at(0.5).imag < 0

    def test_meets_circle_at_level_angle(self):
        # angle between the arc tangent at the end point and the clockwise
        # circle tangent equals level * pi
        for level in (0.1, 0.25, 0.5, 0.75, 0.9):
            for arc in (BoundaryArc(-1, 1), BoundaryArc(cmath.exp(2.5j), cmath.exp(1.1j))):
                la = level_set_arc(level, arc)
                t = la.tangent_at_end()
                ang = abs(cmath.phase(t / (-1j * arc.end)))
                assert ang == pytest.approx(level * math.pi, abs=1e-9)

    def test_rejects_bad_level(self):
        arc = BoundaryArc(-1, 1)
        for level in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                level_set_arc(level, arc)

    def test_parameter_domain(self):
        la = level_set_arc(0.4, BoundaryArc(-1, 1))
        with pytest.raises(DomainError):
            la.point_at(1.5)


class TestTangentRay:
    def test_half_level_ray_is_real_axis(self):
        ray = tangent_ray(0.5, BoundaryArc(-1, 1))
        assert ray.angle == 0.0
        assert ray.point_at(0.25) == pytest.approx(0.75)
        assert slope_of(1, ray.point_at(0.25)) == 0.0

    @pytest.mark.parametrize("level,expected", [(0.25, math.pi / 4), (0.75, -math.pi / 4)])
    def test_constant_slope_on_ray(self, level, expected):
        # s below ~1e-4 hits float cancellation in 1 - z itself, so sample
        # from 1e-3 outward
        ray = tangent_ray(level, BoundaryArc(-1, 1))
        for s in (1e-3, 0.1, 0.5, 0.9 * ray.max_param):
            assert slope_of(1, ray.point_at(s)) == pytest.approx(expected, abs=1e-12)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        angles,
        st.floats(min_value=0.02, max_value=0.99),
    )
    @settings(max_examples=200)
    def test_slope_identity_everywhere(self, level, phi, frac):
        base = cmath.exp(1j * phi)
        arc = BoundaryArc(-base, base)
        ray = tangent_ray(level, arc)
        z = ray.point_at(frac * ray.max_param)
        assert slope_of(base, z) == pytest.approx(math.pi * (0.5 - level), abs=1e-12)

    def test_ray_enters_open_disk(self):
        ray = tangent_ray(0.3, BoundaryArc(-1j, 1j))
        for s in (1e-3, 0.2, 0.5):
            assert abs(ray.point_at(s * ray.max_param)) < 1.0

    def test_tangent_to_level_arc(self):
        for level in (0.2, 0.5, 0.7):
            arc = BoundaryArc(cmath.exp(2.8j), cmath.exp(0.9j))
            ray = tangent_ray(level, arc)
            la = level_set_arc(level, arc)
            cross = (ray.direction.conjugate() * la.tangent_at_end()).imag
            assert abs(cross) < 1e-9
            # both orientations point into the disk
            dot = (ray.direction.conjugate() * la.tangent_at_end()).real
            assert dot > 0

    def test_rejects_bad_level(self):
        with pytest.raises(DomainError):
            tangent_ray(1.0, BoundaryArc(-1, 1))


def test_require_finite():
    assert require_finite(1 + 2j) == 1 + 2j
    with pytest.raises(DomainError):
        require_finite(complex(math.inf, 0))
