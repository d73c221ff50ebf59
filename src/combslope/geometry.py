"""Exact plane and unit-disk geometry kernel.

Leftward half-line "teeth", oriented boundary arcs of the unit circle,
disk automorphisms, harmonic-measure level arcs, and the slope angle of a
disk point relative to a boundary point.  :class:`FeatureArrays` is the one
distance kernel: the comb's boundary distance and the walk-on-spheres
estimator both measure through it.  All operations are pure functions and
no object is modified after construction, so everything here is safe to
share across threads and processes.

Orientation convention: a :class:`BoundaryArc` is always traversed
CLOCKWISE from ``start`` to ``end``.  Sketch, with the arc drawn as the
upper piece of the circle and a level arc (level < 1/2) bulging away
from it into the lower half::

      start  _,--~~--._
           *'   arc    `*  end
           |        ray_,'|          level arc: runs from start to end,
           |      _,-'v   |          meets the circle at angle level*pi
           *._   '       _*
              `--..___,--'           ray: tangent to the level arc at
               level arc             end; along it the slope angle
                                     arg(1 - conj(end) z) is constant

Level arcs and tangent rays are derived under that convention; which side
of the chord a level arc bulges toward is fixed by requiring that the
harmonic measure of the arc equals the level on every arc point (checked
in the test suite against the disk-arc oracle), never by guessing a sign.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError

__all__ = [
    "BoundaryArc",
    "DiskMobius",
    "FeatureArrays",
    "HalfLine",
    "LevelArc",
    "TangentRay",
    "level_set_arc",
    "mobius_to_zero",
    "require_finite",
    "slope_of",
    "tangent_ray",
]

_UNIT_TOL = 1e-9
_TWO_PI = 2.0 * math.pi
_ZERO = np.array(0.0)
# local candidate sets (see FeatureArrays.distances): how many features
# they hold, the relative margin of their two tests, the range of their bounds
_CANDIDATES = 4
_MARGIN = 1e-12
_LIMIT_CAP = 1e150
_SCALE_FLOOR = 1e-145


def require_finite(z: complex) -> complex:
    """Reject points with NaN or infinite components."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"point has non-finite components: {z!r}")
    return z


def _require_unit(z: complex, what: str) -> complex:
    require_finite(z)
    r = abs(z)
    if abs(r - 1.0) > _UNIT_TOL:
        raise DomainError(f"{what} must lie on the unit circle, got |z| = {r}")
    return z / r


@dataclass(frozen=True)
class HalfLine:
    """Closed leftward horizontal ray ``{anchor + t : t <= 0}``."""

    anchor: complex

    def __post_init__(self) -> None:
        require_finite(self.anchor)


class _Candidates(NamedTuple):
    """A local candidate set (see :meth:`FeatureArrays.distances`): the
    features ``C`` as ``(index, hx, hy)`` and the squared bounds of its two
    tests, margin included."""

    features: list
    disk_sq: np.ndarray
    limit_sq: np.ndarray


class FeatureArrays:
    """Labeled half-lines flattened to numpy arrays.

    ``features`` holds ``(geometry, label)`` pairs, each geometry a
    :class:`HalfLine` and each label ``"upper"`` or ``"lower"``; index ``i``
    from :meth:`distances` and ``is_upper[i]`` belong to feature ``i``.
    Coordinates are stored as ``(z - origin) / scale``.

    Distances are square roots of squared distances, so they hold the
    range of the squares: a distance below about 1.5e-154 has a subnormal
    square and loses precision, one below about 1.5e-162 reads 0, and one
    above about 1.3e154 reads ``inf``.  Walkers are absorbed far above
    that floor (the epsilon shell), and the comb coordinates lie far below
    that ceiling.

    Where the features allow it, the arrays hold a local candidate set
    around the origin that :meth:`distances` uses to skip the far features
    (see there); it never changes a result.
    """

    def __init__(self, features, origin: complex = 0j, scale: float = 1.0):
        hx, hy, upper = [], [], []
        for geom, label in features:
            if not isinstance(geom, HalfLine):
                raise DomainError(f"expected half-lines, got {type(geom)!r}")
            hx.append((geom.anchor.real - origin.real) / scale)
            hy.append((geom.anchor.imag - origin.imag) / scale)
            upper.append(label == "upper")
        # the nearest index runs in the narrowest unsigned type that holds
        # it: uint8 up to 256 features
        index_type = np.min_scalar_type(max(len(hx) - 1, 0))
        # 0-d arrays: numpy broadcasts them faster than Python floats
        self._features = [
            (np.array(i, dtype=index_type), np.array(x), np.array(y))
            for i, (x, y) in enumerate(zip(hx, hy))
        ]
        self.is_upper = np.asarray(upper, dtype=bool)
        # each feature as the part of the line Im = wall_y left of x_hi
        self.x_hi = np.asarray(hx, dtype=float)
        self.wall_y = np.asarray(hy, dtype=float)
        self._local = self._candidate_set()

    def _candidate_set(self):
        """The features that can be nearest or second-nearest to a point
        near the origin, with the two squared bounds that tell such a
        point; ``None`` where no feature can be skipped.  See
        :meth:`distances` for the rule and its margin."""
        dist = self.hypot_distances()
        ranked = np.sort(dist)
        if ranked.size <= _CANDIDATES:
            return None
        start = ranked[0]
        gap = (ranked[_CANDIDATES] - start) / 2.0
        if not _SCALE_FLOOR <= gap < math.inf:
            return None
        # the largest power of two at most half the gap to the fifth feature
        rho = math.ldexp(0.5, math.frexp(gap)[1])
        near = dist <= start + 2.0 * rho
        if near.all():
            return None
        limit = min(float((dist[~near] - rho).min()), _LIMIT_CAP) * (1.0 - _MARGIN)
        if not limit >= _SCALE_FLOOR:
            return None
        disk = min(rho, _LIMIT_CAP) * (1.0 - _MARGIN)
        subset = [f for f, keep in zip(self._features, near) if keep]
        return _Candidates(subset, np.array(disk * disk), np.array(limit * limit))

    def hypot_distances(self) -> np.ndarray:
        """Each feature's distance from the origin of the stored frame, by
        one ``hypot`` per feature: no square, so no range but the double
        range, where a distance beyond it reads ``inf``."""
        with np.errstate(over="ignore"):
            return np.hypot(np.maximum(-self.x_hi, 0.0), self.wall_y)

    @staticmethod
    def _square(x, y, hx, hy, dx, out):
        """The points' squared distances to the closed half-line at
        ``(hx, hy)``, ``(y - hy)**2 + max(x - hx, 0)**2``, 0 exactly on it,
        into ``out``; ``dx`` is scratch."""
        # straight above or below the ray dx is 0, so the root is |dy|
        np.subtract(x, hx, out=dx)
        np.maximum(dx, _ZERO, out=dx)
        np.multiply(dx, dx, out=dx)
        np.subtract(y, hy, out=out)
        np.multiply(out, out, out=out)
        out += dx

    def _running_min(self, features, x, y, second, index):
        """The points' smallest squared distance over ``features``, a list
        of ``(index, hx, hy)`` in index order; fills ``second`` and
        ``index`` (see :meth:`distances`) with no masked write.  Per
        feature, the larger of the old minimum and the new square lowers
        the second, the new square lowers the minimum, and the index is the
        last feature that strictly lowered the minimum, so the first one on
        ties."""
        second.fill(np.inf)
        if not features:
            index.fill(0)
            return np.full_like(x, np.inf)
        near = np.empty_like(x)
        d = np.empty_like(x)
        scratch = np.empty_like(x)
        i, hx, hy = features[0]
        last = np.full(x.shape, i)
        lower = np.empty_like(last)
        with np.errstate(over="ignore"):
            self._square(x, y, hx, hy, scratch, near)  # the first only sets the minimum
            for i, hx, hy in features[1:]:
                self._square(x, y, hx, hy, scratch, d)
                np.less(d, near, out=lower)
                lower *= i
                np.maximum(last, lower, out=last)
                np.maximum(near, d, out=scratch)
                np.minimum(second, scratch, out=second)
                np.minimum(near, d, out=near)
        np.copyto(index, last)
        return near

    def distances(
        self, x: np.ndarray, y: np.ndarray, second: np.ndarray, index: np.ndarray
    ) -> np.ndarray:
        """Each point's distance to its nearest feature: a running minimum
        over the features' squared distances, one pass each, with no
        features-by-points matrix and no masked write, then two square
        roots per point.

        The same pass fills the caller-owned ``second`` (float) and
        ``index`` (integer) arrays of the points' shape with each point's
        second-smallest feature distance (``inf`` with one feature; equal to
        the nearest on ties) and the index of its nearest feature, the first
        one on ties.  Minima and ties are taken on the squares.

        A feature more than about 1.3e154 away has a square that overflows;
        it reads as ``inf`` without a warning, the right distance for it.

        With a local candidate set every point first runs over the
        candidates only.  With ``D_k`` feature ``k``'s distance
        from the origin and ``D_1`` the smallest, ``rho`` is the largest
        power of two at most ``(D_5 - D_1) / 2`` in sorted order, the
        candidates are ``C = {k : D_k <= D_1 + 2 rho}``, the four nearest
        features (and those at ``D_5`` where ``D_1 + 2 rho`` reaches it),
        and ``L = min over k not in C of D_k - rho``.
        A point within ``rho`` of the origin is at least ``L`` from every
        feature outside ``C``, so if its second minimum over ``C`` is
        below ``L`` its nearest distance, second minimum and index over
        ``C`` are those over all features, bit for bit: the squares are
        computed alike, and every skipped square is strictly larger.  Every
        other point runs over all features.

        Both tests are conservative in floating point: each shrinks its
        bound by the relative margin 1e-12 before squaring, so a point
        passes only if ``x**2 + y**2 <= (rho (1 - 1e-12))**2`` and
        ``second**2 < (L (1 - 1e-12))**2``, computed.  With ``u = 2**-53``,
        a computed square is within ``5u`` of the exact one; ``L`` is within
        ``6u`` (one ``hypot`` for ``D_k``, then ``D_k - rho``, which loses
        at most a factor 2 since ``D_k > 2 rho``); squaring a bound adds
        ``3u``.  That is under ``25u`` in all, against the margin's
        ``2e-12``, about ``18000u``.  The bound holds for normal squares
        only, so ``L`` and the disk's radius are capped at 1e150 (a
        smaller bound is still a bound), and no set is built when half the
        gap or ``L`` is below 1e-145.
        """
        if self._local is None:
            near = self._running_min(self._features, x, y, second, index)
        else:
            local = self._local
            near = self._running_min(local.features, x, y, second, index)
            with np.errstate(over="ignore"):  # inf is outside the disk
                far = np.multiply(x, x)
                far += np.multiply(y, y)
            # a point stays on the candidate path only where both tests hold,
            # so a NaN coordinate, which fails every comparison, is far
            far = np.less_equal(far, local.disk_sq)
            far &= np.less(second, local.limit_sq)
            far = np.flatnonzero(~far)
            if far.size:
                x, y = x.take(far), y.take(far)
                all_second = np.empty_like(x)
                all_index = np.empty(x.shape, dtype=index.dtype)
                near[far] = self._running_min(self._features, x, y, all_second, all_index)
                second[far] = all_second
                index[far] = all_index
        np.sqrt(second, out=second)
        return np.sqrt(near, out=near)

    def end_distance(self, x: np.ndarray, index: np.ndarray) -> np.ndarray:
        """Distance along the wall from abscissa ``x`` to the end of feature
        ``index``: positive where ``x`` lies strictly inside it."""
        out = self.x_hi[index]
        out -= x
        return out


@dataclass(frozen=True)
class BoundaryArc:
    """Arc of the unit circle traversed clockwise from ``start`` to ``end``.

    Endpoints are renormalized to exact unit modulus on construction.
    """

    start: complex
    end: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _require_unit(self.start, "arc start"))
        object.__setattr__(self, "end", _require_unit(self.end, "arc end"))
        if self.start == self.end:
            raise DomainError("arc endpoints must be distinct")

    @property
    def central_angle(self) -> float:
        """Angular length of the clockwise traversal, in (0, 2*pi)."""
        delta = (cmath.phase(self.start) - cmath.phase(self.end)) % _TWO_PI
        return delta if delta > 0.0 else _TWO_PI

    def complement(self) -> "BoundaryArc":
        """The complementary arc (clockwise from ``end`` to ``start``)."""
        return BoundaryArc(self.end, self.start)


def slope_of(boundary_point: complex, z: complex) -> float:
    """Slope angle ``arg(1 - conj(b) * z)`` of ``z`` relative to boundary point ``b``.

    Lies in ``[-pi/2, pi/2]`` on the accepted domain: the closed unit disk
    together with the half-plane slab where ``Re(1 - conj(b) z) >= 0`` (the
    end points of that range are only attained on the tangent line at
    ``b``).  Points beyond that tangent line are rejected rather than
    clamped, since they indicate an upstream bug.
    """
    b = _require_unit(boundary_point, "boundary point")
    require_finite(z)
    w = 1.0 - b.conjugate() * z
    if w == 0:
        raise DomainError("slope angle undefined at the boundary point itself")
    if w.real < -1e-12 * (1.0 + abs(z)):
        raise DomainError(
            f"slope_of needs z on the disk side of the tangent at {b}, got {z}"
        )
    return math.atan2(w.imag, max(w.real, 0.0))


@dataclass(frozen=True)
class DiskMobius:
    """Disk automorphism ``T(z) = (z - a) / (1 - conj(a) z)`` with ``T(a) = 0``."""

    a: complex

    def __post_init__(self) -> None:
        require_finite(self.a)
        if abs(self.a) >= 1.0:
            raise DomainError(f"Mobius base point must satisfy |a| < 1, got {abs(self.a)}")

    def __call__(self, z: complex) -> complex:
        return (z - self.a) / (1.0 - self.a.conjugate() * z)

    def apply_arc(self, arc: BoundaryArc) -> BoundaryArc:
        """Image arc; disk automorphisms preserve the circle and its orientation."""
        return BoundaryArc(self(arc.start), self(arc.end))


def mobius_to_zero(a: complex) -> DiskMobius:
    """The disk automorphism sending ``a`` to the origin."""
    return DiskMobius(a)


def _halfplane_chart(arc: BoundaryArc) -> tuple[complex, complex]:
    # S(w) = start*(w - p)/(w - conj(p)) maps the upper half-plane onto the
    # disk with S(0) = end, S(inf) = start; the positive real axis maps onto
    # the clockwise arc from start to end.  Requires p/conj(p) = end/start.
    half = ((cmath.phase(arc.end) - cmath.phase(arc.start)) % _TWO_PI) / 2.0
    return cmath.exp(1j * half), arc.start


def _chart_point(arc: BoundaryArc, w: complex) -> complex:
    p, s = _halfplane_chart(arc)
    return s * (w - p) / (w - p.conjugate())


def _circumcircle(a: complex, b: complex, c: complex) -> tuple[complex, float] | None:
    d = 2.0 * (
        a.real * (b.imag - c.imag)
        + b.real * (c.imag - a.imag)
        + c.real * (a.imag - b.imag)
    )
    span = max(abs(a - b), abs(b - c), abs(c - a))
    if abs(d) <= 1e-14 * span * span * span or span == 0.0:
        return None
    aa, bb, cc = abs(a) ** 2, abs(b) ** 2, abs(c) ** 2
    ux = (aa * (b.imag - c.imag) + bb * (c.imag - a.imag) + cc * (a.imag - b.imag)) / d
    uy = (aa * (c.real - b.real) + bb * (a.real - c.real) + cc * (b.real - a.real)) / d
    center = complex(ux, uy)
    return center, abs(center - a)


@dataclass(frozen=True)
class LevelArc:
    """Locus of disk points where the arc's harmonic measure equals ``level``.

    A circular arc with the same endpoints as the boundary arc, meeting the
    unit circle at angle ``level * pi``.  ``point_at`` parametrizes it from
    ``start`` (s = 0) to ``end`` (s = 1) exactly, independent of the fitted
    center/radius descriptor; when the locus degenerates to the straight
    chord, ``is_straight`` is set and ``radius`` is infinite.
    """

    start: complex
    end: complex
    level: float
    is_straight: bool
    center: complex | None
    radius: float

    def point_at(self, s: float) -> complex:
        if not 0.0 <= s <= 1.0:
            raise DomainError(f"arc parameter must be in [0, 1], got {s}")
        if s == 0.0:
            return self.start
        if s == 1.0:
            return self.end
        arc = BoundaryArc(self.start, self.end)
        rho = math.tan((1.0 - s) * math.pi / 2.0)
        w = rho * cmath.exp(1j * math.pi * (1.0 - self.level))
        return _chart_point(arc, w)

    def tangent_at_end(self) -> complex:
        """Unit tangent of the level arc at ``end``, oriented into the disk."""
        if self.is_straight or self.center is None:
            t = self.start - self.end
            return t / abs(t)
        t = 1j * (self.end - self.center)
        t /= abs(t)
        probe = self.point_at(0.999) - self.end
        if (t.real * probe.real + t.imag * probe.imag) < 0.0:
            t = -t
        return t


def level_set_arc(level: float, arc: BoundaryArc) -> LevelArc:
    """The level arc of the harmonic measure of ``arc`` at height ``level``.

    Raises :class:`DomainError` unless ``0 < level < 1``.
    """
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {level}")
    delta = arc.central_angle
    # The chord itself carries measure 1 - delta/(2*pi); at that level the
    # arc is straight and the circumcircle degenerates.
    straight_level = 1.0 - delta / _TWO_PI
    if abs(level - straight_level) <= 1e-12:
        return LevelArc(arc.start, arc.end, level, True, None, math.inf)
    mid = _chart_point(arc, cmath.exp(1j * math.pi * (1.0 - level)))
    fit = _circumcircle(arc.start, arc.end, mid)
    if fit is None:
        return LevelArc(arc.start, arc.end, level, True, None, math.inf)
    center, radius = fit
    return LevelArc(arc.start, arc.end, level, False, center, radius)


@dataclass(frozen=True)
class TangentRay:
    """Ray from ``base`` into the disk on which the slope angle is constant.

    Every point ``base + s * direction`` with ``0 < s < max_param`` lies in
    the open disk and satisfies ``slope_of(base, .) == pi * (1/2 - level)``
    exactly; the ray is tangent at ``base`` to the level arc of the same
    level.
    """

    base: complex
    level: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", _require_unit(self.base, "ray base"))
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"level must lie in (0, 1), got {self.level}")

    @property
    def angle(self) -> float:
        """The constant slope value ``pi * (1/2 - level)``."""
        return math.pi * (0.5 - self.level)

    @property
    def direction(self) -> complex:
        return -self.base * cmath.exp(1j * self.angle)

    @property
    def max_param(self) -> float:
        """Parameter at which the ray meets the unit circle again."""
        return 2.0 * math.cos(self.angle)

    def point_at(self, s: float) -> complex:
        if not 0.0 <= s <= self.max_param:
            raise DomainError(f"ray parameter must be in [0, {self.max_param}], got {s}")
        return self.base + s * self.direction


def tangent_ray(level: float, arc: BoundaryArc) -> TangentRay:
    """Ray from ``arc.end`` tangent to the level arc there."""
    if not 0.0 < level < 1.0:
        raise DomainError(f"level must lie in (0, 1), got {level}")
    return TangentRay(arc.end, level)
