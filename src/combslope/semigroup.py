"""Closed-form Koenigs models, trajectories, and slope limits.

Two model domains carry explicit conformal maps from the unit disk: the
horizontal strip ``{-d < Im w < d}`` and the upper half-plane.  Both are
closed under right translation, so ``z -> h_inv(h(z) + t)`` is a trajectory
for every t (the start time is -infinity in both models).

Slope angles near the attracting boundary point are evaluated through
model-specific stable formulas for ``1 - conj(xi) * gamma(t)``: the naive
difference collapses to zero in double precision once the trajectory gets
within machine epsilon of the boundary (for the strip that happens near
``t ~ 47 d``), while the stable forms stay accurate to ``t ~ 400 d``.

Comb domains deliberately get no inverse map here.  No closed form exists
for them; their slope intervals come from measured harmonic-measure limits
through the analyzer instead.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .analyzer import SlopeInterval
from .errors import DomainError
from .geometry import slope_of

__all__ = [
    "HalfPlaneModel",
    "KoenigsModel",
    "StripModel",
    "Trajectory",
    "slope_minus",
    "slope_plus",
    "trajectory",
    "trajectory_to_csv",
]


@dataclass(frozen=True)
class StripModel:
    """Koenigs model onto the strip ``{-d < Im w < d}``.

    ``h(z) = (2d/pi) log((1+z)/(1-z))`` with inverse ``tanh(pi w / (4d))``.
    The attracting boundary point is +1, the repelling one is -1.
    """

    half_width: float

    def __post_init__(self) -> None:
        if not self.half_width > 0.0:
            raise DomainError(f"strip half-width must be positive, got {self.half_width}")

    @property
    def denjoy_wolff(self) -> complex:
        return 1.0 + 0j

    @property
    def alpha_point(self) -> complex:
        return -1.0 + 0j

    def contains(self, w: complex) -> bool:
        return abs(w.imag) < self.half_width

    def koenigs(self, z: complex) -> complex:
        if abs(z) >= 1.0:
            raise DomainError(f"koenigs map needs |z| < 1, got {abs(z)}")
        return 2.0 * self.half_width / math.pi * cmath.log((1.0 + z) / (1.0 - z))

    def koenigs_inverse(self, w: complex) -> complex:
        if not self.contains(w):
            raise DomainError(f"{w} is outside the strip of half-width {self.half_width}")
        return cmath.tanh(math.pi * w / (4.0 * self.half_width))

    def _u(self, w: complex) -> complex:
        return math.pi * w / (2.0 * self.half_width)  # = 2 * pi w / (4d)

    def slope_at(self, w: complex, boundary_point: complex) -> float:
        """Slope angle of the trajectory point ``h_inv(w)`` at a boundary point,
        via cancellation-free forms at the two distinguished points."""
        u = self._u(w)
        if abs(boundary_point - 1.0) <= 1e-12:
            # arg(1 - tanh(u/2)) = -arg(1 + e^u); adding 0.0 drops negative zero
            if u.real > 40.0:
                return -u.imag + 0.0
            return -cmath.phase(1.0 + cmath.exp(u)) + 0.0
        if abs(boundary_point + 1.0) <= 1e-12:
            if u.real < -40.0:
                return u.imag + 0.0
            return -cmath.phase(1.0 + cmath.exp(-u)) + 0.0
        return slope_of(boundary_point, self.koenigs_inverse(w))


@dataclass(frozen=True)
class HalfPlaneModel:
    """Koenigs model onto the upper half-plane: ``h(z) = i (1-z)/(1+z)``.

    The attracting boundary point is -1 (both time directions approach it).
    """

    @property
    def denjoy_wolff(self) -> complex:
        return -1.0 + 0j

    @property
    def alpha_point(self) -> complex:
        return -1.0 + 0j

    def contains(self, w: complex) -> bool:
        return w.imag > 0.0

    def koenigs(self, z: complex) -> complex:
        if abs(z) >= 1.0:
            raise DomainError(f"koenigs map needs |z| < 1, got {abs(z)}")
        return 1j * (1.0 - z) / (1.0 + z)

    def koenigs_inverse(self, w: complex) -> complex:
        if not self.contains(w):
            raise DomainError(f"{w} is not in the upper half-plane")
        return (1j - w) / (1j + w)

    def slope_at(self, w: complex, boundary_point: complex) -> float:
        if abs(boundary_point + 1.0) <= 1e-12:
            # 1 + gamma = 2i / (i + w), stable for large |w|
            return math.pi / 2.0 - cmath.phase(1j + w)
        return slope_of(boundary_point, self.koenigs_inverse(w))


KoenigsModel = StripModel | HalfPlaneModel


@dataclass(frozen=True)
class Trajectory:
    """Samples of the extended trajectory ``t -> h_inv(h(z0) + t)``."""

    model: KoenigsModel
    z0: complex
    times: tuple[float, ...]
    points: tuple[complex, ...]
    w_values: tuple[complex, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.points) or len(self.times) != len(self.w_values):
            raise DomainError("trajectory sample arrays must have equal length")
        for a, b in zip(self.times, self.times[1:]):
            if not b > a:
                raise DomainError("trajectory times must be strictly increasing")


def trajectory(model: KoenigsModel, z: complex, t_values) -> Trajectory:
    """Evaluate the trajectory of ``z`` at strictly increasing times."""
    w0 = model.koenigs(z)
    times, points, ws = [], [], []
    for t in t_values:
        w = w0 + t
        if not model.contains(w):
            raise DomainError(f"h(z) + {t} = {w} leaves the model domain")
        times.append(float(t))
        points.append(model.koenigs_inverse(w))
        ws.append(w)
    return Trajectory(model, z, tuple(times), tuple(points), tuple(ws))


def _tail_slice(n: int, fraction: float) -> int:
    return max(0, n - max(2, int(math.ceil(fraction * n))))


def _slopes(traj: Trajectory, boundary_point: complex, indices) -> list[float]:
    return [traj.model.slope_at(traj.w_values[i], boundary_point) for i in indices]


def slope_plus(
    traj: Trajectory,
    boundary_point: complex | None = None,
    tail_fraction: float = 0.2,
    min_samples: int = 4,
) -> SlopeInterval:
    """Extrema of the slope angle over the late-time tail window.

    For hyperbolic models this collapses to a singleton; widening the
    window or doubling the time horizon must not change the answer beyond
    tolerance (regression-tested).
    """
    if boundary_point is None:
        boundary_point = traj.model.denjoy_wolff
    n = len(traj.times)
    if n < min_samples:
        raise DomainError(f"need at least {min_samples} samples for a tail window, got {n}")
    start = _tail_slice(n, tail_fraction)
    vals = _slopes(traj, boundary_point, range(start, n))
    return SlopeInterval(min(vals), max(vals))


def slope_minus(
    traj: Trajectory,
    boundary_point: complex | None = None,
    tail_fraction: float = 0.2,
    min_samples: int = 4,
) -> SlopeInterval:
    """Extrema of the slope angle over the early-time (backward) window."""
    if boundary_point is None:
        boundary_point = traj.model.alpha_point
    n = len(traj.times)
    if n < min_samples:
        raise DomainError(f"need at least {min_samples} samples for a head window, got {n}")
    stop = n - _tail_slice(n, tail_fraction)
    vals = _slopes(traj, boundary_point, range(0, stop))
    return SlopeInterval(min(vals), max(vals))


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV export: t, re, im, slope (slope taken at the attracting point)."""
    bp = traj.model.denjoy_wolff
    lines = ["t,re,im,slope"]
    for t, z, w in zip(traj.times, traj.points, traj.w_values):
        lines.append(f"{t!r},{z.real!r},{z.imag!r},{traj.model.slope_at(w, bp)!r}")
    return "\n".join(lines) + "\n"
