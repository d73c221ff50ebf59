"""Walk-on-spheres Monte Carlo estimator for upper-boundary harmonic measure.

Each walker repeatedly jumps to a uniformly random point of the largest
boundary-free circle centered at its position and absorbs once it comes
within an epsilon shell of the boundary; the hit is classified by the
label ("upper" or "lower") of the nearest boundary feature.  The estimate
is the fraction of absorbed walkers classified "upper"; walks that exhaust
the step budget are counted as lost and excluded from the mean, with the
lost fraction reported so callers can bound the induced bias (lost walks
could have hit either class).

Half-disk steps: near a flat wall a circle step only halves the distance
to it on average, so a walker would spend most of its steps creeping into
the shell.  A walker close to the inside of its nearest feature (a
leftward half-line) instead leaves the half-disk of radius ``R`` on the
feature, clear of every other feature, in one exact step: absorbed on the
feature with probability ``1 - 4 atan(d/R) / pi``, else onto the half-disk's
arc by the Cauchy exit law of the map ``((R + z)/(R - z))^2`` onto the
upper half-plane (Muller 1956; Sabelfeld 1991).  It draws the same one
angle per step, so ``walker_steps`` counts angle draws either way.  The
shell still absorbs walkers that reach a tip.

Reproducibility: angle draws come from a counter-based stream, one value
per (seed, walker index, step index), so results are bit-identical for a
fixed seed regardless of batching, merge order, or how many walkers are
still active.  Tallies are integer counts, so merging is associative.  The
stream algorithm is named by ``RNG_ALGORITHM`` and frozen; changing it is a
breaking change for stored fixtures.  The stream is of angles; the plain
step turns its angle ``theta`` into a direction through ``tan(theta / 2)``,
so the last bits of a step follow numpy's ``tan`` dispatch, as they
followed libm's ``cos`` and ``sin`` before.

Memory: walkers run in chunks of ``_CHUNK`` with their global ids, and the
distance kernel keeps a running minimum, second minimum and nearest index
per point instead of a features-by-walkers matrix, with no masked write.
An estimate is bit-identical for any chunk size, and its memory is bounded
by the chunk, not by the walker count.  The kernel is built with the local
candidate set around the start point: a walker near it is measured against
the few nearest features only, and every other walker against all of them.
That set never changes a result (see ``FeatureArrays.distances``).
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .comb import boundary_distance
from .errors import EstimationError
from .geometry import FeatureArrays as _FeatureArrays, require_finite

__all__ = [
    "RNG_ALGORITHM",
    "MeasureEstimate",
    "ProfileEntry",
    "WosParams",
    "derive_seed",
    "estimate_profile",
    "estimate_upper_measure",
    "estimate_to_dict",
    "profile_to_csv",
    "profile_to_dicts",
]

RNG_ALGORITHM = "splitmix64-angles-v1"

# walkers per chunk: bounds an estimate's temporaries, never its result
_CHUNK = 1 << 16

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STEP_SALT = 0xD1B54A32D192ED03


def _mix64(x: int) -> int:
    """Scalar splitmix64 finalizer on 64-bit integers."""
    x &= _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_seed(seed: int, index: int) -> int:
    """Documented child-seed rule: ``mix64(seed + (index + 1) * golden)``.

    Used to give every profile point, anchor, and surgery run its own
    stream while keeping the whole pipeline reproducible from one seed.
    """
    return _mix64((seed + (index + 1) * _GAMMA) & _MASK)


# 0-d arrays: numpy broadcasts them faster than scalars
_U64 = tuple(
    np.array(c, dtype=np.uint64)
    for c in (_GAMMA, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31, 11)
)
_ANGLE_UNIT = np.array(2.0 * np.pi / 9007199254740992.0)
_THREE = np.array(3.0)


def _uniform_angles(seed_mixed: int, walker_ids: np.ndarray, step: int) -> np.ndarray:
    """One uniform [0, 2*pi) angle per walker for this step (vectorized)."""
    key = _mix64(seed_mixed + (step + 1) * _STEP_SALT)
    gamma, c1, c2, s30, s27, s31, s11 = _U64
    # (id + 1) * gamma + key, with the constant terms folded mod 2**64
    x = walker_ids * gamma
    x += np.array((_GAMMA + key) & _MASK, dtype=np.uint64)
    x ^= x >> s30
    x *= c1
    x ^= x >> s27
    x *= c2
    x ^= x >> s31
    x >>= s11
    return x * _ANGLE_UNIT


@dataclass(frozen=True)
class WosParams:
    """Engine knobs.  Lengths are in units of the local scale when
    ``rescale`` is on (the starting boundary distance), else absolute."""

    walkers: int = 100_000
    seed: int = 0
    epsilon_shell: float = 1e-6
    max_steps: int = 100_000
    rescale: bool = True
    max_lost_fraction: float = 1e-3

    def __post_init__(self) -> None:
        if self.walkers < 1:
            raise EstimationError(f"need at least one walker, got {self.walkers}")
        if not self.epsilon_shell > 0.0:
            raise EstimationError(f"epsilon shell must be positive, got {self.epsilon_shell}")
        if self.max_steps < 1:
            raise EstimationError(f"need max_steps >= 1, got {self.max_steps}")
        if not 0.0 <= self.max_lost_fraction <= 1.0:
            raise EstimationError(f"need 0 <= max_lost_fraction <= 1, got {self.max_lost_fraction}")


@dataclass(frozen=True)
class MeasureEstimate:
    """Bernoulli tally over non-lost walkers.

    ``stderr`` is ``sqrt(mean * (1 - mean) / walkers_used)``; ``valid``
    records whether the lost fraction stayed under the configured threshold.
    ``elapsed`` (seconds) and ``walker_steps`` (angle draws, one per active
    walker per step) are informational only and never serialized, so file
    artifacts stay byte-reproducible.
    """

    mean: float
    stderr: float
    walkers_used: int
    lost: int
    elapsed: float
    valid: bool
    walker_steps: int = 0

    @property
    def lost_fraction(self) -> float:
        total = self.walkers_used + self.lost
        return self.lost / total if total else 0.0

    @property
    def smoothed_stderr(self) -> float:
        """Laplace-smoothed standard error, positive even for 0/1 tallies.

        Degenerate small samples (every walker in one class) would otherwise
        report zero uncertainty; pass/fail policies use this floor while
        ``stderr`` keeps the plain Bernoulli formula.
        """
        n = self.walkers_used
        if n == 0:
            return float("inf")
        p = (self.mean * n + 1.0) / (n + 2.0)
        return float(np.sqrt(p * (1.0 - p) / n))


def estimate_upper_measure(
    domain, point: complex, params: WosParams = WosParams()
) -> MeasureEstimate:
    """Estimate the harmonic measure of the boundary features labeled "upper".

    The start point must be finite (else :class:`DomainError`) and strictly
    interior with a finite boundary distance above the epsilon shell (else
    :class:`EstimationError`, which names an overflowing distance).  Features
    of both labels must span more than the epsilon shell in the walkers'
    units, else no walker can tell them apart and :class:`EstimationError`
    is raised.  An estimate with every walker lost raises
    :class:`EstimationError` with diagnostics.  Deterministic for a fixed
    (seed, walkers, domain, params).
    """
    t0 = time.perf_counter()
    require_finite(point)
    d0, _ = boundary_distance(domain, point)  # an overflowing square reads inf, named below
    if not d0 > 0.0:
        raise EstimationError(f"start point {point} lies on the domain boundary")
    if not math.isfinite(d0):
        raise EstimationError(
            f"start point {point} has boundary distance {d0}: the squared distance overflows"
        )
    scale = d0 if params.rescale else 1.0
    if not d0 / scale > params.epsilon_shell:
        raise EstimationError(
            f"start point {point} has boundary distance {d0}, within the "
            f"epsilon shell {params.epsilon_shell} (scale {scale})"
        )
    feats = _FeatureArrays(domain.features(), origin=point, scale=scale)
    if feats.is_upper.any() and not feats.is_upper.all():
        # the bounding box of the features' tips, in the walkers' units
        span = math.hypot(np.ptp(feats.x_hi), np.ptp(feats.wall_y))
        if not span > params.epsilon_shell:
            raise EstimationError(
                f"start point {point} sees the features within {span} of each other "
                f"(scale {scale}), inside the epsilon shell {params.epsilon_shell}: "
                "no walker can tell the upper features from the lower"
            )
    seed_mixed = _mix64(params.seed)

    n = params.walkers
    upper_hits = absorbed = steps = 0
    for lo in range(0, n, _CHUNK):
        hits, done, taken = _walk(feats, slice(lo, min(lo + _CHUNK, n)), seed_mixed, params)
        upper_hits += hits
        absorbed += done
        steps += taken

    lost = n - absorbed
    elapsed = time.perf_counter() - t0
    if absorbed == 0:
        raise EstimationError(
            f"all {n} walkers lost (max_steps = {params.max_steps}, "
            f"epsilon_shell = {params.epsilon_shell}, scale = {scale})"
        )
    mean = upper_hits / absorbed
    stderr = float(np.sqrt(mean * (1.0 - mean) / absorbed))
    valid = lost / n <= params.max_lost_fraction
    return MeasureEstimate(mean, stderr, absorbed, lost, elapsed, valid, steps)


def _walk(feats: _FeatureArrays, chunk: slice, seed_mixed: int, params: WosParams):
    """Walk the walkers with global ids in ``chunk`` from the origin until
    each is absorbed or out of steps; returns ``(upper hits, absorbed,
    walker-steps)``.  Only this frame holds the ids, so they shrink with
    the active walkers."""
    ids = np.arange(chunk.start, chunk.stop, dtype=np.uint64)
    eps = np.array(params.epsilon_shell)
    x = np.zeros(ids.size)
    y = np.zeros(ids.size)
    second_buf = np.empty(ids.size)
    index_buf = np.empty(ids.size, dtype=np.intp)
    upper_hits = absorbed = steps = 0
    for step in range(params.max_steps):
        second, index = second_buf[: ids.size], index_buf[: ids.size]
        near = feats.distances(x, y, second, index)
        hit = near <= eps
        if hit.any():
            upper_hits += int(np.count_nonzero(feats.is_upper[index[hit]]))
            absorbed += int(np.count_nonzero(hit))
            # one index array: a gather costs less than a random mask
            keep = np.flatnonzero(~hit)
            x = x.take(keep)
            y = y.take(keep)
            ids = ids.take(keep)
            near = near.take(keep)
            second[: ids.size] = second.take(keep)
            index[: ids.size] = index.take(keep)
            second, index = second[: ids.size], index[: ids.size]
            del hit, keep
            if ids.size == 0:
                break
        # only a walker with d2 > 3 d can own a half-disk of radius R > 2 d
        ratio = np.divide(second, near)
        near_wall = ratio > _THREE if ratio.max() > 3.0 else None
        del ratio
        theta = _uniform_angles(seed_mixed, ids, step)
        steps += ids.size
        if near_wall is not None:
            _half_disk_steps(feats, x, y, near, second, index, theta, near_wall)
        _plain_step(x, y, near, theta)
        del theta  # before the next kernel pass allocates
    return upper_hits, absorbed, steps


def _plain_step(x, y, near, theta):
    """Move each walker by ``near`` in the direction ``theta``, in place:
    the plain step, of the full radius ``d``.

    The direction ``(cos theta, sin theta)`` comes from the half-angle
    tangent ``t = tan(theta / 2)`` as ``(1 - t**2, 2 t) / (1 + t**2)``:
    one SIMD ``tan`` instead of a scalar ``cos`` and ``sin``.  At
    ``theta = pi``, ``t`` is about 1.6e16, so ``t**2`` stays finite.
    ``theta`` is overwritten.
    """
    t = np.multiply(theta, 0.5, out=theta)
    np.tan(t, out=t)
    k = np.multiply(t, t)
    move = np.subtract(1.0, k)
    k += 1.0
    np.divide(near, k, out=k)  # near / (1 + t**2)
    move *= k
    x += move
    t += t
    t *= k
    y += t


def _half_disk_steps(feats, x, y, near, second, index, theta, candidates):
    """Exact exit from the half-disk at the wall, for those walkers of the
    mask ``candidates`` that qualify; returns the indices of the walkers
    that stepped and their radii.

    A walker at distance ``d`` from its nearest feature, whose foot point
    ``p`` lies strictly inside it, owns the half-disk of radius
    ``R = min(distance of p from the tip, d2 - d)`` around ``p`` on its side:
    every other feature is at least ``d + R`` from the walker.  Where
    ``d < R/2`` the walker leaves that half-disk in one step.  With
    ``phi = 4 atan(d/R)`` and the walker's uniform ``U = theta / 2 pi``,
    ``s = cos phi + sin phi tan(pi (U - 1/2))`` is its Cauchy exit point on
    the real axis of ``((R + zeta)/(R - zeta))^2``.  If ``s > 0`` it leaves
    through the diameter: it moves onto ``p``, where the next kernel pass
    absorbs it on this feature.  Otherwise it moves to the arc point
    ``zeta = R (w - 1)/(w + 1)``, ``w = i sqrt(-s)``, measured from ``p``
    along and away from the wall.  Stepping walkers get ``near = 0``, so
    the plain step leaves them where this one put them.

    Temporaries are made in place where they can be: at the first steps of
    a chunk about half of its walkers step here.
    """
    j = np.flatnonzero(candidates)
    radius = feats.end_distance(x[j], index[j])
    gap = second[j]
    d = near[j]
    gap -= d
    np.minimum(radius, gap, out=radius)
    del gap
    ok = d + d < radius
    j = j[ok]
    radius = radius[ok]
    phi = d[ok]
    del d, ok
    phi /= radius
    np.arctan(phi, out=phi)
    phi *= 4.0
    slope = theta[j]
    slope /= 2.0 * np.pi
    slope -= 0.5
    slope *= np.pi
    np.tan(slope, out=slope)
    s = np.sin(phi)
    s *= slope
    np.cos(phi, out=phi)
    s += phi
    del phi, slope
    # with w = i sqrt(q), q = -s: zeta = R (q - 1)/(q + 1) + i 2 R sqrt(q)/(q + 1);
    # q = 0 and along = 0 put the walkers that leave through the diameter on p
    q = np.negative(s)
    np.maximum(q, 0.0, out=q)
    den = q + 1.0
    along = q - 1.0
    along /= den
    along *= radius
    along[s > 0.0] = 0.0
    del s
    away = np.sqrt(q, out=q)
    away *= 2.0
    away *= radius
    away /= den
    del den
    wall = feats.wall_y[index[j]]
    side = y[j]
    side -= wall
    np.copysign(away, side, out=away)
    away += wall
    del side, wall
    y[j] = away
    x[j] += along
    near[j] = 0.0
    return j, radius


@dataclass(frozen=True)
class ProfileEntry:
    t: float
    estimate: MeasureEstimate | None
    error: str | None = None


def estimate_profile(
    domain, t_values, params: WosParams = WosParams()
) -> list[ProfileEntry]:
    """Estimates along the trajectory axis, at the points ``t + 0i``.

    Point ``i`` runs with its own stream seeded by ``derive_seed(seed, i)``.
    Per-point failures are captured in the entry instead of aborting the
    profile.
    """
    entries: list[ProfileEntry] = []
    for i, t in enumerate(t_values):
        sub = dataclasses.replace(params, seed=derive_seed(params.seed, i))
        try:
            est = estimate_upper_measure(domain, complex(t, 0.0), sub)
            entries.append(ProfileEntry(float(t), est))
        except EstimationError as exc:
            entries.append(ProfileEntry(float(t), None, str(exc)))
    return entries


# ---------------------------------------------------------------------------
# serialization (elapsed time deliberately excluded: outputs stay
# byte-identical for a fixed seed)


def estimate_to_dict(est: MeasureEstimate) -> dict:
    return {
        "mean": est.mean,
        "stderr": est.stderr,
        "walkers": est.walkers_used,
        "lost": est.lost,
        "valid": est.valid,
    }


def profile_to_dicts(entries: list[ProfileEntry]) -> list[dict]:
    out = []
    for e in entries:
        d: dict = {"t": e.t}
        if e.estimate is not None:
            d.update(estimate_to_dict(e.estimate))
        else:
            d["error"] = e.error
        out.append(d)
    return out


def profile_to_csv(entries: list[ProfileEntry], params: WosParams) -> str:
    """CSV with the RNG algorithm and seed in the header comments."""
    lines = [
        f"# rng {RNG_ALGORITHM} seed {params.seed}",
        "t,mean,stderr,walkers,lost",
    ]
    for e in entries:
        if e.estimate is None:
            lines.append(f"{e.t!r},,,,")
        else:
            est = e.estimate
            lines.append(
                f"{e.t!r},{est.mean!r},{est.stderr!r},{est.walkers_used},{est.lost}"
            )
    return "\n".join(lines) + "\n"
