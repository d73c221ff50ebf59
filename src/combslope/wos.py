"""Walk-on-spheres Monte Carlo estimator for upper-boundary harmonic measure.

Each walker repeatedly jumps to a uniformly random point of the largest
boundary-free circle centered at its position (radius optionally capped,
which stays unbiased) and absorbs once it comes within an epsilon shell of
the boundary; the hit is classified by the label ("upper" or "lower") of
the nearest boundary feature.  The estimate is the fraction of absorbed
walkers classified "upper"; walks that exhaust the step budget are
counted as lost and excluded from the mean, with the lost fraction reported
so callers can bound the induced bias (lost walks could have hit either
class).

Reproducibility: angle draws come from a counter-based stream, one value
per (seed, walker index, step index), so results are bit-identical for a
fixed seed regardless of batching, merge order, or how many walkers are
still active.  Tallies are integer counts, so merging is associative.  The
stream algorithm is named by ``RNG_ALGORITHM`` and frozen; changing it is a
breaking change for stored fixtures.

Memory: walkers run in chunks of ``_CHUNK`` with their global ids, and the
distance kernel keeps one running minimum per point instead of a
features-by-walkers matrix.  An estimate is bit-identical for any chunk
size, and its memory is bounded by the chunk, not by the walker count.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .comb import boundary_distance
from .errors import EstimationError
from .geometry import FeatureArrays as _FeatureArrays

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


_U64 = (
    np.uint64(0xBF58476D1CE4E5B9),
    np.uint64(0x94D049BB133111EB),
    np.uint64(30),
    np.uint64(27),
    np.uint64(31),
)


def _uniform_angles(seed_mixed: int, walker_ids: np.ndarray, step: int) -> np.ndarray:
    """One uniform [0, 2*pi) angle per walker for this step (vectorized)."""
    key = np.uint64(_mix64(seed_mixed + (step + 1) * _STEP_SALT))
    x = (walker_ids + np.uint64(1)) * np.uint64(_GAMMA) + key
    c1, c2, s30, s27, s31 = _U64
    x = (x ^ (x >> s30)) * c1
    x = (x ^ (x >> s27)) * c2
    x ^= x >> s31
    return (x >> np.uint64(11)).astype(np.float64) * (2.0 * np.pi / 9007199254740992.0)


@dataclass(frozen=True)
class WosParams:
    """Engine knobs.  Lengths are in units of the local scale when
    ``rescale`` is on (the starting boundary distance), else absolute."""

    walkers: int = 100_000
    seed: int = 0
    epsilon_shell: float = 1e-6
    max_steps: int = 100_000
    radius_cap: float | None = 1e3
    rescale: bool = True
    max_lost_fraction: float = 1e-3

    def __post_init__(self) -> None:
        if self.walkers < 1:
            raise EstimationError(f"need at least one walker, got {self.walkers}")
        if not self.epsilon_shell > 0.0:
            raise EstimationError(f"epsilon shell must be positive, got {self.epsilon_shell}")
        if self.max_steps < 1:
            raise EstimationError(f"need max_steps >= 1, got {self.max_steps}")
        if self.radius_cap is not None and not self.radius_cap > 0.0:
            raise EstimationError(f"radius cap must be positive or None, got {self.radius_cap}")


@dataclass(frozen=True)
class MeasureEstimate:
    """Bernoulli tally over non-lost walkers.

    ``stderr`` is ``sqrt(mean * (1 - mean) / walkers_used)``; ``valid``
    records whether the lost fraction stayed under the configured threshold.
    ``elapsed`` (seconds) is informational only and never serialized, so
    file artifacts stay byte-reproducible.
    """

    mean: float
    stderr: float
    walkers_used: int
    lost: int
    elapsed: float
    valid: bool

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

    The start point must be strictly interior with boundary distance above
    the epsilon shell; an estimate with every walker lost raises
    :class:`EstimationError` with diagnostics.  Deterministic for a fixed
    (seed, walkers, domain, params).
    """
    t0 = time.perf_counter()
    d0, _ = boundary_distance(domain, point)
    if not d0 > 0.0:
        raise EstimationError(f"start point {point} lies on the domain boundary")
    scale = d0 if params.rescale else 1.0
    if not d0 / scale > params.epsilon_shell:
        raise EstimationError(
            f"start point {point} has boundary distance {d0}, within the "
            f"epsilon shell {params.epsilon_shell} (scale {scale})"
        )
    feats = _FeatureArrays(domain.features(), origin=point, scale=scale)
    seed_mixed = _mix64(params.seed)

    n = params.walkers
    upper_hits = 0
    absorbed = 0
    for lo in range(0, n, _CHUNK):
        ids = np.arange(lo, min(lo + _CHUNK, n), dtype=np.uint64)
        hits, done = _walk(feats, ids, seed_mixed, params)
        upper_hits += hits
        absorbed += done

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
    return MeasureEstimate(mean, stderr, absorbed, lost, elapsed, valid)


def _walk(feats: _FeatureArrays, ids: np.ndarray, seed_mixed: int, params: WosParams):
    """Walk the walkers ``ids`` from the origin until each is absorbed or
    out of steps; returns ``(upper hits, absorbed)``."""
    eps = params.epsilon_shell
    cap = params.radius_cap
    x = np.zeros(ids.size)
    y = np.zeros(ids.size)
    upper_hits = 0
    absorbed = 0
    for step in range(params.max_steps):
        dmin = feats.distances(x, y)
        hit = dmin <= eps
        if hit.any():
            upper_hits += int(feats.is_upper[feats.nearest(x[hit], y[hit])].sum())
            absorbed += int(hit.sum())
            keep = ~hit
            x, y, ids, dmin = x[keep], y[keep], ids[keep], dmin[keep]
            if x.size == 0:
                break
        r = dmin if cap is None else np.minimum(dmin, cap)
        theta = _uniform_angles(seed_mixed, ids, step)
        x += r * np.cos(theta)
        y += r * np.sin(theta)
    return upper_hits, absorbed


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
