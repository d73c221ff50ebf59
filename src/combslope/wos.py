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
feature, clear of every other feature, in one exact step: through the
diameter with probability ``1 - 4 atan(d/R) / pi``, else onto the
half-disk's arc by the Cauchy exit law of the map ``((R + z)/(R - z))^2``
onto the upper half-plane (Muller 1956; Sabelfeld 1991), in a rational
form of ``d/R`` and of the half-angle tangent the plain step takes, so a
walker-step takes one ``tan`` and no ``sin``, ``cos`` or ``arctan``.  An
exit through the diameter lands on the feature and is absorbed in the step
itself, on that feature's label, so the kernel never measures it again.
It draws the same one angle per step, so ``walker_steps`` counts angle
draws either way.  The shell still absorbs walkers that reach a tip.

Reproducibility: angle draws come from a counter-based stream, one value
per (seed, walker index, step index), so results are bit-identical for a
fixed seed regardless of batching, merge order, or how many walkers are
still active.  Tallies are integer counts, so merging is associative.  The
stream algorithm is named by ``RNG_ALGORITHM`` and frozen; changing it is a
breaking change for stored fixtures.  The stream is of angles; the plain
step turns its angle ``theta`` into a direction through ``tan(theta / 2)``,
so the last bits of a step follow numpy's ``tan`` dispatch, as they
followed libm's ``cos`` and ``sin`` before.

Memory: one pool of at most ``_CHUNK`` walkers, in fixed buffers, walks an
estimate's walkers with their global ids; the next ids enter in the room
that absorbed walkers leave, so no iteration waits on the tail of a
batch.  The start point is measured once, and its kernel values are copied
into every walker that enters.  Each walker draws with the key of its own
step, from a table that grows with the largest step.  A walker's draws
follow its id and step and its fields move together, so the pool's order
never matters: survivors from the pool's tail fill the slots of walkers
that leave, and those on their last step are found by comparing step
counts.  The distance kernel keeps a running minimum, second minimum and
nearest index per point instead of a features-by-walkers matrix, with no
masked write.  An estimate is bit-identical for any pool size, and its
memory is bounded by the pool, not by the walker count.  The kernel is
built with the local candidate set around the start point: a walker near it
is measured against the few nearest features only, and every other walker
against all of them.  That set never changes a result (see
``FeatureArrays.distances``).
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

# walkers in the pool: bounds an estimate's temporaries, never its
# result; at 2**14 the pool's seven buffers, 128 KiB each, fit a 2 MiB L2
_CHUNK = 1 << 14

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


def _step_keys(seed_mixed: int, count: int) -> np.ndarray:
    """The stream's key of each step ``s < count``,
    ``mix64(seed_mixed + (s + 1) * _STEP_SALT)``, vectorized."""
    _, c1, c2, s30, s27, s31, _ = _U64
    x = np.arange(1, count + 1, dtype=np.uint64)
    x *= np.array(_STEP_SALT, dtype=np.uint64)
    x += np.array(seed_mixed, dtype=np.uint64)
    x ^= x >> s30
    x *= c1
    x ^= x >> s27
    x *= c2
    x ^= x >> s31
    return x


def _uniform_angles(walker_ids: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """One uniform [0, 2*pi) angle per walker, from its id and the key of
    its step (see :func:`_step_keys`), so walkers at different steps can
    draw in one call (vectorized)."""
    gamma, c1, c2, s30, s27, s31, s11 = _U64
    # (id + 1) * gamma + key, mod 2**64
    x = walker_ids * gamma
    x += gamma
    x += keys
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
    upper_hits, absorbed, steps = _walk(feats, seed_mixed, params)
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


def _walk(feats: _FeatureArrays, seed_mixed: int, params: WosParams):
    """Walk walkers ``0 .. walkers - 1`` from the origin until each is
    absorbed or out of steps; returns ``(upper hits, absorbed,
    walker-steps)``.

    One pool of at most ``_CHUNK`` walkers, in fixed buffers, walks them
    all.  Each iteration first admits the next ids into the room that the
    walkers gone last iteration left, with the start point's kernel values,
    measured once; then every walker in the pool draws, steps, and is
    measured.  The pool's order never matters (see the module notes): the
    walkers on their last step are found by comparing step counts."""
    n, last = params.walkers, params.max_steps - 1
    eps = np.array(params.epsilon_shell)
    origin = np.zeros(1)
    second0, index0 = np.empty(1), np.empty(1, dtype=np.intp)
    near0 = feats.distances(origin, origin, second0, index0)
    if near0[0] <= eps:
        # every walker is absorbed where it starts, before its first draw
        return n * int(feats.is_upper[index0[0]]), n, 0
    size = min(_CHUNK, n)
    x, y, near, second = (np.empty(size) for _ in range(4))
    ids = np.empty(size, dtype=np.uint64)
    step = np.empty(size, dtype=np.intp)
    index = np.empty(size, dtype=np.intp)
    keys = _step_keys(seed_mixed, min(64, params.max_steps))
    upper_hits = absorbed = steps = 0
    m = admitted = 0  # walkers in the pool, walkers admitted so far
    while m or admitted < n:
        k = min(size - m, n - admitted)
        if k:
            new = slice(m, m + k)
            x[new] = 0.0
            y[new] = 0.0
            ids[new] = np.arange(admitted, admitted + k, dtype=np.uint64)
            step[new] = 0
            near[new] = near0
            second[new] = second0
            index[new] = index0
            m += k
            admitted += k
        top = int(step[:m].max())
        if keys.size <= top:
            # steps grow by one a pass, so one doubling is enough
            keys = _step_keys(seed_mixed, min(2 * keys.size, params.max_steps))
        theta = _uniform_angles(ids[:m], keys.take(step[:m]))
        steps += m
        if top == last:
            # the last draw moves no walker: one still out is lost, even one
            # that this step would take out through a diameter
            lost = np.flatnonzero(step[:m] == last)
            m = _drop((x, y, ids, step, near, second, index, theta), m, lost)
        # the half-angle tangent, shared by both steps
        t = theta[:m]
        np.multiply(t, 0.5, out=t)
        np.tan(t, out=t)
        del theta
        x_, y_, near_, second_ = x[:m], y[:m], near[:m], second[:m]
        exits = _half_disk_steps(feats, x_, y_, near_, second_, index[:m], t)[0]
        _plain_step(x_, y_, near_, t, second_)
        del t
        if exits.size:
            # absorbed on the nearest feature, whose label the kernel would
            # read at the foot point
            upper_hits += int(np.count_nonzero(feats.is_upper[index.take(exits)]))
            absorbed += exits.size
            m = _drop((x, y, ids, step), m, exits)
        if not m:
            continue
        step[:m] += 1
        moved = feats.distances(x[:m], y[:m], second[:m], index[:m])
        near[:m] = moved
        gone = np.flatnonzero(moved <= eps)
        del moved
        if gone.size:
            upper_hits += int(np.count_nonzero(feats.is_upper[index.take(gone)]))
            absorbed += gone.size
            m = _drop((x, y, ids, step, near, second, index), m, gone)
    return upper_hits, absorbed, steps


def _drop(buffers, m, gone):
    """Remove the walkers at the sorted positions ``gone < m`` from every
    buffer; returns the walkers kept, ``rest = m - gone.size``.  Survivors
    in slots ``rest .. m - 1`` fill the holes below ``rest``: per buffer,
    one gather and one scatter of at most ``gone.size`` entries."""
    rest = m - gone.size
    holes = gone[gone < rest]
    kept = np.ones(gone.size, dtype=bool)
    kept[gone[holes.size:] - rest] = False
    movers = np.flatnonzero(kept) + rest
    for a in buffers:
        a[holes] = a.take(movers)
    return rest


def _plain_step(x, y, near, t, k):
    """Move each walker by ``near`` in the direction ``theta``, in place:
    the plain step, of the full radius ``d``, from the half-angle tangent
    ``t = tan(theta / 2)``.

    The direction ``(cos theta, sin theta)`` is
    ``(1 - t**2, 2 t) / (1 + t**2)``: one SIMD ``tan`` instead of a
    scalar ``cos`` and ``sin``.  At ``theta = pi``, ``t`` is about 1.6e16,
    so ``t**2`` stays finite.  ``t`` is overwritten, and ``k``, of the
    walkers' size, is scratch.
    """
    np.multiply(t, t, out=k)
    move = np.subtract(1.0, k)
    k += 1.0
    np.divide(near, k, out=k)  # near / (1 + t**2)
    move *= k
    x += move
    t += t
    t *= k
    y += t


# the trigonometric law's tangent at U = 0, 1/tan(pi/2) in doubles; every
# nonzero half-angle tangent is larger in size, at least tan(pi 2**-53)
_T_ZERO = np.array(1.0 / math.tan(math.pi / 2.0))


def _half_disk_steps(feats, x, y, near, second, index, t):
    """Exact exit from the half-disk at the wall, in place, for the walkers
    that qualify; returns the indices of the walkers that left through the
    diameter, then of all that stepped, with their radii.

    A walker at distance ``d`` from its nearest feature, whose foot point
    ``p`` lies strictly inside it, owns the half-disk of radius
    ``R = min(distance of p from the tip, d2 - d)`` around ``p`` on its side:
    every other feature is at least ``d + R`` from the walker.  Where
    ``d < R/2`` the walker leaves that half-disk in one step, by the Cauchy
    exit law of ``((R + zeta)/(R - zeta))^2`` in rational form.  With
    ``r = d/R``, ``u = r**2``, the half-angle tangent ``t`` that the plain
    step takes too (``tan(pi (U - 1/2)) = -1/t`` for the walker's uniform
    ``U``) and ``g = 4 r (1 - u)/t``:

    - where ``g <= (1 - u)**2 - 4u`` the walker leaves through the
      diameter onto ``p``.  It is not moved: the caller absorbs it in this
      step, on this feature, which is the one the kernel would name at
      ``p`` (another feature at distance 0 from ``p`` would lie on the same
      wall past the walker and tie the nearest, and ``d2 > 3 d`` rules that
      out);
    - every other walker moves to the arc point ``p + along + i away``,
      along and away from the wall, with
      ``along = R (g - 2 (1 - u)**2)/(g + 8u)`` and
      ``away = 2 R (1 + u) sqrt(g - (1 - u)**2 + 4u)/(g + 8u)``, and gets
      ``near = 0``, so the plain step leaves it there.

    No ``sin``, ``cos`` or ``arctan``.  ``t = 0`` (``U = 0``) would divide
    by zero; it reads as ``1/tan(pi/2)`` in doubles, the tangent the
    trigonometric form of the law sees there.  ``second`` is scratch once
    read.
    """
    # only a walker with d2 > 3 d can own a half-disk of radius R > 2 d
    j = np.flatnonzero(np.divide(second, near) > _THREE)
    radius = feats.end_distance(x.take(j), index.take(j))
    gap = second.take(j)
    d = near.take(j)
    gap -= d
    np.minimum(radius, gap, out=radius)
    del gap
    # index arrays throughout: a gather costs less than a random mask
    ok = np.flatnonzero(d + d < radius)
    j = j.take(ok)
    radius = radius.take(ok)
    g = d.take(ok)
    del d, ok
    if not j.size:
        return j, j, radius
    g /= radius  # r
    u = np.multiply(g, g, out=second[: g.size])  # second is read: scratch
    sq = np.subtract(1.0, u)  # 1 - u
    g *= 4.0
    g *= sq
    tj = t.take(j)
    nonzero = np.abs(tj)
    np.maximum(nonzero, _T_ZERO, out=nonzero)
    np.copysign(nonzero, tj, out=nonzero)
    del tj
    g /= nonzero
    del nonzero
    sq *= sq  # (1 - u)**2
    u *= 4.0  # 4u
    rim = np.less_equal(g, np.subtract(sq, u))
    exits = np.compress(rim, j)
    on_arc = np.flatnonzero(np.logical_not(rim, out=rim))
    del rim
    arc = j.take(on_arc)
    g = g.take(on_arc)
    sq = sq.take(on_arc)
    u = u.take(on_arc)
    den = np.add(u, u)
    den += g  # g + 8u
    along = np.add(sq, sq)
    np.subtract(g, along, out=along)
    along /= den
    g -= sq
    del sq
    g += u
    away = np.sqrt(g, out=g)
    u *= 0.25
    u += 1.0  # 1 + u: the scalings by 4 are exact
    away *= u
    away /= den
    del u, den
    scale = radius.take(on_arc)
    del on_arc
    along *= scale
    away *= scale
    away += away
    del scale
    wall = feats.wall_y.take(index.take(arc))
    side = y.take(arc)
    side -= wall
    np.copysign(away, side, out=away)
    away += wall
    del side, wall
    y[arc] = away
    along += x.take(arc)
    x[arc] = along
    near[arc] = 0.0
    return exits, j, radius


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
