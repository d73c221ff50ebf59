"""Comb domains: sequence plans, tooth placement, anchor targets, and surgery.

A comb is the plane minus a finite family of leftward horizontal half-lines
(teeth) whose heights follow a two-term ratio recurrence and whose anchor
abscissas are prefix sums of a strictly increasing width schedule.  Forward
combs march to +infinity with teeth alternating above and below the real
axis; backward combs march to -infinity.

Plans and domains are immutable after construction and may be shared freely
across concurrent walkers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import BuildError, DomainError, PlanError
from .geometry import FeatureArrays, HalfLine

__all__ = [
    "CombDomain",
    "PLAN_SCHEMA",
    "DOMAIN_SCHEMA",
    "SEAL_GAP",
    "DROP_TOOTH",
    "SequencePlan",
    "SurgeryVariant",
    "Tooth",
    "anchor_target",
    "assign_widths",
    "boundary_distance",
    "build_comb",
    "domain_from_dict",
    "domain_to_dict",
    "midpoints",
    "plan_backward",
    "plan_backward_special",
    "plan_forward",
    "plan_from_dict",
    "plan_pseudo_strip",
    "plan_to_dict",
    "pseudo_strip",
    "surgery",
    "usable_anchor_indices",
]

PLAN_SCHEMA = "combslope/plan-v1"
DOMAIN_SCHEMA = "combslope/domain-v1"

FORWARD = "forward"
BACKWARD = "backward"
SEAL_GAP = "seal_gap"      # continue one upper tooth across a block (domain shrinks)
DROP_TOOTH = "drop_tooth"  # delete one upper tooth (domain grows)

_RESIDUAL_TOL = 1e-12
# a distance at most this has a subnormal square: above sqrt(2.2e-308)
_SUBNORMAL_ROOT = 1.5e-154


@dataclass(frozen=True)
class SequencePlan:
    """Height sequences and width schedule for one comb construction.

    ``upper_heights[k]`` and ``lower_depths[k]`` (0-based, length
    ``n_pairs + 1``) are the tooth distances from the real axis for pair
    ``k + 1``.  The extra entry serves the last block.  On a forward comb
    it is never placed: it gives the proportions that width calibration
    uses for block ``2 * n_pairs``, whose anchor has no ceiling tooth.  On a
    backward comb ``upper_heights[n_pairs]`` is placed as tooth
    ``2 * n_pairs + 1``; it closes block ``2 * n_pairs + 1`` on the left,
    whose anchor is witnessed by the last full pair behind it.  Lower teeth
    lie below the axis in both directions.  The ratio recurrences and the
    monotonicity checked at construction put each usable anchor's witness
    box (see :func:`anchor_target`) inside the comb, with both horizontal
    borders on teeth.  The
    targets are the intended limit superior / inferior of the
    upper-boundary harmonic measure along the axis.  ``block_widths`` stays
    ``None`` until a schedule is assigned; it holds at most ``max_blocks``
    widths, one per block and tooth.
    """

    direction: str
    target_limsup: float
    target_liminf: float
    upper_heights: tuple[float, ...]
    lower_depths: tuple[float, ...]
    n_pairs: int
    special: str | None = None
    special_m: int | None = None
    block_widths: tuple[float, ...] | None = None
    widths_mode: str | None = None

    def __post_init__(self) -> None:
        if self.direction not in (FORWARD, BACKWARD):
            raise PlanError(f"unknown direction {self.direction!r}")
        if not (0.0 <= self.target_liminf <= self.target_limsup <= 1.0):
            raise PlanError(
                f"targets must satisfy 0 <= liminf <= limsup <= 1, got "
                f"({self.target_limsup}, {self.target_liminf})"
            )
        if self.n_pairs < 1:
            raise PlanError(f"need at least one tooth pair, got {self.n_pairs}")
        r, rho = self.upper_heights, self.lower_depths
        if len(r) != self.n_pairs + 1 or len(rho) != self.n_pairs + 1:
            raise PlanError("height sequences must have length n_pairs + 1")
        for v in (*r, *rho):
            if not (math.isfinite(v) and v > 0.0):
                raise PlanError(f"tooth heights must be positive and finite, got {v}")
        self._check_recurrences()
        self._check_monotonicity()
        if self.block_widths is not None:
            w = self.block_widths
            if len(w) > self.max_blocks:
                raise PlanError(
                    f"at most {self.max_blocks} widths usable, got {len(w)}"
                )
            for a, b in zip(w, w[1:]):
                if not b > a:
                    raise PlanError(f"widths must be strictly increasing, got {a} then {b}")
            if w and w[0] <= 0.0:
                raise PlanError("widths must be positive")

    # -- invariants ---------------------------------------------------------

    def _check_recurrences(self) -> None:
        r, rho = self.upper_heights, self.lower_depths
        hi, lo = self.target_limsup, self.target_liminf
        m = self.special_m or 0
        for n in range(1, self.n_pairs + 2):
            rn, rhon = r[n - 1], rho[n - 1]
            # same-index ratio: rho_n / (rho_n + r_n)
            if self.special is None:
                a = hi if self.direction == FORWARD else lo
                bad = abs(rn * a - (1.0 - a) * rhon) > _RESIDUAL_TOL * rn
            elif self.special == "liminf_zero":
                bad = abs(rn - (n + m) * rhon) > _RESIDUAL_TOL * rn
            elif self.special == "limsup_one":
                bad = abs(rn * lo - (1.0 - lo) * rhon) > _RESIDUAL_TOL * rn
            else:  # full_interval
                bad = abs(rn - n * rhon) > _RESIDUAL_TOL * rn
            if bad:
                raise PlanError(f"same-index recurrence violated at n = {n}")
            if n > self.n_pairs:
                continue
            # cross-index ratio: rho_n / (rho_n + r_{n+1})
            rnext = r[n]
            if self.special is None:
                b = lo if self.direction == FORWARD else hi
                bad = abs(rnext * b - (1.0 - b) * rhon) > _RESIDUAL_TOL * rnext
            elif self.special == "liminf_zero":
                bad = abs(rnext - (1.0 - hi) / hi * rhon) > _RESIDUAL_TOL * max(rnext, 1.0)
            elif self.special == "limsup_one":
                bad = abs(rnext - rhon / (n + 1 + m)) > _RESIDUAL_TOL * max(rnext, 1.0)
            else:  # full_interval
                bad = abs(rnext - rhon / (n + 1)) > _RESIDUAL_TOL * rnext
            if bad:
                raise PlanError(f"cross-index recurrence violated at n = {n}")

    def _check_monotonicity(self) -> None:
        if self.target_limsup == self.target_liminf and self.special is None:
            return  # constant (pseudo-strip) plans
        increasing = self.direction == FORWARD
        for name, s in (("upper_heights", self.upper_heights), ("lower_depths", self.lower_depths)):
            for a, b in zip(s, s[1:]):
                ok = b > a if increasing else b < a
                if not ok:
                    raise PlanError(
                        f"{name} must be strictly "
                        f"{'increasing' if increasing else 'decreasing'}"
                    )

    # -- derived views ------------------------------------------------------

    @property
    def cum_widths(self) -> tuple[float, ...]:
        """Prefix sums of the width schedule (anchor abscissas, unsigned)."""
        if self.block_widths is None:
            raise PlanError("plan has no widths assigned")
        out, total = [], 0.0
        for w in self.block_widths:
            total += w
            out.append(total)
        return tuple(out)

    @property
    def max_blocks(self) -> int:
        """Most blocks (and teeth) the heights can serve: ``2 * n_pairs``
        forward, ``2 * n_pairs + 1`` backward, where the extra upper height
        is placed as the last tooth."""
        return 2 * self.n_pairs + (self.direction == BACKWARD)

    @property
    def n_teeth(self) -> int:
        return 0 if self.block_widths is None else len(self.block_widths)

    def tooth_height(self, j: int) -> float:
        """Signed height of tooth ``j`` (1-based along the axis)."""
        if j % 2 == 1:
            return self.upper_heights[(j - 1) // 2]
        return -self.lower_depths[j // 2 - 1]


def _sequences(
    first_height: float,
    count: int,
    next_rho,
    next_r,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    r = [first_height]
    rho = [next_rho(1, first_height)]
    for n in range(1, count):
        r.append(next_r(n, rho[-1]))
        rho.append(next_rho(n + 1, r[-1]))
    return tuple(r), tuple(rho)


def _targets_from_angles(theta_lo: float, theta_hi: float) -> tuple[float, float]:
    return 0.5 - theta_lo / math.pi, 0.5 - theta_hi / math.pi


def plan_forward(
    theta_lo: float, theta_hi: float, first_height: float, n_pairs: int
) -> SequencePlan:
    """Plan a forward comb whose slope set is the interval [theta_lo, theta_hi].

    Requires ``-pi/2 < theta_lo < theta_hi < pi/2`` (strict interior) and a
    positive first tooth height.
    """
    half_pi = math.pi / 2.0
    if not (-half_pi < theta_lo < theta_hi < half_pi):
        raise PlanError(
            f"need -pi/2 < theta_lo < theta_hi < pi/2, got ({theta_lo}, {theta_hi})"
        )
    if not first_height > 0.0:
        raise PlanError(f"first height must be positive, got {first_height}")
    if n_pairs < 1:
        raise PlanError(f"need n_pairs >= 1, got {n_pairs}")
    hi, lo = _targets_from_angles(theta_lo, theta_hi)
    r, rho = _sequences(
        first_height,
        n_pairs + 1,
        lambda n, rn: hi / (1.0 - hi) * rn,
        lambda n, rhon: (1.0 - lo) / lo * rhon,
    )
    return SequencePlan(FORWARD, hi, lo, r, rho, n_pairs)


def plan_backward(
    theta_lo: float, theta_hi: float, first_height: float, n_pairs: int
) -> SequencePlan:
    """Plan a backward comb; ``theta_lo == theta_hi`` gives a singleton slope set."""
    half_pi = math.pi / 2.0
    if not (-half_pi < theta_lo <= theta_hi < half_pi):
        raise PlanError(
            f"need -pi/2 < theta_lo <= theta_hi < pi/2, got ({theta_lo}, {theta_hi})"
        )
    if not first_height > 0.0:
        raise PlanError(f"first height must be positive, got {first_height}")
    if n_pairs < 1:
        raise PlanError(f"need n_pairs >= 1, got {n_pairs}")
    hi, lo = _targets_from_angles(theta_lo, theta_hi)
    r, rho = _sequences(
        first_height,
        n_pairs + 1,
        lambda n, rn: lo / (1.0 - lo) * rn,
        lambda n, rhon: (1.0 - hi) / hi * rhon,
    )
    return SequencePlan(BACKWARD, hi, lo, r, rho, n_pairs)


def plan_backward_special(
    mode: str,
    first_height: float,
    n_pairs: int,
    target_limsup: float | None = None,
    target_liminf: float | None = None,
    m: int = 0,
) -> SequencePlan:
    """Backward plans whose measure limits touch 0, 1, or both.

    ``liminf_zero`` drives the lower anchor limit to 0 (needs the limsup
    target and an offset ``m`` with ``1 + m > (1 - limsup)/limsup``);
    ``limsup_one`` drives the upper limit to 1 (needs the liminf target and
    ``2 + m > liminf/(1 - liminf)``); ``full_interval`` drives them to 0 and
    1 simultaneously.  Each mode's cross-index recurrence scales the
    previous lower depth, so both height sequences decrease strictly, as
    :class:`SequencePlan` requires of every backward plan.
    """
    if not first_height > 0.0:
        raise PlanError(f"first height must be positive, got {first_height}")
    if n_pairs < 1:
        raise PlanError(f"need n_pairs >= 1, got {n_pairs}")
    count = n_pairs + 1
    if mode == "liminf_zero":
        if target_limsup is None or not 0.0 < target_limsup < 1.0:
            raise PlanError("liminf_zero needs a limsup target in (0, 1)")
        hi = target_limsup
        bound = (1.0 - hi) / hi
        if not 1 + m > bound:
            raise PlanError(
                f"m too small: need 1 + m > (1 - limsup)/limsup = {bound}, got m = {m}"
            )
        r, rho = _sequences(
            first_height, count, lambda n, rn: rn / (n + m),
            lambda n, rhon: (1.0 - hi) / hi * rhon,
        )
        return SequencePlan(
            BACKWARD, hi, 0.0, r, rho, n_pairs, special="liminf_zero", special_m=m
        )
    if mode == "limsup_one":
        if target_liminf is None or not 0.0 < target_liminf < 1.0:
            raise PlanError("limsup_one needs a liminf target in (0, 1)")
        lo = target_liminf
        bound = lo / (1.0 - lo)
        if not 2 + m > bound:
            raise PlanError(
                f"m too small: need 2 + m > liminf/(1 - liminf) = {bound}, got m = {m}"
            )
        r, rho = _sequences(
            first_height, count, lambda n, rn: lo / (1.0 - lo) * rn,
            lambda n, rhon: rhon / (n + 1 + m),
        )
        return SequencePlan(
            BACKWARD, 1.0, lo, r, rho, n_pairs, special="limsup_one", special_m=m
        )
    if mode == "full_interval":
        r, rho = _sequences(
            first_height, count, lambda n, rn: rn / n, lambda n, rhon: rhon / (n + 1)
        )
        return SequencePlan(BACKWARD, 1.0, 0.0, r, rho, n_pairs, special="full_interval")
    raise PlanError(f"unknown special mode {mode!r}")


def plan_pseudo_strip(dist_up: float, dist_down: float, n_pairs: int = 2) -> SequencePlan:
    """Constant plan: every upper tooth at +dist_up, every lower at -dist_down.

    The measure target is the strip value on both sides, so the slope
    interval collapses to a point.  Used as the trivial end of every
    pipeline test.
    """
    if not (dist_up > 0.0 and dist_down > 0.0):
        raise PlanError("pseudo-strip distances must be positive")
    a = dist_down / (dist_up + dist_down)
    count = n_pairs + 1
    return SequencePlan(
        FORWARD, a, a, (dist_up,) * count, (dist_down,) * count, n_pairs
    )


def assign_widths(
    plan: SequencePlan, widths, mode: str = "explicit"
) -> SequencePlan:
    """Attach a width schedule (strictly increasing positives) to a plan."""
    return dataclasses.replace(
        plan, block_widths=tuple(float(w) for w in widths), widths_mode=mode
    )


def midpoints(plan: SequencePlan) -> tuple[float, ...]:
    """Block midpoints ``x_n`` on the real axis (signed by direction)."""
    if plan.block_widths is None:
        raise PlanError("plan has no widths assigned")
    u = (0.0,) + plan.cum_widths
    sign = 1.0 if plan.direction == FORWARD else -1.0
    return tuple(sign * (u[n] + u[n - 1]) / 2.0 for n in range(1, len(u)))


# ---------------------------------------------------------------------------
# domains


@dataclass(frozen=True)
class Tooth:
    ray: HalfLine
    label: str  # "upper"/"lower" relative to the trajectory axis Im = 0


@dataclass(frozen=True)
class CombDomain:
    """The plane minus the closed teeth; open, connected, and closed under
    translation to the right."""

    teeth: tuple[Tooth, ...]
    direction: str
    truncation_count: int

    def features(self) -> tuple[tuple[object, str], ...]:
        return tuple((t.ray, t.label) for t in self.teeth)

    def contains(self, p: complex) -> bool:
        return boundary_distance(self, p)[0] > 0.0


@dataclass(frozen=True)
class SurgeryVariant(CombDomain):
    """A comb with one block sealed (domain shrinks) or one tooth dropped
    (domain grows); the base comb always lies between the two variants.
    ``kind`` and ``k`` name the surgery that made it (see :func:`surgery`)."""

    kind: str
    k: int


def build_comb(plan: SequencePlan) -> CombDomain:
    """Place the teeth of a plan with assigned widths."""
    if plan.block_widths is None:
        raise BuildError("plan has no widths assigned; call assign_widths first")
    if not plan.block_widths:
        raise BuildError("plan has an empty width schedule")
    u = plan.cum_widths
    sign = 1.0 if plan.direction == FORWARD else -1.0
    teeth = []
    for j in range(1, len(u) + 1):
        height = plan.tooth_height(j)
        anchor = complex(sign * u[j - 1], height)
        teeth.append(Tooth(HalfLine(anchor), "upper" if height > 0 else "lower"))
    return CombDomain(tuple(teeth), plan.direction, len(u) // 2)


def pseudo_strip(dist_up: float, dist_down: float, width: float) -> CombDomain:
    """Two teeth anchored at +width/2: a strip of height up+down open to the
    right of the anchors.  The harmonic measure of the upper tooth at the
    origin converges to the exact strip value as the width grows."""
    if not (dist_up > 0.0 and dist_down > 0.0 and width > 0.0):
        raise DomainError("pseudo-strip needs positive distances and width")
    a = width / 2.0
    teeth = (
        Tooth(HalfLine(complex(a, dist_up)), "upper"),
        Tooth(HalfLine(complex(a, -dist_down)), "lower"),
    )
    return CombDomain(teeth, FORWARD, 1)


def boundary_distance(domain, p: complex) -> tuple[float, int]:
    """Distance from ``p`` to the domain boundary and the nearest feature index.

    A feature more than about 1.3e154 away reads as ``inf`` (see
    :meth:`FeatureArrays.distances`).  A distance whose square is subnormal
    or 0 is measured again with one ``hypot`` per feature, which does not
    square, so a point 1e-163 from a tooth is inside the domain.
    """
    # ``p`` is the origin of the arrays, the centre of their candidate set;
    # the differences to it are those of the plain frame up to sign
    x, y, index = np.zeros(1), np.zeros(1), np.zeros(1, dtype=np.intp)
    feats = FeatureArrays(domain.features(), origin=p)
    d = feats.distances(x, y, np.empty(1), index)
    if d[0] <= _SUBNORMAL_ROOT:
        d = feats.hypot_distances()
        index[0] = np.argmin(d)
        d = d[index]
    return float(d[0]), int(index[0])


def usable_anchor_indices(plan: SequencePlan) -> tuple[int, ...]:
    """Anchor indices whose local geometry matches the untruncated comb.

    Forward combs lose the last midpoint (no ceiling tooth beyond the
    truncation), giving ``1 .. 2 n_pairs - 1`` at full length; backward
    combs lose the first two (no teeth cover them), giving
    ``3 .. 2 n_pairs + 1`` at full length.
    """
    n_teeth = plan.n_teeth
    if plan.direction == FORWARD:
        return tuple(range(1, n_teeth))
    return tuple(range(3, n_teeth + 1))


def _witness_dims(plan: SequencePlan, n: int) -> tuple[float, float]:
    r, rho = plan.upper_heights, plan.lower_depths
    if plan.direction == FORWARD:
        k = (n + 1) // 2
        if n % 2 == 1:
            return r[k - 1], rho[k - 1]
        return r[k], rho[k - 1]
    k = (n + 1) // 2
    if n % 2 == 1:
        return r[k - 2], rho[k - 2]
    return r[k - 1], rho[k - 2]


def anchor_target(plan: SequencePlan, n: int) -> float:
    """Exact local strip ratio at anchor ``n`` (its witness proportions)."""
    up, down = _witness_dims(plan, n)
    return down / (up + down)


def surgery(domain: CombDomain, kind: str, k: int) -> SurgeryVariant:
    """Build the sealed (smaller) or tooth-dropped (larger) comparison domain.

    ``seal_gap`` continues the k-th upper tooth rightward across one block
    beyond its anchor, so that tooth is anchored at the far end instead: on
    a forward comb at the next anchor ``U_{2k}``, on a backward comb at the
    previous anchor ``-U_{2k-2}`` (``U_0 = 0``).  ``drop_tooth`` removes
    the k-th upper tooth entirely.  Either way the result is a comb.
    """
    if kind not in (SEAL_GAP, DROP_TOOTH):
        raise DomainError(f"unknown surgery kind {kind!r}")
    if not 1 <= k <= domain.truncation_count:
        raise DomainError(f"surgery index {k} out of range 1..{domain.truncation_count}")
    teeth = list(domain.teeth)
    i = 2 * k - 2  # the k-th upper tooth
    if kind == DROP_TOOTH:
        del teeth[i]
    else:
        if domain.direction == FORWARD:
            x_end = teeth[i + 1].ray.anchor.real
        else:
            x_end = teeth[i - 1].ray.anchor.real if k > 1 else 0.0
        sealed = HalfLine(complex(x_end, teeth[i].ray.anchor.imag))
        teeth[i] = Tooth(sealed, teeth[i].label)
    return SurgeryVariant(tuple(teeth), domain.direction, domain.truncation_count, kind, k)


# ---------------------------------------------------------------------------
# serialization


def plan_to_dict(plan: SequencePlan) -> dict:
    """JSON-ready form of a plan (schema ``combslope/plan-v1``)."""
    d = {
        "schema": PLAN_SCHEMA,
        "direction": plan.direction,
        "target_limsup": plan.target_limsup,
        "target_liminf": plan.target_liminf,
        "n_pairs": plan.n_pairs,
        "upper_heights": list(plan.upper_heights),
        "lower_depths": list(plan.lower_depths),
        "special": plan.special,
        "special_m": plan.special_m,
        "block_widths": None if plan.block_widths is None else list(plan.block_widths),
        "widths_mode": plan.widths_mode,
    }
    if plan.block_widths:
        d["cum_widths"] = list(plan.cum_widths)
        d["anchors"] = list(midpoints(plan))
    return d


def plan_from_dict(d: dict) -> SequencePlan:
    """Rebuild a plan from its JSON form; every invariant is re-checked.

    A malformed document raises :class:`PlanError`.  So does a file that
    sets ``verbatim_special`` or ``verbatim_tooth_sign``: those keys selected
    a literal reading of the construction that is no longer built.  Files
    that hold them as ``false`` still load.
    """
    if not isinstance(d, dict):
        raise PlanError(f"a plan must be a JSON object, got {type(d).__name__}")
    if d.get("schema") != PLAN_SCHEMA:
        raise PlanError(f"unsupported plan schema {d.get('schema')!r}")
    for key in ("verbatim_special", "verbatim_tooth_sign"):
        if d.get(key):
            raise PlanError(f"{key} is set: the literal reading of the construction is retired")
    widths = d.get("block_widths")
    try:
        return SequencePlan(
            direction=d["direction"],
            target_limsup=float(d["target_limsup"]),
            target_liminf=float(d["target_liminf"]),
            upper_heights=tuple(float(v) for v in d["upper_heights"]),
            lower_depths=tuple(float(v) for v in d["lower_depths"]),
            n_pairs=int(d["n_pairs"]),
            special=d.get("special"),
            special_m=d.get("special_m"),
            block_widths=None if widths is None else tuple(float(w) for w in widths),
            widths_mode=d.get("widths_mode"),
        )
    except KeyError as exc:
        raise PlanError(f"plan lacks the key {exc.args[0]!r}") from None
    except TypeError as exc:
        raise PlanError(f"plan holds a value of the wrong type: {exc}") from None


def domain_to_dict(domain: CombDomain) -> dict:
    """JSON-ready form of a built comb (schema ``combslope/domain-v1``)."""
    return {
        "schema": DOMAIN_SCHEMA,
        "direction": domain.direction,
        "truncation_count": domain.truncation_count,
        "teeth": [
            {"re": t.ray.anchor.real, "im": t.ray.anchor.imag, "label": t.label}
            for t in domain.teeth
        ],
    }


def domain_from_dict(d: dict) -> CombDomain:
    if d.get("schema") != DOMAIN_SCHEMA:
        raise BuildError(f"unsupported domain schema {d.get('schema')!r}")
    teeth = tuple(
        Tooth(HalfLine(complex(t["re"], t["im"])), t["label"]) for t in d["teeth"]
    )
    return CombDomain(teeth, d["direction"], int(d["truncation_count"]))
