"""From measured harmonic-measure profiles to slope intervals.

The slope correspondence is the affine map ``ratio -> pi * (1/2 - ratio)``
applied to the limit superior and inferior of the upper-boundary measure
along the trajectory axis.  Finite Monte Carlo data stands in for the
limits through the anchor subsequences of a comb plan: the construction
pins the measure at the block midpoints, so running extrema over the late
anchors estimate the limits without the upward/downward bias that raw
extrema of noisy samples would pick up.

Anchor parity is direction dependent.  Forward combs approach the limsup
on odd anchors and the liminf on even anchors; backward combs swap the two
because the covering teeth at a backward midpoint are the pair *behind*
it, not ahead of it (verified against the grid oracle in the tests).

Monte Carlo bands and the construction's own 1/n block tolerances are two
different error sources and are reported separately, never merged into a
single invented bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import comb as comb_mod
from .comb import (
    SEAL_GAP,
    DROP_TOOTH,
    SequencePlan,
    _witness_dims,
    anchor_target,
    assign_widths,
    build_comb,
    midpoints,
    pseudo_strip,
    surgery,
    usable_anchor_indices,
)
from .errors import CalibrationError, DomainError, PlanError
from .wos import (
    MeasureEstimate,
    WosParams,
    derive_seed,
    estimate_upper_measure,
)

__all__ = [
    "AnchorRow",
    "BetweenRow",
    "ConstructionReport",
    "LimitPair",
    "OmegaProfile",
    "ProfilePoint",
    "SlopeInterval",
    "SurgeryRow",
    "TailWindow",
    "calibrate_widths",
    "render_comb_svg",
    "report_to_dict",
    "report_to_text",
    "slope_interval_from_limits",
    "tail_extrema",
    "verify_construction",
]

_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class SlopeInterval:
    """Closed subinterval of [-pi/2, pi/2], in radians."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (self.lo <= self.hi + 1e-12):
            raise DomainError(f"interval needs lo <= hi, got [{self.lo}, {self.hi}]")
        if self.lo < -_HALF_PI - 1e-9 or self.hi > _HALF_PI + 1e-9:
            raise DomainError(f"interval must sit inside [-pi/2, pi/2], got [{self.lo}, {self.hi}]")
        object.__setattr__(self, "lo", min(max(self.lo, -_HALF_PI), _HALF_PI))
        object.__setattr__(self, "hi", min(max(self.hi, -_HALF_PI), _HALF_PI))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def is_singleton(self, tol: float = 1e-9) -> bool:
        return self.width <= tol


def slope_interval_from_limits(limsup_ratio: float, liminf_ratio: float) -> SlopeInterval:
    """Map measure limits to the slope interval; order-reversing in each arg."""
    for v in (limsup_ratio, liminf_ratio):
        if not 0.0 <= v <= 1.0:
            raise DomainError(f"measure limits must lie in [0, 1], got {v}")
    if liminf_ratio > limsup_ratio:
        raise DomainError(
            f"liminf {liminf_ratio} exceeds limsup {limsup_ratio}; ordering violated"
        )
    return SlopeInterval(
        math.pi * (0.5 - limsup_ratio), math.pi * (0.5 - liminf_ratio)
    )


@dataclass(frozen=True)
class ProfilePoint:
    t: float
    estimate: MeasureEstimate
    anchor_index: int | None = None  # block index n when this is a midpoint


@dataclass(frozen=True)
class OmegaProfile:
    """Measure profile along the trajectory axis, in traversal order
    (t increasing for forward combs, decreasing for backward)."""

    direction: str
    points: tuple[ProfilePoint, ...]

    def __post_init__(self) -> None:
        sign = 1.0 if self.direction == comb_mod.FORWARD else -1.0
        ts = [sign * p.t for p in self.points]
        for a, b in zip(ts, ts[1:]):
            if not b > a:
                raise DomainError("profile entries must be strictly monotone in t")
        for p in self.points:
            if not p.estimate.valid:
                raise DomainError(f"profile contains an invalid estimate at t = {p.t}")

    @property
    def anchors(self) -> tuple[ProfilePoint, ...]:
        return tuple(p for p in self.points if p.anchor_index is not None)


@dataclass(frozen=True)
class TailWindow:
    fraction: float = 0.5
    min_anchors: int = 4


@dataclass(frozen=True)
class LimitPair:
    """Estimated limsup/liminf with Monte Carlo half-widths (3 sigma)."""

    limsup_hat: float
    liminf_hat: float
    limsup_band: float
    liminf_band: float

    def __post_init__(self) -> None:
        slack = self.limsup_band + self.liminf_band + 1e-12
        if self.liminf_hat > self.limsup_hat + slack:
            raise DomainError(
                f"liminf estimate {self.liminf_hat} exceeds limsup {self.limsup_hat} "
                f"beyond the combined band {slack}"
            )


def _is_high_anchor(direction: str, n: int) -> bool:
    # forward: odd anchors sit on the limsup plateaus; backward: even ones do
    return (n % 2 == 1) == (direction == comb_mod.FORWARD)


def tail_extrema(profile: OmegaProfile, window: TailWindow = TailWindow()) -> LimitPair:
    """Running extrema over the trailing anchor window.

    The window grows leftward from its nominal size until it holds at least
    one anchor of each parity.
    """
    anchors = profile.anchors
    if len(anchors) < window.min_anchors:
        raise DomainError(
            f"need at least {window.min_anchors} anchors, got {len(anchors)}"
        )
    count = max(2, math.ceil(window.fraction * len(anchors)))
    while True:
        late = anchors[-count:]
        highs = [p for p in late if _is_high_anchor(profile.direction, p.anchor_index)]
        lows = [p for p in late if not _is_high_anchor(profile.direction, p.anchor_index)]
        if (highs and lows) or count >= len(anchors):
            break
        count += 1
    if not highs or not lows:
        raise DomainError("anchors of one parity are missing from the profile")
    top = max(highs, key=lambda p: p.estimate.mean)
    bot = min(lows, key=lambda p: p.estimate.mean)
    return LimitPair(
        top.estimate.mean,
        bot.estimate.mean,
        3.0 * top.estimate.smoothed_stderr,
        3.0 * bot.estimate.smoothed_stderr,
    )


# ---------------------------------------------------------------------------
# width calibration

_CALIBRATION_WALKERS = 20_000  # walker cap per calibration estimate
_CALIBRATION_FLOOR = 8.0       # smallest width, in strip heights
_CALIBRATION_DOUBLINGS = 14


def calibrate_widths(plan: SequencePlan, params: WosParams) -> SequencePlan:
    """Find a width schedule meeting the per-block 1/n tolerance targets.

    One width is found per block, ``plan.max_blocks`` in all: ``2 n_pairs``
    for a forward plan and ``2 n_pairs + 1`` for a backward one.  For each
    block index the local strip proportions are embedded in an
    isolated two-tooth pseudo-strip and the width is doubled until the
    measured deviation from the exact strip value falls inside 1/n minus
    three Monte Carlo sigmas.  Each estimate runs ``params`` with at most
    20,000 walkers.  The search floor is 8 times the strip height, which
    makes the vacuous small-n tolerances return the floor immediately; a
    running maximum keeps the schedule strictly increasing.  Exhausting
    the budget of 14 doublings raises :class:`CalibrationError` naming the
    failing block.
    """
    if plan.block_widths is not None:
        raise PlanError("plan already has widths assigned")
    n_walkers = min(params.walkers, _CALIBRATION_WALKERS)
    widths: list[float] = []
    prev = 0.0
    for n in range(1, plan.max_blocks + 1):
        tol = 1.0 / n
        best = 0.0
        # the witness proportions of anchors n and n + 1; a backward comb's
        # first usable anchor is 3, so its blocks 1 and 2 take anchor 3's
        if plan.direction == comb_mod.BACKWARD and n <= 2:
            dims = [_witness_dims(plan, 3)]
        else:
            dims = [_witness_dims(plan, n), _witness_dims(plan, n + 1)]
        for cfg_i, (up, down) in enumerate(dims):
            scale = up + down
            target = down / scale
            w = _CALIBRATION_FLOOR * scale
            noise_cap = 3.0 * 0.5 / math.sqrt(n_walkers)
            if tol - noise_cap >= 0.45:
                best = max(best, w)  # tolerance is vacuous at this index
                continue
            seed = derive_seed(params.seed, 7_000_000 + 100 * n + cfg_i)
            sub = replace(params, walkers=n_walkers, seed=seed, max_lost_fraction=1.0)
            for _ in range(_CALIBRATION_DOUBLINGS + 1):
                est = estimate_upper_measure(pseudo_strip(up, down, w), 0j, sub)
                if abs(est.mean - target) < tol - 3.0 * est.stderr:
                    break
                w *= 2.0
            else:
                raise CalibrationError(
                    f"block {n}: width search exhausted at tolerance 1/{n} "
                    f"for proportions ({up}, {down})"
                )
            best = max(best, w)
        prev = max(best, prev * 1.05) if widths else best
        widths.append(prev)
    return assign_widths(plan, widths, mode="calibrated")


# ---------------------------------------------------------------------------
# construction verification


@dataclass(frozen=True)
class AnchorRow:
    n: int
    t: float
    target: float
    estimate: MeasureEstimate
    tolerance: float
    status: str


@dataclass(frozen=True)
class BetweenRow:
    block: int
    t: float
    lo_bound: float
    hi_bound: float
    estimate: MeasureEstimate
    status: str


@dataclass(frozen=True)
class SurgeryRow:
    k: int
    t: float
    base_mean: float
    sealed_mean: float
    dropped_mean: float
    band: float
    status: str


@dataclass(frozen=True)
class ConstructionReport:
    plan: SequencePlan
    seed: int
    walkers: int
    epsilon_shell: float
    max_steps: int
    anchor_rows: tuple[AnchorRow, ...]
    between_rows: tuple[BetweenRow, ...]
    surgery_rows: tuple[SurgeryRow, ...]
    limits: LimitPair
    interval: SlopeInterval
    overall: str

    @property
    def failed(self) -> bool:
        return self.overall == "fail"


_BASE_TOLERANCE = 0.05  # desk-scale anchor tolerance; shrink it only with more walkers
_BETWEEN_PER_BLOCK = 3


def _anchor_status(est: MeasureEstimate, target: float) -> tuple[float, str]:
    # a check may only pass or fail when the Monte Carlo band can resolve
    # the base tolerance; otherwise it is inconclusive either way
    tol = max(_BASE_TOLERANCE, 3.0 * est.smoothed_stderr)
    if not est.valid:
        return tol, "fail"
    if 3.0 * est.smoothed_stderr > _BASE_TOLERANCE:
        return tol, "inconclusive"
    return tol, "pass" if abs(est.mean - target) <= tol else "fail"


def verify_construction(plan: SequencePlan, params: WosParams) -> ConstructionReport:
    """Measure a planned comb and check it against its own targets.

    Anchor estimates are compared to the exact local strip ratios at
    tolerance ``max(0.05, 3 sigma)``.  Three in-between samples per block
    must stay in the sandwich band
    ``[liminf - 1/n - 3 sigma, limsup + 1/n + 3 sigma]`` for their block
    index ``n``.  On forward combs each odd block is also bracketed by the
    sealed (smaller) and tooth-dropped (larger) surgery domains.  The
    limits come from :func:`tail_extrema` over the default
    :class:`TailWindow`.  The report carries every seed and parameter
    needed to reproduce it.
    """
    if plan.block_widths is None:
        raise PlanError("plan needs widths (explicit or calibrated) before verification")
    domain = build_comb(plan)
    xs = midpoints(plan)
    usable = usable_anchor_indices(plan)

    anchor_rows: list[AnchorRow] = []
    for n in usable:
        sub = replace(params, seed=derive_seed(params.seed, n))
        est = estimate_upper_measure(domain, complex(xs[n - 1], 0.0), sub)
        target = anchor_target(plan, n)
        tol, status = _anchor_status(est, target)
        anchor_rows.append(AnchorRow(n, xs[n - 1], target, est, tol, status))

    between_rows: list[BetweenRow] = []
    surgery_rows: list[SurgeryRow] = []
    lo_t, hi_t = plan.target_liminf, plan.target_limsup
    for left, right in zip(usable, usable[1:]):
        if right != left + 1:
            continue
        x0, x1 = xs[left - 1], xs[right - 1]
        block_tol = 1.0 / left
        do_surgery = plan.direction == comb_mod.FORWARD and left % 2 == 1
        k = (left + 1) // 2
        sealed = surgery(domain, SEAL_GAP, k) if do_surgery else None
        dropped = surgery(domain, DROP_TOOTH, k) if do_surgery else None
        for i in range(_BETWEEN_PER_BLOCK):
            frac = (i + 1) / (_BETWEEN_PER_BLOCK + 1)
            t = x0 + frac * (x1 - x0)
            sub = replace(params, seed=derive_seed(params.seed, 1_000_000 + 1000 * left + i))
            est = estimate_upper_measure(domain, complex(t, 0.0), sub)
            lo_bound = lo_t - block_tol - 3.0 * est.stderr
            hi_bound = hi_t + block_tol + 3.0 * est.stderr
            ok = est.valid and lo_bound <= est.mean <= hi_bound
            status = "pass" if ok else (
                "inconclusive" if 3.0 * est.smoothed_stderr > _BASE_TOLERANCE else "fail"
            )
            between_rows.append(BetweenRow(left, t, lo_bound, hi_bound, est, status))
            if do_surgery:
                sub_s = replace(params, seed=derive_seed(params.seed, 2_000_000 + 1000 * left + i))
                sub_d = replace(params, seed=derive_seed(params.seed, 3_000_000 + 1000 * left + i))
                est_s = estimate_upper_measure(sealed, complex(t, 0.0), sub_s)
                est_d = estimate_upper_measure(dropped, complex(t, 0.0), sub_d)
                band_lo = 3.0 * math.hypot(est.smoothed_stderr, est_d.smoothed_stderr)
                band_hi = 3.0 * math.hypot(est.smoothed_stderr, est_s.smoothed_stderr)
                ok = (est_d.mean - band_lo <= est.mean) and (est.mean <= est_s.mean + band_hi)
                wide = max(est.smoothed_stderr, est_s.smoothed_stderr, est_d.smoothed_stderr)
                status = "pass" if ok else (
                    "inconclusive" if 3.0 * wide > _BASE_TOLERANCE else "fail"
                )
                surgery_rows.append(
                    SurgeryRow(
                        k, t, est.mean, est_s.mean, est_d.mean,
                        max(band_lo, band_hi), status,
                    )
                )

    profile_pts = [
        ProfilePoint(row.t, row.estimate, row.n)
        for row in anchor_rows
        if row.estimate.valid
    ]
    profile = OmegaProfile(plan.direction, tuple(profile_pts))
    limits = tail_extrema(profile)
    liminf = min(limits.liminf_hat, limits.limsup_hat)
    interval = slope_interval_from_limits(limits.limsup_hat, liminf)

    rows_status = [r.status for r in anchor_rows + between_rows + surgery_rows]
    if "fail" in rows_status:
        overall = "fail"
    elif "inconclusive" in rows_status:
        overall = "inconclusive"
    else:
        overall = "pass"
    return ConstructionReport(
        plan=plan,
        seed=params.seed,
        walkers=params.walkers,
        epsilon_shell=params.epsilon_shell,
        max_steps=params.max_steps,
        anchor_rows=tuple(anchor_rows),
        between_rows=tuple(between_rows),
        surgery_rows=tuple(surgery_rows),
        limits=limits,
        interval=interval,
        overall=overall,
    )


# ---------------------------------------------------------------------------
# report rendering


def report_to_dict(report: ConstructionReport) -> dict:
    from . import __version__
    from .comb import plan_to_dict
    from .wos import RNG_ALGORITHM, estimate_to_dict

    return {
        "schema": "combslope/report-v1",
        "tool_version": __version__,
        "rng": RNG_ALGORITHM,
        "seed": report.seed,
        "walkers": report.walkers,
        "epsilon_shell": report.epsilon_shell,
        "max_steps": report.max_steps,
        "plan": plan_to_dict(report.plan),
        "anchors": [
            {
                "n": r.n,
                "t": r.t,
                "target": r.target,
                "tolerance": r.tolerance,
                "status": r.status,
                **estimate_to_dict(r.estimate),
            }
            for r in report.anchor_rows
        ],
        "between": [
            {
                "block": r.block,
                "t": r.t,
                "lo_bound": r.lo_bound,
                "hi_bound": r.hi_bound,
                "status": r.status,
                **estimate_to_dict(r.estimate),
            }
            for r in report.between_rows
        ],
        "surgery": [
            {
                "k": r.k,
                "t": r.t,
                "base_mean": r.base_mean,
                "sealed_mean": r.sealed_mean,
                "dropped_mean": r.dropped_mean,
                "band": r.band,
                "status": r.status,
            }
            for r in report.surgery_rows
        ],
        "limits": {
            "limsup_hat": report.limits.limsup_hat,
            "liminf_hat": report.limits.liminf_hat,
            "limsup_band": report.limits.limsup_band,
            "liminf_band": report.limits.liminf_band,
        },
        "interval": {"lo": report.interval.lo, "hi": report.interval.hi},
        "overall": report.overall,
    }


def report_to_text(report: ConstructionReport) -> str:
    lines = [
        f"construction report: {report.plan.direction} comb, "
        f"{report.plan.n_pairs} tooth pairs, overall {report.overall.upper()}",
        f"seed {report.seed}  walkers {report.walkers}  "
        f"eps {report.epsilon_shell}  max_steps {report.max_steps}",
        "",
        "anchors (n, t, target, mean, 3sigma, status):",
    ]
    for r in report.anchor_rows:
        lines.append(
            f"  {r.n:3d}  {r.t:14.6g}  {r.target:8.5f}  {r.estimate.mean:8.5f}"
            f"  {3 * r.estimate.stderr:8.5f}  {r.status}"
        )
    if report.between_rows:
        lines.append("in-between samples (block, t, mean, bounds, status):")
        for r in report.between_rows:
            lines.append(
                f"  {r.block:3d}  {r.t:14.6g}  {r.estimate.mean:8.5f}"
                f"  [{r.lo_bound:8.5f}, {r.hi_bound:8.5f}]  {r.status}"
            )
    if report.surgery_rows:
        lines.append("surgery brackets (k, t, dropped <= base <= sealed, band, status):")
        for r in report.surgery_rows:
            lines.append(
                f"  {r.k:3d}  {r.t:14.6g}  {r.dropped_mean:8.5f} <= {r.base_mean:8.5f}"
                f" <= {r.sealed_mean:8.5f}  {r.band:8.5f}  {r.status}"
            )
    lines += [
        "",
        f"limsup ~ {report.limits.limsup_hat:.6f} (+-{report.limits.limsup_band:.6f})  "
        f"liminf ~ {report.limits.liminf_hat:.6f} (+-{report.limits.liminf_band:.6f})",
        f"slope interval [{report.interval.lo:.6f}, {report.interval.hi:.6f}] rad "
        f"= [{report.interval.lo / math.pi:+.4f} pi, {report.interval.hi / math.pi:+.4f} pi]",
    ]
    return "\n".join(lines) + "\n"


def _svg_y(y: float, y_scale: float, log_y: bool, unit: float) -> float:
    if not log_y:
        return -y * y_scale
    return -math.copysign(math.log10(1.0 + abs(y) / unit), y) * y_scale


def render_comb_svg(
    domain,
    anchor_rows: tuple[AnchorRow, ...] = (),
    width_px: int = 960,
    height_px: int = 480,
    log_y: bool = False,
) -> str:
    """Schematic SVG: teeth, the trajectory axis, anchor dots and measure bars.

    Purely presentational; the vertical axis can be signed-log scaled for
    geometrically growing teeth.
    """
    anchors = [t.ray.anchor for t in domain.teeth]
    xs = [a.real for a in anchors] + [r.t for r in anchor_rows] + [0.0]
    x_lo, x_hi = min(xs), max(xs)
    pad = 0.08 * (x_hi - x_lo or 1.0)
    x_lo, x_hi = x_lo - pad, x_hi + pad
    unit = min(abs(a.imag) for a in anchors)
    ys = [_svg_y(a.imag, 1.0, log_y, unit) for a in anchors]
    y_span = 2.0 * max(max(map(abs, ys)), 1e-9)
    sx = width_px / (x_hi - x_lo)
    sy = (height_px * 0.4) / (y_span / 2.0)

    def px(x: float) -> float:
        return (x - x_lo) * sx

    def py(y: float) -> float:
        return height_px * 0.5 + _svg_y(y, sy, log_y, unit)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">',
        f'<rect width="{width_px}" height="{height_px}" fill="white"/>',
        f'<line x1="0" y1="{py(0.0):.2f}" x2="{width_px}" y2="{py(0.0):.2f}" '
        f'stroke="#999" stroke-dasharray="4 3"/>',
    ]
    for tooth in domain.teeth:
        a = tooth.ray.anchor
        color = "#1f77b4" if tooth.label == "upper" else "#d62728"
        parts.append(
            f'<line x1="0" y1="{py(a.imag):.2f}" x2="{px(a.real):.2f}" y2="{py(a.imag):.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<circle cx="{px(a.real):.2f}" cy="{py(a.imag):.2f}" r="3" fill="{color}"/>'
        )
    band_top, band_h = height_px - 70.0, 60.0
    parts.append(
        f'<line x1="0" y1="{band_top + band_h:.2f}" x2="{width_px}" '
        f'y2="{band_top + band_h:.2f}" stroke="#ccc"/>'
    )
    for row in anchor_rows:
        cx = px(row.t)
        mean_y = band_top + band_h * (1.0 - row.estimate.mean)
        lo_y = band_top + band_h * (1.0 - min(1.0, row.estimate.mean + 3 * row.estimate.stderr))
        hi_y = band_top + band_h * (1.0 - max(0.0, row.estimate.mean - 3 * row.estimate.stderr))
        tgt_y = band_top + band_h * (1.0 - row.target)
        parts.append(
            f'<line x1="{cx:.2f}" y1="{lo_y:.2f}" x2="{cx:.2f}" y2="{hi_y:.2f}" stroke="#2ca02c"/>'
        )
        parts.append(f'<circle cx="{cx:.2f}" cy="{mean_y:.2f}" r="2.5" fill="#2ca02c"/>')
        parts.append(
            f'<line x1="{cx - 5:.2f}" y1="{tgt_y:.2f}" x2="{cx + 5:.2f}" y2="{tgt_y:.2f}" '
            f'stroke="#000" stroke-width="1"/>'
        )
        parts.append(
            f'<circle cx="{cx:.2f}" cy="{py(0.0):.2f}" r="2.5" fill="#2ca02c"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
