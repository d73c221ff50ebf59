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
    "Job",
    "LimitPair",
    "OmegaProfile",
    "ProfilePoint",
    "SlopeInterval",
    "SurgeryRow",
    "TailWindow",
    "calibrate_widths",
    "judge",
    "plan_jobs",
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
    params: WosParams
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
# child-seed offsets of the in-between samples and their surgery brackets
_ROLE_OFFSETS = {"between": 1_000_000, "sealed": 2_000_000, "dropped": 3_000_000}


@dataclass(frozen=True)
class Job:
    """One estimate of verification: the upper measure of ``domain`` at ``t``."""

    role: str  # anchor, between, sealed or dropped
    block: int  # the anchor index, or the left anchor of the sample's block
    t: float
    domain: comb_mod.CombDomain
    seed: int


def plan_jobs(plan: SequencePlan, seed: int) -> tuple[Job, ...]:
    """Every estimate :func:`verify_construction` runs, in run order: one per
    usable anchor, then three in-between samples per block, each followed by
    its sealed and tooth-dropped jobs on odd blocks of forward combs.  Raises
    if the plan has fewer anchors than :class:`TailWindow` needs."""
    if plan.block_widths is None:
        raise PlanError("plan needs widths (explicit or calibrated) before verification")
    usable = usable_anchor_indices(plan)
    need = TailWindow().min_anchors
    if len(usable) < need:
        raise DomainError(f"need at least {need} anchors, got {len(usable)}")
    domain = build_comb(plan)
    xs = midpoints(plan)
    jobs = [Job("anchor", n, xs[n - 1], domain, derive_seed(seed, n)) for n in usable]
    for left in usable[:-1]:  # usable anchors are consecutive
        domains = {"between": domain}
        if plan.direction == comb_mod.FORWARD and left % 2 == 1:
            k = (left + 1) // 2
            domains["sealed"] = surgery(domain, SEAL_GAP, k)
            domains["dropped"] = surgery(domain, DROP_TOOTH, k)
        for i in range(_BETWEEN_PER_BLOCK):
            t = xs[left - 1] + (i + 1) / (_BETWEEN_PER_BLOCK + 1) * (xs[left] - xs[left - 1])
            jobs += [
                Job(role, left, t, dom, derive_seed(seed, _ROLE_OFFSETS[role] + 1000 * left + i))
                for role, dom in domains.items()
            ]
    return tuple(jobs)


def _status(ok: bool, sigma: float) -> str:
    # a miss fails only where the Monte Carlo band resolves the base tolerance
    return "pass" if ok else ("inconclusive" if 3.0 * sigma > _BASE_TOLERANCE else "fail")


def judge(
    plan: SequencePlan, params: WosParams, jobs: tuple[Job, ...], estimates: list[MeasureEstimate]
) -> ConstructionReport:
    """Check ``estimates``, one per job in job order, against the plan.

    Anchors must meet the exact local strip ratios within ``max(0.05, 3 sigma)``.
    In-between samples must stay in the sandwich band ``[liminf - 1/n - 3 sigma,
    limsup + 1/n + 3 sigma]`` of their block ``n``, and between their
    tooth-dropped (smaller) and sealed (larger) surgery estimates."""
    found = {(job.role, job.block, job.t): est for job, est in zip(jobs, estimates, strict=True)}
    anchor_rows: list[AnchorRow] = []
    between_rows: list[BetweenRow] = []
    surgery_rows: list[SurgeryRow] = []
    for (role, n, t), est in found.items():
        sigma = est.smoothed_stderr
        if role == "anchor":
            target = anchor_target(plan, n)
            tol = max(_BASE_TOLERANCE, 3.0 * sigma)
            # an anchor passes only where its band resolves the base tolerance
            ok = 3.0 * sigma <= _BASE_TOLERANCE and abs(est.mean - target) <= tol
            status = _status(ok, sigma) if est.valid else "fail"
            anchor_rows.append(AnchorRow(n, t, target, est, tol, status))
        elif role == "between":
            lo_bound = plan.target_liminf - 1.0 / n - 3.0 * est.stderr
            hi_bound = plan.target_limsup + 1.0 / n + 3.0 * est.stderr
            ok = est.valid and lo_bound <= est.mean <= hi_bound
            between_rows.append(BetweenRow(n, t, lo_bound, hi_bound, est, _status(ok, sigma)))
        elif role == "sealed":  # judged with the base and dropped runs at its t
            base, dropped = found["between", n, t], found["dropped", n, t]
            band_lo = 3.0 * math.hypot(base.smoothed_stderr, dropped.smoothed_stderr)
            band_hi = 3.0 * math.hypot(base.smoothed_stderr, sigma)
            ok = dropped.mean - band_lo <= base.mean <= est.mean + band_hi
            wide = max(base.smoothed_stderr, sigma, dropped.smoothed_stderr)
            surgery_rows.append(
                SurgeryRow(
                    (n + 1) // 2, t, base.mean, est.mean, dropped.mean,
                    max(band_lo, band_hi), _status(ok, wide),
                )
            )

    limits = tail_extrema(OmegaProfile(plan.direction, tuple(
        ProfilePoint(row.t, row.estimate, row.n) for row in anchor_rows if row.estimate.valid
    )))
    liminf = min(limits.liminf_hat, limits.limsup_hat)
    interval = slope_interval_from_limits(limits.limsup_hat, liminf)

    rows_status = {r.status for r in anchor_rows + between_rows + surgery_rows}
    overall = next((s for s in ("fail", "inconclusive") if s in rows_status), "pass")
    return ConstructionReport(
        plan, params, tuple(anchor_rows), tuple(between_rows), tuple(surgery_rows),
        limits, interval, overall,
    )


def verify_construction(plan: SequencePlan, params: WosParams) -> ConstructionReport:
    """Run each estimate :func:`plan_jobs` lists, under its job's seed, and
    :func:`judge` them.  The report carries every seed and parameter needed
    to reproduce it."""
    jobs = plan_jobs(plan, params.seed)
    estimates = [
        estimate_upper_measure(job.domain, complex(job.t, 0.0), replace(params, seed=job.seed))
        for job in jobs
    ]
    return judge(plan, params, jobs, estimates)


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
        "seed": report.params.seed,
        "walkers": report.params.walkers,
        "epsilon_shell": report.params.epsilon_shell,
        "max_steps": report.params.max_steps,
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
        f"seed {report.params.seed}  walkers {report.params.walkers}  "
        f"eps {report.params.epsilon_shell}  max_steps {report.params.max_steps}",
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
