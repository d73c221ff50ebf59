"""Command-line front end.

Subcommands: plan, build, measure, profile, verify, model.  Angles are
written as multiples of pi ("-0.25pi", "0.1667pi") or plain radians.  All
artifacts embed the schema version, tool version, seed, and a config echo;
outputs are byte-identical for identical (config, seed, version).

Exit codes: 0 success (inconclusive checks do not fail a run), 1 a
verification check failed or an estimate could not be produced, 2 usage or
parameter errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .analyzer import (
    calibrate_widths,
    render_comb_svg,
    report_to_dict,
    report_to_text,
    verify_construction,
)
from .comb import (
    BACKWARD,
    assign_widths,
    build_comb,
    domain_to_dict,
    midpoints,
    plan_backward,
    plan_backward_special,
    plan_forward,
    plan_from_dict,
    plan_to_dict,
    usable_anchor_indices,
)
from .errors import (
    BuildError,
    CalibrationError,
    ConvergenceError,
    DomainError,
    EstimationError,
    GridError,
    PlanError,
)
from .semigroup import (
    HalfPlaneModel,
    StripModel,
    slope_plus,
    trajectory,
    trajectory_to_csv,
)
from .exact import strip_upper_measure
from .wos import (
    RNG_ALGORITHM,
    WosParams,
    estimate_to_dict,
    estimate_upper_measure,
    estimate_profile,
    profile_to_csv,
    profile_to_dicts,
)

_USAGE_ERRORS = (PlanError, DomainError, GridError, BuildError, ValueError)
_CHECK_ERRORS = (EstimationError, CalibrationError, ConvergenceError)


def parse_angle(text: str) -> float:
    """Angles as multiples of pi ("0.25pi", "-pi") or plain radians."""
    s = text.strip().lower().replace(" ", "")
    if s.endswith("pi"):
        head = s[:-2]
        if head in ("", "+"):
            return math.pi
        if head == "-":
            return -math.pi
        return float(head) * math.pi
    return float(s)


def _dump_json(obj, path: str) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _config_echo(args: argparse.Namespace) -> dict:
    skip = {"func", "config"}
    out = {}
    for k, v in sorted(vars(args).items()):
        if k in skip:
            continue
        out[k] = str(v) if isinstance(v, Path) else v
    return out


def _meta(args: argparse.Namespace, schema: str, seed: int | None = None) -> dict:
    d = {
        "schema": schema,
        "tool_version": __version__,
        "rng": RNG_ALGORITHM,
        "config": _config_echo(args),
    }
    if seed is not None:
        d["seed"] = seed
    return d


def _csv_meta(args: argparse.Namespace, schema: str, seed: int | None = None) -> str:
    cfg = " ".join(f"{k}={v}" for k, v in _config_echo(args).items())
    lines = [f"# schema {schema} tool_version {__version__}"]
    if seed is not None:
        lines.append(f"# seed {seed}")
    lines.append(f"# config {cfg}")
    return "\n".join(lines) + "\n"


# output paths a command falls back on when neither a flag nor the config
# names one; they start as None so that a config file can set them
_DEFAULT_OUTPUTS = {
    "plan": ("output", "plan.json"),
    "build": ("output", "domain.json"),
    "profile": ("output", "profile.csv"),
    "verify": ("out_dir", "report"),
}


# config keys of options a past version had, still accepted and ignored
_RETIRED_KEYS = frozenset({"no_radius_cap"})


def _apply_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> argparse.Namespace:
    """Fill options left unset (None) and switches left off (False) from a
    JSON config file, then unset output paths from their built-in names;
    flags win.  A key that names no option of any subcommand is a usage
    error, so a misspelled key cannot silently run with the default; a key
    of another subcommand's option is skipped, so one config can serve
    several subcommands."""
    if getattr(args, "config", None) is not None:
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        known = {a.dest for p in subs.choices.values() for a in p._actions} | _RETIRED_KEYS
        unknown = [key for key in cfg if key.replace("-", "_") not in known]
        if unknown:
            raise ValueError(f"config file {args.config} names no option: {', '.join(unknown)}")
        for key, val in cfg.items():
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                continue
            current = getattr(args, attr)
            # identity, not "in (None, False)", since an explicit 0 == False
            if current is None or current is False:
                setattr(args, attr, val)
    attr, name = _DEFAULT_OUTPUTS.get(args.command, (None, None))
    if attr is not None and getattr(args, attr) is None:
        setattr(args, attr, name)
    return args


def _wos_params(args: argparse.Namespace) -> WosParams:
    """``WosParams()`` with the flags the user set on top."""
    flags = (("walkers", "walkers", int), ("seed", "seed", int),
             ("eps", "epsilon_shell", float), ("max_steps", "max_steps", int))
    given = {field: kind(getattr(args, flag)) for flag, field, kind in flags
             if getattr(args, flag) is not None}
    if args.no_rescale:
        given["rescale"] = False
    return WosParams(**given)


def _add_wos_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--walkers", type=int, default=None,
                   help=f"walkers per point (default {WosParams.walkers})")
    p.add_argument("--seed", type=int, default=None,
                   help=f"base RNG seed (default {WosParams.seed})")
    p.add_argument("--eps", type=float, default=None,
                   help=f"absorption shell, local-scale units (default {WosParams.epsilon_shell:g})")
    p.add_argument("--max-steps", type=int, default=None,
                   help=f"step budget per walker (default {WosParams.max_steps})")
    p.add_argument("--no-rescale", action="store_true", help="work in absolute units")
    p.add_argument("--config", default=None, help="JSON config file; flags win over it")


def _load_plan(path: str):
    return plan_from_dict(json.loads(Path(path).read_text()))


def _build_plan_from_flags(args: argparse.Namespace):
    n = int(args.n if args.n is not None else 4)
    r1 = float(args.r1 if args.r1 is not None else 1.0)
    if args.forward:
        if args.theta1 is None or args.theta2 is None:
            raise PlanError("forward plans need --theta1 and --theta2")
        return plan_forward(parse_angle(str(args.theta1)), parse_angle(str(args.theta2)), r1, n)
    if args.full_interval:
        return plan_backward_special("full_interval", r1, n)
    if args.liminf_zero:
        if args.limsup_target is None:
            raise PlanError("--liminf-zero needs --limsup-target")
        return plan_backward_special(
            "liminf_zero", r1, n, target_limsup=float(args.limsup_target), m=int(args.m or 0)
        )
    if args.limsup_one:
        if args.liminf_target is None:
            raise PlanError("--limsup-one needs --liminf-target")
        return plan_backward_special(
            "limsup_one", r1, n, target_liminf=float(args.liminf_target), m=int(args.m or 0)
        )
    if args.backward:
        if args.theta1 is None or args.theta2 is None:
            raise PlanError("backward plans need --theta1 and --theta2")
        return plan_backward(parse_angle(str(args.theta1)), parse_angle(str(args.theta2)), r1, n)
    raise PlanError("choose a mode: --forward, --backward, or a special backward mode")


def _plan_summary(plan) -> str:
    lines = [
        f"{plan.direction} plan, {plan.n_pairs} tooth pairs, targets "
        f"limsup {plan.target_limsup:.6g} liminf {plan.target_liminf:.6g}"
        + (f", special {plan.special} (m = {plan.special_m})" if plan.special else ""),
        "pair   upper height   lower depth",
    ]
    for k in range(plan.n_pairs):
        lines.append(
            f"{k + 1:4d}   {plan.upper_heights[k]:<14.6g} {plan.lower_depths[k]:<14.6g}"
        )
    if plan.direction == BACKWARD:  # its last tooth, 2n + 1, is one more upper height
        lines.append(f"{plan.n_pairs + 1:4d}   {plan.upper_heights[plan.n_pairs]:<14.6g} -")
    if plan.block_widths:
        u = plan.cum_widths
        xs = midpoints(plan)
        lines.append(f"widths ({plan.widths_mode}):")
        lines.append("   n   width u'_n     cum u_n        midpoint x_n")
        for i, w in enumerate(plan.block_widths):
            lines.append(f"{i + 1:4d}   {w:<14.6g} {u[i]:<14.6g} {xs[i]:<14.6g}")
    else:
        lines.append("widths: unassigned")
    return "\n".join(lines)


def cmd_plan(args: argparse.Namespace) -> int:
    plan = _build_plan_from_flags(args)
    params = _wos_params(args)
    if args.widths:
        widths = [float(w) for w in str(args.widths).split(",") if w.strip()]
        plan = assign_widths(plan, widths, mode="explicit")
    elif args.calibrate:
        plan = calibrate_widths(plan, params)
    doc = plan_to_dict(plan)
    doc["meta"] = _meta(args, "combslope/plan-v1", seed=params.seed)
    _dump_json(doc, args.output)
    print(_plan_summary(plan))
    print(f"plan written to {args.output}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    plan = _load_plan(args.plan)
    domain = build_comb(plan)
    doc = domain_to_dict(domain)
    doc["meta"] = _meta(args, "combslope/domain-v1")
    _dump_json(doc, args.output)
    if args.svg:
        Path(args.svg).write_text(render_comb_svg(domain, log_y=args.svg_log_y))
    print(f"{len(domain.teeth)} teeth written to {args.output}")
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    plan = _load_plan(args.plan)
    domain = build_comb(plan)
    params = _wos_params(args)
    est = estimate_upper_measure(domain, complex(float(args.at), 0.0), params)
    print(
        f"measure at t = {args.at}: {est.mean:.6f} +- {est.stderr:.6f} "
        f"(walkers {est.walkers_used}, lost {est.lost}, valid {est.valid})"
    )
    if args.output:
        doc = {"t": float(args.at), **estimate_to_dict(est)}
        doc["meta"] = _meta(args, "combslope/measure-v1", seed=params.seed)
        _dump_json(doc, args.output)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    plan = _load_plan(args.plan)
    domain = build_comb(plan)
    params = _wos_params(args)
    if args.t:
        ts = [float(v) for v in str(args.t).split(",") if v.strip()]
    else:
        xs = midpoints(plan)
        ts = [xs[n - 1] for n in usable_anchor_indices(plan)]
    entries = estimate_profile(domain, ts, params)
    Path(args.output).write_text(
        _csv_meta(args, "combslope/profile-csv-v1", params.seed)
        + profile_to_csv(entries, params)
    )
    if args.json:
        doc = {
            "entries": profile_to_dicts(entries),
            "meta": _meta(args, "combslope/profile-v1", seed=params.seed),
        }
        _dump_json(doc, args.json)
    bad = sum(1 for e in entries if e.estimate is None)
    print(f"profile of {len(entries)} points written to {args.output} ({bad} failed)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    plan = _load_plan(args.plan)
    params = _wos_params(args)
    if plan.block_widths is None:
        plan = calibrate_widths(plan, params)
    report = verify_construction(plan, params)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = report_to_dict(report)
    doc["meta"] = _meta(args, "combslope/report-v1", seed=params.seed)
    _dump_json(doc, str(out / "report.json"))
    (out / "report.txt").write_text(report_to_text(report))
    (out / "comb.svg").write_text(
        render_comb_svg(build_comb(plan), report.anchor_rows, log_y=args.svg_log_y)
    )
    from .wos import ProfileEntry

    entries = [ProfileEntry(r.t, r.estimate) for r in report.anchor_rows]
    (out / "profile.csv").write_text(
        _csv_meta(args, "combslope/profile-csv-v1", params.seed)
        + profile_to_csv(entries, params)
    )
    print(report_to_text(report))
    print(f"report files in {out}")
    return 1 if report.failed else 0


def cmd_model(args: argparse.Namespace) -> int:
    t_max = float(args.tmax if args.tmax is not None else 100.0)
    samples = int(args.samples if args.samples is not None else 400)
    if args.model == "strip":
        d = float(args.d if args.d is not None else 1.0)
        y0 = float(args.y0 if args.y0 is not None else 0.0)
        model = StripModel(d)
    elif args.model == "halfplane":
        y0 = float(args.y0 if args.y0 is not None else 1.0)
        model = HalfPlaneModel()
    else:
        raise DomainError(f"unknown model {args.model!r}")
    # raises DomainError unless h(z) = i y0 lies in the model domain
    z = model.koenigs_inverse(complex(0.0, y0))
    ts = [t_max * (i + 1) / samples for i in range(samples)]
    traj = trajectory(model, z, ts)
    if args.output:
        Path(args.output).write_text(
            _csv_meta(args, "combslope/trajectory-csv-v1") + trajectory_to_csv(traj)
        )
    interval = slope_plus(traj)
    print(
        f"slope interval over the tail: [{interval.lo:.9f}, {interval.hi:.9f}] rad "
        f"(width {interval.width:.2e})"
    )
    if args.model == "strip":
        exact = math.pi * (0.5 - strip_upper_measure(d - y0, d + y0))
        mid = 0.5 * (interval.lo + interval.hi)
        print(
            f"strip cross-check: exact slope pi*(1/2 - measure) = {exact:.9f}, "
            f"measured {mid:.9f}, |diff| = {abs(exact - mid):.3e}"
        )
    if args.output:
        print(f"trajectory written to {args.output}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combslope",
        description="comb domains, walk-on-spheres harmonic measure, slope intervals",
    )
    parser.add_argument("--version", action="version", version=f"combslope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="construct a sequence plan and write it as JSON")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--forward", action="store_true")
    mode.add_argument("--backward", action="store_true")
    p.add_argument("--full-interval", action="store_true", help="backward special mode")
    p.add_argument("--liminf-zero", action="store_true", help="backward special mode")
    p.add_argument("--limsup-one", action="store_true", help="backward special mode")
    p.add_argument("--theta1", default=None, help="lower slope target, e.g. -0.25pi")
    p.add_argument("--theta2", default=None, help="upper slope target, e.g. 0.1667pi")
    p.add_argument("--limsup-target", type=float, default=None,
                   help="measure limsup target for --liminf-zero")
    p.add_argument("--liminf-target", type=float, default=None,
                   help="measure liminf target for --limsup-one")
    p.add_argument("--m", type=int, default=None, help="index offset for special modes")
    p.add_argument("--r1", type=float, default=None, help="first tooth height (default 1)")
    p.add_argument("--n", type=int, default=None, help="tooth pairs (default 4)")
    p.add_argument("--widths", default=None, help="explicit widths, comma separated")
    p.add_argument("--calibrate", action="store_true", help="calibrate widths by Monte Carlo")
    p.add_argument("-o", "--output", default=None, help="plan JSON path (default plan.json)")
    _add_wos_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("build", help="place the teeth of a plan and write the domain")
    p.add_argument("--plan", required=True)
    p.add_argument("-o", "--output", default=None, help="domain JSON path (default domain.json)")
    p.add_argument("--svg", default=None, help="also render the comb as SVG")
    p.add_argument("--svg-log-y", action="store_true", help="signed-log vertical scale")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("measure", help="one harmonic-measure estimate on a planned comb")
    p.add_argument("--plan", required=True)
    p.add_argument("--at", required=True, help="abscissa on the trajectory axis")
    p.add_argument("-o", "--output", default=None)
    _add_wos_flags(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("profile", help="estimates along the axis, CSV/JSON out")
    p.add_argument("--plan", required=True)
    p.add_argument("--t", default=None, help="comma-separated abscissas (default: anchors)")
    p.add_argument("-o", "--output", default=None, help="profile CSV path (default profile.csv)")
    p.add_argument("--json", default=None, help="also write a JSON profile")
    _add_wos_flags(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("verify", help="run the full construction verification")
    p.add_argument("--plan", required=True)
    p.add_argument("--out-dir", default=None, help="report directory (default report)")
    p.add_argument("--svg-log-y", action="store_true")
    _add_wos_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("model", help="closed-form trajectory runs (strip, halfplane)")
    p.add_argument("model", choices=["strip", "halfplane"])
    p.add_argument("--d", type=float, default=None, help="strip half-width (default 1)")
    p.add_argument("--y0", type=float, default=None,
                   help="height of h(z): strip |y0| < d (default 0), halfplane y0 > 0 (default 1)")
    p.add_argument("--tmax", type=float, default=None, help="time horizon (default 100)")
    p.add_argument("--samples", type=int, default=None, help="sample count (default 400)")
    p.add_argument("-o", "--output", default=None, help="trajectory CSV path")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_model)
    return parser


_SIGNED_FLAGS = ("--theta1", "--theta2", "--at", "--t")


def _merge_signed_flags(argv: list[str]) -> list[str]:
    # argparse mistakes "-0.25pi", "-2.5e1" or "-20,-30" for an option; fold
    # the values of flags that take signed numbers into --flag=value
    merged, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _SIGNED_FLAGS and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_signed_flags(list(argv)))
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code or 0)
    try:
        args = _apply_config(args, parser)
        return args.func(args)
    except _CHECK_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
