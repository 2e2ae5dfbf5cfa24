"""Command-line surface: argument parsing and file writing.

Commands: verify, report, solve, lift, cotton, killing, killing-dim,
catalog.  Exit codes: 0 when every check passes, 1 when any check fails,
2 for configuration or parse errors.  Report bodies come from
``report.render``, so JSON output is deterministic; with --stable-output
the wall-time field is dropped so identical runs are byte-identical;
``report`` writes its files into the --out directory and the body to stdout.
The numeric CSVs (solve, lift and report's kink profile) write each value as
its repr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import catalog as cat
from .exprlang import ExprSyntaxError, eval_array, parse_expr
from .geometry import (
    GeometryError,
    cotton_identities_check,
    cotton_vanishing_check,
    load_metric,
)
from .kink import (
    KinkSolverError,
    PotentialSpec,
    _require_finite_positive,
    flat_kink_solve,
    lift_flat_kink,
    solve_kink_ode,
)
from .report import CheckReport, render
from .suite import CHECK_NAMES, TOL, run_checks
from .symmetry import (
    VectorFieldSpec,
    killing_dimension,
    killing_residual,
)

__all__ = ["main", "RunConfig"]

_FORMATS = ("json", "text", "csv")

@dataclass
class RunConfig:
    """Verification run configuration; unknown keys are rejected."""

    C: float = 1.0
    tol: Optional[float] = None
    checks: Optional[list] = None
    cases: Optional[list] = None
    grid_n: int = 7
    format: str = "json"
    out: Optional[str] = None
    thorough: bool = False
    stable_output: bool = False

    def __post_init__(self):
        _require_finite_positive(C=self.C)
        tol = self.tol
        if tol is not None and not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")
        if not isinstance(self.grid_n, int) or isinstance(self.grid_n, bool):
            raise ValueError(f"grid_n must be an integer, got {self.grid_n!r}")
        for name in ("checks", "cases"):
            v = getattr(self, name)
            if v is not None and not (isinstance(v, list) and all(isinstance(s, str) for s in v)):
                raise ValueError(f"{name} must be a list of strings, got {v!r}")
        for name in ("thorough", "stable_output"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ValueError(f"out must be a string or null, got {self.out!r}")
        if self.grid_n < 2:
            raise ValueError("grid_n must be at least 2")

    @staticmethod
    def from_dict(obj: dict) -> "RunConfig":
        unknown = set(obj) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return RunConfig(**obj)

    def to_dict(self) -> dict:
        return asdict(self)


class _CliError(Exception):
    pass


def _write(body: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(body, encoding="utf-8")
    else:
        sys.stdout.write(body)


def _write_columns(path, columns: dict) -> None:
    """CSV with a header of column names and one row per index, each value
    written as the repr of its float."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(columns)
        w.writerows(zip(*([repr(float(v)) for v in col] for col in columns.values())))


def _emit_reports(reports: list[CheckReport], config: RunConfig) -> int:
    reports = _apply_tol_override(reports, config.tol)
    _write(render(reports, config.format, config.to_dict(), config.stable_output), config.out)
    return 0 if all(r.passed for r in reports) else 1


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = RunConfig.from_dict(json.load(fh))
    flags = {"C": args.C, "tol": args.tol, "grid_n": args.grid, "format": args.format, "out": args.out}
    overrides = {k: v for k, v in flags.items() if v is not None}
    if getattr(args, "what", None):
        overrides["checks"] = [w.strip() for w in args.what.split(",") if w.strip()]
    if getattr(args, "case", None) and args.case != "all":
        overrides["cases"] = [cat.canonical_tag(c) for c in args.case.split(",")]
    # store_true flags: an absent flag keeps the config file's value
    for name in ("thorough", "stable_output"):
        if getattr(args, name, False):
            overrides[name] = True
    # replace() runs __post_init__ again, so a flag is validated like a file key
    return replace(cfg, **overrides)


def _output_config(args) -> RunConfig:
    """The run config of a command that takes only the output options."""
    return RunConfig(tol=args.tol, format=args.format or "json", out=args.out, stable_output=args.stable_output)


def _apply_tol_override(reports: list[CheckReport], tol: Optional[float]) -> list[CheckReport]:
    if tol is not None:
        for r in reports:
            r.hold_to(tol)
    return reports


# -- commands ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    cfg = _config_from_args(args)
    reports = run_checks(
        C=cfg.C,
        checks=cfg.checks,
        cases=cfg.cases,
        thorough=cfg.thorough,
        grid_n=cfg.grid_n,
    )
    return _emit_reports(reports, cfg)


def cmd_report(args) -> int:
    cfg = _config_from_args(args)
    outdir = Path(cfg.out or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    reports = _apply_tol_override(run_checks(C=cfg.C, thorough=cfg.thorough, grid_n=cfg.grid_n), cfg.tol)
    (outdir / "report.json").write_text(render(reports, "json", cfg.to_dict(), cfg.stable_output), encoding="utf-8")
    _write_kink_profile_csv(outdir / "kink_profile.csv", cfg.C)
    failed = sum(0 if r.passed else 1 for r in reports)
    print(f"report.json + kink_profile.csv written to {outdir} ({failed} failed checks)", file=sys.stderr)
    return _emit_reports(reports, replace(cfg, out=None))  # the body in --format, to stdout


def _write_kink_profile_csv(path: Path, C: float) -> None:
    """Numerical profile columns plus the closed-form curvature curves
    (exact-jet evaluation of the catalog kink) for plotting."""
    prof = solve_kink_ode(C, 8.0 / math.sqrt(C), n=401, tol=1e-7)
    case = cat.SolutionCase("kink+", C)
    _write_columns(
        path,
        {
            "x": prof.x,
            "f": prof.f,
            "h": prof.h,
            "r": eval_array(cat.solution_2d(case).r_expected, {"x": prof.x, **case.env}),
            "R": eval_array(cat.solution_3d(case).R_expected, {"x": prof.x, **case.env}),
            "residual_eq14": prof.eq14_residual,
            "first_integral": prof.first_integral,
        },
    )


def cmd_solve(args) -> int:
    if args.system != "kink":
        raise _CliError(f"unknown system {args.system!r}; only 'kink' is available")
    prof = solve_kink_ode(args.C, args.xmax, n=args.n, tol=args.tol)
    out = args.out or "profile.csv"
    _write_columns(
        out,
        {"x": prof.x, "f": prof.f, "h": prof.h, "residual_eq14": prof.eq14_residual, "first_integral": prof.first_integral},
    )
    print(
        f"{out}: {len(prof.x)} rows; f'(0) = {prof.shoot_param!r}, "
        f"{prof.iterations} rounds, max |eq14| = {prof.max_residual:.3e}"
    )
    return 0


def cmd_lift(args) -> int:
    vac = [float(v) for v in args.vacua.split(",")]
    if len(vac) != 2:
        raise _CliError("--vacua expects two comma-separated numbers")
    p = PotentialSpec(expr=parse_expr(args.potential), var=args.var, vacua=(vac[0], vac[1]))
    flat = flat_kink_solve(p, xmax=args.xmax, n=args.n)
    lifted = lift_flat_kink(p, flat)
    out = args.out or "lift.csv"
    # the k column, k(x / sqrt 2), is the lift's f
    _write_columns(out, {"x": lifted.x, "k": lifted.f, "f": lifted.f, "g_tt": lifted.g_tt})
    print(f"{out}: {len(lifted.x)} rows; k(0) = {flat.center_value!r}")
    return 0


def _parse_grid_spec(spec: str, coords: Sequence[str]) -> np.ndarray:
    """Axis specs like 't=0.5:4:5,x=0.25:4:5,y=-1:1:5'; 'default' covers a
    box that dodges the catalog singular loci."""
    axes = {}
    if spec == "default":
        for c in coords:
            axes[c] = np.linspace(-1.0, 1.0, 5) if c == "y" else np.linspace(0.6, 2.4, 5)
    else:
        for part in spec.split(","):
            name, _, bounds = part.partition("=")
            name = name.strip()
            try:
                lo, hi, n = bounds.split(":")
                lo, hi, n = float(lo), float(hi), int(n)
            except ValueError:
                raise _CliError(f"grid axis {part!r} is not name=lo:hi:n") from None
            if not (math.isfinite(lo) and math.isfinite(hi)) or n < 1:
                raise _CliError(f"grid axis {part!r} needs finite bounds and at least one point")
            if name in axes:
                raise _CliError(f"grid spec repeats axis {name!r}")
            axes[name] = np.linspace(lo, hi, n)
        unknown = set(axes) - set(coords)
        if unknown:
            raise _CliError(f"grid spec names axes the metric does not have: {sorted(unknown)}")
        missing = set(coords) - set(axes)
        if missing:
            raise _CliError(f"grid spec missing axes: {sorted(missing)}")
    mesh = np.meshgrid(*[axes[c] for c in coords], indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def cmd_cotton(args) -> int:
    cfg = _output_config(args)
    m = load_metric(args.metric)
    grid = _parse_grid_spec(args.grid, m.coords)
    reports = [
        cotton_vanishing_check(m, grid, tolerance=TOL["cotton"]),
        cotton_identities_check(m, grid, tolerance=TOL["cotton-identities"]),
    ]
    return _emit_reports(reports, cfg)


def cmd_killing(args) -> int:
    cfg = _output_config(args)
    m = load_metric(args.metric)
    with open(args.fields, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    unknown = set(payload) - {"coordinates", "parameters", "fields"}
    if unknown:
        raise _CliError(f"unknown fields-file keys: {sorted(unknown)}")
    if payload.get("coordinates", list(m.coords)) != list(m.coords):
        raise _CliError(f"fields-file coordinates {payload['coordinates']!r} do not match the metric's {list(m.coords)!r}")
    params = payload.get("parameters", {})
    if not isinstance(params, dict):
        raise _CliError(f"fields-file parameters must be an object, got {params!r}")
    for name, value in params.items():
        if name not in m.env or m.env[name] != value:
            raise _CliError(f"fields-file parameter {name}={value!r} is not in the metric's parameters {dict(m.env)!r}")
    grid = _parse_grid_spec(args.grid, m.coords)
    reports = []
    for k, comps in enumerate(payload["fields"]):
        xi = VectorFieldSpec.parse(comps)
        reports.append(killing_residual(m, xi, grid, tolerance=TOL["killing"], check_id=f"killing:field{k}"))
    return _emit_reports(reports, cfg)


def cmd_killing_dim(args) -> int:
    m = load_metric(args.metric)
    try:
        base = tuple(float(v) for v in args.point.split(","))
    except ValueError:
        raise _CliError(f"--point {args.point!r} is not a comma-separated list of numbers") from None
    if len(base) != m.dim:
        raise _CliError(f"--point needs {m.dim} components")
    if not all(math.isfinite(v) for v in base):
        raise _CliError(f"--point needs finite components, got {args.point!r}")
    rng = np.random.default_rng(2)
    pts = [base] + [tuple(np.asarray(base) + rng.uniform(-0.15, 0.15, m.dim)) for _ in range(2)]
    est = killing_dimension(m, pts, depth=args.depth)
    print(json.dumps({"killing_dimension": est, "depth": args.depth, "points": [list(p) for p in pts]}))
    return 0


def cmd_catalog(args) -> int:
    if args.action != "export":
        raise _CliError("catalog supports only the 'export' action")
    payload = cat.export_case(cat.SolutionCase.at(args.case, args.C), args.what)
    _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


# -- parser -----------------------------------------------------------------------


def _add_output(p: argparse.ArgumentParser, out_help: str = "output path (stdout by default)") -> None:
    """The options of every command that writes check reports."""
    p.add_argument("--tol", type=float, default=None, help="tolerance override for all checks")
    p.add_argument("--format", choices=_FORMATS, default=None)
    p.add_argument("--out", default=None, help=out_help)
    p.add_argument("--stable-output", action="store_true", dest="stable_output",
                   help="omit wall-time so identical runs are byte-identical")


def _add_common(p: argparse.ArgumentParser, **output) -> None:
    p.add_argument("--C", type=float, default=None, help="coupling constant (default 1.0)")
    p.add_argument("--grid", type=int, default=None, help="points per grid axis")
    p.add_argument("--thorough", action="store_true", help="repeat case checks at C = 0.25 and 9")
    p.add_argument("--config", default=None, help="JSON config file (strict keys)")
    _add_output(p, **output)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cottonkit",
        description="Numerical verification toolkit for the reduced "
        "connection-functional gravity model and its kink solutions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run named checks and report pass/fail")
    _add_common(p)
    p.add_argument("--case", default="all", help=f"case tag(s), comma separated ({', '.join(cat.CASE_TAGS)})")
    p.add_argument("--what", default=None, help=f"checks to run, comma separated ({', '.join(CHECK_NAMES)})")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="full default suite: report.json + profile CSVs, the report to stdout")
    _add_common(p, out_help="directory for report.json and kink_profile.csv (default .)")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("solve", help="shooting solution of the static-gauge kink system")
    p.add_argument("system", choices=["kink"])
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--xmax", type=float, default=8.0)
    p.add_argument("--n", type=int, default=801)
    p.add_argument("--tol", type=float, default=1e-7, help="reject first-integral drift > 100*tol*max(1, C)")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("lift", help="flat kink by quadrature, lifted to curved data")
    p.add_argument("--potential", required=True, help='e.g. "(phi^2-1)^2/4"')
    p.add_argument("--var", default="phi")
    p.add_argument("--vacua", required=True, help="two comma-separated roots of V")
    p.add_argument("--xmax", type=float, default=8.0)
    p.add_argument("--n", type=int, default=401)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("cotton", help="Cotton vanishing + identities for a metric file")
    p.add_argument("--metric", required=True)
    p.add_argument("--grid", default="default")
    _add_output(p)
    p.set_defaults(fn=cmd_cotton)

    p = sub.add_parser("killing", help="Killing residuals of fields against a metric")
    p.add_argument("--metric", required=True)
    p.add_argument("--fields", required=True)
    p.add_argument("--grid", default="default")
    _add_output(p)
    p.set_defaults(fn=cmd_killing)

    p = sub.add_parser("killing-dim", help="pointwise Killing-algebra dimension estimate")
    p.add_argument("--metric", required=True)
    p.add_argument("--point", required=True, help="comma-separated coordinates")
    p.add_argument("--depth", type=int, default=2)
    p.set_defaults(fn=cmd_killing_dim)

    p = sub.add_parser("catalog", help="export catalog data as JSON")
    p.add_argument("action", choices=["export"])
    p.add_argument("--case", required=True)
    p.add_argument("--what", required=True, choices=["metric2d", "metric3d", "transform", "killing"])
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_catalog)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (
        _CliError,
        ExprSyntaxError,
        GeometryError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KinkSolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
