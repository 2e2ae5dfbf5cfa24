"""The named verification checks and their default tolerances.

Each function returns CheckReport(s); the CLI and the acceptance tests are
thin layers over this module, so both always agree about what a check
means and how tight it is held.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

import numpy as np

from .catalog import (
    CASE_TAGS,
    SolutionCase,
    killing_fields,
    solution_2d,
    solution_3d,
    standard_grid,
    transform,
    transform_grid,
)
from .exprlang import eval_array, parse_expr, to_text
from .geometry import (
    MetricSpec,
    cotton_grid,
    cotton_identities_check,
    curvature_grid,
    flat_metric,
    metric_values_grid,
    pullback_metric_at,
)
from .jets import jet_extract
from .kink import (
    fixed_step_errors,
    lift_curvature_check,
    lift_flat_kink,
    lift_residuals,
    phi4_potential,
    sine_gordon_potential,
    solve_kink_ode,
)
from .oracles import fd_partial, fd_partial_telescoped, random_safe_expr, random_smooth_metric
from .reduction import (
    Lattice2D,
    Lattice3D,
    Window1D,
    eom_grid,
    kk_curvature_relation_check,
    lattice_cotton_variation_check_3d,
    lattice_variation_check_2d,
)
from .report import CheckReport, _argworst, make_report
from .symmetry import (
    VectorFieldSpec,
    closure_residual,
    independence_rank,
    killing_dimension,
    killing_residual_values,
)

__all__ = ["CHECK_NAMES", "CASE_CHECKS", "GLOBAL_CHECKS", "run_checks"]

TOL = {
    "calibration": 1e-9,
    "curvature-2d": 1e-9,
    "curvature-3d": 1e-9,
    "cotton": 1e-8,
    "cotton-control": 0.0,
    "cotton-identities": 1e-8,
    "eom": 1e-9,
    "first-integral": 1e-9,
    "kk": 1e-9,
    "transform": 1e-9,
    "transform-limit": 0.01,
    "killing": 1e-9,
    "killing-count": 0.0,
    "killing-closure": 1e-8,
    "killing-dim": 0.0,
    "max-symmetry": 1e-9,
    "kink-solver": 1e-6,
    "kink-convergence": 0.0,
    "lift": 1e-8,
    "lift-catalog": 1e-9,
    "lattice-eom-2d": 0.3,
    "lattice-cotton-3d": 0.3,
    "jets-fd": 1e-6,
    "parser-roundtrip": 0.0,
    "metric-compatibility": 1e-10,
    "bianchi": 1e-10,
}


def _case(tag: str, C: float) -> SolutionCase:
    return SolutionCase(tag, -abs(C) if tag == "b" else abs(C))


def _shortfall(required: float, observed: float) -> float:
    """Residual of a negative control that needs observed >= required; NaN
    unless observed is finite, so a control cannot pass on NaN or inf."""
    if not np.isfinite(observed):
        return math.nan
    return float(max(0.0, required - observed))


def _pointwise_report(check_id: str, resid, points, t0: float, **fields) -> CheckReport:
    """Report of a residual sampled at points (one row each): the worst point
    is the first maximum, or the first NaN."""
    worst, k = _argworst(resid)
    fields.setdefault("grid", f"{len(points)} points")
    return make_report(
        check_id=check_id,
        max_residual=worst,
        worst_point=points[k],
        wall_time=time.perf_counter() - t0,
        **fields,
    )


# -- calibration and curvature ----------------------------------------------------


def check_calibration(
    C_values: Sequence[float] = (0.25, 1.0, 9.0), tol: Optional[float] = None
) -> list[CheckReport]:
    """The sign-convention anchor: the homogeneous case must give r = +C,
    relative tolerance, across coupling scales."""
    tol = TOL["calibration"] if tol is None else tol
    out = []
    for Cv in C_values:
        case = _case("a", Cv)
        sol = solution_2d(case)
        grid = standard_grid(case, 2)
        t0 = time.perf_counter()
        r = eom_grid(sol.rd, grid)["r"]
        resid = np.abs(r - Cv) / abs(Cv)
        out.append(
            _pointwise_report(
                f"calibration:C={Cv:g}", resid, grid, t0, case="a", tolerance=tol, params={"C": Cv}
            )
        )
    return out


def check_curvature(case: SolutionCase, tol: Optional[float] = None, n: int = 7) -> list[CheckReport]:
    """Computed r (2D) and R (3D) against the closed forms on the grids."""
    tol = TOL["curvature-2d"] if tol is None else tol
    out = []
    sol2 = solution_2d(case)
    grid2 = standard_grid(case, 2, n)
    t0 = time.perf_counter()
    r = eom_grid(sol2.rd, grid2)["r"]
    want = _expected_on_grid(sol2.r_expected, grid2, case, ("t", "x"))
    scale = 1.0 + np.maximum(np.abs(r), np.abs(want))
    resid = np.abs(r - want) / scale
    out.append(
        _pointwise_report("curvature-2d", resid, grid2, t0, case=case.tag, tolerance=tol, params=case.env)
    )
    sol3 = solution_3d(case)
    grid3 = standard_grid(case, 3, n)
    t0 = time.perf_counter()
    R = curvature_grid(sol3.metric, grid3)["scalar"]
    want3 = _expected_on_grid(sol3.R_expected, grid3, case, ("t", "x", "y"))
    scale = 1.0 + np.maximum(np.abs(R), np.abs(want3))
    resid = np.abs(R - want3) / scale
    out.append(
        _pointwise_report("curvature-3d", resid, grid3, t0, case=case.tag, tolerance=tol, params=case.env)
    )
    return out


def _expected_on_grid(expr, grid, case: SolutionCase, coords) -> np.ndarray:
    bind = {name: grid[:, k] for k, name in enumerate(coords)}
    bind.update(case.env)
    return eval_array(expr, bind)


# -- Cotton -----------------------------------------------------------------------


def check_cotton_vanishing(case: SolutionCase, tol: Optional[float] = None, n: int = 7) -> CheckReport:
    tol = TOL["cotton"] if tol is None else tol
    sol3 = solution_3d(case)
    grid = standard_grid(case, 3, n)
    t0 = time.perf_counter()
    data = cotton_grid(sol3.metric, grid)
    resid = np.max(np.abs(data["cotton"]), axis=(0, 1)) / data["scale"]
    return _pointwise_report("cotton", resid, grid, t0, case=case.tag, tolerance=tol, params=case.env)


_CONTROL_METRIC = {
    "t,t": "1+0.1*x*y*t",
    "x,x": "-1",
    "y,y": "-1",
}


def check_cotton_control(threshold: float = 1e-3) -> CheckReport:
    """Non-vacuity control: a non-conformally-flat perturbation must give a
    decidedly nonzero Cotton tensor."""
    m = MetricSpec.from_components(("t", "x", "y"), _CONTROL_METRIC)
    grid = np.array([(a, b, c) for a in (0.5, 1.5) for b in (0.5, 1.5) for c in (-1.0, 1.0)])
    t0 = time.perf_counter()
    observed = float(np.max(np.abs(cotton_grid(m, grid)["cotton"])))
    return make_report(
        check_id="cotton-control",
        max_residual=_shortfall(threshold, observed),
        tolerance=TOL["cotton-control"],
        grid=f"{len(grid)} points",
        worst_value=observed,
        wall_time=time.perf_counter() - t0,
        details={"observed_max": observed, "required_min": threshold},
    )


def check_cotton_identities(
    n_metrics: int = 20, seed: int = 7, tol: Optional[float] = None
) -> CheckReport:
    tol = TOL["cotton-identities"] if tol is None else tol
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    reps = []
    for _ in range(n_metrics):
        m = random_smooth_metric(rng)
        pts = rng.uniform(-1.0, 1.0, (5, 3))
        reps.append(cotton_identities_check(m, pts, tolerance=tol))
    worst, k = _argworst([rep.max_residual for rep in reps])
    return make_report(
        check_id="cotton-identities",
        max_residual=worst,
        tolerance=tol,
        grid=f"{n_metrics} random smooth metrics x 5 points",
        wall_time=time.perf_counter() - t0,
        details=dict(reps[k].details, metric_index=k),
    )


# -- field equations ---------------------------------------------------------------


def check_eom(case: SolutionCase, tol: Optional[float] = None, n: int = 7) -> CheckReport:
    tol = TOL["eom"] if tol is None else tol
    sol = solution_2d(case)
    grid = standard_grid(case, 2, n)
    t0 = time.perf_counter()
    out = eom_grid(sol.rd, grid)
    scale = 1.0 + np.abs(out["r"]) + np.abs(out["box_f"]) + np.abs(out["f"])
    resid = np.maximum.reduce(
        [
            out["eq11"],
            np.max(np.abs(out["eq12"]), axis=(0, 1)),
            np.abs(out["eq14"]),
            np.max(np.abs(out["eq15"]), axis=(0, 1)),
        ]
    ) / scale
    return _pointwise_report("eom", resid, grid, t0, case=case.tag, tolerance=tol, params=case.env)


def check_first_integral(case: SolutionCase, tol: Optional[float] = None, n: int = 7) -> CheckReport:
    tol = TOL["first-integral"] if tol is None else tol
    sol = solution_2d(case)
    grid = standard_grid(case, 2, n)
    t0 = time.perf_counter()
    out = eom_grid(sol.rd, grid)
    fi = out["first_integral"]
    scale = 1.0 + np.abs(out["r"]) + 3.0 * out["f"] ** 2
    resid = np.abs(fi - case.C) / scale
    return _pointwise_report(
        "first-integral",
        resid,
        grid,
        t0,
        case=case.tag,
        tolerance=tol,
        params=case.env,
        details={"constant": float(case.C), "spread": float(np.max(fi) - np.min(fi))},
    )


def check_kk(case: SolutionCase, tol: Optional[float] = None, n: int = 7) -> CheckReport:
    tol = TOL["kk"] if tol is None else tol
    sol = solution_2d(case)
    grid = standard_grid(case, 2, n)
    return kk_curvature_relation_check(sol.rd, grid, tolerance=tol, case=case.tag)


# -- transforms ---------------------------------------------------------------------


def check_transform(case: SolutionCase, tol: Optional[float] = None, n: int = 7) -> CheckReport:
    """Pullback of the conformally flat form through the printed map must
    reproduce the case metric componentwise."""
    tol = TOL["transform"] if tol is None else tol
    tr = transform(case)
    sol3 = solution_3d(case)
    factor = tr.conformal_factor
    target = MetricSpec.from_components(
        tr.target_coords,
        {
            (0, 0): factor,
            (1, 1): parse_expr(f"-({to_text(factor)})"),
            (2, 2): parse_expr(f"-({to_text(factor)})"),
        },
        env=tr.env,
    )
    grid = transform_grid(case, n)
    grid = np.array([p for p in grid if tr.in_domain(p)])
    t0 = time.perf_counter()
    g_case = metric_values_grid(sol3.metric, grid)
    resid = []
    for k, p in enumerate(grid):
        pb = pullback_metric_at(tr.components, tr.source_coords, target, p, env=tr.env)
        want = g_case[..., k]
        scale = 1.0 + np.maximum(np.max(np.abs(pb)), np.max(np.abs(want)))
        resid.append(np.max(np.abs(pb - want)) / scale)
    worst_val, worst_idx = _argworst(resid)
    return make_report(
        check_id="transform",
        case=case.tag,
        max_residual=worst_val,
        tolerance=tol,
        grid=f"{len(grid)} points",
        params=case.env,
        worst_point=list(map(float, grid[worst_idx])),
        wall_time=time.perf_counter() - t0,
    )


def check_transform_limit(C: float = 1.0, tol: Optional[float] = None) -> CheckReport:
    """At large X the kink conformal factor approaches the constant-branch
    factor; checked at X = 50 within 1 percent."""
    tol = TOL["transform-limit"] if tol is None else tol
    kink = _case("kink+", C)
    cplus = _case("c+", C)
    tr_k = transform(kink)
    tr_c = transform(cplus)
    t0 = time.perf_counter()
    root = math.sqrt(C)
    resid = []
    for y in (-0.8, 0.0, 1.0):
        # source point mapping to X = 50 at this y
        x = (2.0 / root) * math.asinh(50.0 * root * math.cosh(0.5 * root * y))
        p = (0.3, x, y)
        img = [
            float(eval_array(comp, {"t": p[0], "x": p[1], "y": p[2], **tr_k.env}))
            for comp in tr_k.components
        ]
        bind = dict(zip(tr_k.target_coords, img))
        bind.update(tr_k.env)
        fk = float(eval_array(tr_k.conformal_factor, bind))
        fc = float(eval_array(tr_c.conformal_factor, bind))
        resid.append(abs(fk / fc - 1.0))
    return make_report(
        check_id="transform-limit",
        case="kink+",
        max_residual=np.max(resid),
        tolerance=tol,
        grid="X = 50, three sections",
        params={"C": C},
        wall_time=time.perf_counter() - t0,
    )


# -- Killing suite -------------------------------------------------------------------


def _killing_grid(case: SolutionCase) -> np.ndarray:
    return standard_grid(case, 3, n=5)


def check_killing_fields(case: SolutionCase, tol: Optional[float] = None, n: int = 5) -> list[CheckReport]:
    tol = TOL["killing"] if tol is None else tol
    fields = killing_fields(case)
    sol3 = solution_3d(case)
    grid = _killing_grid(case)
    t0 = time.perf_counter()
    worst = np.max([killing_residual_values(sol3.metric, xi, grid) for xi in fields])
    reports = [
        make_report(
            check_id="killing",
            case=case.tag,
            max_residual=worst,
            tolerance=tol,
            grid=f"{len(fields)} fields x {len(grid)} points",
            params=case.env,
            wall_time=time.perf_counter() - t0,
        )
    ]
    expected = 6 if case.tag.startswith("c") else 4
    t0 = time.perf_counter()
    rank = independence_rank(sol3.metric, fields, grid[len(grid) // 3])
    reports.append(
        make_report(
            check_id="killing-count",
            case=case.tag,
            max_residual=float(abs(rank - expected)),
            tolerance=TOL["killing-count"],
            grid="value+derivative rank at a generic point",
            params=case.env,
            wall_time=time.perf_counter() - t0,
            details={"rank": rank, "expected": expected},
        )
    )
    t0 = time.perf_counter()
    pts = [grid[k] for k in np.linspace(0, len(grid) - 1, 5, dtype=int)]
    clos = closure_residual(fields, pts, env=dict(case.env))
    reports.append(
        make_report(
            check_id="killing-closure",
            case=case.tag,
            max_residual=clos,
            tolerance=TOL["killing-closure"],
            grid=f"{len(pts)} points",
            params=case.env,
            wall_time=time.perf_counter() - t0,
        )
    )
    if case.tag in ("a", "b"):
        # negative control: a symmetry-breaking-branch generator must fail here
        intruder = VectorFieldSpec.parse(("1", "0", "0")) if case.tag == "a" else (
            VectorFieldSpec.parse(("t^2+x^2", "2*t*x", "-2*x/sqrt(absC)"))
        )
        t0 = time.perf_counter()
        vals = killing_residual_values(sol3.metric, intruder, grid)
        observed = float(np.max(vals))
        reports.append(
            make_report(
                check_id="killing-intruder",
                case=case.tag,
                max_residual=_shortfall(1e-3, observed),
                tolerance=0.0,
                grid=f"{len(grid)} points",
                params=case.env,
                worst_value=observed,
                wall_time=time.perf_counter() - t0,
                details={"observed": observed, "required_min": 1e-3},
            )
        )
    return reports


_DIM_POINTS = {
    "a": ((0.7, 1.2, 0.4), (1.5, 0.7, -0.8), (2.3, -1.0, 0.9)),
    "b": ((0.7, 1.2, 0.4), (1.5, 0.7, -0.8), (-0.3, 2.0, 0.9)),
    "c+": ((0.7, 1.2, 0.4), (1.5, 0.7, -0.8), (-0.3, 2.0, 0.9)),
    "c-": ((0.7, 1.2, 0.4), (1.5, 0.7, -0.8), (-0.3, 2.0, 0.9)),
}


def check_killing_dimension(case_tag: str, C: float = 1.0, depth: int = 2) -> CheckReport:
    t0 = time.perf_counter()
    if case_tag == "flat":
        m = flat_metric()
        pts = ((0.1, 0.2, 0.3), (1.0, -0.4, 0.7), (-0.6, 1.3, -0.2))
        expected = 6
        params = {}
    else:
        case = _case(case_tag, C)
        m = solution_3d(case).metric
        pts = _DIM_POINTS[case.tag]
        expected = 6 if case.tag.startswith("c") else 4
        params = case.env
    est = killing_dimension(m, pts, depth)
    return make_report(
        check_id="killing-dim",
        case=case_tag,
        max_residual=float(abs(est - expected)),
        tolerance=TOL["killing-dim"],
        grid=f"{len(pts)} generic points, depth {depth}",
        params=params,
        wall_time=time.perf_counter() - t0,
        details={"estimate": est, "expected": expected},
    )


def check_max_symmetry(case: SolutionCase, tol: Optional[float] = None, n: int = 5) -> CheckReport:
    """Trace-free Ricci must vanish for the symmetry-breaking branch only."""
    tol = TOL["max-symmetry"] if tol is None else tol
    sol3 = solution_3d(case)
    grid = standard_grid(case, 3, n)
    t0 = time.perf_counter()
    data = curvature_grid(sol3.metric, grid)
    ric, scal = data["ricci"], data["scalar"]
    dev = ric - (scal / 3.0) * np.eye(3).reshape(3, 3, 1)
    scale = 1.0 + np.max(np.abs(ric), axis=(0, 1))
    resid = np.max(np.abs(dev), axis=(0, 1)) / scale
    observed, worst = _argworst(resid)
    if case.tag.startswith("c"):
        max_residual = observed
    else:
        # homogeneous branches are *not* maximally symmetric in 3D
        max_residual = _shortfall(1e-2, observed)
        tol = 0.0
    return make_report(
        check_id="max-symmetry",
        case=case.tag,
        max_residual=max_residual,
        tolerance=tol,
        grid=f"{len(grid)} points",
        params=case.env,
        worst_point=list(map(float, grid[worst])),
        worst_value=observed,
        wall_time=time.perf_counter() - t0,
        details={"observed": observed},
    )


# -- kink solver and lifting ----------------------------------------------------------


def check_kink_solver(C_values=(0.25, 1.0, 4.0), tol: Optional[float] = None) -> list[CheckReport]:
    tol = TOL["kink-solver"] if tol is None else tol
    out = []
    for C in C_values:
        root = math.sqrt(C)
        xmax = 8.0 / root
        t0 = time.perf_counter()
        prof = solve_kink_ode(C, xmax, n=801, tol=1e-7)
        exact = root * np.tanh(0.5 * root * prof.x)
        err = np.abs(prof.f - exact)
        out.append(
            _pointwise_report(
                f"kink-solver:C={C:g}",
                err,
                prof.x[:, None],
                t0,
                case="kink+",
                tolerance=tol,
                grid=f"{len(prof.x)} points on |x| <= {xmax:g}",
                params={"C": C},
                details={
                    "shoot_param": prof.shoot_param,
                    "iterations": prof.iterations,
                    "first_integral_drift": float(np.max(np.abs(prof.first_integral - C))),
                },
            )
        )
    return out


def check_kink_convergence(C: float = 1.0) -> CheckReport:
    """Grid-refinement order of the fixed-step 4/5 pair against the closed
    form: fitted slope must be at least 4 and halving must cut the error by
    at least 2^4.  Steps scale with the profile's decay length 1/sqrt(C) so
    the coarsest one stays inside the stability region at every coupling."""
    t0 = time.perf_counter()
    root = math.sqrt(C)
    steps = [h / root for h in (0.5, 0.25, 0.125, 0.0625)]
    errs = fixed_step_errors(C, 8.0 / root, steps)
    slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ok_ratio = min(ratios) >= 16.0
    return make_report(
        check_id="kink-convergence",
        case="kink+",
        max_residual=_shortfall(4.0, slope) + (0.0 if ok_ratio else 1.0),
        tolerance=TOL["kink-convergence"],
        grid=f"steps {steps}",
        params={"C": C},
        wall_time=time.perf_counter() - t0,
        details={"fitted_order": slope, "errors": errs, "ratios": ratios},
    )


def check_lift(kind: str, tol: Optional[float] = None) -> list[CheckReport]:
    tol = TOL["lift"] if tol is None else tol
    if kind == "phi4":
        p, k = phi4_potential(1.0)
    elif kind == "sine-gordon":
        p, k = sine_gordon_potential()
    else:
        raise ValueError(f"unknown lift kind {kind!r}")
    lift = lift_flat_kink(p, k)
    xs = np.linspace(-6.0, 6.0, 49)
    out = [
        lift_residuals(p, lift, xs, tolerance=tol, check_id=f"lift-residuals:{kind}"),
        lift_curvature_check(p, lift, xs, tolerance=tol, check_id=f"lift-curvature:{kind}"),
    ]
    if kind == "phi4":
        t0 = time.perf_counter()
        C = p.env["C"]
        gtt = eval_array(lift.metric.components[0][0], {"x": xs, **p.env})
        catalog_gtt = 1.0 / np.cosh(0.5 * math.sqrt(C) * xs) ** 4
        resid = float(np.max(np.abs(gtt * 4.0 / C ** 2 - catalog_gtt)))
        out.append(
            make_report(
                check_id="lift-catalog-match",
                case="kink+",
                max_residual=resid,
                tolerance=TOL["lift-catalog"],
                grid=f"{len(xs)} points",
                params={"C": C},
                wall_time=time.perf_counter() - t0,
                details={"rescale_factor": 4.0 / C ** 2},
            )
        )
    return out


# -- lattice ladders -------------------------------------------------------------------


def check_lattice_2d(kind: str = "random", C: float = 1.0) -> CheckReport:
    """Convergence-order fit of the 2D variational check over a refinement
    ladder; pass iff the order sits in 2 +- 0.3 and the discrepancy falls."""
    t0 = time.perf_counter()
    if kind == "random":
        g2 = MetricSpec.from_components(
            ("t", "x"),
            {
                "t,t": "1+0.1*sin(t+0.3)*cos(x)",
                "t,x": "0.05*sin(x+1.0)*sin(t)",
                "x,x": "-1+0.1*cos(t-0.5)*sin(x+0.2)",
            },
            env={"C": C},
        )
        from .reduction import ReducedData

        rd = ReducedData(
            g2=g2, a=(parse_expr("0.1*sin(x)*cos(t)"), parse_expr("0.08*sin(t+0.7)"))
        )
        ns = (12, 16, 24)
        window = None
        lat = lambda n: Lattice2D(0.0, 0.0, n, n)
        h_of = lambda n: 2.0 * math.pi / n
    else:  # windowed symmetry-breaking solution
        case = _case("c+", C)
        rd = solution_2d(case).rd
        ns = (24, 32, 48)
        h_of = lambda n: 2.0 / n
        window = Window1D(
            center=1.5,
            flat_radius=0.55,
            support_radius=0.95,
            compare_radius=0.55 - 4 * h_of(min(ns)),
        )
        lat = lambda n: Lattice2D(0.0, 0.5, n, n)
    hs, ds, reports = [], [], []
    for n in ns:
        rep = lattice_variation_check_2d(rd, lat(n), h_of(n), window=window)
        hs.append(h_of(n))
        ds.append(rep.max_residual)
        reports.append(rep)
    slope = float(np.polyfit(np.log(hs), np.log(ds), 1)[0])
    decreasing = all(ds[i] > ds[i + 1] for i in range(len(ds) - 1))
    return make_report(
        check_id=f"lattice-eom-2d:{kind}",
        case=None if kind == "random" else "c+",
        max_residual=abs(slope - 2.0) + (0.0 if decreasing else 1.0),
        tolerance=TOL["lattice-eom-2d"],
        grid=f"lattices {list(ns)}",
        params={"C": C},
        wall_time=time.perf_counter() - t0,
        details={
            "fitted_order": slope,
            "discrepancies": ds,
            "per_h": [r.to_dict(stable=True) for r in reports],
        },
    )


def check_lattice_3d() -> CheckReport:
    t0 = time.perf_counter()
    m = MetricSpec.from_components(
        ("t", "x", "y"),
        {
            "t,t": "1+0.05*sin(x)*sin(y)",
            "x,x": "-1+0.04*cos(t)*sin(y+0.3)",
            "y,y": "-1+0.03*sin(t+x)",
            "t,x": "0.02*sin(y+1.0)",
        },
    )
    ns = (8, 16, 32)
    hs, ds, reports = [], [], []
    for n in ns:
        h = 2.0 * math.pi / n
        rep = lattice_cotton_variation_check_3d(m, Lattice3D(n), h)
        hs.append(h)
        ds.append(rep.max_residual)
        reports.append(rep)
    slope = float(np.polyfit(np.log(hs), np.log(ds), 1)[0])
    decreasing = all(ds[i] > ds[i + 1] for i in range(len(ds) - 1))
    return make_report(
        check_id="lattice-cotton-3d",
        max_residual=abs(slope - 2.0) + (0.0 if decreasing else 1.0),
        tolerance=TOL["lattice-cotton-3d"],
        grid=f"lattices {list(ns)}",
        wall_time=time.perf_counter() - t0,
        details={
            "fitted_order": slope,
            "discrepancies": ds,
            "per_h": [r.to_dict(stable=True) for r in reports],
        },
    )


# -- engine oracles ---------------------------------------------------------------------


def check_jets_fd(n: int = 1000, seed: int = 11, tol: Optional[float] = None) -> CheckReport:
    """Every partial to order 4 of random compositions against
    Richardson-extrapolated central differences."""
    from .exprlang import eval_jet

    tol = TOL["jets-fd"] if tol is None else tol
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    worst, worst_case = 0.0, {}
    for k in range(n):
        nv = int(rng.integers(1, 4))
        coords = ["t", "x", "y"][:nv]
        expr = random_safe_expr(rng, coords, depth=int(rng.integers(1, 4)))
        point = tuple(rng.uniform(-0.8, 0.8, nv))
        j = eval_jet(expr, coords, point, {}, 4)

        def f(q, _e=expr, _c=coords):
            return eval_array(_e, dict(zip(_c, q)))

        from itertools import product

        alphas = [alpha for alpha in product(range(5), repeat=nv) if sum(alpha) <= 4]
        resid = []
        for alpha in alphas:
            got = float(jet_extract(j, alpha))
            if sum(alpha) <= 2:
                want = fd_partial(f, point, alpha, step=1e-3)
            else:
                want = fd_partial_telescoped(expr, coords, point, alpha, step=1e-3)
            resid.append(abs(got - want) / (1.0 + np.maximum(abs(got), abs(want))))
        value, i = _argworst(resid)
        # the running worst changes only on a strictly larger value or a first NaN
        if _argworst([worst, value])[1] == 1:
            worst = value
            worst_case = {"expr": to_text(expr), "alpha": list(alphas[i]), "point": list(point)}
    return make_report(
        check_id="jets-fd",
        max_residual=worst,
        tolerance=tol,
        grid=f"{n} random compositions, all partials to order 4",
        wall_time=time.perf_counter() - t0,
        details=worst_case,
    )


def check_parser_roundtrip(n: int = 200, seed: int = 23) -> CheckReport:
    from .exprlang import parse_expr as pe

    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    bad = 0
    for _ in range(n):
        expr = random_safe_expr(rng, ["t", "x", "y"][: int(rng.integers(1, 4))], depth=3)
        s1 = to_text(expr)
        s2 = to_text(pe(s1))
        if s1 != s2 or to_text(pe(s2)) != s2:
            bad += 1
    return make_report(
        check_id="parser-roundtrip",
        max_residual=float(bad),
        tolerance=TOL["parser-roundtrip"],
        grid=f"{n} generated expressions",
        wall_time=time.perf_counter() - t0,
    )


def check_geometry_identities(
    n_metrics: int = 20, points_per_metric: int = 100, seed: int = 5, tol: Optional[float] = None
) -> list[CheckReport]:
    """Metric compatibility D g = 0 and the first Bianchi identity on
    random analytic metrics."""
    tol_c = TOL["metric-compatibility"] if tol is None else tol
    tol_b = TOL["bianchi"] if tol is None else tol
    from .geometry import _Pipeline, _vals

    rng = np.random.default_rng(seed)
    res_c, res_b = [], []
    wt_c = wt_b = 0.0
    for _ in range(n_metrics):
        t0 = time.perf_counter()
        m = random_smooth_metric(rng)
        pts = rng.uniform(-1.0, 1.0, (points_per_metric, 3))
        pipe = _Pipeline(m, tuple(pts[:, i] for i in range(3)), order=2)
        gv = _vals(pipe.g)
        dgv = _vals([[[gij.derivative(l) for l in range(3)] for gij in row] for row in pipe.g])
        gamv = _vals(pipe.gamma)
        # D_l g_ij = d_l g_ij - Gamma^r_{li} g_rj - Gamma^r_{lj} g_ir
        comp = dgv.transpose(2, 0, 1, 3) - np.einsum("rli...,rj...->lij...", gamv, gv) - np.einsum(
            "rlj...,ir...->lij...", gamv, gv
        )
        scale = 1.0 + np.max(np.abs(dgv), axis=(0, 1, 2))
        res_c.append(np.max(np.max(np.abs(comp), axis=(0, 1, 2)) / scale))
        t1 = time.perf_counter()
        rv = _vals(pipe.riemann)
        cyc = rv + rv.transpose(0, 2, 3, 1, 4) + rv.transpose(0, 3, 1, 2, 4)
        scale_b = 1.0 + np.max(np.abs(rv), axis=(0, 1, 2, 3))
        res_b.append(np.max(np.max(np.abs(cyc), axis=(0, 1, 2, 3)) / scale_b))
        wt_c += t1 - t0
        wt_b += time.perf_counter() - t1
    return [
        make_report(
            check_id="metric-compatibility",
            max_residual=np.max(res_c),
            tolerance=tol_c,
            grid=f"{n_metrics} metrics x {points_per_metric} points",
            wall_time=wt_c,
        ),
        make_report(
            check_id="bianchi",
            max_residual=np.max(res_b),
            tolerance=tol_b,
            grid=f"{n_metrics} metrics x {points_per_metric} points",
            wall_time=wt_b,
        ),
    ]


# -- registry -----------------------------------------------------------------------------

CASE_CHECKS = {
    "curvature": lambda case, n=7: check_curvature(case, n=n),
    "cotton": lambda case, n=7: [check_cotton_vanishing(case, n=n)],
    "eom": lambda case, n=7: [check_eom(case, n=n)],
    "first-integral": lambda case, n=7: [check_first_integral(case, n=n)],
    "kk": lambda case, n=7: [check_kk(case, n=n)],
    "transform": lambda case, n=7: [check_transform(case, n=n)],
    "killing": lambda case, n=7: check_killing_fields(case, n=max(3, min(n, 5))),
    "max-symmetry": lambda case, n=7: [check_max_symmetry(case, n=max(3, min(n, 5)))],
}

_KILLING_CASES = ("a", "b", "c+", "c-")

GLOBAL_CHECKS = {
    "calibration": lambda C: check_calibration(),
    "cotton-control": lambda C: [check_cotton_control()],
    "cotton-identities": lambda C: [check_cotton_identities()],
    "transform-limit": lambda C: [check_transform_limit(C)],
    "killing-dim": lambda C, tags=None: [
        check_killing_dimension(tag, C)
        for tag in (tags if tags is not None else ("flat", "a", "b", "c+", "c-"))
    ],
    "kink-solver": lambda C: check_kink_solver(),
    "kink-convergence": lambda C: [check_kink_convergence(C)],
    "lift": lambda C: check_lift("phi4") + check_lift("sine-gordon"),
    "lattice-2d": lambda C: [check_lattice_2d("random", C), check_lattice_2d("solution", C)],
    "lattice-3d": lambda C: [check_lattice_3d()],
    "jets": lambda C: [check_jets_fd()],
    "parser": lambda C: [check_parser_roundtrip()],
    "geometry-identities": lambda C: check_geometry_identities(),
}

CHECK_NAMES = tuple(sorted(set(CASE_CHECKS) | set(GLOBAL_CHECKS)))


def run_checks(
    C: float = 1.0,
    checks: Optional[Sequence[str]] = None,
    cases: Optional[Sequence[str]] = None,
    thorough: bool = False,
    grid_n: int = 7,
) -> list[CheckReport]:
    """Run the selected checks (all by default) for the selected cases.

    Case-scoped checks run per case; global checks run once.  Thorough mode
    repeats the case-scoped checks at C = 0.25 and C = 9 to catch
    scale-dependence bugs.
    """
    selected = list(checks) if checks else list(CHECK_NAMES)
    unknown = set(selected) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}; known: {CHECK_NAMES}")
    case_tags = list(cases) if cases else list(CASE_TAGS)
    reports: list[CheckReport] = []
    C_values = [C] + ([0.25, 9.0] if thorough else [])
    for name in selected:
        if name in CASE_CHECKS:
            fn = CASE_CHECKS[name]
            for Cv in C_values:
                for tag in case_tags:
                    if name == "killing" and tag not in _KILLING_CASES:
                        continue  # no stored basis for the kink branches
                    case = _case(tag, Cv)
                    got = fn(case, n=grid_n)
                    reports.extend(got if isinstance(got, list) else [got])
        elif name == "killing-dim":
            tags = None
            if cases is not None:
                tags = [t for t in case_tags if t in ("a", "b", "c+", "c-")]
            for Cv in C_values:
                reports.extend(GLOBAL_CHECKS[name](Cv, tags))
        else:
            scale_free = name in ("jets", "parser", "geometry-identities", "cotton-identities",
                                  "cotton-control", "lattice-3d")
            for Cv in ([C] if scale_free else C_values):
                got = GLOBAL_CHECKS[name](Cv)
                reports.extend(got if isinstance(got, list) else [got])
    return reports
