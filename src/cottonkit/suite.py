"""The named verification checks and their default tolerances.

Each function returns CheckReport(s), held to its entry in TOL; the CLI and
the acceptance tests are thin layers over this module, so both always agree
about what a check means and how tight it is held.  CHECKS is the one table
that says which check runs for which case and coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, product
from typing import Callable, Optional, Sequence

import numpy as np

from .catalog import (
    CASE_TAGS,
    SolutionCase,
    canonical_tag,
    killing_fields,
    solution_2d,
    solution_3d,
    standard_grid,
    transform,
    transform_grid,
)
from .exprlang import Tape, eval_array, eval_tensor, parse_expr, to_text
from .geometry import (
    MetricSpec,
    _metric_pipeline,
    cotton_grid,
    cotton_identities_check,
    cotton_vanishing_check,
    curvature_grid,
    flat_metric,
    metric_values_grid,
    pullback_metric_grid,
)
from .jets import JetSpace
from .kink import (
    _MULTISECTION,
    _RESOLUTION,
    fixed_step_errors,
    lift_curvature_check,
    lift_flat_kink,
    lift_residuals,
    phi4_potential,
    sine_gordon_potential,
    solve_kink_ode,
)
from .oracles import (
    fd_partial,
    random_safe_expr,
    random_smooth_metric,
    telescope_partials,
    telescope_seeds,
)
from .reduction import (
    Lattice2D,
    Lattice3D,
    ReducedData,
    Window1D,
    eom_grid,
    kk_curvature_relation_check,
    lattice_cotton_variation_check_3d,
    lattice_variation_check_2d,
)
from .report import CheckReport, Span, _argworst
from .symmetry import (
    VectorFieldSpec,
    closure_residual,
    independence_rank,
    killing_dimension,
    killing_residual_values,
)

__all__ = ["CHECK_NAMES", "CHECKS", "Check", "run_checks"]

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


def _shortfall(required: float, observed: float) -> float:
    """Residual of a negative control that needs observed >= required; NaN
    unless observed is finite, so a control cannot pass on NaN or inf."""
    if not np.isfinite(observed):
        return math.nan
    return float(max(0.0, required - observed))


# -- calibration and curvature ----------------------------------------------------


def check_calibration(C_values: Sequence[float] = (0.25, 1.0, 9.0)) -> list[CheckReport]:
    """The sign-convention anchor: the homogeneous case must give r = +C,
    relative tolerance, across coupling scales."""
    out = []
    for Cv in C_values:
        case = SolutionCase.at("a", Cv)
        sol = solution_2d(case)
        grid = standard_grid(case, 2)
        span = Span()
        resid = np.abs(eom_grid(sol.rd, grid)["r"] - Cv) / abs(Cv)
        out.append(
            span.report(f"calibration:C={Cv:g}", resid, TOL["calibration"], grid, case="a", params={"C": Cv})
        )
    return out


def check_curvature(case: SolutionCase, n: int = 7) -> list[CheckReport]:
    """Computed r (2D) and R (3D) against the closed forms on the grids."""
    sol2 = solution_2d(case)
    grid2 = standard_grid(case, 2, n)
    span = Span()
    resid = _closed_form_gap(eom_grid(sol2.rd, grid2)["r"], sol2.r_expected, grid2, case)
    out = [span.report("curvature-2d", resid, TOL["curvature-2d"], grid2, solution=case)]
    sol3 = solution_3d(case)
    grid3 = standard_grid(case, 3, n)
    span = Span()
    resid = _closed_form_gap(curvature_grid(sol3.metric, grid3)["scalar"], sol3.R_expected, grid3, case)
    out.append(span.report("curvature-3d", resid, TOL["curvature-3d"], grid3, solution=case))
    return out


def _closed_form_gap(got: np.ndarray, expr, grid: np.ndarray, case: SolutionCase) -> np.ndarray:
    """|got - want| / (1 + max(|got|, |want|)) against a closed form in the
    grid's coordinates (t, x and, in 3D, y)."""
    bind = {name: grid[:, k] for k, name in enumerate(("t", "x", "y")[: grid.shape[1]])}
    bind.update(case.env)
    want = eval_array(expr, bind)
    return np.abs(got - want) / (1.0 + np.maximum(np.abs(got), np.abs(want)))


# -- Cotton -----------------------------------------------------------------------


def check_cotton_vanishing(case: SolutionCase, n: int = 7) -> CheckReport:
    grid = standard_grid(case, 3, n)
    return cotton_vanishing_check(solution_3d(case).metric, grid, TOL["cotton"], case=case.tag)


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
    span = Span()
    observed = float(np.max(np.abs(cotton_grid(m, grid)["cotton"])))
    return span.report(
        "cotton-control",
        _shortfall(threshold, observed),
        TOL["cotton-control"],
        grid,
        worst_value=observed,
        details={"observed_max": observed, "required_min": threshold},
    )


def check_cotton_identities(n_metrics: int = 20, seed: int = 7) -> CheckReport:
    rng = np.random.default_rng(seed)
    span = Span()
    reps = []
    for _ in range(n_metrics):
        m = random_smooth_metric(rng)
        pts = rng.uniform(-1.0, 1.0, (5, 3))
        reps.append(cotton_identities_check(m, pts, tolerance=TOL["cotton-identities"]))
    resid = [rep.max_residual for rep in reps]
    k = _argworst(resid)[1]
    return span.report(
        "cotton-identities",
        resid,
        TOL["cotton-identities"],
        grid=f"{n_metrics} random smooth metrics x 5 points",
        details=dict(reps[k].details, metric_index=k),
    )


# -- field equations ---------------------------------------------------------------


def check_eom(case: SolutionCase, n: int = 7) -> CheckReport:
    sol = solution_2d(case)
    grid = standard_grid(case, 2, n)
    span = Span()
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
    return span.report("eom", resid, TOL["eom"], grid, solution=case)


def check_first_integral(case: SolutionCase, n: int = 7) -> CheckReport:
    sol = solution_2d(case)
    grid = standard_grid(case, 2, n)
    span = Span()
    out = eom_grid(sol.rd, grid)
    fi = out["first_integral"]
    scale = 1.0 + np.abs(out["r"]) + 3.0 * out["f"] ** 2
    return span.report(
        "first-integral",
        np.abs(fi - case.C) / scale,
        TOL["first-integral"],
        grid,
        solution=case,
        details={"constant": float(case.C), "spread": float(np.max(fi) - np.min(fi))},
    )


def check_kk(case: SolutionCase, n: int = 7) -> CheckReport:
    sol = solution_2d(case)
    grid = standard_grid(case, 2, n)
    return kk_curvature_relation_check(sol.rd, grid, tolerance=TOL["kk"], case=case.tag)


# -- transforms ---------------------------------------------------------------------


def check_transform(case: SolutionCase, n: int = 7) -> CheckReport:
    """Pullback of the conformally flat form through the printed map must
    reproduce the case metric componentwise."""
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
    span = Span()
    want = metric_values_grid(sol3.metric, grid)
    pb = pullback_metric_grid(tr.components, tr.source_coords, target, grid, env=tr.env)
    scale = 1.0 + np.maximum(np.max(np.abs(pb), axis=(0, 1)), np.max(np.abs(want), axis=(0, 1)))
    resid = np.max(np.abs(pb - want), axis=(0, 1)) / scale
    return span.report("transform", resid, TOL["transform"], grid, solution=case)


def check_transform_limit(C: float = 1.0) -> CheckReport:
    """At large X the kink conformal factor approaches the constant-branch
    factor; checked at X = 50 within 1 percent."""
    tr_k = transform(SolutionCase.at("kink+", C))
    tr_c = transform(SolutionCase.at("c+", C))
    span = Span()
    root = math.sqrt(C)
    resid = []
    for y in (-0.8, 0.0, 1.0):
        # source point mapping to X = 50 at this y
        x = (2.0 / root) * math.asinh(50.0 * root * math.cosh(0.5 * root * y))
        p = (0.3, x, y)
        img = eval_tensor(tr_k.components, {"t": p[0], "x": p[1], "y": p[2], **tr_k.env}).tolist()
        bind = {**dict(zip(tr_k.target_coords, img)), **tr_k.env}
        fk, fc = eval_tensor((tr_k.conformal_factor, tr_c.conformal_factor), bind).tolist()
        resid.append(abs(fk / fc - 1.0))
    return span.report(
        "transform-limit",
        resid,
        TOL["transform-limit"],
        case="kink+",
        grid="X = 50, three sections",
        params={"C": C},
    )


# -- Killing suite -------------------------------------------------------------------


def check_killing_fields(case: SolutionCase, n: int = 5) -> list[CheckReport]:
    fields = killing_fields(case)
    sol3 = solution_3d(case)
    grid = standard_grid(case, 3, n)
    span = Span()
    resid = [killing_residual_values(sol3.metric, xi, grid) for xi in fields]
    grid_text = f"{len(fields)} fields x {len(grid)} points"
    reports = [span.report("killing", resid, TOL["killing"], solution=case, grid=grid_text)]
    expected = 6 if case.tag.startswith("c") else 4
    span = Span()
    rank = independence_rank(sol3.metric, fields, grid[len(grid) // 3])
    reports.append(
        span.report(
            "killing-count",
            float(abs(rank - expected)),
            TOL["killing-count"],
            solution=case,
            grid="value+derivative rank at a generic point",
            details={"rank": rank, "expected": expected},
        )
    )
    span = Span()
    pts = [grid[k] for k in np.linspace(0, len(grid) - 1, 5, dtype=int)]
    clos = closure_residual(fields, pts, env=dict(case.env))
    reports.append(span.report("killing-closure", clos, TOL["killing-closure"], pts, solution=case))
    if case.tag in ("a", "b"):
        # negative control: a symmetry-breaking-branch generator must fail here
        intruder = VectorFieldSpec.parse(("1", "0", "0")) if case.tag == "a" else (
            VectorFieldSpec.parse(("t^2+x^2", "2*t*x", "-2*x/sqrt(absC)"))
        )
        span = Span()
        observed = float(np.max(killing_residual_values(sol3.metric, intruder, grid)))
        reports.append(
            span.report(
                "killing-intruder",
                _shortfall(1e-3, observed),
                0.0,
                grid,
                solution=case,
                worst_value=observed,
                details={"observed": observed, "required_min": 1e-3},
            )
        )
    return reports


_DIM_POINTS = {
    "flat": ((0.1, 0.2, 0.3), (1.0, -0.4, 0.7), (-0.6, 1.3, -0.2)),
    "a": ((0.7, 1.2, 0.4), (1.5, 0.7, -0.8), (2.3, -1.0, 0.9)),
    "b": ((0.7, 1.2, 0.4), (1.5, 0.7, -0.8), (-0.3, 2.0, 0.9)),
    "c+": ((0.7, 1.2, 0.4), (1.5, 0.7, -0.8), (-0.3, 2.0, 0.9)),
    "c-": ((0.7, 1.2, 0.4), (1.5, 0.7, -0.8), (-0.3, 2.0, 0.9)),
}


def check_killing_dimension(case_tag: str, C: float = 1.0, depth: int = 2) -> CheckReport:
    span = Span()
    if case_tag == "flat":
        m = flat_metric()
        params = {}
    else:
        case = SolutionCase.at(case_tag, C)
        case_tag = case.tag
        m = solution_3d(case).metric
        params = case.env
    pts = _DIM_POINTS[case_tag]
    expected = 4 if case_tag in ("a", "b") else 6
    est = killing_dimension(m, pts, depth)
    return span.report(
        "killing-dim",
        float(abs(est - expected)),
        TOL["killing-dim"],
        case=case_tag,
        grid=f"{len(pts)} generic points, depth {depth}",
        params=params,
        details={"estimate": est, "expected": expected},
    )


def check_max_symmetry(case: SolutionCase, n: int = 5) -> CheckReport:
    """Trace-free Ricci must vanish for the symmetry-breaking branch only."""
    sol3 = solution_3d(case)
    grid = standard_grid(case, 3, n)
    span = Span()
    data = curvature_grid(sol3.metric, grid)
    ric, scal = data["ricci"], data["scalar"]
    dev = ric - (scal / 3.0) * np.eye(3).reshape(3, 3, 1)
    scale = 1.0 + np.max(np.abs(ric), axis=(0, 1))
    observed, worst = _argworst(np.max(np.abs(dev), axis=(0, 1)) / scale)
    # homogeneous branches are *not* maximally symmetric in 3D
    control = not case.tag.startswith("c")
    return span.report(
        "max-symmetry",
        _shortfall(1e-2, observed) if control else observed,
        0.0 if control else TOL["max-symmetry"],
        grid,
        solution=case,
        worst_point=grid[worst],
        worst_value=observed,
        details={"observed": observed},
    )


# -- kink solver and lifting ----------------------------------------------------------


def check_kink_solver(C_values=(0.25, 1.0, 4.0)) -> list[CheckReport]:
    out = []
    for C in C_values:
        root = math.sqrt(C)
        xmax = 8.0 / root
        span = Span()
        prof = solve_kink_ode(C, xmax, n=801, tol=1e-7)
        exact = root * np.tanh(0.5 * root * prof.x)
        out.append(
            span.report(
                f"kink-solver:C={C:g}",
                np.abs(prof.f - exact),
                TOL["kink-solver"],
                prof.x[:, None],
                case="kink+",
                grid=f"{len(prof.x)} points on |x| <= {xmax:g}",
                params={"C": C},
                details={
                    "shoot_param": prof.shoot_param,
                    "iterations": prof.iterations,
                    # orbits classified: the interior points of every round,
                    # the two bracket ends and their re-classification
                    "classify_solves": prof.iterations * _MULTISECTION + 4,
                    "resolution": _RESOLUTION * C,
                    "bracket_width": prof.bracket_width,
                    "first_integral_drift": float(np.max(np.abs(prof.first_integral - C))),
                },
            )
        )
    return out


def check_kink_convergence(C: float = 1.0) -> CheckReport:
    """Grid-refinement order of the solver's fixed-step orbit against the
    closed form: fitted slope at least 4, halving cuts the error by at least
    2^4, a NaN step fails.  Steps scale with the profile's decay length
    1/sqrt(C) so the coarsest one stays stable at every coupling."""
    span = Span()
    root = math.sqrt(C)
    steps = [h / root for h in (0.5, 0.25, 0.125, 0.0625)]
    errs = fixed_step_errors(C, 8.0 / root, steps)
    slope = float(np.polyfit(np.log(steps), np.log(errs), 1)[0])
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ok_ratio = min(ratios) >= 16.0
    return span.report(
        "kink-convergence",
        _shortfall(4.0, slope) + (0.0 if ok_ratio else 1.0),
        TOL["kink-convergence"],
        case="kink+",
        grid=f"steps {steps}",
        params={"C": C},
        details={"fitted_order": slope, "errors": errs, "ratios": ratios},
    )


def check_lift(kind: str) -> list[CheckReport]:
    if kind == "phi4":
        p, k = phi4_potential(1.0)
    elif kind == "sine-gordon":
        p, k = sine_gordon_potential()
    else:
        raise ValueError(f"unknown lift kind {kind!r}")
    lift = lift_flat_kink(p, k)
    xs = np.linspace(-6.0, 6.0, 49)
    out = [
        lift_residuals(p, lift, xs, tolerance=TOL["lift"], check_id=f"lift-residuals:{kind}"),
        lift_curvature_check(p, lift, xs, tolerance=TOL["lift"], check_id=f"lift-curvature:{kind}"),
    ]
    if kind == "phi4":
        span = Span()
        C = p.env["C"]
        gtt = eval_array(lift.metric.components[0][0], {"x": xs, **p.env})
        catalog_gtt = 1.0 / np.cosh(0.5 * math.sqrt(C) * xs) ** 4
        out.append(
            span.report(
                "lift-catalog-match",
                np.abs(gtt * 4.0 / C ** 2 - catalog_gtt),
                TOL["lift-catalog"],
                case="kink+",
                grid=f"{len(xs)} points",
                params={"C": C},
                details={"rescale_factor": 4.0 / C ** 2},
            )
        )
    return out


# -- lattice ladders -------------------------------------------------------------------


def _order_fit(check_id: str, tolerance: float, ns, h_of, rung, **fields) -> CheckReport:
    """Convergence-order fit of a lattice check over a refinement ladder:
    rung(n, h) gives the report at one lattice; pass iff the fitted order
    sits in 2 +- tolerance and the discrepancy falls at every rung."""
    span = Span()
    hs = [h_of(n) for n in ns]
    reports = [rung(n, h) for n, h in zip(ns, hs)]
    ds = [r.max_residual for r in reports]
    slope = float(np.polyfit(np.log(hs), np.log(ds), 1)[0])
    decreasing = all(ds[i] > ds[i + 1] for i in range(len(ds) - 1))
    return span.report(
        check_id,
        abs(slope - 2.0) + (0.0 if decreasing else 1.0),
        tolerance,
        grid=f"lattices {list(ns)}",
        details={
            "fitted_order": slope,
            "discrepancies": ds,
            "per_h": [r.to_dict(stable=True) for r in reports],
        },
        **fields,
    )


def check_lattice_2d(kind: str = "random", C: float = 1.0) -> CheckReport:
    """Convergence-order fit of the 2D variational check over a refinement
    ladder; pass iff the order sits in 2 +- 0.3 and the discrepancy falls."""
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
        rd = ReducedData(
            g2=g2, a=(parse_expr("0.1*sin(x)*cos(t)"), parse_expr("0.08*sin(t+0.7)"))
        )
        ns = (12, 16, 24)
        window = None
        lat = lambda n: Lattice2D(0.0, 0.0, n, n)
        h_of = lambda n: 2.0 * math.pi / n
    else:  # windowed symmetry-breaking solution
        case = SolutionCase.at("c+", C)
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
    return _order_fit(
        f"lattice-eom-2d:{kind}",
        TOL["lattice-eom-2d"],
        ns,
        h_of,
        lambda n, h: lattice_variation_check_2d(rd, lat(n), h, window=window),
        case=None if kind == "random" else "c+",
        params={"C": C},
    )


def check_lattice_3d() -> CheckReport:
    m = MetricSpec.from_components(
        ("t", "x", "y"),
        {
            "t,t": "1+0.05*sin(x)*sin(y)",
            "x,x": "-1+0.04*cos(t)*sin(y+0.3)",
            "y,y": "-1+0.03*sin(t+x)",
            "t,x": "0.02*sin(y+1.0)",
        },
    )
    return _order_fit(
        "lattice-cotton-3d",
        TOL["lattice-cotton-3d"],
        (8, 16, 32),
        lambda n: 2.0 * math.pi / n,
        lambda n, h: lattice_cotton_variation_check_3d(m, Lattice3D(n), h),
    )


# -- engine oracles ---------------------------------------------------------------------


# A jets-fd tape holds about _TAPE_ROWS jets per expression (16.5 nodes that
# read a coordinate on average at nv = 3, and the coordinates), and its jet
# buffer about _TAPE_BYTES: 524, 97 and 28 expressions at nv = 1, 2 and 3.
# Fuller tapes make fuller groups: check_jets_fd took 0.233, 0.205 and 0.172 s
# at 0.5, 1 and 2 MB (best of 4, 2-vCPU Xeon VM); the suite's peak RSS stays
# where the other groups set it.
_TAPE_ROWS, _TAPE_BYTES = 20, 2**21


def check_jets_fd(n: int = 1000, seed: int = 11) -> CheckReport:
    """Every partial to order 4 of random compositions against
    Richardson-extrapolated central differences.  The expressions of one
    variable count run in ``Tape``s of a bounded size, each as it fills and
    walked twice: on jets at the telescope columns (column 0 is the jet
    side) and on the values at the stencil points, for ``fd_partial``."""
    rng = np.random.default_rng(seed)
    span = Span()
    layout = {}  # nv -> alphas in product order, |alpha| <= 2, jet rows and factorials, low and high alphas, tape size
    for nv in (1, 2, 3):
        space = JetSpace.get(nv, 4)
        alphas = [alpha for alpha in product(range(5), repeat=nv) if sum(alpha) <= 4]
        low = np.array([sum(alpha) <= 2 for alpha in alphas])
        rows = np.array([space.index[alpha] for alpha in alphas])
        size = _TAPE_BYTES // (_TAPE_ROWS * space.ncoeff * (1 + 4 * nv) * 8)
        lows, highs = [*compress(alphas, low)], [*compress(alphas, ~low)]
        layout[nv] = alphas, low, rows, space.factorials[rows][:, None], lows, highs, size
    # in draw order a running worst keeps the first NaN, else the first of the
    # largest values: the largest (is NaN, value, -draw) over all draws
    worst = {"key": (False, 0.0, 1), "value": 0.0, "case": {}}

    def run(batch, nv):
        coords = ["t", "x", "y"][:nv]
        alphas, low, rows, factorials, lows, highs, _ = layout[nv]
        tape = Tape([expr for _, expr, _ in batch], coords)
        points = np.array([point for _, _, point in batch])
        j = tape.run(telescope_seeds(coords, points, 4, step=1e-3))
        got = j.coeffs[rows, :, 0] * factorials
        want = np.empty(got.shape)

        def values(q):  # the stencil offsets q around each expression's own point
            return tape.run({c: points[:, k, None] + q[:, k] for k, c in enumerate(coords)}).T

        want[low] = fd_partial(values, np.zeros(nv), lows, step=1e-3)
        want[~low] = telescope_partials(j, highs, step=1e-3)
        resid = np.abs(got - want) / (1.0 + np.maximum(np.abs(got), np.abs(want)))
        for col, (draw, expr, point) in enumerate(batch):
            value, i = _argworst(resid[:, col])
            key = (bool(np.isnan(value)), 0.0 if np.isnan(value) else value, -draw)
            if key > worst["key"]:
                case = {"expr": to_text(expr), "alpha": list(alphas[i]), "point": list(point)}
                worst.update(key=key, value=value, case=case)

    pending = {1: [], 2: [], 3: []}
    for draw in range(n):
        nv = int(rng.integers(1, 4))
        expr = random_safe_expr(rng, ["t", "x", "y"][:nv], depth=int(rng.integers(1, 4)))
        pending[nv].append((draw, expr, tuple(rng.uniform(-0.8, 0.8, nv))))
        if len(pending[nv]) == layout[nv][-1]:
            run(pending[nv], nv)
            pending[nv] = []
    for nv, batch in pending.items():
        if batch:
            run(batch, nv)
    return span.report(
        "jets-fd",
        worst["value"],
        TOL["jets-fd"],
        grid=f"{n} random compositions, all partials to order 4",
        details=worst["case"],
    )


def check_parser_roundtrip(n: int = 200, seed: int = 23) -> CheckReport:
    rng = np.random.default_rng(seed)
    span = Span()
    bad = 0
    for _ in range(n):
        expr = random_safe_expr(rng, ["t", "x", "y"][: int(rng.integers(1, 4))], depth=3)
        s1 = to_text(expr)
        s2 = to_text(parse_expr(s1))
        if s1 != s2 or to_text(parse_expr(s2)) != s2:
            bad += 1
    return span.report(
        "parser-roundtrip",
        float(bad),
        TOL["parser-roundtrip"],
        grid=f"{n} generated expressions",
    )


def check_geometry_identities(
    n_metrics: int = 20, points_per_metric: int = 100, seed: int = 5
) -> list[CheckReport]:
    """Metric compatibility D g = 0 and the first Bianchi identity on
    random analytic metrics."""
    rng = np.random.default_rng(seed)
    res_c, res_b = [], []
    compatibility, bianchi = Span(), Span()
    for _ in range(n_metrics):
        with compatibility:
            m = random_smooth_metric(rng)
            pts = rng.uniform(-1.0, 1.0, (points_per_metric, 3))
            pipe = _metric_pipeline(m, tuple(pts[:, i] for i in range(3)), 2)[0]
            gv = pipe.g[0]
            dgv = pipe.grad(pipe.g)[0]  # [l, i, j] = d_l g_ij
            gamv = pipe.gamma[0]
            # D_l g_ij = d_l g_ij - Gamma^r_{li} g_rj - Gamma^r_{lj} g_ir
            comp = dgv - np.einsum("rli...,rj...->lij...", gamv, gv)
            comp -= np.einsum("rlj...,ir...->lij...", gamv, gv)
            scale = 1.0 + np.max(np.abs(dgv), axis=(0, 1, 2))
            res_c.append(np.max(np.max(np.abs(comp), axis=(0, 1, 2)) / scale))
        with bianchi:
            rv = pipe.riemann[0]
            cyc = rv + rv.transpose(0, 2, 3, 1, 4) + rv.transpose(0, 3, 1, 2, 4)
            scale_b = 1.0 + np.max(np.abs(rv), axis=(0, 1, 2, 3))
            res_b.append(np.max(np.max(np.abs(cyc), axis=(0, 1, 2, 3)) / scale_b))
    grid = f"{n_metrics} metrics x {points_per_metric} points"
    return [
        compatibility.report("metric-compatibility", res_c, TOL["metric-compatibility"], grid=grid),
        bianchi.report("bianchi", res_b, TOL["bianchi"], grid=grid),
    ]


# -- the check table ---------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """How one named check runs: ``run(C, tag, n)`` gives its reports at
    coupling C, tag and n grid points per axis.  A "case" check runs per
    coupling and per selected case among its ``tags``, a "coupling" check
    per coupling and per tag, a "once" check (it ignores C) at the base C
    only.  Tags in ``base_only`` (they ignore C) run at the base C only."""

    run: Callable[[float, Optional[str], int], list[CheckReport]]
    scope: str = "once"
    tags: tuple = (None,)
    base_only: tuple = ()


# the branches with a stored Killing basis
_KILLING_TAGS = ("a", "b", "c+", "c-")

# Each run is a lambda so the check function is looked up when the check
# runs, not when the table is built.  The Killing grids (killing and
# max-symmetry) take the requested points per axis within [3, 5].
CHECKS = {
    "calibration": Check(lambda *_: check_calibration()),
    "curvature": Check(lambda C, tag, n: check_curvature(SolutionCase.at(tag, C), n=n), "case", CASE_TAGS),
    "cotton": Check(lambda C, tag, n: [check_cotton_vanishing(SolutionCase.at(tag, C), n=n)], "case", CASE_TAGS),
    "cotton-control": Check(lambda *_: [check_cotton_control()]),
    "cotton-identities": Check(lambda *_: [check_cotton_identities()]),
    "eom": Check(lambda C, tag, n: [check_eom(SolutionCase.at(tag, C), n=n)], "case", CASE_TAGS),
    "first-integral": Check(lambda C, tag, n: [check_first_integral(SolutionCase.at(tag, C), n=n)], "case", CASE_TAGS),
    "kk": Check(lambda C, tag, n: [check_kk(SolutionCase.at(tag, C), n=n)], "case", CASE_TAGS),
    "transform": Check(lambda C, tag, n: [check_transform(SolutionCase.at(tag, C), n=n)], "case", CASE_TAGS),
    "transform-limit": Check(lambda C, *_: [check_transform_limit(C)], "coupling"),
    "killing": Check(
        lambda C, tag, n: check_killing_fields(SolutionCase.at(tag, C), n=max(3, min(n, 5))), "case", _KILLING_TAGS
    ),
    "killing-dim": Check(
        lambda C, tag, n: [check_killing_dimension(tag, C)], "case", ("flat",) + _KILLING_TAGS
    ),
    "max-symmetry": Check(
        lambda C, tag, n: [check_max_symmetry(SolutionCase.at(tag, C), n=max(3, min(n, 5)))], "case", CASE_TAGS
    ),
    "kink-solver": Check(lambda *_: check_kink_solver()),
    "kink-convergence": Check(lambda C, *_: [check_kink_convergence(C)], "coupling"),
    "lift": Check(lambda *_: check_lift("phi4") + check_lift("sine-gordon")),
    # the random ladder's fields and action do not read C
    "lattice-2d": Check(
        lambda C, kind, n: [check_lattice_2d(kind, C)], "coupling", ("random", "solution"), ("random",)
    ),
    "lattice-3d": Check(lambda *_: [check_lattice_3d()]),
    "jets": Check(lambda *_: [check_jets_fd()]),
    "parser": Check(lambda *_: [check_parser_roundtrip()]),
    "geometry-identities": Check(lambda *_: check_geometry_identities()),
}

CHECK_NAMES = tuple(sorted(CHECKS))


def run_checks(
    C: float = 1.0,
    checks: Optional[Sequence[str]] = None,
    cases: Optional[Sequence[str]] = None,
    thorough: bool = False,
    grid_n: int = 7,
) -> list[CheckReport]:
    """Run the selected checks (all by default) for the selected cases.

    Each check runs as its CHECKS entry says.  Thorough mode repeats the
    checks that depend on C at C = 0.25 and C = 9 to catch scale-dependence
    bugs.  A check named in ``checks`` that applies to none of the selected
    cases is an error; in the default selection it is skipped.
    """
    selected = list(checks) if checks else list(CHECK_NAMES)
    unknown = set(selected) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}; known: {CHECK_NAMES}")
    case_tags = [canonical_tag(t) for t in cases] if cases else None
    C_values = [C] + ([0.25, 9.0] if thorough else [])
    plan = []
    for name in selected:
        check = CHECKS[name]
        tags = check.tags
        if case_tags is not None and check.scope == "case":
            tags = [t for t in case_tags if t in tags]
        if checks and not tags:
            supported = ", ".join(t for t in check.tags if t in CASE_TAGS)
            raise ValueError(f"check {name!r} runs on none of the cases {case_tags}, only on {supported}")
        plan.append((check, [C] if check.scope == "once" else C_values, tags))
    reports: list[CheckReport] = []
    for check, couplings, tags in plan:
        for k, Cv in enumerate(couplings):
            for tag in tags:
                if k == 0 or tag not in check.base_only:
                    reports.extend(check.run(Cv, tag, grid_n))
    return reports
