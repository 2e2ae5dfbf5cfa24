"""Workload inputs, closed-loop passes and fail-closed scoring.

Each workload is a fixed list of queries built from the seed.  A query is
one call into cottonkit's public API plus the check of what it returned;
a pass runs the queries one after another from a single thread, so the
next call starts only after the previous verdict is in (a closed loop with
one client).  Only the generated inputs reach the program; the seed stays
here.

Calls go through module attributes (``geometry.cotton_grid``, not a bound
name) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from cottonkit import catalog, exprlang, geometry, oracles, symmetry
from cottonkit import suite as checks

WORKLOADS = ("suite", "grid", "pointwise")

# The couplings ``--thorough`` already uses; every check passes at each.
COUPLINGS = (0.25, 1.0, 9.0)

# Reports each suite group produces; a different count fails the group.
SUITE_REPORTS = {
    "calibration": 3, "cotton": 6, "cotton-control": 1, "cotton-identities": 1,
    "curvature": 12, "eom": 6, "first-integral": 6, "geometry-identities": 2,
    "jets": 1, "killing": 14, "killing-dim": 5, "kink-convergence": 1,
    "kink-solver": 3, "kk": 6, "lattice-2d": 2, "lattice-3d": 1, "lift": 5,
    "max-symmetry": 6, "parser": 1, "transform": 6, "transform-limit": 1,
}

SIZES = {
    "full": {
        "suite_groups": tuple(sorted(SUITE_REPORTS)),
        "grid_n": (7, 16),  # 343 and 4096 points
        "point_rounds": 2,
    },
    # seconds-long variant for the self-tests
    "tiny": {
        "suite_groups": ("calibration", "curvature", "kink-convergence", "lift", "parser", "transform-limit"),
        "grid_n": (2, 3),
        "point_rounds": 1,
    },
}

CURVATURE_TOL = checks.TOL["curvature-3d"]
COTTON_TOL = checks.TOL["cotton"]
IDENTITIES_TOL = checks.TOL["cotton-identities"]
KILLING_EXPECTED = {"flat": 6, "a": 4, "b": 4, "c+": 6, "c-": 6}

# A residual below double-precision epsilon counts as epsilon in the
# headroom, so an exact zero gives a finite number of decades.
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class Verdict:
    name: str
    residual: float
    tolerance: float
    ok: bool

    @property
    def headroom(self) -> float:
        """Decades between the residual and the tolerance; NaN when the
        residual is not a finite real number."""
        if not math.isfinite(self.residual):
            return math.nan
        return math.log10(self.tolerance / max(self.residual, EPS))


def verdict(name: str, residual: Any, tolerance: float) -> Verdict:
    """Fail closed: a complex, non-scalar, NaN or infinite residual fails,
    whatever the tolerance."""
    r = np.asarray(residual)
    if np.iscomplexobj(r) or r.size != 1:
        return Verdict(name, math.nan, tolerance, False)
    value = float(r)
    return Verdict(name, value, tolerance, math.isfinite(value) and value <= tolerance)


@dataclass(frozen=True)
class Query:
    name: str
    call: Callable[[], Any]  # the timed call into cottonkit
    check: Callable[[Any], list]  # result -> list[Verdict], untimed
    expected: int = 1  # verdicts the query yields; all fail if it raises
    work: int = 1  # items it counts towards items_per_s


@dataclass(frozen=True)
class Call:
    name: str
    latency_s: float
    verdicts: list


@dataclass(frozen=True)
class Inputs:
    passes: list  # query lists; pass k of a run runs passes[k % len(passes)]
    sizes: dict
    couplings: list  # C of each query list (suite: of each query)

    @property
    def work_per_pass(self) -> int:
        return sum(q.work for q in self.passes[0])


def run_pass(queries: list, tracer=None) -> list[Call]:
    """Run the queries once, in order, timing each call."""
    out = []
    for q in queries:
        if tracer is not None:
            tracer.item = q.name
        t0 = time.perf_counter()
        try:
            result = q.call()
        except Exception as exc:  # a raising call is a failed item, not a crash
            latency = time.perf_counter() - t0
            print(f"# {q.name} raised {type(exc).__name__}: {exc}", flush=True)
            verdicts = [Verdict(q.name, math.nan, 0.0, False)] * q.expected
        else:
            latency = time.perf_counter() - t0
            verdicts = q.check(result)
        out.append(Call(q.name, latency, verdicts))
    return out


def build(workload: str, seed: int, size: str = "full") -> Inputs:
    """The seed fixes every input: couplings, random metrics and their
    points, and call order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
    rng = np.random.default_rng(seed)
    sizes = SIZES[size]
    if workload == "suite":
        couplings = [float(c) for c in rng.choice(COUPLINGS, len(sizes["suite_groups"]))]
        passes = [_suite(sizes["suite_groups"], couplings)]
    else:
        # one pass per coupling, in a seeded rotation: accuracy varies with
        # C by up to a decade, so a run covers all three instead of one
        couplings = [float(c) for c in np.roll(COUPLINGS, rng.integers(len(COUPLINGS)))]
        if workload == "grid":
            random_metrics = _random_metrics(rng, sizes)
            passes = [_grid(C, sizes, random_metrics) for C in couplings]
        else:
            passes = [_pointwise(C, sizes) for C in couplings]
    passes = [[queries[i] for i in rng.permutation(len(queries))] for queries in passes]
    return Inputs(passes, sizes, couplings)


def _case(tag: str, C: float) -> catalog.SolutionCase:
    return catalog.SolutionCase(tag, -C if tag == "b" else C)


# -- suite: the product path (`cottonkit verify` / `report`) ------------------


def _suite(groups, couplings) -> list[Query]:
    return [
        Query(group, lambda g=group, C=C: checks.run_checks(C, checks=[g]),
              lambda reports, g=group: _score_reports(g, reports),
              expected=SUITE_REPORTS[group], work=SUITE_REPORTS[group])
        for group, C in zip(groups, couplings)
    ]


def _score_reports(group: str, reports) -> list[Verdict]:
    """The benchmark's own verdict on each report: the program's ``passed``
    and a finite residual within tolerance, so a NaN dropped by a Python
    ``max()`` inside a check cannot pass."""
    if len(reports) != SUITE_REPORTS[group]:
        return [Verdict(group, math.nan, 0.0, False)] * max(len(reports), SUITE_REPORTS[group])
    return [_report_verdict(f"{r.check_id}:{r.case or ''}", r) for r in reports]


# -- grid: batched kernels at 343 and 4096 points ------------------------------


def _random_metrics(rng, sizes) -> list:
    """One random smooth metric with its points per grid size, shared by
    every coupling."""
    return [
        (f"identities:n{n ** 3}", oracles.random_smooth_metric(rng), rng.uniform(-1.0, 1.0, (n ** 3, 3)))
        for n in sizes["grid_n"]
    ]


def _grid(C, sizes, random_metrics) -> list[Query]:
    queries = []
    for n in sizes["grid_n"]:
        npts = n ** 3
        for tag in catalog.CASE_TAGS:
            case = _case(tag, C)
            sol = catalog.solution_3d(case)
            pts = catalog.standard_grid(case, 3, n)
            want = _closed_form(sol.R_expected, pts, case.env)
            key = f"{tag}:C{C:g}:n{npts}"
            queries.append(Query(
                f"curvature:{key}",
                lambda m=sol.metric, p=pts: geometry.curvature_grid(m, p),
                lambda out, w=want, name=f"curvature:{key}": [
                    verdict(name, _max_scaled(out["scalar"], w), CURVATURE_TOL)],
                work=npts))
            queries.append(Query(
                f"cotton:{key}",
                lambda m=sol.metric, p=pts: geometry.cotton_grid(m, p),
                lambda out, name=f"cotton:{key}": [verdict(name, _cotton_residual(out), COTTON_TOL)],
                work=npts))
    for name, m, pts in random_metrics:
        queries.append(Query(
            name,
            lambda m=m, p=pts: geometry.cotton_identities_check(m, p, tolerance=IDENTITIES_TOL),
            lambda rep, name=name: [_report_verdict(name, rep)],
            work=len(pts)))
    return queries


def _closed_form(expr, pts: np.ndarray, env: dict) -> np.ndarray:
    bind = {name: pts[:, k] for k, name in enumerate(("t", "x", "y"))}
    bind.update(env)
    return np.broadcast_to(np.asarray(exprlang.eval_array(expr, bind), dtype=float), (len(pts),)).copy()


def _max_scaled(got, want) -> float:
    """Worst |got - want| / (1 + max(|got|, |want|)); np.max keeps NaN."""
    got = np.asarray(got)
    if np.iscomplexobj(got):
        return math.nan
    return np.max(np.abs(got - want) / (1.0 + np.maximum(np.abs(got), np.abs(want))))


def _cotton_residual(out: dict) -> float:
    cot = np.asarray(out["cotton"])
    if np.iscomplexobj(cot):
        return math.nan
    return np.max(np.max(np.abs(cot), axis=(0, 1)) / out["scale"])


def _report_verdict(name: str, rep) -> Verdict:
    """Fail closed on a CheckReport: its own ``passed`` and the benchmark's
    check of the residual must both hold."""
    v = verdict(name, rep.max_residual, rep.tolerance)
    return v if rep.passed else Verdict(name, v.residual, v.tolerance, False)


# -- pointwise: single-point queries ---------------------------------------------


# Fixed, well-spread points (a Kronecker sequence, as fractions of each
# branch's verification box).  Cotton residuals sit at rounding level and
# scatter by a decade when a point moves at all, so seeded points would
# make the minimum headroom a draw; the seed orders the queries.
_KRONECKER = 1.0 / 1.22074408460575947536 ** np.arange(1, 4)


def _base_fraction(i: int) -> np.ndarray:
    return 0.1 + 0.8 * ((0.5 + (i + 1) * _KRONECKER) % 1.0)


def _pointwise(C, sizes) -> list[Query]:
    metrics = [("flat", geometry.flat_metric(), None, np.array([(-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.0)]))]
    for tag in catalog.CASE_TAGS:
        case = _case(tag, C)
        sol = catalog.solution_3d(case)
        corners = catalog.standard_grid(case, 3, 2)  # the verification box
        metrics.append((tag, sol.metric, (sol.R_expected, case.env), np.stack([corners.min(0), corners.max(0)], 1)))
    queries = []
    for r in range(sizes["point_rounds"]):
        for tag, m, closed, box in metrics:
            p = box[:, 0] + _base_fraction(r) * (box[:, 1] - box[:, 0])
            want = 0.0 if closed is None else float(_closed_form(closed[0], p[None, :], closed[1])[0])
            key = f"{tag}:C{C:g}:{r}"
            queries.append(Query(
                f"curvature:{key}",
                lambda m=m, p=p: geometry.curvature_at(m, p),
                lambda out, w=want, name=f"curvature:{key}": [verdict(name, _max_scaled(out.scalar, w), CURVATURE_TOL)]))
            queries.append(Query(
                f"cotton:{key}",
                lambda m=m, p=p: geometry.cotton_grid(m, p[None, :]),
                lambda out, name=f"cotton:{key}": [verdict(name, _cotton_residual(out), COTTON_TOL)]))
            if tag in KILLING_EXPECTED:
                queries.append(Query(
                    f"killing:{key}",
                    lambda m=m, p=p: symmetry.killing_dimension_estimate(m, p, depth=2),
                    lambda est, name=f"killing:{key}", want=KILLING_EXPECTED[tag]: [_count_verdict(name, est, want)]))
    return queries


def _count_verdict(name: str, got, want: int) -> Verdict:
    if not isinstance(got, (int, np.integer)):
        return Verdict(name, math.nan, 0.0, False)
    return verdict(name, abs(int(got) - want), 0.0)


# -- reductions over a run --------------------------------------------------------


def summarize(inputs: Inputs, passes: list[list[Call]], walls: list[float]) -> dict:
    """End-to-end figures over the passes of one run.  Reductions use numpy
    so a NaN headroom propagates instead of being dropped."""
    verdicts = [v for calls in passes for c in calls for v in c.verdicts]
    latencies = np.sort([c.latency_s for calls in passes for c in calls])
    failed = sum(not v.ok for v in verdicts)
    heads = np.array([v.headroom for v in verdicts if v.tolerance > 0])
    wall = float(np.median(walls))
    n = len(latencies)
    # highest percentile that still has at least ten samples above it
    # (the maximum when a tiny run has too few samples for that)
    above = 10 if n > 10 else 0
    tail_index = n - 1 - above
    return {
        "attempted": len(verdicts),
        "failed": failed,
        "wall_s": wall,
        "items_per_s": inputs.work_per_pass / wall,
        "item_p50_ms": float(np.median(latencies)) * 1e3,
        "item_tail_ms": float(latencies[tail_index]) * 1e3,
        "item_tail_percentile": 100.0 * (tail_index + 1) / n,
        "item_tail_samples_above": above,
        "item_samples": n,
        "fail_ratio": failed / len(verdicts),
        "headroom_min_dec": float(np.min(heads)) if heads.size else math.nan,
        "headroom_p50_dec": float(np.median(heads)) if heads.size else math.nan,
        "pass_walls_s": walls,
    }
