"""Check reports: the universal output record of every verification.

A report is a named residual measurement: what was checked, over which
grid, the worst offender, the tolerance it was held to, and whether it
passed.  ``Span.report`` is the one constructor every check uses: it finds
the worst point, writes the grid text and records its measured wall time.
Serialization is deterministic (sorted keys, repr floats) so two identical
runs produce byte-identical JSON; wall time is the one field excluded in
stable-output mode.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

__all__ = ["CheckReport", "Span", "make_report", "report_order", "reports_to_json", "report_from_dict"]

SCHEMA = "cottonkit/1"


@dataclass
class CheckReport:
    check_id: str
    max_residual: float
    tolerance: float
    passed: bool
    case: Optional[str] = None
    params: dict = field(default_factory=dict)
    grid: str = ""
    worst_point: Optional[list] = None
    worst_value: Optional[float] = None
    wall_time: float = 0.0
    details: dict = field(default_factory=dict)

    def to_dict(self, stable: bool = False) -> dict:
        d = asdict(self)
        if stable:
            d.pop("wall_time")
        return d

    def hold_to(self, tolerance: float) -> "CheckReport":
        """Judge the report against tolerance: the one pass rule, under which
        a NaN residual fails."""
        self.tolerance = float(tolerance)
        self.passed = bool(self.max_residual <= self.tolerance)
        return self

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        case = f" [{self.case}]" if self.case else ""
        return (
            f"{verdict}  {self.check_id}{case}: max residual {self.max_residual:.3e}"
            f" (tol {self.tolerance:.1e})"
        )


def _argworst(values) -> tuple[float, int]:
    """Largest value and the first flat (row-major) index holding it; a NaN
    anywhere is the worst value, so a garbage residual can never hide behind
    a finite one."""
    vals = np.asarray(values, dtype=float).ravel()
    k = int(np.argmax(vals))
    return float(vals[k]), k


def make_report(
    check_id: str,
    max_residual: float,
    tolerance: float,
    case: Optional[str] = None,
    params: Optional[dict] = None,
    grid: str = "",
    worst_point=None,
    worst_value=None,
    wall_time: float = 0.0,
    details: Optional[dict] = None,
) -> CheckReport:
    max_residual = float(max_residual)
    if worst_value is None:
        worst_value = max_residual
    return CheckReport(
        check_id=check_id,
        max_residual=max_residual,
        tolerance=float(tolerance),
        passed=False,
        case=case,
        params=dict(params or {}),
        grid=grid,
        worst_point=None if worst_point is None else [float(v) for v in worst_point],
        worst_value=None if worst_value is None else float(worst_value),
        wall_time=float(wall_time),
        details=dict(details or {}),
    ).hold_to(tolerance)


class Span:
    """Measured wall time of one report.

    The span runs from construction to the ``report`` call; a span used as
    ``with`` blocks is instead the sum of its blocks, for checks whose
    reports interleave."""

    def __init__(self):
        self._spent = 0.0
        self._t0 = time.perf_counter()

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._spent += time.perf_counter() - self._t0
        self._t0 = None

    def report(
        self, check_id: str, residual, tolerance: float, points=None, solution=None, **fields
    ) -> CheckReport:
        """The report of a residual held to tolerance.

        The residual is a scalar or an array whose last axis runs over the
        points; its largest value, or its first NaN, is the max residual.
        Points give the default grid text and, for an array residual, the
        worst point.  A solution case (``catalog.SolutionCase``) gives the
        report's case tag and params; other fields, such as a plain ``case``
        tag, go to ``make_report`` as they are."""
        wall_time = self._spent + (0.0 if self._t0 is None else time.perf_counter() - self._t0)
        worst, k = _argworst(residual)
        if points is not None:
            fields.setdefault("grid", f"{len(points)} points")
            if np.ndim(residual):
                fields.setdefault("worst_point", points[k % len(points)])
        if solution is not None:
            fields.update(case=solution.tag, params=solution.env)
        return make_report(check_id, worst, tolerance, wall_time=wall_time, **fields)


def report_order(reports) -> list[CheckReport]:
    """The output order of every format: by check id, then case; reports
    sharing both keep their run order."""
    return sorted(reports, key=lambda r: (r.check_id, r.case or ""))


def reports_to_json(reports, config: Optional[dict] = None, stable: bool = False) -> str:
    payload = {
        "schema": SCHEMA,
        "failed": sum(0 if r.passed else 1 for r in reports),
        "checks": [r.to_dict(stable=stable) for r in report_order(reports)],
    }
    if config is not None:
        payload["config"] = config
    return json.dumps(payload, indent=2, sort_keys=True)


def report_from_dict(d: dict) -> CheckReport:
    return CheckReport(
        check_id=d["check_id"],
        max_residual=d["max_residual"],
        tolerance=d["tolerance"],
        passed=d["passed"],
        case=d.get("case"),
        params=d.get("params", {}),
        grid=d.get("grid", ""),
        worst_point=d.get("worst_point"),
        worst_value=d.get("worst_value"),
        wall_time=d.get("wall_time", 0.0),
        details=d.get("details", {}),
    )
