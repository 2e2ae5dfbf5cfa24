"""Check reports: the universal output record of every verification, and
its three output formats.

A report is a named residual measurement: what was checked, over which
grid, the worst offender, the tolerance it was held to, and whether it
passed.  ``Span.report`` is the one constructor every check uses: it finds
the worst point, writes the grid text, records its measured wall time and
holds the residual to tolerance.  ``render`` is the one renderer: the JSON,
text or CSV body of a list of reports.  Serialization is deterministic
(sorted keys, repr floats) so two identical runs produce byte-identical
output; wall time is the one field excluded in stable-output mode.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

__all__ = ["CheckReport", "Span", "render", "report_from_dict"]

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
        self,
        check_id: str,
        residual,
        tolerance: float,
        points=None,
        solution=None,
        *,
        case: Optional[str] = None,
        params: Optional[dict] = None,
        grid: Optional[str] = None,
        worst_point=None,
        worst_value=None,
        details: Optional[dict] = None,
    ) -> CheckReport:
        """The report of a residual held to tolerance.

        The residual is a scalar or an array whose last axis runs over the
        points; its largest value, or its first NaN, is the max residual and,
        unless given, the worst value.  Points give the default grid text
        and, for an array residual, the default worst point.  A solution
        case (``catalog.SolutionCase``) gives the report's case tag and
        params; otherwise a plain ``case`` tag and ``params`` are taken as
        they are."""
        wall_time = self._spent + (0.0 if self._t0 is None else time.perf_counter() - self._t0)
        worst, k = _argworst(residual)
        if points is not None:
            grid = f"{len(points)} points" if grid is None else grid
            if worst_point is None and np.ndim(residual):
                worst_point = points[k % len(points)]
        if solution is not None:
            case, params = solution.tag, solution.env
        return CheckReport(
            check_id=check_id,
            max_residual=worst,
            tolerance=float(tolerance),
            passed=False,
            case=case,
            params=dict(params or {}),
            grid=grid or "",
            worst_point=None if worst_point is None else [float(v) for v in worst_point],
            worst_value=worst if worst_value is None else float(worst_value),
            wall_time=wall_time,
            details=dict(details or {}),
        ).hold_to(tolerance)


def render(reports, fmt: str, config: Optional[dict] = None, stable: bool = False) -> str:
    """The newline-terminated body of a report list: ``json`` (schema, count
    of failed checks, the reports, without wall time when ``stable``, and
    the run config without its ``out`` path, which would make the body
    depend on where it is written), ``text`` (one verdict line per report)
    or ``csv`` (one verdict row per report).  Every format orders the
    reports by check id, then case; reports sharing both keep their order."""
    ordered = sorted(reports, key=lambda r: (r.check_id, r.case or ""))
    if fmt == "text":
        return "\n".join(r.line() for r in ordered) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["check_id", "case", "max_residual", "tolerance", "passed"])
        w.writerows([r.check_id, r.case or "", repr(r.max_residual), repr(r.tolerance), r.passed] for r in ordered)
        return buf.getvalue()
    if fmt != "json":
        raise ValueError(f"unknown report format {fmt!r}")
    payload = {
        "schema": SCHEMA,
        "failed": sum(0 if r.passed else 1 for r in reports),
        "checks": [r.to_dict(stable=stable) for r in ordered],
    }
    if config is not None:
        payload["config"] = {k: v for k, v in config.items() if k != "out"}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def report_from_dict(d: dict) -> CheckReport:
    """The report a ``to_dict`` gave; an unknown key raises TypeError."""
    return CheckReport(**d)
