"""The closed-form solution catalog: fields, metrics, maps, Killing vectors.

Each case stores the exact expressions of the corresponding solution branch
of the reduced theory, its expected dual field strength f and curvatures,
the coordinate map to a conformally flat chart with its conformal factor,
and (for the constant-curvature cases) an explicit Killing basis.

Two notes on entries that are fixed by computation rather than transcription:

* The kink gauge potential.  The kink's 3D line element has no dt^2 term,
  which forces a_t^2 = g_tt, i.e. a_t = +-sech^2(sqrt(C) x / 2); the sign
  pairs with the orientation of f through the curl (field_strength tests
  pin the pairing).  The same computation fixes which sign of
  a_t = -+1/(sqrt(C) x) goes with f = +-sqrt(C) in the constant case.

* The Killing bases for the symmetry-breaking case.  These are the images
  of the anti-deSitter generators (boundary translations, boost, dilation
  and the two special-conformal fields of the Poincare chart) transported
  through the inverse of the conformal map; the closed forms below were
  simplified by hand and are validated against a numeric transport oracle
  and the residual test.  The minus-orientation basis is the image of the
  plus basis under t -> -t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exprlang import ExprAst, parse_expr, to_text
from .geometry import MetricSpec, metric_to_dict
from .reduction import ReducedData, reduced_to_dict
from .symmetry import VectorFieldSpec

__all__ = [
    "CASE_TAGS",
    "SolutionCase",
    "Solution2D",
    "Solution3D",
    "TransformSpec",
    "solution_2d",
    "solution_3d",
    "transform",
    "killing_fields",
    "standard_grid",
    "transform_grid",
    "export_case",
]

CASE_TAGS = ("a", "b", "c+", "c-", "kink+", "kink-")

_ALIASES = {
    "a": "a",
    "b": "b",
    "c+": "c+",
    "cplus": "c+",
    "c-": "c-",
    "cminus": "c-",
    "kink": "kink+",
    "kink+": "kink+",
    "kinkplus": "kink+",
    "kink-": "kink-",
    "kinkminus": "kink-",
}


def canonical_tag(tag: str) -> str:
    key = tag.strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown case tag {tag!r}; known: {', '.join(CASE_TAGS)}")
    return _ALIASES[key]


@dataclass(frozen=True)
class SolutionCase:
    """A catalog branch with its coupling constant.

    C must be finite and positive except for case b, whose homogeneous
    solution only exists at negative C.
    """

    tag: str
    C: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "tag", canonical_tag(self.tag))
        if not math.isfinite(self.C):
            raise ValueError(f"C must be finite, got {self.C!r}")
        if self.tag == "b":
            if self.C >= 0:
                raise ValueError("case b requires C < 0")
        elif self.C <= 0:
            raise ValueError(f"case {self.tag} requires C > 0")

    @classmethod
    def at(cls, tag: str, C: float) -> "SolutionCase":
        """The case at coupling magnitude |C|, with the sign its branch needs
        (C < 0 for case b, C > 0 for every other)."""
        tag = canonical_tag(tag)
        return cls(tag, -abs(C) if tag == "b" else abs(C))

    @property
    def env(self) -> dict:
        e = {"C": float(self.C)}
        if self.tag == "b":
            e["absC"] = abs(float(self.C))
        return e

    @property
    def sign(self) -> float:
        return -1.0 if self.tag.endswith("-") else 1.0


@dataclass(frozen=True)
class Solution2D:
    case: SolutionCase
    rd: ReducedData
    f_expected: ExprAst  # closed form of the dual field strength
    r_expected: ExprAst  # closed form of the 2D scalar curvature


@dataclass(frozen=True)
class Solution3D:
    case: SolutionCase
    metric: MetricSpec
    R_expected: ExprAst


@dataclass(frozen=True)
class TransformSpec:
    """Coordinate map into a conformally flat chart.

    ``components`` express the target coordinates in terms of the source
    ones; ``conformal_factor`` is written over the target coordinates.
    ``x_min`` (when set) restricts the source domain (the square root in
    the symmetry-breaking map is real only for x > 0; no extension past
    the singular locus is attempted).
    """

    case: SolutionCase
    source_coords: tuple[str, ...]
    target_coords: tuple[str, ...]
    components: tuple[ExprAst, ...]
    conformal_factor: ExprAst
    x_min: Optional[float] = None
    t_min: Optional[float] = None

    @property
    def env(self) -> dict:
        return self.case.env

    def in_domain(self, p: Sequence[float]) -> bool:
        t, x = float(p[0]), float(p[1])
        if self.x_min is not None and x <= self.x_min:
            return False
        if self.t_min is not None and t <= self.t_min:
            return False
        return True


def _g2_diag(tt: str, xx: str, env: dict) -> MetricSpec:
    return MetricSpec.from_components(("t", "x"), {"t,t": tt, "x,x": xx}, env=env)


def solution_2d(case: SolutionCase) -> Solution2D:
    tag, env = case.tag, case.env
    s = "" if case.sign > 0 else "-"
    if tag == "a":
        g2 = _g2_diag("2/(C*t^2)", "-2/(C*t^2)", env)
        a = ("0", "0")
        f, r = "0", "C"
    elif tag == "b":
        g2 = _g2_diag("2/(absC*x^2)", "-2/(absC*x^2)", env)
        a = ("0", "0")
        f, r = "0", "C"
    elif tag in ("c+", "c-"):
        g2 = _g2_diag("1/(C*x^2)", "-1/(C*x^2)", env)
        a = (f"{s}1/(sqrt(C)*x)", "0")
        f, r = f"{s}sqrt(C)", "-2*C"
    else:  # kink
        g2 = _g2_diag("1/cosh(sqrt(C)/2*x)^4", "-1", env)
        a = (f"{s}1/cosh(sqrt(C)/2*x)^2", "0")
        f = f"{s}sqrt(C)*tanh(sqrt(C)/2*x)"
        r = "-2*C+3*C/cosh(sqrt(C)/2*x)^2"
    rd = ReducedData(g2=g2, a=(parse_expr(a[0]), parse_expr(a[1])))
    return Solution2D(case=case, rd=rd, f_expected=parse_expr(f), r_expected=parse_expr(r))


def solution_3d(case: SolutionCase) -> Solution3D:
    tag, env = case.tag, case.env
    gty = "-" if case.sign > 0 else ""  # G_ty = -a_t
    if tag == "a":
        comps = {"t,t": "2/(C*t^2)", "x,x": "-2/(C*t^2)", "y,y": "-1"}
        R = "C"
    elif tag == "b":
        comps = {"t,t": "2/(absC*x^2)", "x,x": "-2/(absC*x^2)", "y,y": "-1"}
        R = "C"
    elif tag in ("c+", "c-"):
        comps = {"t,y": f"{gty}1/(sqrt(C)*x)", "x,x": "-1/(C*x^2)", "y,y": "-1"}
        R = "-1.5*C"
    else:
        comps = {"t,y": f"{gty}1/cosh(sqrt(C)/2*x)^2", "x,x": "-1", "y,y": "-1"}
        R = "-1.5*C+2.5*C/cosh(sqrt(C)/2*x)^2"
    m = MetricSpec.from_components(("t", "x", "y"), comps, env=env)
    return Solution3D(case=case, metric=m, R_expected=parse_expr(R))


def transform(case: SolutionCase) -> TransformSpec:
    tag = case.tag
    # the minus-orientation branches use the plus map composed with t -> -t
    t = "t" if case.sign > 0 else "(-t)"
    if tag == "a":
        comps = ("t*cosh(sqrt(C/2)*y)", "x", "t*sinh(sqrt(C/2)*y)")
        factor = "2/(C*(T^2-Y^2))"
        return _mk_transform(case, comps, factor, t_min=0.0)
    if tag == "b":
        comps = ("t", "x*cos(sqrt(absC/2)*y)", "x*sin(sqrt(absC/2)*y)")
        factor = "2/(absC*(X^2+Y^2))"
        return _mk_transform(case, comps, factor, x_min=0.0)
    if tag in ("c+", "c-"):
        w1 = f"({t} + x*tanh(sqrt(C)/2*y))"
        w2 = "(-1/sqrt(C)*tanh(sqrt(C)/2*y))"
        comps = (
            f"({w1}+{w2})/2",
            "sqrt(x/sqrt(C))/cosh(sqrt(C)/2*y)",
            f"({w1}-{w2})/2",
        )
        return _mk_transform(case, comps, "4/(C*X^2)", x_min=0.0)
    # kink: shear to co-rotating coordinates, then the same map as the
    # constant branch; the square root of sinh^2 is written as sinh, which
    # agrees for x > 0 and extends the composite analytically
    w1 = f"({t} + y/2 + 1/sqrt(C)*sinh(sqrt(C)/2*x)^2*tanh(sqrt(C)/2*y))"
    w2 = "(-1/sqrt(C)*tanh(sqrt(C)/2*y))"
    comps = (
        f"({w1}+{w2})/2",
        "sinh(sqrt(C)/2*x)/(sqrt(C)*cosh(sqrt(C)/2*y))",
        f"({w1}-{w2})/2",
    )
    return _mk_transform(case, comps, "4/(1-C*(T-Y)^2+C*X^2)", x_min=0.0)


def _mk_transform(case, comps, factor, x_min=None, t_min=None) -> TransformSpec:
    return TransformSpec(
        case=case,
        source_coords=("t", "x", "y"),
        target_coords=("T", "X", "Y"),
        components=tuple(parse_expr(c) for c in comps),
        conformal_factor=parse_expr(factor),
        x_min=x_min,
        t_min=t_min,
    )


_KILLING = {
    # 2D-block isometries extended trivially, plus the reduced translation
    "a": (
        ("0", "1", "0"),
        ("t", "x", "0"),
        ("t*x", "(x^2+t^2)/2", "0"),
        ("0", "0", "1"),
    ),
    "b": (
        ("1", "0", "0"),
        ("t", "x", "0"),
        ("(t^2+x^2)/2", "t*x", "0"),
        ("0", "0", "1"),
    ),
    # transported anti-deSitter generators (see module docstring)
    "c+": (
        ("1", "0", "0"),
        ("0", "0", "1"),
        ("t", "x", "0"),
        ("t^2+x^2", "2*t*x", "-2*x/sqrt(C)"),
        ("x*cosh(sqrt(C)*y)/sqrt(C)", "-x*sinh(sqrt(C)*y)/sqrt(C)", "(1-cosh(sqrt(C)*y))/C"),
        ("t+x*sinh(sqrt(C)*y)", "-x*(cosh(sqrt(C)*y)-1)", "-sinh(sqrt(C)*y)/sqrt(C)"),
    ),
    "c-": (
        ("1", "0", "0"),
        ("0", "0", "1"),
        ("t", "x", "0"),
        ("t^2+x^2", "2*t*x", "2*x/sqrt(C)"),
        ("x*cosh(sqrt(C)*y)/sqrt(C)", "x*sinh(sqrt(C)*y)/sqrt(C)", "(cosh(sqrt(C)*y)-1)/C"),
        ("t-x*sinh(sqrt(C)*y)", "-x*(cosh(sqrt(C)*y)-1)", "-sinh(sqrt(C)*y)/sqrt(C)"),
    ),
}


def killing_fields(case: SolutionCase) -> list[VectorFieldSpec]:
    """Killing bases: six fields for the symmetry-breaking constant branch,
    four for the homogeneous ones."""
    if case.tag not in _KILLING:
        raise ValueError(f"no Killing basis stored for case {case.tag!r}")
    return [VectorFieldSpec.parse(c) for c in _KILLING[case.tag]]


# -- verification grids ---------------------------------------------------------
#
# Ranges dodge every singular locus (t = 0 for case a, x = 0 elsewhere)
# while spanning about a decade of component magnitudes.


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    return np.linspace(lo, hi, n)


def standard_grid(case: SolutionCase, dim: int, n: int = 7) -> np.ndarray:
    tag = case.tag
    if tag == "a":
        t, x = _axis(0.5, 4.0, n), _axis(-2.0, 2.0, n)
    elif tag in ("b", "c+", "c-"):
        t, x = _axis(-2.0, 2.0, n), _axis(0.25, 4.0, n)
    else:
        # the kink's decay length is 1/sqrt(C); a fixed window would push
        # g_tt = sech^4 below the nondegeneracy floor at large C
        lim = 8.0 / math.sqrt(abs(case.C))
        t, x = _axis(-2.0, 2.0, n), _axis(-lim, lim, n)
    if dim == 2:
        return np.array([(a, b) for a in t for b in x])
    y = _axis(-1.0, 1.0, n)
    return np.array([(a, b, c) for a in t for b in x for c in y])


def transform_grid(case: SolutionCase, n: int = 7) -> np.ndarray:
    """Grid restricted to the map's domain (x > 0 branches included)."""
    tag = case.tag
    t = _axis(0.5, 4.0, n) if tag == "a" else _axis(-2.0, 2.0, n)
    x = _axis(0.25, 4.0, n)
    y = _axis(-1.0, 1.0, n)
    return np.array([(a, b, c) for a in t for b in x for c in y])


def export_case(case: SolutionCase, what: str) -> dict:
    """JSON payloads in the metric / reduced-data / fields formats."""
    if what == "metric2d":
        return reduced_to_dict(solution_2d(case).rd)
    if what == "metric3d":
        return metric_to_dict(solution_3d(case).metric)
    if what == "transform":
        tr = transform(case)
        out = {
            "source_coordinates": list(tr.source_coords),
            "target_coordinates": list(tr.target_coords),
            "components": [to_text(c) for c in tr.components],
            "conformal_factor": to_text(tr.conformal_factor),
            "parameters": tr.env,
        }
        if tr.x_min is not None:
            out["domain"] = f"x>{tr.x_min:g}"
        if tr.t_min is not None:
            out["domain"] = f"t>{tr.t_min:g}"
        return out
    if what == "killing":
        fields = killing_fields(case)
        return {
            "coordinates": ["t", "x", "y"],
            "parameters": case.env,
            "fields": [f.texts() for f in fields],
        }
    raise ValueError(f"unknown export kind {what!r}")
