"""cottonkit: numerical verification of a 3D conformal-gravity reduction.

The toolkit evaluates curvature exactly through truncated Taylor jets, so
solution checks, conformal-flatness tests (via the Cotton tensor), the
reduced field equations, coordinate-map identities, Killing symmetry
counts, and the flat-kink lifting construction can all be verified at
machine precision on sampled grids, with finite-difference and lattice
variational oracles guarding the engines.
"""

from .exprlang import ExprAst, ExprEvalError, ExprSyntaxError, eval_jet, parse_expr, to_text
from .geometry import (
    CottonAt,
    CurvatureAt,
    DegenerateMetricError,
    GeometryError,
    MetricSpec,
    christoffel_at,
    cotton_at,
    cotton_identities_check,
    covariant_hessian_at,
    curvature_at,
    flat_metric,
    load_metric,
    pullback_metric_at,
    pullback_metric_grid,
)
from .jets import Jet, JetDomainError, jet_apply, jet_extract, jet_var
from .kink import (
    FlatKink,
    KinkProfile,
    LiftedKink,
    PotentialSpec,
    flat_kink_solve,
    lift_curvature_check,
    lift_flat_kink,
    lift_residuals,
    phi4_potential,
    sine_gordon_potential,
    solve_kink_ode,
)
from .reduction import (
    ReducedData,
    assemble_3d_metric,
    eom_residuals,
    field_strength_f,
    kk_curvature_relation_check,
    lattice_cotton_variation_check_3d,
    lattice_variation_check_2d,
    reduced_action_density,
)
from .report import CheckReport
from .symmetry import (
    VectorFieldSpec,
    killing_dimension_estimate,
    killing_residual,
    lie_bracket_at,
)

__version__ = "0.1.0"
