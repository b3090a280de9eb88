"""Second-order variational geometry and weak sharp minimality certificates
for polynomial programs with set constraints.

The pieces compose bottom-up: polyhedral regions (regions), tangent and
normal objects over the set catalog (sets, tangents), sampling ground truth
(oracles), problem models (polyexpr), certification checkers (certify), and
the report-emitting command line (cli).
"""
from .sets import (
    Ball,
    BaseSet,
    Box,
    Halfspace,
    Interval,
    PointSet,
    Polyhedron,
    ProductSet,
    SetError,
    UnionSet,
)
from .regions import (
    PolyCell,
    Region,
    RegionError,
    cone_hull,
    face_complex,
    lower_gen_support_detail,
    polar_cone,
    region_subset,
    region_tangent_cone,
)
from .tangents import (
    TangentError,
    directional_clarke_tangent,
    directional_normal,
    eps_proximal_filter,
    eps_proximal_membership,
    normal_cone,
    second_tangent,
    tangent_cone,
)
from .polyexpr import ModelError, Options, PolyExpr, ProblemInstance, parse_expression
from .oracles import (
    OracleError,
    growth_constant_estimate,
    membership_by_definition,
    mscq_modulus_estimate,
    proximal_distance_check,
    sample_feasible,
)
from .certify import (
    CertificationReport,
    CqResult,
    MultiplierAffineSet,
    certify_mscq,
    constraint_qualification_check,
    critical_cone,
    directional_multipliers,
    linearized_phi_tangents,
    multiplier_affine_set,
    necessary_clarke_check,
    necessary_explicit_check,
    necessary_implicit_check,
    sufficient_isolated_check,
    sufficient_point_check,
    sweep_necessary,
)
from .cli import emit_report, load_problem, run_command

__version__ = "0.1.0"

__all__ = [
    "Ball", "BaseSet", "Box", "CertificationReport", "CqResult",
    "Halfspace", "Interval", "ModelError", "MultiplierAffineSet",
    "Options", "OracleError", "PointSet", "PolyCell", "PolyExpr", "Polyhedron",
    "ProblemInstance", "ProductSet", "Region", "RegionError", "SetError",
    "TangentError", "UnionSet", "certify_mscq", "cone_hull",
    "constraint_qualification_check", "critical_cone",
    "directional_clarke_tangent", "directional_multipliers",
    "directional_normal", "emit_report", "eps_proximal_filter",
    "eps_proximal_membership", "face_complex", "growth_constant_estimate",
    "linearized_phi_tangents", "load_problem",
    "lower_gen_support_detail", "membership_by_definition",
    "mscq_modulus_estimate", "multiplier_affine_set", "necessary_clarke_check",
    "necessary_explicit_check", "necessary_implicit_check", "normal_cone",
    "parse_expression", "polar_cone", "proximal_distance_check",
    "region_subset", "region_tangent_cone", "run_command", "sample_feasible",
    "second_tangent", "sufficient_isolated_check", "sufficient_point_check",
    "sweep_necessary", "tangent_cone",
]
