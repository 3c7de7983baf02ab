"""Four-valued boundary-field Gibbs measures of the Ising model on Cayley
trees: scheme matrices, the two-field fixed-point solver, exact
finite-volume oracles and extremality certificates."""

from .extremality import (
    ExtremalityReport,
    Verdict,
    assess_solution,
    certify,
    gamma_bound,
    kappa_bound_generic,
    extremality_windows,
    ti_field_root,
)
from .kernels import Coupling, arctanh, big_f, big_f_prime, f_theta, f_theta_prime, k_beta
from .oracle import (
    FiniteVolumeMeasure,
    KolmogorovReport,
    check_kolmogorov,
    config_weight,
    finite_volume_measure,
    root_marginal_ratio,
)
from .scheme import (
    Family,
    MeasureFamily,
    ReducedParams,
    SchemeMatrix,
    classify,
    criterion_value,
    enumerate_schemes,
    nonuniqueness_criterion,
    realizable_reduced,
    reduce,
)
from .solver import (
    FieldPair,
    SolutionSet,
    SolverConfig,
    find_roots_1d,
    max_shifted_gain,
    solve_scalar,
    solve_system,
    system_residual,
)
from .tree import (
    BoundaryAssignment,
    CapacityError,
    CompatibilityReport,
    FieldLabel,
    FiniteTree,
    assign_fields,
    build_tree,
    export_assignment,
    numeric_field,
    parse_assignment,
    verify_compatibility,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryAssignment", "CapacityError", "CompatibilityReport", "Coupling",
    "ExtremalityReport", "Family", "FieldLabel", "FieldPair", "FiniteTree",
    "FiniteVolumeMeasure", "KolmogorovReport", "MeasureFamily", "ReducedParams",
    "SchemeMatrix", "SolutionSet", "SolverConfig", "Verdict", "arctanh",
    "assess_solution", "assign_fields", "big_f", "big_f_prime", "build_tree",
    "certify", "check_kolmogorov", "classify", "config_weight", "criterion_value",
    "enumerate_schemes", "export_assignment", "f_theta", "f_theta_prime",
    "find_roots_1d", "finite_volume_measure", "gamma_bound", "k_beta",
    "kappa_bound_generic", "max_shifted_gain", "nonuniqueness_criterion",
    "numeric_field", "parse_assignment", "realizable_reduced", "reduce",
    "root_marginal_ratio", "solve_scalar", "solve_system", "system_residual",
    "extremality_windows", "ti_field_root", "verify_compatibility",
]
