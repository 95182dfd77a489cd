"""Bell inequalities from state-independent contextuality sets.

The package turns a set of rays whose orthogonality structure forbids a
classical 0/1 assignment into a bipartite inequality: diagonal joint
probabilities enter with positive weights, orthogonal pairs with
negative ones.  It computes the classical bound exactly, the quantum
ceiling as the top eigenvalue of the Bell operator, and the Lovasz bound
with an in-house ADMM SDP solver; it predicts quantum values from one
Born-rule contraction and simulates noisy photon-counting runs.
"""

from .bounds import (
    BoundsReport,
    CeilingResult,
    ThetaNonConvergence,
    ThetaResult,
    bounds_report,
    lovasz_theta,
    max_weight_independent_set,
    solve_theta,
    state_ceiling,
)
from .catalog import (
    CheckResult,
    SicSet,
    ValidationReport,
    WeightedGraph,
    build_ks18,
    build_ks21,
    build_yo13,
    catalog_names,
    get_set,
    ks_colorable,
    load_set,
    orthogonality_graph,
    save_set,
    verify_set,
)
from .exact import ExactScalar, inner_product, to_complex_vector
from .montecarlo import (
    CountRecord,
    RunPlan,
    ViolationReport,
    estimate_beta,
    estimate_probabilities,
    exposure_for_sigma,
    fit_visibility,
    plan_for,
    run_experiment,
    simulate_counts,
)
from .noise import (
    NoiseConfig,
    PredictionInputs,
    SchmidtSpectrum,
    apply_noise,
    default_modes,
    expected_bell_value,
    prediction_table,
    procrustean_filter,
    schmidt_state,
    spiral_spectrum,
    uniform_spectrum,
)
from .quantum import (
    BipartiteState,
    ProbabilityTable,
    bell_coefficients,
    bell_operator,
    bell_settings,
    bell_value,
    conjugate_projector,
    joint_probability,
    max_entangled_state,
    projector,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteState",
    "BoundsReport",
    "CeilingResult",
    "CheckResult",
    "CountRecord",
    "ExactScalar",
    "NoiseConfig",
    "PredictionInputs",
    "ProbabilityTable",
    "RunPlan",
    "SchmidtSpectrum",
    "SicSet",
    "ThetaNonConvergence",
    "ThetaResult",
    "ValidationReport",
    "ViolationReport",
    "WeightedGraph",
    "apply_noise",
    "bell_coefficients",
    "bell_operator",
    "bell_settings",
    "bell_value",
    "bounds_report",
    "build_ks18",
    "build_ks21",
    "build_yo13",
    "catalog_names",
    "conjugate_projector",
    "default_modes",
    "estimate_beta",
    "estimate_probabilities",
    "expected_bell_value",
    "exposure_for_sigma",
    "fit_visibility",
    "get_set",
    "inner_product",
    "joint_probability",
    "ks_colorable",
    "load_set",
    "lovasz_theta",
    "max_entangled_state",
    "max_weight_independent_set",
    "orthogonality_graph",
    "plan_for",
    "prediction_table",
    "procrustean_filter",
    "projector",
    "run_experiment",
    "save_set",
    "schmidt_state",
    "simulate_counts",
    "solve_theta",
    "spiral_spectrum",
    "state_ceiling",
    "to_complex_vector",
    "uniform_spectrum",
    "verify_set",
]
