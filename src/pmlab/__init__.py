"""Numerical laboratory for Pomeau-Manneville interval maps.

Transfer operators, invariant densities, invariant-cone diagnostics, and
the linear response of the absolutely continuous invariant measure to the
map parameter, cross-validated against finite-difference, Ulam, and Monte
Carlo oracles.
"""

from .maps import (
    MapParams,
    forward,
    forward_deriv,
    branch_inverse,
    X,
    X_prime,
    X_double_prime,
    dalpha_X,
    dalpha_X_prime,
)
from .grid import (
    Mesh,
    GridFunction,
    build_mesh,
    integrate,
    integrate_to,
    differentiate,
    evaluate,
    l1_norm,
)
from .transfer import (
    ConvergenceError,
    DensityRecord,
    UlamOperator,
    Jet,
    apply_L,
    apply_N,
    apply_M,
    apply_d2L,
    apply_preimage_sum,
    seven_term_decomposition,
    compute_density,
    build_ulam,
    ulam_stationary,
    ulam_mean,
    jet_one,
    jet_apply,
)
from .cones import (
    ConeParams,
    ConeReport,
    check_C2,
    check_Cstar,
    check_Cstar1,
    check_C3,
    omega_factors,
    omega_bar_factors,
    default_cone_params,
    invariance_experiment,
)
from .response import (
    Observable,
    ResponseResult,
    ResponseDivergenceError,
    parse_observable,
    response_source,
    response_series,
    response_series_forward,
    susceptibility,
    finite_difference_response,
    observable_mean,
)
from .asymptotics import (
    OrbitStats,
    CorrelationCurve,
    neutral_orbit,
    contraction_factor,
    correlation_decay,
    birkhoff_average,
)

__version__ = "0.1.0"
