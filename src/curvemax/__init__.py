"""Numerical toolkit for maximal averages along the moment curve.

The package is organized around an anisotropic homogeneous norm whose
dilations match the curve (t, t^2, ..., t^d).  On top of it sit oscillatory
integral quadrature, Fourier transforms of the curve measures, a heavy-tailed
convolution semigroup with an exact sampler, square-function profiles with
certified tails, grid maximal operators, and a command-line harness that
reruns every experiment from a master seed.
"""

from .curve_measure import (
    CurveCoeffs,
    DyadicWindow,
    gamma_reduce,
    mu_hat,
    sigma_decay_envelope,
    sigma_hat,
    sigma_hat_dyadic,
    sigma_hat_upper_bound,
    top_index,
)
from .grid import GridFunction, from_callable
from .maxop import (
    ComparisonReport,
    PoissonMax,
    continuous_max,
    curve_average,
    dyadic_max,
    operator_norm_probe,
    poisson_max,
    sandwich_check,
    shell_average,
    split_check,
)
from .multiplier import (
    GrowthRow,
    GrowthTable,
    InductionDiagnostics,
    MultiplierProfile,
    g_profile,
    induction_diagnostics,
    log_growth_experiment,
    nu_hat,
    sup_search,
)
from .norms import (
    MAX_DIMENSION,
    BallVolume,
    ParabolicSpace,
    PolarPoint,
    ball_volume,
    dilate,
    make_space,
    polar_decompose,
    polar_integration_check,
    quasi_triangle_ratio,
    rho,
)
from .oscillatory import (
    BoundReport,
    PhasePoly,
    QuadratureError,
    osc_integral,
    sublevel_measure,
    vdc_bound_check,
    vinogradov_check,
)
from .stable_poisson import (
    density_1d_check,
    gram_psd_check,
    negative_type_check,
    poisson_hat,
    sample_kernel_batch,
    sample_positive_stable,
    sample_symmetric_stable,
    semigroup_check,
    stable_density_1d,
    subordination_identity_check,
)

__version__ = "0.1.0"

__all__ = [
    "BallVolume",
    "BoundReport",
    "ComparisonReport",
    "CurveCoeffs",
    "DyadicWindow",
    "GridFunction",
    "GrowthRow",
    "GrowthTable",
    "InductionDiagnostics",
    "MAX_DIMENSION",
    "MultiplierProfile",
    "ParabolicSpace",
    "PhasePoly",
    "PoissonMax",
    "PolarPoint",
    "QuadratureError",
    "ball_volume",
    "continuous_max",
    "curve_average",
    "density_1d_check",
    "dilate",
    "dyadic_max",
    "from_callable",
    "g_profile",
    "gamma_reduce",
    "gram_psd_check",
    "induction_diagnostics",
    "log_growth_experiment",
    "make_space",
    "mu_hat",
    "negative_type_check",
    "nu_hat",
    "operator_norm_probe",
    "osc_integral",
    "poisson_hat",
    "poisson_max",
    "polar_decompose",
    "polar_integration_check",
    "quasi_triangle_ratio",
    "rho",
    "sample_kernel_batch",
    "sample_positive_stable",
    "sample_symmetric_stable",
    "sandwich_check",
    "semigroup_check",
    "shell_average",
    "sigma_decay_envelope",
    "sigma_hat",
    "sigma_hat_dyadic",
    "sigma_hat_upper_bound",
    "split_check",
    "stable_density_1d",
    "subordination_identity_check",
    "sublevel_measure",
    "sup_search",
    "top_index",
    "vdc_bound_check",
    "vinogradov_check",
]
