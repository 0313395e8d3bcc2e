"""Simulation and verification lab for singular equations driven by long-memory noise."""

from .paths import GridError, SamplePath, StepFunction
from .fbm import (
    FbmSamplingError,
    FbmSpec,
    embed_direction,
    grid_inner_product,
    hurst_covariance,
    inner_product,
    kernel_coeff,
    sample_fbm,
    sample_fbm_batch,
    volterra_kernel,
)
from .fraccalc import (
    default_ibp_order,
    frac_deriv_left,
    frac_deriv_right,
    holder_seminorm,
    sup_norm,
    young_integral,
)
from .solver import (
    CirDriftSpec,
    DriftSpec,
    PositivityError,
    SolverError,
    bessel_drift,
    check_cir_conditions,
    check_drift_assumptions,
    cir_drift_transform,
    cir_transform,
    custom_drift,
    power_drift,
    reciprocal_drift,
    residual_defect,
    scaled_drift,
    solve_batch,
    solve_cir,
    solve_pathwise,
    zero_drift,
)
from .verify import (
    BoundConstants,
    HomogeneityError,
    MomentReport,
    ScalingSpec,
    check_negative_moments,
    check_path_bound,
    empirical_moment_stability,
    ibp_constant,
    ks_critical_value,
    ks_statistic,
    log_supnorm_bound,
    negative_moment_threshold,
    scaling_spec,
    scaling_transform,
    simulate_paths,
    window_length,
)
from .malliavin import (
    DerivativeReport,
    derivative_norm_sq,
    derivative_report,
    directional_derivative_analytic,
    directional_derivative_fd,
    kernel_profile,
    malliavin_kernel,
)

__version__ = "0.1.0"
