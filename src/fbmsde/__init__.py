"""Simulation and verification lab for singular equations driven by long-memory noise."""

from .paths import GridError, SamplePath, StepFunction
from .fbm import (
    FbmSamplingError,
    FbmSpec,
    embed_direction,
    grid_inner_product,
    hurst_covariance,
    inner_product,
    sample_fbm,
    sample_fbm_batch,
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
    DriftSpec,
    PositivityError,
    SolverError,
    bessel_drift,
    check_drift_assumptions,
    cir_transform,
    power_drift,
    reciprocal_drift,
    residual_defect,
    scaled_drift,
    solve_batch,
    solve_pathwise,
)
from .verify import (
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
    pair_units,
    scaling_spec,
    scaling_transform,
    simulate_paths,
    window_length,
)
from .malliavin import (
    DerivativeReport,
    derivative_report,
    kernel_profile,
)

__version__ = "0.1.0"
