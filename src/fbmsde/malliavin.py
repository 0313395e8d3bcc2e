"""Computable derivative-of-the-solution objects and their finite-difference check.

For an additively-forced equation with nonincreasing-in-x drift, the
derivative of X_t with respect to a noise perturbation has the explicit
kernel exp(integral_s^t df/dx(r, X_r) dr) on [0, t], a number in (0, 1].
``derivative_report`` evaluates that kernel over a block of computed paths,
its squared norm under the singular-kernel inner product (strictly positive:
the computable content of the absolute-continuity criterion), the analytic
directional derivative against a step-function direction phi, and the
finite-difference counterpart obtained by re-solving perturbed equations and
extrapolating the difference quotients to zero.

The direction is embedded once as h(t) = <phi, 1_[0,t]>, which also pairs it
with the kernel's cells: <phi, 1_[t_i, t_{i+1})> = h(t_{i+1}) - h(t_i).  All
rows are solved in one ``solve_batch`` call and reduced as one block: the
kernel norms of every row come from one FFT quadratic form over the block,
weighted by the sampler's circulant eigenvalues.  No reduction mixes rows,
so each row of the report equals the one a single-driver call gives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# inner_product is not called here; perfbench's tracer wraps it under this name
from .fbm import embed_direction, grid_inner_product, inner_product  # noqa: F401
from .paths import GridError, StepFunction
from .solver import DriftSpec, cumulative_along_path, solve_batch

__all__ = [
    "DerivativeReport",
    "ExtrapolationWarning",
    "derivative_report",
]


# a row's finite-difference tolerance: max(FD_ABS_TOL, FD_REL_TOL * |analytic|)
FD_ABS_TOL, FD_REL_TOL = 1e-3, 1e-2


class ExtrapolationWarning(UserWarning):
    """Difference quotients did not look first-order; smallest step reported."""


@dataclass(frozen=True, eq=False)
class DerivativeReport:
    """Analytic vs finite-difference directional derivative at ``t``, one entry per driver row.

    ``quotients[i, e]`` is row i's (X^eps_t - X_t)/eps at ``eps[e]``, eps decreasing.
    """

    eps: np.ndarray
    quotients: np.ndarray
    analytic: np.ndarray
    extrapolated: np.ndarray
    norm_sq: np.ndarray

    @property
    def error_ratio(self) -> np.ndarray:
        """Per row: |analytic - extrapolated| over its tolerance; the row is within it at <= 1."""
        tolerance = np.maximum(FD_ABS_TOL, FD_REL_TOL * np.abs(self.analytic))
        return np.abs(self.analytic - self.extrapolated) / tolerance


def derivative_report(
    x0: float,
    drift: DriftSpec,
    drivers: np.ndarray,
    times: np.ndarray,
    t: float,
    phi: StepFunction,
    hurst: float,
    eps_list=(0.1, 0.05, 0.025),
) -> DerivativeReport:
    """Analytic vs extrapolated finite-difference derivative, plus the norm, per driver row.

    ``drivers`` is (n_paths, n_steps + 1) on the grid ``times``.  Rows whose
    quotients are not first order in eps report their smallest-eps quotient,
    under one ``ExtrapolationWarning`` per call.  ``t`` must be a grid time of
    at least one step, or ``GridError`` is raised before any solve.
    """
    eps = np.asarray(sorted(eps_list, reverse=True), dtype=np.float64)
    if eps.size < 1 or np.any(eps <= 0) or np.any(np.diff(eps) == 0):
        raise ValueError(f"eps_list must hold distinct positive values, got {list(eps_list)}")
    drivers = np.asarray(drivers, dtype=np.float64)
    if drivers.ndim != 2:
        raise ValueError("drivers must be a 2-d array (n_paths, n_steps + 1)")
    h = embed_direction(phi, hurst, times)
    j = h.index_of(t)
    if j == 0:  # the kernel on [0, t] would have no cell
        raise GridError(f"t={t} must be at least one grid step dt={h.dt}")
    # rows [d, d + e_1 h, ..., d + e_E h] per driver, in one solve
    n_paths, n_pts = drivers.shape
    rows = np.empty((n_paths, 1 + eps.size, n_pts))
    rows[:, 0] = drivers
    rows[:, 1:] = drivers[:, None, :] + eps[:, None] * h.values
    sols = solve_batch(x0, drift, rows.reshape(-1, n_pts), times).T
    sols = sols.reshape(n_pts, n_paths, 1 + eps.size)  # the solve's time-major buffer, no copy
    quotients = (sols[j, :, 1:] - sols[j, :, :1]) / eps
    base = sols[: j + 1, :, 0].T.copy()
    del rows, sols  # freed before the kernel block is built

    cum = cumulative_along_path(drift.dfdx, h.times[: j + 1], base)
    profile = np.exp(cum[:, -1:] - cum)
    levels = 0.5 * (profile[:, 1:] + profile[:, :-1])  # kernel cell averages on [0, t]
    # a sum per row, not a matrix product, which BLAS may round differently per block
    analytic = (levels * np.diff(h.values[: j + 1])).sum(axis=1)
    # Richardson limit at eps -> 0, assuming a first-order expansion in eps.  A
    # row whose quotients agree to roundoff (a linear response), or do not
    # shrink as first order predicts (``off``), keeps its smallest-eps quotient.
    extrapolated, off = quotients[:, -1].copy(), np.zeros(n_paths, dtype=bool)
    if eps.size > 1:
        diffs = np.diff(quotients, axis=1)
        scale = np.maximum(1.0, np.max(np.abs(quotients), axis=1))
        linear = np.all(np.abs(diffs) <= 1e-12 * scale[:, None], axis=1)
        if eps.size >= 3:
            expected = (eps[0] - eps[1]) / (eps[1] - eps[2])
            d0, d1 = diffs[:, 0], diffs[:, 1]
            observed = np.divide(d0, d1, out=np.full(n_paths, np.inf), where=d1 != 0)
            off = ~linear & ~((0.4 * expected <= observed) & (observed <= 2.5 * expected))
        r = ~(linear | off)
        extrapolated[r] += eps[-1] * (extrapolated[r] - quotients[r, -2]) / (eps[-2] - eps[-1])
    if off.any():
        warnings.warn(
            f"difference quotients not first-order on {int(off.sum())} of {n_paths} rows; "
            "reporting their smallest-step values",
            ExtrapolationWarning,
            stacklevel=2,
        )
    norm_sq = grid_inner_product(levels, levels, h.dt, hurst)
    return DerivativeReport(eps, quotients, analytic, extrapolated, norm_sq)
