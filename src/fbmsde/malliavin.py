"""Computable derivative-of-the-solution objects and their finite-difference check.

For an additively-forced equation with nonincreasing-in-x drift, the
derivative of X_t with respect to a noise perturbation has the explicit
kernel exp(integral_s^t df/dx(r, X_r) dr) on [0, t], a number in (0, 1].
This module evaluates that kernel along a computed path, its squared norm
under the singular-kernel inner product (strictly positive: the computable
content of the absolute-continuity criterion), the analytic directional
derivative against step-function directions, and the finite-difference
counterpart obtained by re-solving perturbed equations and extrapolating the
difference quotients to zero.

``derivative_report`` checks a whole batch of drivers at once: the direction
is embedded once, and every driver's base row and perturbed rows are stacked
into a single ``solve_batch`` call.  Solver rows do not depend on the batch
they are solved in, so each report equals the one a single-driver call gives.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fbm import embed_direction, grid_inner_product, inner_product
from .paths import SamplePath, StepFunction
from .solver import DriftSpec, cumulative_along_path, solve_batch

__all__ = [
    "DerivativeReport",
    "ExtrapolationWarning",
    "kernel_profile",
    "derivative_report",
]


# a report passes when analytic and extrapolated values differ by at most
# max(_ABS_TOL, _REL_TOL * |analytic|)
_ABS_TOL, _REL_TOL = 1e-3, 1e-2


class ExtrapolationWarning(UserWarning):
    """Difference quotients did not look first-order; smallest step reported."""


@dataclass(frozen=True)
class DerivativeReport:
    """Analytic vs finite-difference directional derivative at one time."""

    t: float
    analytic_value: float
    fd_values: tuple[tuple[float, float], ...]
    extrapolated_fd: float
    norm_sq: float
    passed: bool


def kernel_profile(solution: SamplePath, drift: DriftSpec, t: float) -> np.ndarray:
    """exp(integral_{s_i}^t df/dx(r, X_r) dr) for every grid point s_i <= t; each lies in (0, 1]."""
    j = solution.index_of(t)
    cum = cumulative_along_path(drift.dfdx, solution)
    return np.exp(cum[j] - cum[: j + 1])


def _kernel_step(solution: SamplePath, drift: DriftSpec, t: float) -> StepFunction:
    # cell averages of the kernel profile on [0, t]: a step function the
    # rectangle weights integrate exactly
    prof = kernel_profile(solution, drift, t)
    return StepFunction(solution.times[: prof.size], 0.5 * (prof[1:] + prof[:-1]))


def _perturbed_solve(
    x0: float,
    drift: DriftSpec,
    drivers: np.ndarray,
    times: np.ndarray,
    t: float,
    phi: StepFunction,
    hurst: float,
    eps_list,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve every driver row and its perturbations d + e h in one batch.

    Rows are stacked per driver as [d, d + e_1 h, ..., d + e_E h] with the
    eps values in decreasing order.  Returns the eps values, the base
    solutions (n_paths, n_steps + 1) and the difference quotients
    (X^eps_t - X_t)/eps, shaped (n_paths, E).
    """
    eps_arr = np.asarray(sorted(eps_list, reverse=True), dtype=np.float64)
    if eps_arr.size < 1 or np.any(eps_arr <= 0):
        raise ValueError("eps_list must contain positive values")
    if drivers.ndim != 2:
        raise ValueError("drivers must be a 2-d array (n_paths, n_steps + 1)")
    h = embed_direction(phi, hurst, times)
    j = h.index_of(t)
    n_paths, n_pts = drivers.shape
    rows = np.empty((n_paths, 1 + eps_arr.size, n_pts))
    rows[:, 0] = drivers
    rows[:, 1:] = drivers[:, None, :] + eps_arr[:, None] * h.values
    sols = solve_batch(x0, drift, rows.reshape(-1, n_pts), times)
    sols = sols.reshape(rows.shape)
    quotients = (sols[:, 1:, j] - sols[:, :1, j]) / eps_arr
    return eps_arr, sols[:, 0], quotients


def _extrapolate(
    eps_arr: np.ndarray, quotients: np.ndarray
) -> tuple[tuple[tuple[float, float], ...], float]:
    """Richardson limit at eps -> 0 of one path's quotients, eps decreasing.

    Assumes a first-order expansion in eps; when the quotients do not shrink
    consistently with that, the smallest-eps quotient is returned with an
    ``ExtrapolationWarning`` attributed to the caller of the public function.
    """
    fd_values = tuple((float(e), float(q)) for e, q in zip(eps_arr, quotients))
    if eps_arr.size == 1:
        return fd_values, float(quotients[0])
    diffs = np.diff(quotients)
    scale = max(1.0, float(np.max(np.abs(quotients))))
    if np.all(np.abs(diffs) <= 1e-12 * scale):
        # exactly linear response (zero-drift case): any quotient is the limit
        return fd_values, float(quotients[-1])
    if eps_arr.size >= 3:
        expected = (eps_arr[0] - eps_arr[1]) / (eps_arr[1] - eps_arr[2])
        observed = diffs[0] / diffs[1] if diffs[1] != 0 else np.inf
        if not 0.4 * expected <= observed <= 2.5 * expected:
            warnings.warn(
                f"difference quotients not first-order (ratio {observed:.3g}, "
                f"expected {expected:.3g}); reporting the smallest-step value",
                ExtrapolationWarning,
                stacklevel=3,
            )
            return fd_values, float(quotients[-1])
    e1, e2 = eps_arr[-2], eps_arr[-1]
    q1, q2 = quotients[-2], quotients[-1]
    extrapolated = q2 + e2 * (q2 - q1) / (e1 - e2)
    return fd_values, float(extrapolated)


def derivative_report(
    x0: float,
    drift: DriftSpec,
    drivers: np.ndarray,
    times: np.ndarray,
    t: float,
    phi: StepFunction,
    hurst: float,
    eps_list=(0.1, 0.05, 0.025),
) -> list[DerivativeReport]:
    """Full check per driver row: analytic vs extrapolated finite difference, plus the norm.

    ``drivers`` is (n_paths, n_steps + 1) on the grid ``times``; one report per
    row, from one batched solve and one kernel evaluation per path.  A report
    passes when |analytic - extrapolated| <= max(1e-3, 1e-2 * |analytic|).
    """
    eps_arr, base, quotients = _perturbed_solve(
        x0, drift, np.asarray(drivers, dtype=np.float64), times, t, phi, hurst, eps_list
    )
    reports = []
    for values, path_quotients in zip(base, quotients):
        solution = SamplePath(times, values, holder_hint=hurst)
        step = _kernel_step(solution, drift, t)
        analytic = inner_product(phi, step, hurst)
        fd_values, extrapolated = _extrapolate(eps_arr, path_quotients)
        norm_sq = grid_inner_product(step.levels, step.levels, solution.dt, hurst)
        passed = abs(analytic - extrapolated) <= max(_ABS_TOL, _REL_TOL * abs(analytic))
        reports.append(DerivativeReport(t, analytic, fd_values, extrapolated, norm_sq, passed))
    return reports
