"""Positivity-preserving pathwise integration of singularly-drifted equations.

Solves x_{n+1} = x_n + f(t_{n+1}, x_{n+1}) dt + (phi(t_{n+1}) - phi(t_n)) by
making the drift implicit: combined with a nonincreasing-in-x drift the step
equation is strictly monotone, has a unique positive root whenever the drift
blows up at 0, and the scheme inherits the repulsion that keeps the continuum
solution positive.  Drifts of the form c(t)/x get a closed-form quadratic
step; everything else goes through Newton, started from b plus the previous
step's drift increment dt f.  A nonincreasing drift (the paper's first
assumption, audited by ``check_drift_assumptions``) gives the step function
F(x) = x - dt f(t, x) - b a slope F' >= 1, so its root is unique.  A drift
convex in x (the power family) also makes F concave, so Newton needs no
bracket: one step from any point lands at or left of the root, and from
there it climbs to the root monotonically.  A step that does not converge,
as for a drift that breaks the assumption, raises ``SolverError``.

``solve_batch`` checks the grid once, then runs one step loop per route over
the whole batch of paths.  Every row takes Newton's first iteration; from
the second on, rows that have converged are frozen, so a row's result does
not depend on the rows beside it.

Also houses the drift assumption checker, the square-root-diffusion change of
variables, and an a-posteriori residual for the integral equation.  The
square-root equation y' = k + sqrt(y) phi' needs no drift type of its own:
x = ``cir_transform(y)`` = 2 sqrt(y) solves x' = 2k/x + phi', which is
``reciprocal_drift(2k)`` with its closed-form step, and y = x^2/4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .paths import SamplePath, _check_uniform_grid

__all__ = [
    "DriftSpec",
    "AssumptionReport",
    "SolverError",
    "PositivityError",
    "reciprocal_drift",
    "power_drift",
    "bessel_drift",
    "scaled_drift",
    "check_drift_assumptions",
    "solve_pathwise",
    "solve_batch",
    "eval_along_path",
    "cumulative_along_path",
    "residual_defect",
    "cir_transform",
]


class SolverError(RuntimeError):
    pass


class PositivityError(SolverError):
    """A step left the positive half-line; only possible for non-repulsive drifts."""


@dataclass(frozen=True)
class DriftSpec:
    """A drift f(t, x) with its x-derivative and assumption envelopes.

    ``f`` and ``dfdx`` must accept a scalar time with a value array (one
    solver step across a batch) and a time array with a value array whose
    last axis runs along it (every grid point of a path or of a block of
    rows); each returns an array of the value shape or a scalar.  The
    envelopes witness the structural assumptions: ``lower_envelope`` g with
    f(t, x) >= g(t) x^{-singularity_exponent} near 0, ``upper_envelope`` h
    with f(t, x) <= h(t)(1 + 1/x).  ``inverse_coeff`` is set when
    f(t, x) = c(t)/x exactly, unlocking the closed-form implicit step.
    ``homogeneity`` = (p, q, n) encodes f(st, yx) = s^(p + q*H) y^n f(t, x).
    """

    family: str
    f: Callable
    dfdx: Callable
    singularity_exponent: float
    lower_envelope: Callable
    upper_envelope: Callable
    x1: float = 1.0
    inverse_coeff: Callable | None = None
    homogeneity: tuple[float, float, float] | None = None

    @property
    def positive_domain(self) -> bool:
        """A drift singular at 0 lives on x > 0; one with exponent 0 on the whole line."""
        return self.singularity_exponent > 0


_MAX_NEWTON_ITERS = 200
_NEWTON_TOL = 1e-10  # |x - dt f(t, x) - b| at which a Newton step stops
# |F| cannot fall much below eps (|x| + |b|): past |x| + |b| ~ 1e5 that sets the stop
_ROUNDING = 4.0 * np.finfo(np.float64).eps


def reciprocal_drift(k: float) -> DriftSpec:
    """f(t, x) = k / x with k > 0."""
    if k <= 0:
        raise ValueError("k must be positive")
    return DriftSpec(
        family="reciprocal",
        f=lambda t, x: k / x,
        dfdx=lambda t, x: -k / x**2,
        singularity_exponent=1.0,
        lower_envelope=lambda t: k,
        upper_envelope=lambda t: k,
        x1=np.inf,
        inverse_coeff=lambda t: k,
        homogeneity=(0.0, 0.0, -1.0),
    )


def power_drift(k: float, time_exponent: float, singularity_exponent: float) -> DriftSpec:
    """f(t, x) = k t^p x^{-q}, convex in x; satisfies the growth envelope only for q <= 1."""
    if k <= 0 or time_exponent < 0 or singularity_exponent <= 0:
        raise ValueError("need k > 0, time_exponent >= 0, singularity_exponent > 0")
    p, q = time_exponent, singularity_exponent
    return DriftSpec(
        family="power",
        f=lambda t, x: k * t**p * x**-q,
        dfdx=lambda t, x: -q * k * t**p * x ** (-q - 1.0),
        singularity_exponent=q,
        lower_envelope=lambda t: k * t**p,
        upper_envelope=lambda t: k * t**p,
        x1=1.0,
        inverse_coeff=(lambda t: k * t**p) if q == 1.0 else None,
        homogeneity=(p, 0.0, -q),
    )


def bessel_drift(dimension: int, hurst: float) -> DriftSpec:
    """The drift H(d-1) t^{2H-1} / x of the d-dimensional fractional radius's Itô–Skorohod equation.

    For H > 1/2 the solution driven by one fBm does not have the law of that
    radius: the radius's noise part is not an fBm (Hu & Nualart 2005).  Only
    at H = 1/2, which this family excludes, is the equation the Bessel one
    (``reciprocal_drift((d - 1) / 2)``), solved by the radius itself.
    """
    if dimension < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.5 < hurst < 1.0:
        raise ValueError("hurst must lie in (1/2, 1)")
    c = hurst * (dimension - 1)
    e = 2.0 * hurst - 1.0
    return DriftSpec(
        family="bessel",
        f=lambda t, x: c * t**e / x,
        dfdx=lambda t, x: -c * t**e / x**2,
        singularity_exponent=1.0,
        lower_envelope=lambda t: c * t**e,
        upper_envelope=lambda t: c * t**e,
        x1=np.inf,
        inverse_coeff=lambda t: c * t**e,
        # time degree 2H-1 recorded as (p, q) = (-1, 2) so p + q H is exact
        homogeneity=(-1.0, 2.0, -1.0),
    )


def scaled_drift(drift: DriftSpec, factor: float) -> DriftSpec:
    """The drift multiplied by a positive constant, envelopes included."""
    if factor <= 0:
        raise ValueError("factor must be positive")
    base_f, base_d = drift.f, drift.dfdx
    base_g, base_h = drift.lower_envelope, drift.upper_envelope
    base_c = drift.inverse_coeff
    return replace(
        drift,
        family=f"scaled({drift.family})",
        f=lambda t, x: factor * base_f(t, x),
        dfdx=lambda t, x: factor * base_d(t, x),
        lower_envelope=lambda t: factor * base_g(t),
        upper_envelope=lambda t: factor * base_h(t),
        inverse_coeff=(lambda t: factor * base_c(t)) if base_c is not None else None,
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Lattice audit of the three structural drift assumptions."""

    nonnegative_decreasing: bool  # f >= 0 and df/dx <= 0
    singular_repulsion: bool  # f >= g(t) x^{-alpha} near 0 and alpha large enough
    reciprocal_growth: bool  # f <= h(t)(1 + 1/x)
    details: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return self.nonnegative_decreasing and self.singular_repulsion and self.reciprocal_growth


_TOL = 1e-12


def _below(values: np.ndarray, floor) -> bool:
    """Some value lies below ``floor`` by more than the relative and absolute slack."""
    return bool(np.any(values < floor * (1.0 - 1e-9) - _TOL))


def _above(values: np.ndarray, cap) -> bool:
    """Some value lies above ``cap`` by more than the relative and absolute slack."""
    return bool(np.any(values > cap * (1.0 + 1e-9) + _TOL))


def _first_violation(ts: np.ndarray, tests: list) -> str | None:
    """Scan the lattice times in order and try each ``(bad, message)`` test at
    every t in order; the first test that holds gives ``"<message> at t=..."``.
    """
    for t in ts:
        for bad, message in tests:
            if bad(t):
                return f"{message} at t={t:.4g}"
    return None


def check_drift_assumptions(
    drift: DriftSpec,
    hurst: float,
    *,
    beta: float | None = None,
    horizon: float = 1.0,
) -> AssumptionReport:
    """Evaluate the structural assumptions on a (t, x) lattice; reports, never raises.

    The repulsion check also requires singularity_exponent > 1/beta - 1 for the
    configured Hölder exponent beta < hurst (midpoint of (1/2, hurst) when
    omitted).
    """
    if beta is None:
        beta = 0.5 * (0.5 + hurst)
    # 24 times in (0, horizon] and 48 values in [1e-4, 10]
    ts, xs = np.linspace(horizon / 24, horizon, 24), np.geomspace(1e-4, 10.0, 48)
    xs_small = xs[xs < drift.x1]
    alpha = drift.singularity_exponent
    g, h = drift.lower_envelope, drift.upper_envelope
    f = lambda t, x=xs: np.asarray(drift.f(t, x), dtype=np.float64)
    dfdx = lambda t: np.asarray(drift.dfdx(t, xs), dtype=np.float64)

    sign = _first_violation(
        ts,
        [
            (lambda t: _below(f(t), 0.0), "f(t, x) < 0"),
            (lambda t: _above(dfdx(t), 0.0), "df/dx > 0"),
        ],
    )
    if alpha > 1.0 / beta - 1.0:
        floor = lambda t: xs_small.size > 0 and _below(f(t, xs_small), g(t) * xs_small**-alpha)
        repulsion = _first_violation(
            ts,
            [(lambda t: g(t) <= 0, "lower envelope not positive"), (floor, "f below g(t) x^-alpha")],
        )
    else:
        repulsion = (
            f"singularity exponent {alpha} <= 1/beta - 1 = {1.0 / beta - 1.0:.4g} (beta={beta})"
        )
    growth = _first_violation(
        ts, [(lambda t: _above(f(t), h(t) * (1.0 + 1.0 / xs)), "f above h(t)(1 + 1/x)")]
    )
    found = (sign, repulsion, growth)
    return AssumptionReport(*(v is None for v in found), tuple(v for v in found if v is not None))


def solve_batch(x0, drift: DriftSpec, driver_values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Drift-implicit Euler for a batch of paths sharing one uniform grid.

    ``driver_values`` is (n_paths, n_steps + 1); ``x0`` is a scalar or a
    per-path vector.  A grid that is not uniform, or has fewer than two
    points, raises ``ValueError``.  Per-path results are independent of the
    batch composition: each path's Newton iteration freezes at its own
    convergence.  On the positive domain a value <= 0 raises
    ``PositivityError`` naming the first step that produced it: Newton
    checks after every step, the closed-form route once over the solved
    block.
    """
    drivers = np.atleast_2d(np.asarray(driver_values, dtype=np.float64))
    times = np.asarray(times, dtype=np.float64)
    n_paths, n_pts = drivers.shape
    if n_pts != times.size:
        raise ValueError("driver and grid sizes differ")
    _check_uniform_grid(times)
    dt = float(times[1] - times[0])
    x0_vec = np.broadcast_to(np.asarray(x0, dtype=np.float64), (n_paths,)).copy()
    positive = drift.positive_domain
    if positive and np.any(x0_vec <= 0):
        raise ValueError("initial values must be strictly positive")

    out = np.empty((n_paths, n_pts))
    out[:, 0] = x0_vec
    steps = enumerate(times[1:].tolist(), start=1)
    if drift.inverse_coeff is None:
        _newton_steps(out, x0_vec, drivers, steps, dt, drift.f, drift.dfdx, positive)
    else:
        _closed_form_steps(out, x0_vec, drivers, steps, dt, drift.inverse_coeff, positive)
    return out


def _closed_form_steps(out, x, drivers, steps, dt, coeff, positive) -> None:
    """Fill ``out[:, 1:]`` from ``x`` = x_0 with the root of x - dt c(t)/x = b each step.

    The root is (b + sqrt(b^2 + 4 dt c)) / 2.  The step never divides by x,
    so one check over the solved columns names the first nonpositive step,
    even when a later step raised first.
    """
    filled = 1  # columns of ``out`` written so far
    try:
        for k, t in steps:
            b = x + (drivers[:, k] - drivers[:, k - 1])
            c = coeff(t)
            if c < 0:
                raise SolverError(f"inverse coefficient negative at t={t}")
            x = 0.5 * (b + np.sqrt(b * b + 4.0 * dt * c))
            out[:, k] = x
            filled = k + 1
    finally:
        if positive:
            bad = (out[:, 1:filled] <= 0).any(axis=0)
            if bad.any():
                raise PositivityError(f"nonpositive value after step {int(bad.argmax()) + 1}") from None


def _newton_steps(out, x, drivers, steps, dt, f, dfdx, positive) -> None:
    """Fill ``out[:, 1:]`` from ``x`` = x_0, solving F(x) = x - dt f(t, x) - b = 0 each step.

    Newton starts from ``b`` plus the previous step's dt f (0 on the first
    step), at least x_prev / 2 on the positive domain.  A convex drift makes
    F concave and increasing, so on the positive domain a candidate needs
    only the clamp ``>= x / 2`` to stay positive: a clamped point has either
    F > 0 (step again) or F <= 0 (climb to the root).  Every row takes the
    first iteration; from the second on, a row whose |F| is within tolerance
    (a NaN residual never is) is frozen.  On converging a row takes one last
    step -F/F' with the slope it holds, where F' >= 1: that step moves it by
    at most the tolerance and is clamped at x / 2 like every candidate, so a
    root below the tolerance stays positive.
    """
    asarray, maximum, copyto, count = np.asarray, np.maximum, np.copyto, np.count_nonzero
    n_paths = x.size
    increment = 0.0  # the last step's dt f(t, x)
    for k, t in steps:
        b = x + (drivers[:, k] - drivers[:, k - 1])
        start = b + increment
        x = maximum(start, 0.5 * x) if positive else start
        res = x - dt * asarray(f(t, x), dtype=np.float64) - b
        tol = maximum(_NEWTON_TOL, _ROUNDING * (np.abs(x) + np.abs(b)))
        # the first iteration, taken by every row
        slope = 1.0 - dt * asarray(dfdx(t, x), dtype=np.float64)
        cand = x - res / slope
        x = maximum(cand, 0.5 * x) if positive else cand
        res = x - dt * asarray(f(t, x), dtype=np.float64) - b
        done = np.abs(res) <= tol
        cand = x - res / slope
        copyto(x, maximum(cand, 0.5 * x) if positive else cand, where=done & (slope >= 1.0))
        for _ in range(_MAX_NEWTON_ITERS - 1):
            if count(done) == n_paths:
                break
            live = ~done
            slope = 1.0 - dt * asarray(dfdx(t, x), dtype=np.float64)
            cand = x - res / slope
            copyto(x, maximum(cand, 0.5 * x) if positive else cand, where=live)
            res = x - dt * asarray(f(t, x), dtype=np.float64) - b
            new = (np.abs(res) <= tol) & live
            cand = x - res / slope
            copyto(x, maximum(cand, 0.5 * x) if positive else cand, where=new & (slope >= 1.0))
            done |= new
        else:
            if count(done) < n_paths:
                raise SolverError(
                    f"implicit step did not converge at t={t}; max residual {np.max(np.abs(res)):.3e}"
                )
        increment = x - b
        # a nonpositive iterate would be fed to f on the next step
        if positive and count(x <= 0):
            raise PositivityError(f"nonpositive value after step {k}")
        out[:, k] = x


def solve_pathwise(x0: float, drift: DriftSpec, driver: SamplePath) -> SamplePath:
    """Solve one path of x' = f(t, x) + phi'; strictly positive for repulsive drifts."""
    values = solve_batch(x0, drift, driver.values[None, :], driver.times)[0]
    return SamplePath(driver.times, values, holder_hint=driver.holder_hint)


def eval_along_path(fn: Callable, times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """fn(t_i, x_i) along a path or a block of rows, for a drift callable ``f`` or ``dfdx``.

    ``fn`` is called once with the whole time and value arrays; a scalar
    result is broadcast, any other shape than ``values.shape`` raises
    ``ValueError``.
    """
    out = np.asarray(fn(times, values), dtype=np.float64)
    if out.ndim == 0:
        out = np.full(values.shape, float(out))
    elif out.shape != values.shape:
        raise ValueError(
            f"drift callable returned shape {out.shape} along a path of shape {values.shape}"
        )
    return out


def cumulative_along_path(fn: Callable, times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Trapezoidal cumulative integral of fn(s, x_s) from 0 to each grid time, along the last axis."""
    v = eval_along_path(fn, times, values)
    out = np.zeros(v.shape)
    np.cumsum(0.5 * (v[..., 1:] + v[..., :-1]) * (times[1] - times[0]), axis=-1, out=out[..., 1:])
    return out


def residual_defect(
    solutions: np.ndarray, drift: DriftSpec, drivers: np.ndarray, times: np.ndarray
) -> np.ndarray:
    """Per row, the max over the grid of |x_t - x_0 - trapz(f(s, x_s)) - (phi_t - phi_0)|.

    A-posteriori check that each row of ``solutions`` satisfies the integral
    equation driven by the same row of ``drivers``, up to quadrature error.
    """
    if solutions.shape != drivers.shape or solutions.shape[-1] != times.size:
        raise ValueError("solutions, drivers and times must share one grid")
    drift_integral = cumulative_along_path(drift.f, times, solutions)
    defect = solutions - solutions[..., :1] - drift_integral - (drivers - drivers[..., :1])
    return np.max(np.abs(defect), axis=-1)


def cir_transform(y: float) -> float:
    """Square-root change of variables y -> 2 sqrt(y); its inverse is x -> x^2/4."""
    if y < 0:
        raise ValueError("y must be nonnegative")
    return 2.0 * np.sqrt(y)


def cir_drift_transform(k: float) -> DriftSpec:
    """Drift 2k/x of x = 2 sqrt(y) when y' = k + sqrt(y) phi': ``reciprocal_drift(2k)``.

    No experiment calls it; the tracer in ``perfbench/child.py`` looks it up
    by name and wraps it, so the name stays until that list drops it.
    """
    return reciprocal_drift(2.0 * k)
