"""Positivity-preserving pathwise integration of singularly-drifted equations.

Solves x_{n+1} = x_n + f(t_{n+1}, x_{n+1}) dt + (phi(t_{n+1}) - phi(t_n)) by
making the drift implicit: combined with a nonincreasing-in-x drift the step
equation is strictly monotone, has a unique positive root whenever the drift
blows up at 0, and the scheme inherits the repulsion that keeps the continuum
solution positive.  Drifts of the form c(t)/x get a closed-form quadratic
step; everything else goes through Newton.  A nonincreasing drift (the
paper's first assumption, audited by ``check_drift_assumptions``) gives the
step function F(x) = x - dt f(t, x) - b a slope F' >= 1, so its root is
unique.  A drift convex in x (the power family) also makes F concave, so
Newton needs no bracket: one step from any point lands at or left of the
root, and from there it climbs to the root monotonically.

Newton solves ``_WINDOW`` = 32 steps at a time.  The residuals of a window's
steps have a lower bidiagonal Jacobian, 1 - dt f' >= 1 on the diagonal and
-1 below it, so one Newton sweep over the window is an affine recurrence in
time, which a doubling scan solves in log2 32 = 5 vectorised passes
(Blelloch, CMU-CS-90-190, 1990; Lim, Zhu, Selfridge & Kasim, ICLR 2024).  A
sweep starts from the previous step's drift increment dt f per step and
clamps every candidate at x / 2 on the positive domain.  A row stops when
every step of its window meets |F| <= max(1e-10, 4 eps (|x| + |b|)), takes
one last sweep and is frozen, so a row's result does not depend on the rows
beside it.  A row still unconverged after ``_MAX_SWEEPS`` sweeps, or left
at a value <= 0, is solved again over that window by the step-by-step
Newton loop, which raises ``SolverError`` for a step that does not
converge, as for a drift that breaks the assumption.

``solve_batch`` checks the grid once, then runs one loop per route over the
whole batch of paths.  It works in one time-major buffer, a contiguous row
per grid time, that first holds the driver increments; each closed-form step
or Newton window turns its rows into the solution in place.  The result of
shape (n_paths, n_points) is that buffer's transpose: a row per path, with
contiguous columns.

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

from .paths import _check_uniform_grid

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
    "solve_batch",
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
_WINDOW = 32  # steps per Newton window; fixed, so no row's bits depend on its batch
_MAX_SWEEPS = 16  # window sweeps before a row falls back to the per-step loop
_CHUNK = 1024  # rows swept together: wider blocks would only grow the window scratch
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
    if k <= 0:
        raise ValueError("k must be positive")
    if time_exponent < 0:
        raise ValueError("time_exponent must be nonnegative")
    if singularity_exponent <= 0:
        raise ValueError("singularity_exponent must be positive")
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

    ``driver_values`` is (n_paths, n_steps + 1) in any memory layout; ``x0``
    is a scalar or a per-path vector.  The result has the same shape, a row
    per path, and is the transpose of the time-major buffer the steps fill:
    its columns, one per grid time, are contiguous.  A grid that is not
    uniform, or has fewer than two points, raises ``ValueError``.  Per-path
    results are independent of the batch composition: Newton solves fixed
    windows of ``_WINDOW`` steps, and each path's sweeps freeze at its own
    convergence.  On the positive domain a value <= 0 raises
    ``PositivityError`` naming the first step that produced it: Newton's
    step loop checks after every step of a window it solves again, the
    closed-form route once over the solved block.
    """
    drivers = np.atleast_2d(np.asarray(driver_values, dtype=np.float64))
    times = np.asarray(times, dtype=np.float64)
    n_paths, n_pts = drivers.shape
    if n_pts != times.size:
        raise ValueError("driver and grid sizes differ")
    _check_uniform_grid(times)
    dt = float(times[1] - times[0])
    x0_vec = np.broadcast_to(np.asarray(x0, dtype=np.float64), (n_paths,))
    positive = drift.positive_domain
    if positive and np.any(x0_vec <= 0):
        raise ValueError("initial values must be strictly positive")

    # time-major: row k holds the driver increment into step k until the step
    # overwrites it with x_k
    sol = np.empty((n_pts, n_paths))
    np.subtract(drivers[:, 1:].T, drivers[:, :-1].T, out=sol[1:])
    sol[0] = x0_vec
    if drift.inverse_coeff is None:
        _newton_windows(sol, drivers, times, dt, drift.f, drift.dfdx, positive)
    else:
        steps = enumerate(times[1:].tolist(), start=1)
        _closed_form_steps(sol, drivers, steps, dt, drift.inverse_coeff, positive)
    return sol.T


def _closed_form_steps(sol, drivers, steps, dt, coeff, positive) -> None:
    """Turn each increment row ``sol[k]`` into x_k, the root of x - dt c(t)/x = b.

    b = x_{k-1} + increment, and the root is (b + sqrt(b^2 + 4 dt c)) / 2,
    computed in place in the row with one scratch vector.  That form cancels
    when b < 0, which ``_resolve_small_roots`` mends after the loop, path by
    path.  The step never divides by x, so one check over the solved rows
    names the first nonpositive step, even when a later step raised first.
    """
    add, multiply, sqrt = np.add, np.multiply, np.sqrt
    x = sol[0]
    scratch = np.empty_like(x)
    coeffs = []  # c(t_k) of each solved step k = 1, 2, ...
    try:
        for k, t in steps:
            b = add(x, sol[k], out=sol[k])
            c = coeff(t)
            if c < 0:
                raise SolverError(f"inverse coefficient negative at t={t}")
            multiply(b, b, out=scratch)
            add(scratch, 4.0 * dt * c, out=scratch)
            sqrt(scratch, out=scratch)
            add(b, scratch, out=b)
            x = multiply(0.5, b, out=b)
            coeffs.append(c)
    finally:
        if positive:
            _resolve_small_roots(sol, drivers, dt, coeffs)


def _resolve_small_roots(sol, drivers, dt, coeffs) -> None:
    """Re-solve each path that had a step with b <= 0 without cancellation, then check positivity.

    The root satisfies x^2 = b x + dt c, so x_k^2 <= dt c_k flags every
    solved step with b_k <= 0, and x_k = 0 too.  The scan tests it as
    x_k <= sqrt(dt c_k), the same on x >= 0, which needs no temporary but the
    flags.  When b < 0 and b^2 swamps 4 dt c, (b + sqrt(b^2 + 4 dt c)) / 2
    rounds towards 0, while the same root as 2 dt c / (sqrt(b^2 + 4 dt c) - b)
    keeps its digits.  A flagged path is solved again from x0 on its own
    increments, by that form where b < 0 and by the loop's form, bit for bit,
    elsewhere.  A value <= 0 left after that raises ``PositivityError`` naming
    its step; no unflagged path holds one.
    """
    n = len(coeffs)
    solved = sol[1 : n + 1]
    flagged = (solved <= np.sqrt(dt * np.array(coeffs))[:, None]).any(axis=0)
    if not flagged.any():
        return
    paths = np.flatnonzero(flagged)
    increments = drivers[paths, 1 : n + 1] - drivers[paths, :n]
    x = sol[0, paths]
    for k, c in enumerate(coeffs, start=1):
        b = x + increments[:, k - 1]
        root = np.sqrt(b * b + 4.0 * dt * c)
        neg = b < 0
        x = np.empty_like(b)
        x[~neg] = 0.5 * (b[~neg] + root[~neg])
        x[neg] = 2.0 * dt * c / (root[neg] - b[neg])
        sol[k, paths] = x
    bad = (solved[:, paths] <= 0).any(axis=1)
    if bad.any():
        raise PositivityError(f"nonpositive value after step {int(bad.argmax()) + 1}") from None


def _newton_windows(sol, drivers, times, dt, f, dfdx, positive) -> None:
    """Turn the increment rows of ``sol`` into x_1 ... x_n by Newton, ``_WINDOW`` steps at a time.

    In the window of steps k0+1 ... k0+w, with x_k0 solved, the residuals
    G_k = x_k - x_(k-1) - dt f(t_k, x_k) - (phi_k - phi_(k-1)) have a lower
    bidiagonal Jacobian: slope_k = 1 - dt df/dx(t_k, x_k) >= 1 on the
    diagonal and -1 below it.  So a Newton sweep's correction is the affine
    recurrence delta_k = s_k (delta_(k-1) - G_k), s_k = 1 / slope_k, from
    delta_k0 = 0, and a doubling scan composes those maps over the window in
    log2 w passes.  The scan only multiplies by the s_k, which lie in (0, 1]
    for a nonincreasing drift, so it neither divides nor overflows near 0.
    ``f`` and ``dfdx`` see the iterate as a (rows, w) view with the (w,)
    window times: time runs along the last axis.  Rows are swept in chunks
    of at most ``_CHUNK``, each copied into C-contiguous scratch of that
    width, so the scratch does not grow with the batch; no row's arithmetic
    reads another row, so the chunks leave every bit as it is.

    The first sweep starts from x_k0 plus the increments and the last solved
    step's drift increment dt f per step (0 in the first window), at least
    x_k0 / 2 on the positive domain; there every candidate is clamped at
    x / 2.  Every row takes the first sweep, as every row takes the step
    loop's first iteration.  From the second on, a row has converged when
    each of its steps meets |G_k| <= max(1e-10, 4 eps (|x_k| + |b_k|)),
    b_k = x_(k-1) + phi_k - phi_(k-1) (a NaN residual never does).  It then
    takes one last sweep with the slopes it holds, if they are all >= 1, and
    leaves the live rows, which are gathered into a smaller block: a row's
    bits depend only on its own drivers.  Rows still live after
    ``_MAX_SWEEPS`` sweeps, and on the positive domain rows left holding a
    value <= 0, are solved again over the window by ``_newton_steps`` from
    x_k0, which raises the step's ``SolverError`` or ``PositivityError``.
    """
    n_steps, n_paths = sol.shape[0] - 1, sol.shape[1]
    size = (min(_WINDOW, n_steps) + 1) * min(_CHUNK, n_paths)
    # flat scratch, viewed C-contiguous as (window steps, rows of a chunk)
    flats = [np.empty(size) for _ in range(7)]
    increment = np.zeros(n_paths)  # the last solved step's dt f(t, x)
    phi = drivers.T
    for k0 in range(0, n_steps, _WINDOW):
        w = min(_WINDOW, n_steps - k0)
        window = slice(k0 + 1, k0 + 1 + w)
        x = sol[window]
        if k0:
            np.subtract(sol[k0], sol[k0 - 1], out=increment)
            increment -= np.subtract(phi[k0], phi[k0 - 1])
        redo = np.zeros(n_paths, dtype=bool)
        for r0 in range(0, n_paths, _CHUNK):
            cols = slice(r0, min(r0 + _CHUNK, n_paths))
            m = cols.stop - r0
            # xs[0] is x_k0 and xs[j] the iterate at step k0 + j; start from
            # x_k0 plus the increments and the last drift increment per step
            xs = flats[0][: (w + 1) * m].reshape(w + 1, m)
            inc = flats[1][: w * m].reshape(w, m)
            np.copyto(inc, x[:, cols])
            xs[0] = sol[k0, cols]
            np.add(inc, increment[cols], out=xs[1:])
            for j in range(1, w + 1):
                xs[j] += xs[j - 1]
            if positive:
                np.maximum(xs[1:], 0.5 * xs[0], out=xs[1:])
            live = _sweep_window(xs, inc, times[window], dt, f, dfdx, positive, flats[2:], x[:, cols])
            redo[r0 + live] = True
        # the columns of rows left live hold no solution; they are redone anyway
        if positive:
            redo |= (x <= 0).any(axis=0)
        if redo.any():
            rows = np.flatnonzero(redo)
            sub = np.empty((w + 1, rows.size))
            sub[0] = sol[k0, rows]
            np.subtract(phi[window, rows], phi[k0 : k0 + w, rows], out=sub[1:])
            _newton_steps(sub, k0 + 1, times[window].tolist(), dt, f, dfdx, positive, increment[rows])
            x[:, rows] = sub[1:]


def _sweep_window(xs, inc, t, dt, f, dfdx, positive, flats, out) -> np.ndarray:
    """Newton sweeps over one window of one chunk of rows; the rows it left unconverged.

    ``xs`` holds x_k0 and the start iterates, ``inc`` the driver increments
    and ``t`` the window's times.  Each row that converges is written to its
    column of ``out`` after its last sweep; the indices returned are of the
    rows still live after ``_MAX_SWEEPS`` sweeps.
    """
    w, m = inc.shape
    rows = np.arange(m)
    g, a, p, c, tmp = (v[: w * m].reshape(w, m) for v in flats)
    for sweep in range(_MAX_SWEEPS):
        it, prev = xs[1:], xs[:-1]
        b = np.add(prev, inc, out=c)  # c holds b_k until the scan
        np.multiply(np.asarray(f(t, it.T), dtype=np.float64).T, dt, out=tmp)
        np.subtract(it, b, out=g)
        g -= tmp
        np.multiply(np.asarray(dfdx(t, it.T), dtype=np.float64).T, -dt, out=a)
        a += 1.0
        update, conv = True, None
        if sweep:  # as in the step loop, every row takes the first sweep
            np.abs(b, out=b)
            np.abs(it, out=tmp)
            b += tmp
            b *= _ROUNDING
            np.maximum(b, _NEWTON_TOL, out=b)
            np.abs(g, out=tmp)
            conv = (tmp <= b).all(axis=0)
            if conv.any():
                # a converged row takes its last sweep only where every slope is >= 1
                steep = (a >= 1.0).all(axis=0)
                if not steep.all():
                    update = ~conv | steep
        # (a_k, c_k) = (s_k, s_k G_k) is step k's map as c -> a_k c + c_k;
        # after the pass of stride s it is the composition of the maps of
        # the 2s steps up to k, so after the last pass c_k = -delta_k
        np.divide(1.0, a, out=a)
        np.multiply(g, a, out=c)
        s = 1
        while s < w:
            np.multiply(a[s:], c[:-s], out=tmp[s:])
            c[s:] += tmp[s:]
            if 2 * s < w:
                np.multiply(a[s:], a[:-s], out=p[s:])
                p[:s] = a[:s]
                a, p = p, a
            s *= 2
        if positive:
            np.multiply(it, 0.5, out=tmp)
        np.subtract(it, c, out=it, where=update)
        if positive:
            np.maximum(it, tmp, out=it, where=update)
        if conv is None or not conv.any():
            continue
        if rows.size == out.shape[1]:
            np.copyto(out, it)
        else:
            out[:, rows[conv]] = it[:, conv]
        keep = ~conv
        rows, m = rows[keep], int(np.count_nonzero(keep))
        if not m:
            break
        xs, inc = xs[:, keep], inc[:, keep]
        g, a, p, c, tmp = (v[: w * m].reshape(w, m) for v in flats)
    return rows


def _newton_steps(sol, first, ts, dt, f, dfdx, positive, increment) -> None:
    """Turn each increment row ``sol[i]`` into x at grid step ``first + i - 1``, one step at a time.

    Row 0 holds the solved value before the first step, and ``increment``
    the drift increment dt f that led to it.  Each step solves
    F(x) = x - dt f(t, x) - b = 0 by Newton, started from ``b`` plus the
    previous step's dt f, at least x_prev / 2 on the positive domain.  A
    convex drift makes F concave and increasing, so on the positive domain a
    candidate needs only the clamp ``>= x / 2`` to stay positive: a clamped
    point has either F > 0 (step again) or F <= 0 (climb to the root).  Every
    row takes the first iteration; from the second on, a row whose |F| is
    within tolerance (a NaN residual never is) is frozen.  On converging a
    row takes one last step -F/F' with the slope it holds, where F' >= 1:
    that step moves it by at most the tolerance and is clamped at x / 2 like
    every candidate, so a root below the tolerance stays positive.  This is
    the fallback of ``_newton_windows`` for rows whose window sweep failed.
    """
    asarray, maximum, copyto, count = np.asarray, np.maximum, np.copyto, np.count_nonzero
    x = sol[0]
    n_paths = x.size
    for i, t in enumerate(ts, start=1):
        b = x + sol[i]
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
            raise PositivityError(f"nonpositive value after step {first + i - 1}")
        sol[i] = x


def cumulative_along_path(fn: Callable, times: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Trapezoidal cumulative integral of fn(s, x_s) from 0 to each grid time, along the last axis.

    ``fn``, a drift callable ``f`` or ``dfdx``, is called once with the whole
    time and value arrays; a scalar result is broadcast, any other shape than
    ``values.shape`` raises ``ValueError``.  Every cell is ``times[1] -
    times[0]`` wide, so ``times`` must be a uniform grid of 2+ points, or
    ``ValueError`` is raised.
    """
    _check_uniform_grid(times)
    v = np.asarray(fn(times, values), dtype=np.float64)
    if v.ndim == 0:
        v = np.full(values.shape, float(v))
    elif v.shape != values.shape:
        raise ValueError(
            f"drift callable returned shape {v.shape} along a path of shape {values.shape}"
        )
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
