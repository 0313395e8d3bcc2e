"""Hölder-space numerics and compensated fractional derivatives.

Supplies the sup norm and Hölder seminorm on grid paths, the left and right
compensated Riemann-Liouville derivatives, and the pathwise product integral
of y against a rough driver phi evaluated through fractional integration by
parts, with a plain left-point Riemann-Stieltjes sum as the independent
cross-check.

The singular tail integrals are computed by product integration: each grid
cell contributes the exact integral of its local quadratic reconstruction
against the power kernel, so constants and linear paths reproduce their
closed forms to roundoff and smooth paths converge at better than second
order.

Sign convention: the right derivative absorbs the complex unit factors of the
textbook definition so that the left/right pairing is real and
``young_integral(1, phi, s, t) == phi(t) - phi(s)``.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .paths import GridError, SamplePath

__all__ = [
    "sup_norm",
    "holder_seminorm",
    "frac_deriv_left",
    "frac_deriv_right",
    "young_integral",
    "riemann_stieltjes",
    "default_ibp_order",
    "OrderValidityWarning",
]

# Lags the exact scan handles per vectorised step.
_LAG_BLOCK = 64

# Each endpoint grid cell of the pairing integral is split this finely.
_ENDPOINT_SPLITS = 32

_SNAP = 1e-12


class OrderValidityWarning(UserWarning):
    """The fractional order lies outside the admissible window for the inputs."""


def sup_norm(x: SamplePath, s: float, t: float) -> float:
    """Maximum of |x| over the grid points inside [s, t]."""
    i, j = x.slice_indices(s, t)
    return float(np.max(np.abs(x.values[i : j + 1])))


@functools.lru_cache(maxsize=32)
def _lag_divisors(n_lags: int, dt: float, beta: float) -> tuple[np.ndarray, bool]:
    """Read-only divisors ``(lag * dt) ** beta`` for lags 1..n_lags; True if none decreases.

    numpy's vectorised power differs from Python's in the last bit on some
    divisors, which would change the seminorm.
    """
    divisors = np.array([(lag * dt) ** beta for lag in range(1, n_lags + 1)])
    divisors.setflags(write=False)
    return divisors, bool(np.all(divisors[1:] >= divisors[:-1]))


def holder_seminorm(x: SamplePath, s: float, t: float, beta: float) -> float:
    """Grid Hölder seminorm sup |x(u)-x(v)| / |u-v|^beta over [s, t].

    Exact over all grid pairs at every grid size, so the value is a lower
    bound of the continuum seminorm and never decreases under grid
    refinement.  The cost is O(m^2) in the m grid points on [s, t] unless the
    early stop below prunes the scan.

    The scan takes the lags 64 at a time: one strided view holds the path
    shifted by each lag of the block, padded with NaN past its end, and a
    NaN-skipping max gives the largest increment per lag.  Each divisor
    ``(lag * dt) ** beta`` is Python's power, so the value is bit-identical
    to a scan of one lag at a time.  A path that is not finite on [s, t]
    raises ``ValueError``.

    The scan stops before the block starting at lag L once
    ``osc / divisor(L) <= best``, where ``osc = max - min`` of the path on
    [s, t] and ``best`` is the largest ratio so far.  The stop is exact:
    every increment |x(v) - x(u)| is at most max - min, so its rounded value
    is at most ``osc``; correctly rounded division is monotone in both
    operands, so no ratio at a lag >= L exceeds ``osc / divisor(L)`` as long
    as the divisors never decrease from L on.  Python's power is not
    guaranteed monotone, so the divisors are checked once per grid, and the
    full scan runs when they do decrease somewhere.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    i, j = x.slice_indices(s, t)
    vals = x.values[i : j + 1]
    m = vals.size
    if m < 2:
        raise GridError(f"need at least two grid points in [{s}, {t}]")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"path is not finite on [{s}, {t}]")
    dt = x.dt
    best = 0.0
    divisors, monotone = _lag_divisors(m - 1, dt, beta)
    osc = vals.max() - vals.min()
    pad = np.concatenate((vals, np.full(_LAG_BLOCK, np.nan)))
    buf = np.empty((_LAG_BLOCK, m - 1))
    for lag in range(1, m, _LAG_BLOCK):
        if monotone and osc / divisors[lag - 1] <= best:
            break
        b = min(_LAG_BLOCK, m - lag)
        # row k: the path shifted by lag + k; its NaN tail is the pairs past the end
        rows = sliding_window_view(pad[lag:], m - lag)[:b]
        diffs = buf[:b, : m - lag]
        np.subtract(rows, vals[: m - lag], out=diffs)
        np.abs(diffs, out=diffs)
        tops = np.fmax.reduce(diffs, axis=1)
        best = max(best, float(np.max(tops / divisors[lag - 1 : lag - 1 + b])))
    return best


def _interp3(times: np.ndarray, values: np.ndarray, u: float) -> tuple[int, float]:
    """Cell index k with t_k <= u and the local quadratic reconstruction at u."""
    dt = times[1] - times[0]
    k = int(np.floor(u / dt + _SNAP))
    k = min(max(k, 0), times.size - 1)
    if abs(u - times[k]) <= _SNAP * max(1.0, abs(u)):
        return k, float(values[k])
    i0 = min(max(k - 1, 0), times.size - 3)
    x = u - times[i0]
    l0 = (x - dt) * (x - 2 * dt) / (2 * dt * dt)
    l1 = x * (2 * dt - x) / (dt * dt)
    l2 = x * (x - dt) / (2 * dt * dt)
    return k, float(l0 * values[i0] + l1 * values[i0 + 1] + l2 * values[i0 + 2])


def _quad_coeffs(x0, dt: float, v0, v1, v2):
    """Coefficients (c0, c1, c2) of the quadratic through (x0, v0), (x0+dt, v1), (x0+2dt, v2)."""
    d1 = (v1 - v0) / dt
    d2 = (v2 - 2.0 * v1 + v0) / (2.0 * dt * dt)
    x1 = x0 + dt
    c2 = d2
    c1 = d1 - d2 * (x0 + x1)
    c0 = v0 - d1 * x0 + d2 * x0 * x1
    return c0, c1, c2


def _left_tail(times, values, i_s: int, u: float, order: float) -> tuple[float, float]:
    """(y(u), integral_s^u (y(u)-y(r)) (u-r)^{-order-1} dr) with s = times[i_s]."""
    a = order
    dt = times[1] - times[0]
    k, y_u = _interp3(times, values, u)
    total = 0.0
    if k > i_s:
        # full cells [t_j, t_{j+1}], j = i_s .. k-1, in w = u - r coordinates
        sl = slice(max(i_s - 1, 0), k + 1)
        delta = y_u - values[sl]
        off = i_s - max(i_s - 1, 0)  # 1 when a left neighbor exists, else 0
        j = np.arange(i_s, k)
        w1 = u - times[i_s + 1 : k + 1]
        w2 = u - times[i_s:k]
        if off == 1:
            # centered stencil (j-1, j, j+1): quadratic through w-points (w1, w2, w2+dt)
            c0, c1, c2 = _quad_coeffs(w1, dt, delta[j - i_s + 2], delta[j - i_s + 1], delta[j - i_s])
        else:
            c0 = np.empty(j.size)
            c1 = np.empty(j.size)
            c2 = np.empty(j.size)
            if j.size > 1:
                jj = j[1:]
                c0[1:], c1[1:], c2[1:] = _quad_coeffs(
                    w1[1:], dt, delta[jj + 1], delta[jj], delta[jj - 1]
                )
            # first cell has no left neighbor: forward stencil (j, j+1, j+2)
            if i_s + 2 < times.size:
                d_fwd = y_u - values[i_s : i_s + 3]
                c0[0], c1[0], c2[0] = _quad_coeffs(w1[0] - dt, dt, d_fwd[2], d_fwd[1], d_fwd[0])
            else:
                slope = (values[i_s + 1] - values[i_s]) / dt
                c0[0], c1[0], c2[0] = 0.0, slope, 0.0
        m1 = (w2 ** (1.0 - a) - w1 ** (1.0 - a)) / (1.0 - a)
        m2 = (w2 ** (2.0 - a) - w1 ** (2.0 - a)) / (2.0 - a)
        seg = c1 * m1 + c2 * m2
        mask = w1 > 0
        seg[mask] += c0[mask] * (w1[mask] ** (-a) - w2[mask] ** (-a)) / a
        total += float(np.sum(seg))
    wb = u - times[k]
    if wb > _SNAP * max(1.0, u) and k + 1 < times.size:
        # partial cell [t_k, u]: quadratic through (0, 0), (wb, .), (wb+dt, .)
        db = y_u - values[k]
        if k >= 1:
            wc = wb + dt
            dc = y_u - values[k - 1]
            c2 = (dc / wc - db / wb) / (wc - wb)
            c1 = db / wb - c2 * wb
        else:
            c1, c2 = db / wb, 0.0
        total += c1 * wb ** (1.0 - a) / (1.0 - a) + c2 * wb ** (2.0 - a) / (2.0 - a)
    return y_u, total


def _right_value(times, values, u: float, i_t: int, order: float) -> float:
    """Right compensated derivative at u, anchored at t = times[i_t]."""
    a = order
    dt = times[1] - times[0]
    t = times[i_t]
    if u >= t - _SNAP * max(1.0, t):
        return 0.0
    k, phi_u = _interp3(times, values, u)
    total = 0.0
    first_full = k
    wb = times[k + 1] - u if k + 1 <= i_t else 0.0
    if u > times[k] + _SNAP * max(1.0, abs(u)):
        # partial cell [u, t_{k+1}]: quadratic through (0, 0), (wb, .), (wb+dt, .)
        db = phi_u - values[k + 1]
        if k + 2 < times.size:
            wc = wb + dt
            dc = phi_u - values[k + 2]
            c2 = (dc / wc - db / wb) / (wc - wb)
            c1 = db / wb - c2 * wb
        else:
            c1, c2 = db / wb, 0.0
        total += c1 * wb**a / a + c2 * wb ** (a + 1.0) / (a + 1.0)
        first_full = k + 1
    if first_full < i_t:
        j = np.arange(first_full, i_t)
        delta = phi_u - values
        w1 = times[first_full:i_t] - u
        w2 = times[first_full + 1 : i_t + 1] - u
        # forward stencil (j, j+1, j+2); last grid cell falls back to (j-1, j, j+1)
        c0 = np.empty(j.size)
        c1 = np.empty(j.size)
        c2 = np.empty(j.size)
        fwd = j + 2 <= times.size - 1
        if np.any(fwd):
            jf = j[fwd]
            c0[fwd], c1[fwd], c2[fwd] = _quad_coeffs(
                w1[fwd], dt, delta[jf], delta[jf + 1], delta[jf + 2]
            )
        if np.any(~fwd):
            jb = j[~fwd]
            c0[~fwd], c1[~fwd], c2[~fwd] = _quad_coeffs(
                w1[~fwd] - dt, dt, delta[jb - 1], delta[jb], delta[jb + 1]
            )
        m1 = (w2**a - w1**a) / a
        m2 = (w2 ** (a + 1.0) - w1 ** (a + 1.0)) / (a + 1.0)
        seg = c1 * m1 + c2 * m2
        mask = w1 > 0
        seg[mask] += c0[mask] * (w2[mask] ** (a - 1.0) - w1[mask] ** (a - 1.0)) / (a - 1.0)
        total += float(np.sum(seg))
    head = (phi_u - values[i_t]) * (t - u) ** (a - 1.0)
    return -(head + (1.0 - a) * total) / math.gamma(a)


def _check_order(order: float) -> None:
    if not 0.0 < order < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {order}")


def frac_deriv_left(y: SamplePath, s: float, u: float, order: float) -> float:
    """Left compensated fractional derivative of order ``order`` at u on [s, u].

    Value: [ y(u) (u-s)^{-order}
             + order * integral_s^u (y(u)-y(r)) (u-r)^{-order-1} dr ] / Gamma(1-order).
    """
    _check_order(order)
    i_s = y.index_of(s)
    if u <= s:
        raise ValueError("u must exceed s")
    if u > y.horizon + 1e-12:
        raise GridError(f"u={u} beyond the grid span")
    y_u, tail = _left_tail(y.times, y.values, i_s, u, order)
    return (y_u * (u - s) ** (-order) + order * tail) / math.gamma(1.0 - order)


def frac_deriv_right(phi: SamplePath, u: float, t: float, order: float) -> float:
    """Right compensated fractional derivative of order ``1 - order`` at u on [u, t].

    Real-valued convention (see module docstring):
    -[ (phi(u)-phi(t)) (t-u)^{order-1}
       + (1-order) * integral_u^t (phi(u)-phi(r)) (r-u)^{order-2} dr ] / Gamma(order).
    Vanishes for constant phi and tends to 0 as u -> t on Hölder paths.
    """
    _check_order(order)
    i_t = phi.index_of(t)
    if u >= t:
        raise ValueError("u must be below t")
    if u < -1e-12:
        raise GridError("u below the grid span")
    return _right_value(phi.times, phi.values, u, i_t, order)


def default_ibp_order(beta_driver: float, beta_integrand: float) -> float:
    """Midpoint of the admissible order window (1 - beta_driver, beta_integrand)."""
    if 1.0 - beta_driver >= beta_integrand:
        raise ValueError(
            "empty order window: need beta_driver + beta_integrand > 1 "
            f"(got {beta_driver}, {beta_integrand})"
        )
    return 0.5 * (1.0 - beta_driver + beta_integrand)


def _pairing_nodes(times: np.ndarray, i_s: int, i_t: int) -> np.ndarray:
    dt = times[1] - times[0]
    s, t = times[i_s], times[i_t]
    frac = np.arange(1, _ENDPOINT_SPLITS) / _ENDPOINT_SPLITS
    extra = np.concatenate([s + dt * frac, t - dt * frac])
    nodes = np.concatenate([times[i_s : i_t + 1], extra[(extra > s) & (extra < t)]])
    return np.unique(nodes)


def young_integral(y: SamplePath, phi: SamplePath, s: float, t: float, order: float) -> float:
    """Pathwise integral of y against dphi via fractional integration by parts.

    Evaluates integral_s^t D^order_left y(u) * D^{1-order}_right phi(u) du on
    the shared grid with both endpoint cells refined, integrating the left
    factor's (u-s)^{-order} singularity in closed form per cell.  Valid when
    the order lies strictly between 1 - beta(phi) and beta(y); a warning is
    issued when the paths' ``holder_hint`` exponents contradict that window.
    """
    _check_order(order)
    if y.times.size != phi.times.size or not np.array_equal(y.times, phi.times):
        raise GridError("integrand and driver must share one grid")
    i_s, i_t = y.index_of(s), y.index_of(t)
    if i_t <= i_s:
        raise ValueError("need s < t on the grid")
    if phi.holder_hint is not None and order <= 1.0 - phi.holder_hint:
        warnings.warn(
            f"order {order} <= 1 - driver exponent {phi.holder_hint}; "
            "the pairing may not converge",
            OrderValidityWarning,
            stacklevel=2,
        )
    if y.holder_hint is not None and order >= y.holder_hint:
        warnings.warn(
            f"order {order} >= integrand exponent {y.holder_hint}; "
            "the pairing may not converge",
            OrderValidityWarning,
            stacklevel=2,
        )
    a = order
    gamma_left = math.gamma(1.0 - a)
    times = y.times
    nodes = _pairing_nodes(times, i_s, i_t)
    g_vals = np.empty(nodes.size)
    for idx, u in enumerate(nodes):
        if u <= s + _SNAP * max(1.0, s):
            g_vals[idx] = y.values[i_s] / gamma_left * _right_value(
                times, phi.values, float(u), i_t, a
            )
            continue
        y_u, tail = _left_tail(times, y.values, i_s, float(u), a)
        m_val = (y_u + a * (u - s) ** a * tail) / gamma_left
        g_vals[idx] = m_val * _right_value(times, phi.values, float(u), i_t, a)
    v1 = nodes[:-1] - s
    v2 = nodes[1:] - s
    slope = np.diff(g_vals) / (v2 - v1)
    a_coef = g_vals[:-1] - slope * v1
    seg = a_coef * (v2 ** (1.0 - a) - v1 ** (1.0 - a)) / (1.0 - a)
    seg += slope * (v2 ** (2.0 - a) - v1 ** (2.0 - a)) / (2.0 - a)
    return float(np.sum(seg))


def riemann_stieltjes(y: SamplePath, phi: SamplePath, s: float, t: float) -> float:
    """Left-point Riemann-Stieltjes sum of y against dphi on the grid.

    First-order reference used as the independent cross-check of
    ``young_integral``; converges whenever the Hölder orders of y and phi sum
    above one.
    """
    if y.times.size != phi.times.size or not np.array_equal(y.times, phi.times):
        raise GridError("integrand and driver must share one grid")
    i, j = y.index_of(s), y.index_of(t)
    if j <= i:
        raise ValueError("need s < t on the grid")
    return float(np.dot(y.values[i:j], np.diff(phi.values[i : j + 1])))
