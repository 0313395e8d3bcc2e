"""Hölder-space numerics and compensated fractional derivatives.

Supplies the sup norm and Hölder seminorm on grid paths, the left and right
compensated Riemann-Liouville derivatives, and the pathwise product integral
of y against a rough driver phi evaluated through fractional integration by
parts.  The tests check that integral against a plain left-point
Riemann-Stieltjes sum.

The singular tail integrals are computed by product integration: each grid
cell contributes the exact integral of its local quadratic reconstruction
against the power kernel, so constants and linear paths reproduce their
closed forms to roundoff and smooth paths converge at better than second
order.

Sign convention: the right derivative absorbs the complex unit factors of the
textbook definition so that the left/right pairing is real and
``young_integral(1, phi, s, t) == phi(t) - phi(s)``.  One routine computes
the tails of both derivatives: the reflection Q f(r) = f(T - r) maps the
right tail of order 1 - alpha on [u, t] onto the left tail of that order on
[T - t, T - u] (Samko, Kilbas & Marichev, 1993, §2), so the right derivative
is taken from the reflected path.  The reconstruction needs a grid of at
least 3 points.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .paths import GridError, SamplePath

__all__ = [
    "sup_norm",
    "holder_seminorm",
    "frac_deriv_left",
    "frac_deriv_right",
    "young_integral",
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
def _lag_divisors(
    n_lags: int, dt: float, beta: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only divisors ``(lag * dt) ** beta`` for lags 1..n_lags, then the
    smallest and the largest divisor of each block of 64 lags.

    numpy's vectorised power differs from Python's in the last bit on some
    divisors, which would change the seminorm.
    """
    divisors = np.array([(lag * dt) ** beta for lag in range(1, n_lags + 1)])
    starts = np.arange(0, n_lags, _LAG_BLOCK)
    tables = (
        divisors,
        np.minimum.reduceat(divisors, starts),
        np.maximum.reduceat(divisors, starts),
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _view(base: np.ndarray, offset: int, shape: tuple, strides: tuple) -> np.ndarray:
    """Strided view of the contiguous float array ``base``, offset and strides in elements.

    The view ``as_strided`` would give, at a tenth of its cost, and the
    ndarray constructor checks that the view stays inside ``base``.
    """
    return np.ndarray(shape, np.float64, base, 8 * offset, tuple(8 * k for k in strides))


def _block_max(
    pad: np.ndarray, buf: np.ndarray, divisors: np.ndarray, m: int, lag: int, u0: int, u1: int
) -> float:
    """Largest ratio of the block of lags starting at ``lag``, over start points u0 <= u < u1.

    ``pad`` is the m-point path with a NaN tail of at least 64 points.  Row k
    of the view is the path shifted by lag + k; its NaN entries are the pairs
    past the end, which the NaN-skipping reductions pass over.  Rows stop
    where one would hold only NaN.
    """
    b = min(_LAG_BLOCK, m - lag - u0)
    diffs = buf[:b, : u1 - u0]
    np.subtract(_view(pad, lag + u0, diffs.shape, (1, 1)), pad[u0:u1], out=diffs)
    # |d| = max(d, -d): each lag's largest rise and largest fall
    tops = np.fmax(np.fmax.reduce(diffs, axis=1), -np.fmin.reduce(diffs, axis=1))
    return float((tops / divisors[lag - 1 : lag - 1 + b]).max())


def holder_seminorm(x: SamplePath, s: float, t: float, beta: float) -> float:
    """Grid Hölder seminorm sup |x(u)-x(v)| / |u-v|^beta over [s, t].

    Exact over all grid pairs at every grid size, so the value is a lower
    bound of the continuum seminorm and never decreases under grid
    refinement.  Each ratio is the rounded ``|x(v) - x(u)|`` over the divisor
    ``(lag * dt) ** beta`` by Python's power, so the value is bit-identical to
    a scan of one lag at a time.  A path that is not finite on [s, t] raises
    ``ValueError``; a ratio that overflows gives ``inf``.

    The lags come in blocks of 64, and every block is bounded before any is
    scanned.  ``hi[v]`` and ``lo[v]``, the max and min of the path over
    ``[v, v + 64)``, take six doubling passes.  For the block starting at lag
    L, ``inc(u) = max(hi[u + L] - x(u), x(u) - lo[u + L])`` is exactly the
    largest rounded increment from u at the block's lags, since rounded
    subtraction is monotone in each operand; ``top`` is its max over u.
    Rounded division is monotone too, so no ratio in the block exceeds
    ``top / (smallest divisor of the block)``, while the pair that reaches
    ``top`` has a ratio of at least ``top / (largest divisor of the block)``.
    Both hold whatever the order of the divisors inside a block.

    The largest lower bound starts ``best``.  The blocks are visited in
    decreasing upper bound until one cannot beat ``best``.  A visited block
    scans only the start points from the first to the last u with
    ``inc(u) / smallest divisor > best``, all its lags at once through a
    strided view of the path.  The bounds cost O(m^2 / 64) in the m grid
    points and are computed 32 blocks at a time in the scan's own
    ``(64, m - 1)`` buffer.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    i, j = x.slice_indices(s, t)
    vals = x.values[i : j + 1]
    m = vals.size
    if m < 2:
        raise GridError(f"need at least two grid points in [{s}, {t}]")
    if not np.isfinite(vals).all():
        raise ValueError(f"path is not finite on [{s}, {t}]")
    n = m - 1  # start points of a pair
    divisors, block_min, block_max = _lag_divisors(n, x.dt, beta)
    n_blocks = block_min.size
    # the path, then its negation, each padded with NaN: their windowed
    # maxima are hi and -lo, and both increments of a pair are one subtraction
    row = m + _LAG_BLOCK * n_blocks
    signed = np.full(2 * row, np.nan)
    signed[:m] = vals
    np.negative(vals, out=signed[row : row + m])
    windows = signed
    shift = 1
    while shift < _LAG_BLOCK:
        windows = np.fmax(windows[:-shift], windows[shift:])
        shift *= 2
    buf = np.empty((_LAG_BLOCK, n))
    tops = np.empty(n_blocks)
    chunk = _LAG_BLOCK // 2
    with np.errstate(over="ignore"):
        for first in range(0, n_blocks, chunk):
            c = min(chunk, n_blocks - first)
            # [r, k, u]: row r's window at u + 1 + 64 (first + k)
            ahead = _view(windows, 1 + _LAG_BLOCK * first, (2, c, n), (row, _LAG_BLOCK, 1))
            incs = buf[: 2 * c].reshape(2, c, n)
            np.subtract(ahead, signed.reshape(2, row)[:, None, :n], out=incs)
            np.fmax.reduce(incs, axis=(0, 2), out=tops[first : first + c])
        upper = tops / block_min
        best = float((tops / block_max).max())
        for k in upper.argsort()[::-1]:
            if upper[k] <= best:
                break
            lag = 1 + _LAG_BLOCK * int(k)
            # hi - x, and -lo + x, which rounds as x - lo
            inc = np.fmax(
                windows[lag:m] - vals[: m - lag],
                windows[row + lag : row + m] + vals[: m - lag],
            )
            live = np.nonzero(inc / block_min[k] > best)[0]
            span = int(live[0]), int(live[-1]) + 1
            best = max(best, _block_max(signed, buf, divisors, m, lag, *span))
    return best


def _locate(times: np.ndarray, u: float) -> tuple[int, float]:
    """Cell index k with t_k <= u, and u, or t_k when u lies within rounding of it."""
    dt = times[1] - times[0]
    k = int(np.floor(u / dt + _SNAP))
    k = min(max(k, 0), times.size - 1)
    if abs(u - times[k]) <= _SNAP * max(1.0, abs(u)):
        return k, float(times[k])
    return k, u


def _interp3(times: np.ndarray, values: np.ndarray, u: float) -> tuple[float, float]:
    """The located node (see ``_locate``) and the local quadratic reconstruction there."""
    k, u = _locate(times, u)
    if u == times[k]:
        return u, float(values[k])
    dt = times[1] - times[0]
    i0 = min(max(k - 1, 0), times.size - 3)
    x = u - times[i0]
    l0 = (x - dt) * (x - 2 * dt) / (2 * dt * dt)
    l1 = x * (2 * dt - x) / (dt * dt)
    l2 = x * (x - dt) / (2 * dt * dt)
    return u, float(l0 * values[i0] + l1 * values[i0 + 1] + l2 * values[i0 + 2])


def _left_tail(times, values, i_s: int, u: float, y_u: float, order: float) -> float:
    """integral_s^u (y_u - y(r)) (u-r)^{-order-1} dr with s = times[i_s] and y_u = y(u)."""
    a = order
    dt = times[1] - times[0]
    k, u = _locate(times, u)
    total = 0.0
    if k > i_s:
        # full cells [t_j, t_{j+1}], j = i_s .. k-1, in w = u - r coordinates:
        # c0 + c1 w + c2 w^2 through the stencil i0 .. i0+2 of _interp3,
        # i0 = max(j-1, 0), which lies at w = x0, x0 + dt, x0 + 2 dt
        i0 = np.maximum(np.arange(i_s, k) - 1, 0)
        x0 = u - times[i0 + 2]
        v0, v1, v2 = y_u - values[i0 + 2], y_u - values[i0 + 1], y_u - values[i0]
        d1 = (v1 - v0) / dt
        c2 = (v2 - 2.0 * v1 + v0) / (2.0 * dt * dt)
        c1 = d1 - c2 * (x0 + (x0 + dt))
        c0 = v0 - d1 * x0 + c2 * x0 * (x0 + dt)
        w1 = u - times[i_s + 1 : k + 1]
        w2 = u - times[i_s:k]
        m1 = (w2 ** (1.0 - a) - w1 ** (1.0 - a)) / (1.0 - a)
        m2 = (w2 ** (2.0 - a) - w1 ** (2.0 - a)) / (2.0 - a)
        seg = c1 * m1 + c2 * m2
        mask = w1 > 0
        seg[mask] += c0[mask] * (w1[mask] ** (-a) - w2[mask] ** (-a)) / a
        total += float(np.sum(seg))
    if u > times[k]:
        # partial cell [t_k, u]: quadratic through (0, 0), (wb, .), (wb+dt, .)
        wb = u - times[k]
        db = y_u - values[k]
        if k >= 1:
            wc = wb + dt
            dc = y_u - values[k - 1]
            c2 = (dc / wc - db / wb) / (wc - wb)
            c1 = db / wb - c2 * wb
        else:
            c1, c2 = db / wb, 0.0
        total += c1 * wb ** (1.0 - a) / (1.0 - a) + c2 * wb ** (2.0 - a) / (2.0 - a)
    return total


def _right_value(times, values, u: float, i_t: int, order: float) -> float:
    """Right compensated derivative at u, anchored at t = times[i_t].

    Its tail is the left tail of order 1 - order of the reflected path
    r -> phi(T - r) - phi(t), from T - t to T - u, with phi(u) reconstructed
    on the original grid.
    """
    a = order
    t = times[i_t]
    if u >= t - _SNAP * max(1.0, t):
        return 0.0
    u, phi_u = _interp3(times, values, u)
    rise = phi_u - values[i_t]
    n = times.size - 1
    tail = _left_tail(times, values[::-1] - values[i_t], n - i_t, times[n] - u, rise, 1.0 - a)
    return -(rise * (t - u) ** (a - 1.0) + (1.0 - a) * tail) / math.gamma(a)


def _check_inputs(order: float, path: SamplePath) -> None:
    if not 0.0 < order < 1.0:
        raise ValueError(f"fractional order must lie in (0, 1), got {order}")
    if path.times.size < 3:
        raise GridError("the quadratic reconstruction needs a grid of at least 3 points")


def frac_deriv_left(y: SamplePath, s: float, u: float, order: float) -> float:
    """Left compensated fractional derivative of order ``order`` at u on [s, u].

    Value: [ y(u) (u-s)^{-order}
             + order * integral_s^u (y(u)-y(r)) (u-r)^{-order-1} dr ] / Gamma(1-order).
    """
    _check_inputs(order, y)
    i_s = y.index_of(s)
    if u <= s:
        raise ValueError("u must exceed s")
    if u > y.horizon + 1e-12:
        raise GridError(f"u={u} beyond the grid span")
    u, y_u = _interp3(y.times, y.values, u)
    tail = _left_tail(y.times, y.values, i_s, u, y_u, order)
    return (y_u * (u - s) ** (-order) + order * tail) / math.gamma(1.0 - order)


def frac_deriv_right(phi: SamplePath, u: float, t: float, order: float) -> float:
    """Right compensated fractional derivative of order ``1 - order`` at u on [u, t].

    Real-valued convention (see module docstring):
    -[ (phi(u)-phi(t)) (t-u)^{order-1}
       + (1-order) * integral_u^t (phi(u)-phi(r)) (r-u)^{order-2} dr ] / Gamma(order).
    Vanishes for constant phi and tends to 0 as u -> t on Hölder paths.
    """
    _check_inputs(order, phi)
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
    nodes = np.sort(np.concatenate([times[i_s : i_t + 1], extra[(extra > s) & (extra < t)]]))
    # what np.unique returns, without the numpy.ma import it costs on numpy 2.4
    return nodes[np.concatenate([[True], nodes[1:] != nodes[:-1]])]


def young_integral(y: SamplePath, phi: SamplePath, s: float, t: float, order: float) -> float:
    """Pathwise integral of y against dphi via fractional integration by parts.

    Evaluates integral_s^t D^order_left y(u) * D^{1-order}_right phi(u) du on
    the shared grid with both endpoint cells refined, integrating the left
    factor's (u-s)^{-order} singularity in closed form per cell.  Valid when
    the order lies strictly between 1 - beta(phi) and beta(y); a warning is
    issued when the paths' ``holder_hint`` exponents contradict that window.
    """
    _check_inputs(order, y)
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
    for idx, node in enumerate(nodes):
        u, y_u = _interp3(times, y.values, float(node))
        tail = _left_tail(times, y.values, i_s, u, y_u, a)
        m_val = (y_u + a * (u - s) ** a * tail) / gamma_left
        g_vals[idx] = m_val * _right_value(times, phi.values, u, i_t, a)
    v1 = nodes[:-1] - s
    v2 = nodes[1:] - s
    slope = np.diff(g_vals) / (v2 - v1)
    a_coef = g_vals[:-1] - slope * v1
    seg = a_coef * (v2 ** (1.0 - a) - v1 ** (1.0 - a)) / (1.0 - a)
    seg += slope * (v2 ** (2.0 - a) - v1 ** (2.0 - a)) / (2.0 - a)
    return float(np.sum(seg))
