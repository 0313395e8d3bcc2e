"""Reference functions the tests check the library against, which no experiment calls.

Each is a thin reading of library code: one fBm path is row 0 of a one-path
batch, one solved path is row 0 of ``solve_batch``, and the fractional
derivatives are built from the same tails the pairing integral uses, so their
tests keep covering ``young_integral``'s own code.  The covariance and the sup
norm are the closed forms they are checked against.
"""

import math

import numpy as np

from fbmsde.fbm import FbmSpec, sample_fbm_batch
from fbmsde.fraccalc import _check_inputs, _interp3, _left_tail, _right_value
from fbmsde.paths import GridError, SamplePath
from fbmsde.solver import DriftSpec, solve_batch


def hurst_covariance(s: float, t: float, hurst: float) -> float:
    """Covariance R(s, t) = (t^{2H} + s^{2H} - |t-s|^{2H}) / 2."""
    if s < 0 or t < 0:
        raise ValueError("times must be nonnegative")
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    h2 = 2.0 * hurst
    return 0.5 * (t**h2 + s**h2 - abs(t - s) ** h2)


def sample_fbm(spec: FbmSpec) -> SamplePath:
    """One fractional Brownian path with the exact grid law: row 0 of a 1-path batch."""
    return SamplePath(spec.times, sample_fbm_batch(spec, 1)[0])


def solve_pathwise(x0: float, drift: DriftSpec, driver: SamplePath) -> SamplePath:
    """Solve one path of x' = f(t, x) + phi': row 0 of a one-row ``solve_batch``."""
    values = solve_batch(x0, drift, driver.values[None, :], driver.times)[0]
    return SamplePath(driver.times, values)


def sup_norm(x: SamplePath, s: float, t: float) -> float:
    """Maximum of |x| over the grid points inside [s, t]."""
    i, j = x.slice_indices(s, t)
    return float(np.max(np.abs(x.values[i : j + 1])))


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

    Real-valued convention (see the ``fraccalc`` module docstring):
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
