"""Monte Carlo verification harness for the quantitative pathwise claims.

Implements the explicit sup-norm bound machinery (assembled pairing constant,
window length, per-path inequality audit), the negative-moment inequality and
its time threshold, the distributional scaling transform with a two-sample
Kolmogorov-Smirnov check, and empirical moment-stability estimates.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import TypeVar

import numpy as np

from .fbm import FbmSpec, sample_fbm_batch
from .fraccalc import default_ibp_order, holder_seminorm
from .paths import SamplePath
from .solver import DriftSpec, scaled_drift, solve_batch

__all__ = [
    "BoundAuditReport",
    "MomentReport",
    "ScalingSpec",
    "StabilityReport",
    "HomogeneityError",
    "ibp_constant",
    "admissible_order_window",
    "window_length",
    "log_supnorm_bound",
    "check_path_bound",
    "negative_moment_threshold",
    "check_negative_moments",
    "scaling_spec",
    "scaling_transform",
    "ks_statistic",
    "ks_critical_value",
    "empirical_moment_stability",
    "simulate_paths",
    "pair_units",
]


def admissible_order_window(beta: float, gamma: float) -> tuple[float, float]:
    """Open window (1 - beta, beta(1 - 1/gamma)) of valid pairing orders.

    Empty unless gamma > beta / (2 beta - 1); the bound machinery cannot be
    assembled outside it.
    """
    if not 0.5 < beta < 1.0:
        raise ValueError(f"beta must lie in (1/2, 1), got {beta}")
    if gamma <= 2.0:
        raise ValueError(f"gamma must exceed 2, got {gamma}")
    return 1.0 - beta, beta * (1.0 - 1.0 / gamma)


def _beta_fn(x: float, y: float) -> float:
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def ibp_constant(beta: float, gamma: float, order: float | None = None) -> float:
    """Assembled constant of the pairing estimate for integrands y^{1-1/gamma}.

    Product of the left-derivative coefficient, the right-derivative
    coefficient, and the worst of the two Beta-function factors from the final
    u-integral; any order in the admissible window yields a valid constant,
    the default is the window midpoint.
    """
    lo, hi = admissible_order_window(beta, gamma)
    if order is None:
        order = default_ibp_order(beta, beta * (1.0 - 1.0 / gamma))
    if not lo < order < hi:
        raise ValueError(f"order {order} outside the admissible window ({lo}, {hi})")
    a = order
    beta_int = beta * (1.0 - 1.0 / gamma)
    gamma_1ma = math.gamma(1.0 - a)
    c_left = max(1.0 / gamma_1ma, a / ((beta_int - a) * gamma_1ma))
    c_right = (1.0 + (1.0 - a) / (a + beta - 1.0)) / math.gamma(a)
    b_factor = max(_beta_fn(1.0 - a, a + beta), _beta_fn(beta_int - a + 1.0, a + beta))
    return c_left * c_right * b_factor


def _power_or_inf(base: float, exponent: float) -> float:
    """``base ** exponent``, or inf where the float power overflows."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def window_length(
    gamma: float, beta: float, k_sup: float, phi_norm: float, c_ibp: float
) -> float:
    """Subinterval length for the doubling argument behind the sup-norm bound.

    Minimum of three terms; terms with zero denominator or an overflowing
    power (a tiny driver norm) count as infinite, and a fully degenerate
    configuration (zero driver norm and zero drift cap) is a domain error.
    """
    if gamma <= 2.0 or not 0.0 < beta < 1.0:
        raise ValueError("need gamma > 2 and beta in (0, 1)")
    # written so that a NaN fails the check
    if not (k_sup >= 0 and phi_norm >= 0 and c_ibp > 0):
        raise ValueError("k_sup and phi_norm must be nonnegative, c_ibp positive")
    terms = []
    if phi_norm > 0:
        exponent = gamma / (beta * (gamma - 1.0))
        terms.append(_power_or_inf(1.0 / (2.0 * c_ibp * gamma * phi_norm), exponent))
        terms.append(_power_or_inf(1.0 / (8.0 * c_ibp * gamma * phi_norm), 1.0 / beta))
    if k_sup > 0:
        terms.append(1.0 / (16.0 * k_sup * gamma))
    if not terms:
        raise ValueError("degenerate configuration: zero driver norm and zero drift cap")
    return min(terms)


def log_supnorm_bound(
    x0: float,
    gamma: float,
    beta: float,
    horizon: float,
    k_sup: float,
    phi_norm: float,
    c_ibp: float | None = None,
) -> float:
    """Natural log of the explicit sup-norm bound.

    Safe for huge driver norms: once ``horizon / window`` is not finite the
    bound is vacuous and the value is ``inf``.
    """
    if x0 <= 0:
        raise ValueError("x0 must be positive")
    if c_ibp is None:
        c_ibp = ibp_constant(beta, gamma)
    window = window_length(gamma, beta, k_sup, phi_norm, c_ibp)
    # a huge driver norm underflows the window, and no finite count of
    # subintervals covers the horizon: the bound is vacuous
    intervals = horizon / window if window > 0.0 else math.inf
    n_intervals = int(intervals) + 1 if math.isfinite(intervals) else math.inf
    growth = 8.0 * k_sup * gamma * horizon + 4.0 * horizon**beta
    return (n_intervals * math.log(2.0) + math.log(x0**gamma + growth)) / gamma


_ENVELOPE_CELLS = 512


def drift_sup_envelope(drift: DriftSpec, horizon: float) -> float:
    """sup of the drift's upper envelope h on [0, horizon] over 513 grid times; NaN and inf stay."""
    ts = np.linspace(0.0, horizon, _ENVELOPE_CELLS + 1)
    return float(np.max([float(drift.upper_envelope(float(t))) for t in ts]))


@dataclass(frozen=True)
class BoundAuditReport:
    n_paths: int
    n_passed: int
    worst_margin: float  # min over paths of log(bound) - log(sup norm)

    @property
    def pass_fraction(self) -> float:
        return self.n_passed / self.n_paths


def check_path_bound(
    drift: DriftSpec,
    solutions: np.ndarray,
    drivers: np.ndarray,
    times: np.ndarray,
    beta: float,
    gamma: float,
) -> BoundAuditReport:
    """Audit sup |x| <= bound(driver seminorm) path by path.

    Both sides are grid quantities: the driver's Hölder seminorm is the exact
    maximum over all grid pairs (a lower bound of the continuum seminorm,
    making the right side conservative) and the solution sup is the grid
    maximum.  Raises ``ValueError`` unless ``solutions`` and ``drivers``
    share one shape with a column per grid time and hold only finite values
    (``holder_seminorm`` rejects a non-finite driver).
    """
    solutions = np.atleast_2d(solutions)
    drivers = np.atleast_2d(drivers)
    if solutions.shape != drivers.shape:
        raise ValueError(
            f"solutions {solutions.shape} and drivers {drivers.shape} differ in shape"
        )
    if solutions.shape[1] != len(times):
        raise ValueError(f"paths have {solutions.shape[1]} columns for {len(times)} grid times")
    if not np.all(np.isfinite(solutions)):
        raise ValueError("solutions must be finite")
    horizon = float(times[-1])
    k_sup = drift_sup_envelope(drift, horizon)
    c_ibp = ibp_constant(beta, gamma)
    n_passed = 0
    worst = math.inf
    for sol_row, drv_row in zip(solutions, drivers):
        driver = SamplePath(times, drv_row)
        phi_norm = holder_seminorm(driver, 0.0, horizon, beta)
        log_bound = log_supnorm_bound(
            float(sol_row[0]), gamma, beta, horizon, k_sup, phi_norm, c_ibp
        )
        log_sup = math.log(float(np.max(np.abs(sol_row))))
        margin = log_bound - log_sup
        worst = min(worst, margin)
        if margin >= 0.0:
            n_passed += 1
    return BoundAuditReport(solutions.shape[0], n_passed, worst)


def negative_moment_threshold(k: float, p: float, hurst: float) -> float:
    """Largest time at which the inverse-moment inequality is claimed: (k/((p+1)H))^{1/(2H-1)}."""
    if k <= 0:
        raise ValueError("k must be positive")
    if p < 1:
        raise ValueError("p must be at least 1")
    if not 0.5 < hurst < 1.0:
        raise ValueError("hurst must lie in (1/2, 1)")
    return (k / ((p + 1.0) * hurst)) ** (1.0 / (2.0 * hurst - 1.0))


@dataclass(frozen=True)
class MomentReport:
    """One Monte Carlo moment estimate against its claimed bound.

    ``passed`` is None when the claim does not apply (time above threshold):
    a distinct not-applicable outcome, not a failure.
    """

    t: float
    order: float
    estimate: float
    std_error: float
    n_paths: int
    claim_bound: float | None
    passed: bool | None


def check_negative_moments(
    terminal_values: np.ndarray,
    *,
    p: float,
    t: float,
    x0: float,
    k: float,
    hurst: float,
    units: np.ndarray | None = None,
) -> MomentReport:
    """Estimate E[X_t^{-p}] and compare with x0^{-p} + 3 standard errors.

    The estimate is the mean over paths.  ``units`` labels each path with
    the independent unit it belongs to (an antithetic pair, say, as
    ``pair_units`` gives), numbered 0 .. U-1; without labels every path is
    its own unit.  The standard error is the cluster one over the U units,
    SE^2 = U/(U-1) sum_u (S_u - n_u mean)^2 / m^2, with S_u and n_u the sum
    and size of unit u: for one path per unit the usual per-path standard
    error, for pairs that of the pair means.  Fewer than two units give
    SE 0.  Marked not applicable when t exceeds the threshold time; no claim
    is made there.  p = 0 degenerates to the exact value 1.
    """
    xt = np.asarray(terminal_values, dtype=np.float64)
    m = xt.size
    threshold = negative_moment_threshold(k, max(p, 1.0), hurst)
    samples = xt ** (-p)
    estimate = float(np.mean(samples))
    units = np.arange(m) if units is None else units
    if np.shape(units) != xt.shape:
        raise ValueError(f"units has shape {np.shape(units)}, the values {xt.shape}")
    sums, sizes = np.bincount(units, samples), np.bincount(units)
    n_units = sizes.size
    resid_sq = float(np.sum((sums - sizes * estimate) ** 2))
    std_error = math.sqrt(n_units / (n_units - 1) * resid_sq) / m if n_units > 1 else 0.0
    if p > 0 and t > threshold:
        return MomentReport(t, p, estimate, std_error, m, None, None)
    bound = x0 ** (-p)
    passed = estimate <= bound + 3.0 * std_error
    return MomentReport(t, p, estimate, std_error, m, bound, passed)


class HomogeneityError(ValueError):
    """The drift does not satisfy its declared homogeneity relation."""


@dataclass(frozen=True)
class ScalingSpec:
    """Scaling data: f(st, yx) = s^m y^n f(t, x) and the drift-rescaling exponent."""

    a: float
    m: float
    n_hom: float
    hurst: float
    exponent: float


def _validate_homogeneity(drift: DriftSpec, m: float, n_hom: float) -> None:
    rng = np.random.default_rng(1234)
    for _ in range(40):
        s, y = rng.uniform(0.3, 3.0, size=2)
        t, x = rng.uniform(0.1, 2.0), rng.uniform(0.2, 5.0)
        lhs = float(np.asarray(drift.f(s * t, np.asarray(y * x))))
        rhs = s**m * y**n_hom * float(np.asarray(drift.f(t, np.asarray(x))))
        if abs(lhs - rhs) > 1e-9 * max(1.0, abs(rhs)):
            raise HomogeneityError(
                f"f(st, yx) != s^{m} y^{n_hom} f(t, x): {lhs} vs {rhs} "
                f"at s={s}, y={y}, t={t}, x={x}"
            )


def scaling_spec(drift: DriftSpec, a: float, hurst: float) -> ScalingSpec:
    """Exponent H - n H - m - 1 of the drift rescaling, validated numerically.

    The (p, q, n) encoding keeps m = p + q H symbolic in H, so drifts whose
    exponent cancels algebraically (the radial-repulsion family) come out as
    an exact floating-point zero.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    if drift.homogeneity is None:
        raise HomogeneityError(f"drift family {drift.family!r} declares no homogeneity")
    p, q, n_hom = drift.homogeneity
    m = p + q * hurst
    _validate_homogeneity(drift, m, n_hom)
    exponent = hurst * (1.0 - n_hom - q) - (p + 1.0)
    return ScalingSpec(a, m, n_hom, hurst, exponent)


def scaling_transform(
    drift: DriftSpec, a: float, hurst: float, x0: float
) -> tuple[float, DriftSpec, ScalingSpec]:
    """Initial value and drift of the equation whose law matches a^H X_{t/a}."""
    spec = scaling_spec(drift, a, hurst)
    factor = a**spec.exponent
    new_drift = drift if factor == 1.0 else scaled_drift(drift, factor)
    return a**hurst * x0, new_drift, spec


def ks_statistic(samples_a: np.ndarray, samples_b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|."""
    a = np.sort(np.asarray(samples_a, dtype=np.float64))
    b = np.sort(np.asarray(samples_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_critical_value(m: int, n: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample critical value c(alpha) sqrt((m+n)/(mn)).

    Sample sizes below 1000 are rejected: the asymptotic formula is not
    trustworthy there.
    """
    if min(m, n) < 1000:
        raise ValueError("asymptotic critical value needs at least 1000 samples per side")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((m + n) / (m * n))


@dataclass(frozen=True)
class StabilityEntry:
    order: float
    first_half: float
    second_half: float
    std_error: float
    passed: bool


@dataclass(frozen=True)
class StabilityReport:
    entries: tuple[StabilityEntry, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.passed for e in self.entries)


def empirical_moment_stability(sup_norms: np.ndarray, orders) -> StabilityReport:
    """Half-batch agreement of E[sup-norm^p] within 5 combined standard errors.

    A finiteness proxy: true integrability is not decidable from samples, but
    unstable or heavy-tail-dominated estimates disagree across halves.
    """
    sups = np.asarray(sup_norms, dtype=np.float64)
    if sups.size < 4:
        raise ValueError("need at least 4 paths")
    half = sups.size // 2
    a, b = sups[:half], sups[half : 2 * half]
    entries = []
    for p in orders:
        pa, pb = a**p, b**p
        m1, m2 = float(np.mean(pa)), float(np.mean(pb))
        se = math.sqrt((np.var(pa, ddof=1) + np.var(pb, ddof=1)) / half)
        entries.append(StabilityEntry(p, m1, m2, se, abs(m1 - m2) <= 5.0 * se))
    return StabilityReport(tuple(entries))


_R = TypeVar("_R")

# Bytes of driver increments sampled and solved per block: 1,024 rows at
# n_steps = 1024.  Blocks much under 1,000 rows pay the solver's per-step
# call overhead more often (512 rows were slower in process).
_BLOCK_BYTES = 8 << 20


def _prefix_spec(spec: FbmSpec, n_points: int) -> FbmSpec:
    """The spec whose grid starts like ``spec.times`` and covers its first ``n_points`` times.

    Its step count is the power of two at or above ``n_points - 1`` (at least
    2, at most ``spec.n_steps``), on the horizon that keeps the step
    ``spec.horizon / spec.n_steps``.  A power of two keeps the circulant FFT
    off the slow path a prime length takes (Wood & Chan 1994 size the
    embedding the same way).  When that count reaches ``spec.n_steps``,
    ``spec`` itself is returned, so full-grid drivers keep their bits.
    """
    n_pre = min(spec.n_steps, max(2, 1 << (n_points - 2).bit_length()))
    if n_pre == spec.n_steps:
        return spec
    return replace(spec, n_steps=n_pre, horizon=spec.horizon * n_pre / spec.n_steps)


def simulate_paths(
    spec: FbmSpec,
    drift: DriftSpec,
    x0: float,
    n_paths: int,
    reduce: Callable[[np.ndarray, np.ndarray], _R],
    n_points: int | None = None,
    *,
    antithetic: bool = False,
) -> list[_R]:
    """Sample drivers and solve the equation in path blocks; ``reduce`` each block.

    Returns ``reduce(drivers, solutions)`` of each block, in row order.  Both
    arrays hold the block's rows on the first ``n_points`` grid times
    (default: all of ``spec.times``), and the solve stops there.  The scheme
    is causal, so on given drivers those columns are bit-identical to a
    full-horizon solve.  The drivers themselves are not the leading columns
    of full-grid drivers: fBm restricted to [0, t] is fBm on the shorter
    grid, so they are rows of ``_prefix_spec(spec, n_points)``, cut to
    ``n_points`` columns.  A block holds about ``_BLOCK_BYTES`` of the full
    grid's increments and an even number of rows, so memory stays flat in
    ``n_paths``.  Rows keep their keys whatever the blocks, so no result
    depends on them.  ``reduce`` must not keep a view of its arguments, or
    the blocks it views stay alive.

    With ``antithetic``, path rows 2i and 2i + 1 are sampled row i and its
    negation (the fBm law is symmetric), so ``ceil(n_paths / 2)`` rows are
    sampled; an odd ``n_paths`` leaves the last path unmirrored.  Each pair
    is one independent unit, not two (``pair_units`` labels them).  Blocks
    then hold a multiple of 4 rows, so each block's first sampled row stays
    even.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    times = spec.times
    n_points = times.size if n_points is None else n_points
    if not 2 <= n_points <= times.size:
        raise ValueError(f"n_points must lie in [2, {times.size}], got {n_points}")
    times = times[:n_points]
    # sampled rows are keyed in pairs, so every block starts on an even one
    unit = 4 if antithetic else 2
    rows = unit * max(1, _BLOCK_BYTES // (8 * spec.n_steps) // unit)
    sampled = _prefix_spec(spec, n_points)

    results = []
    for first_row in range(0, n_paths, rows):
        count = min(rows, n_paths - first_row)
        if antithetic:
            drivers = np.empty((count, n_points))
            drivers[0::2] = sample_fbm_batch(sampled, (count + 1) // 2, first_row=first_row // 2)[:, :n_points]
            np.negative(drivers[: count - 1 : 2], out=drivers[1::2])
        else:
            drivers = sample_fbm_batch(sampled, count, first_row=first_row)[:, :n_points]
        results.append(reduce(drivers, solve_batch(x0, drift, drivers, times)))
        del drivers  # freed before the next block is sampled
    return results


def pair_units(n_paths: int) -> np.ndarray:
    """The unit label of each path row of ``simulate_paths(..., antithetic=True)``.

    Rows 2i and 2i + 1 share driver i, so both are unit i; an odd last row is
    a unit of its own.  These are the ``units`` of ``check_negative_moments``.
    """
    return np.arange(n_paths) // 2
