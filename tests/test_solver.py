"""Assumption checker, implicit stepper closed forms, positivity, change of variables."""

import hashlib

import numpy as np
import pytest

from fbmsde.fbm import FbmSpec, sample_fbm, sample_fbm_batch
from fbmsde.fraccalc import holder_seminorm, young_integral
from fbmsde import solver
from fbmsde.paths import SamplePath
from fbmsde.solver import (
    AssumptionReport,
    CirConditionError,
    CirConditionReport,
    CirDriftSpec,
    bessel_drift,
    check_cir_conditions,
    check_drift_assumptions,
    cir_drift_transform,
    cir_transform,
    custom_drift,
    eval_along_path,
    power_drift,
    reciprocal_drift,
    residual_defect,
    solve_batch,
    solve_cir,
    solve_pathwise,
    zero_drift,
)


def _flat_driver(n, horizon=1.0):
    return SamplePath(np.linspace(0.0, horizon, n + 1), np.zeros(n + 1))


def _constant_cir(k):
    return CirDriftSpec(
        f=lambda t, y: k * np.ones_like(np.asarray(y, dtype=np.float64)),
        dfdy=lambda t, y: np.zeros_like(np.asarray(y, dtype=np.float64)),
        lower_envelope=lambda t: k,
        upper_envelope=lambda t: k,
    )


class TestAssumptionChecker:
    def test_reciprocal_passes_everything(self):
        rep = check_drift_assumptions(reciprocal_drift(1.0), 0.75)
        assert rep.all_pass, rep.details

    def test_bessel_and_unit_power_pass(self):
        assert check_drift_assumptions(bessel_drift(2, 0.75), 0.75).all_pass
        assert check_drift_assumptions(power_drift(1.0, 1.0, 1.0), 0.75).all_pass

    def test_increasing_drift_fails_sign(self):
        drift = custom_drift(
            lambda t, x: np.asarray(x, dtype=np.float64),
            lambda t, x: np.ones_like(np.asarray(x, dtype=np.float64)),
            singularity_exponent=1.0,
            lower_envelope=lambda t: 1.0,
            upper_envelope=lambda t: 1.0,
        )
        rep = check_drift_assumptions(drift, 0.75)
        assert not rep.nonnegative_decreasing

    def test_steep_singularity_fails_growth_only(self):
        # t x^-2 repels strongly enough but grows faster than h(t)(1 + 1/x)
        drift = custom_drift(
            lambda t, x: t * np.asarray(x, dtype=np.float64) ** -2.0,
            lambda t, x: -2.0 * t * np.asarray(x, dtype=np.float64) ** -3.0,
            singularity_exponent=2.0,
            lower_envelope=lambda t: t,
            upper_envelope=lambda t: t,
        )
        rep = check_drift_assumptions(drift, 0.75)
        assert rep.nonnegative_decreasing
        assert rep.singular_repulsion
        assert not rep.reciprocal_growth

    def test_shallow_exponent_fails_repulsion(self):
        drift = power_drift(1.0, 0.0, 0.2)
        rep = check_drift_assumptions(drift, 0.75, beta=0.7)
        assert not rep.singular_repulsion


def _arr(x):
    return np.asarray(x, dtype=np.float64)


def _drift(f, dfdx, alpha=1.0, g=lambda t: 1.0, h=lambda t: 1.0, x1=1.0):
    return custom_drift(
        f, dfdx, singularity_exponent=alpha, lower_envelope=g, upper_envelope=h, x1=x1
    )


_T0 = "at t=0.04167"

# Every detail message of the drift checker, with the exact report each case gives.
_DRIFT_CASES = {
    "reciprocal": (reciprocal_drift(1.0), {}, (True, True, True), ()),
    "bessel": (bessel_drift(3, 0.7), {"horizon": 2.0}, (True, True, True), ()),
    "power_unit": (power_drift(1.0, 1.0, 1.0), {}, (True, True, True), ()),
    "power_shallow": (
        power_drift(1.0, 0.0, 0.2), {"beta": 0.7}, (True, False, True),
        ("singularity exponent 0.2 <= 1/beta - 1 = 0.4286 (beta=0.7)",),
    ),
    "increasing": (
        _drift(lambda t, x: _arr(x), lambda t, x: np.ones_like(_arr(x))), {}, (False, False, False),
        (f"df/dx > 0 {_T0}", f"f below g(t) x^-alpha {_T0}", f"f above h(t)(1 + 1/x) {_T0}"),
    ),
    "negative": (
        _drift(lambda t, x: -1.0 / _arr(x), lambda t, x: 1.0 / _arr(x) ** 2), {}, (False, False, True),
        (f"f(t, x) < 0 {_T0}", f"f below g(t) x^-alpha {_T0}"),
    ),
    "steep": (
        _drift(lambda t, x: t * _arr(x) ** -2.0, lambda t, x: -2.0 * t * _arr(x) ** -3.0,
               alpha=2.0, g=lambda t: t, h=lambda t: t),
        {}, (True, True, False), (f"f above h(t)(1 + 1/x) {_T0}",),
    ),
    "late_sign": (
        _drift(lambda t, x: (1.0 - t) / _arr(x), lambda t, x: -(1.0 - t) / _arr(x) ** 2,
               g=lambda t: 1.0 - t, h=lambda t: abs(1.0 - t)),
        {"horizon": 1.5}, (False, False, True),
        ("f(t, x) < 0 at t=1.062", "lower envelope not positive at t=1"),
    ),
    "weak_floor": (
        _drift(lambda t, x: 0.5 / _arr(x), lambda t, x: -0.5 / _arr(x) ** 2), {}, (True, False, True),
        (f"f below g(t) x^-alpha {_T0}",),
    ),
    "zero_envelope": (
        _drift(lambda t, x: 1.0 / _arr(x), lambda t, x: -1.0 / _arr(x) ** 2, g=lambda t: 0.0),
        {}, (True, False, True), (f"lower envelope not positive {_T0}",),
    ),
    "no_small_x": (
        _drift(lambda t, x: 1.0 / _arr(x), lambda t, x: -1.0 / _arr(x) ** 2, x1=1e-6),
        {}, (True, True, True), (),
    ),
    "zero": (
        zero_drift(), {}, (True, False, True),
        ("singularity exponent 0.0 <= 1/beta - 1 = 0.6 (beta=0.625)",),
    ),
}


@pytest.mark.parametrize("name", list(_DRIFT_CASES))
def test_drift_checker_report_is_pinned(name):
    drift, kwargs, flags, details = _DRIFT_CASES[name]
    assert check_drift_assumptions(drift, 0.75, **kwargs) == AssumptionReport(*flags, details)


def _cir(f, dfdy, g=lambda t: 1.0, h=lambda t: 1.0, x1=1.0):
    return CirDriftSpec(f=f, dfdy=dfdy, lower_envelope=g, upper_envelope=h, x1=x1)


_ZERO = lambda t, y: np.zeros_like(_arr(y))
_ONE = lambda t, y: np.ones_like(_arr(y))

# Every detail message of the square-root-diffusion checker, pinned the same way.
_CIR_CASES = {
    "constant": (_cir(lambda t, y: 0.5 * _ONE(t, y), _ZERO, g=lambda t: 0.5, h=lambda t: 0.5),
                 {}, (True, True, True), ()),
    "affine": (_cir(lambda t, y: 1.0 + _arr(y), _ONE), {"horizon": 3.0}, (True, True, True), ()),
    "linear": (_cir(lambda t, y: _arr(y), _ONE, g=lambda t: 0.1), {}, (False, True, True),
               (f"(a) f below its small-value floor {_T0}",)),
    "zero": (_cir(_ZERO, _ZERO, g=lambda t: 0.0, h=lambda t: 0.0), {}, (False, True, True),
             (f"(a) lower envelope not positive {_T0}",)),
    "negative": (_cir(lambda t, y: -1.0 - _arr(y), lambda t, y: -_ONE(t, y)), {}, (False, False, True),
                 (f"(a) f below its small-value floor {_T0}", f"f(t, y) < 0 {_T0}")),
    "convex": (_cir(lambda t, y: 1.0 + _arr(y) ** 2, lambda t, y: 2.0 * _arr(y)), {},
               (True, False, False), (f"(b) f < y df/dy {_T0}", f"(c) f above h(t)(y + 1) {_T0}")),
    "late_floor": (_cir(lambda t, y: (1.0 - t) * _ONE(t, y), _ZERO, g=lambda t: 1.0 - t),
                   {"horizon": 1.5}, (False, False, True),
                   ("(a) lower envelope not positive at t=1", "f(t, y) < 0 at t=1.062")),
    "no_small_y": (_cir(lambda t, y: _arr(y), _ONE, x1=1e-6), {}, (True, True, True), ()),
}


@pytest.mark.parametrize("name", list(_CIR_CASES))
def test_cir_checker_report_is_pinned(name):
    cir, kwargs, flags, details = _CIR_CASES[name]
    assert check_cir_conditions(cir, **kwargs) == CirConditionReport(*flags, details)


class TestSolver:
    def test_zero_drift_is_pure_translation(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=256, seed=31))
        sol = solve_pathwise(5.0, zero_drift(), driver)
        assert np.allclose(sol.values, 5.0 + driver.values, atol=1e-13)

    def test_zero_drift_brackets_below_minus_one(self):
        # a whole-line path below -1 that then steps up: the upper bracket
        # must grow upward from a negative start
        times = np.linspace(0.0, 1.0, 5)
        sol = solve_batch(1.0, zero_drift(), [[0.0, -3.0, -2.5, -2.6, -2.0]], times)
        assert np.allclose(sol[0], [1.0, -2.0, -1.5, -1.6, -1.0], rtol=0.0, atol=1e-12)
        spec = FbmSpec(hurst=0.75, n_steps=256, seed=2)
        driver = sample_fbm(spec)
        assert np.allclose(solve_pathwise(0.0, zero_drift(), driver).values, driver.values, atol=1e-13)
        drivers = 4.0 * sample_fbm_batch(spec, 200)
        sol = solve_batch(0.5, zero_drift(), drivers, spec.times)
        assert np.max(np.abs(sol - (0.5 + drivers))) < 1e-12

    def test_reciprocal_zero_driver_closed_form(self):
        # x' = k/x from x0 -> sqrt(x0^2 + 2kt)
        sol = solve_pathwise(1.0, reciprocal_drift(1.0), _flat_driver(10_000))
        exact = np.sqrt(1.0 + 2.0 * sol.times)
        assert np.max(np.abs(sol.values - exact)) < 1e-3

    def test_newton_matches_quadratic_on_reciprocal_form(self):
        # same drift with and without the closed-form fast path
        k = 0.7
        slow = custom_drift(
            lambda t, x: k / np.asarray(x, dtype=np.float64),
            lambda t, x: -k / np.asarray(x, dtype=np.float64) ** 2,
            singularity_exponent=1.0,
            lower_envelope=lambda t: k,
            upper_envelope=lambda t: k,
            x1=np.inf,
        )
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=256, seed=9))
        fast_sol = solve_pathwise(1.0, reciprocal_drift(k), driver)
        slow_sol = solve_pathwise(1.0, slow, driver)
        assert np.max(np.abs(fast_sol.values - slow_sol.values)) < 1e-10

    def test_positivity_on_fbm_batch(self):
        spec = FbmSpec(hurst=0.75, n_steps=512, seed=1)
        drivers = sample_fbm_batch(spec, 200)
        sols = solve_batch(1.0, reciprocal_drift(1.0), drivers, spec.times)
        assert np.min(sols) > 0.0

    def test_implicit_residual_within_tolerance(self):
        drift = power_drift(1.0, 0.0, 1.5)
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=256, seed=4))
        sol = solve_pathwise(1.0, drift, driver)
        dt = sol.dt
        for k in range(1, sol.times.size):
            t, x = sol.times[k], sol.values[k]
            resid = x - dt * float(drift.f(t, np.asarray(x))) - (
                sol.values[k - 1] + driver.values[k] - driver.values[k - 1]
            )
            assert abs(resid) <= solver._NEWTON_TOL * 1.01

    def test_self_convergence_first_order(self):
        # fix one fine driver, restrict to coarser grids, compare dt vs dt/2 vs dt/4
        spec = FbmSpec(hurst=0.75, n_steps=2048, seed=8)
        drivers_fine = sample_fbm_batch(spec, 100)
        times_fine = spec.times
        d1_tot, d2_tot = 0.0, 0.0
        for row in drivers_fine:
            sols = {}
            for step in (4, 2, 1):
                times = times_fine[::step]
                sols[step] = solve_batch(1.0, reciprocal_drift(1.0), row[::step][None, :], times)[0]
            d1 = np.max(np.abs(sols[4] - sols[2][::2]))
            d2 = np.max(np.abs(sols[2] - sols[1][::2]))
            d1_tot += d1
            d2_tot += d2
        # first order predicts d1 ~ 2 d2; allow a factor-2 slack
        assert d1_tot <= 2.0 * (2.0 * d2_tot)
        assert d1_tot >= d2_tot  # refinement helps at all

    @pytest.mark.parametrize(
        "drift",
        [reciprocal_drift(1.0), power_drift(1.0, 0.0, 1.5)],
        ids=["closed-form", "newton"],
    )
    def test_rows_independent_of_batch(self, drift):
        spec = FbmSpec(hurst=0.75, n_steps=512, seed=17)
        drivers = sample_fbm_batch(spec, 12)
        batch = solve_batch(1.0, drift, drivers, spec.times)
        for row, solved in zip(drivers, batch):
            alone = solve_batch(1.0, drift, row[None, :], spec.times)[0]
            assert np.array_equal(solved, alone)

    def test_initial_value_validated(self):
        with pytest.raises(ValueError):
            solve_pathwise(-1.0, reciprocal_drift(1.0), _flat_driver(16))


@pytest.mark.parametrize("hurst", [0.55, 0.75])
@pytest.mark.parametrize(
    "drift",
    [reciprocal_drift(1.0), power_drift(1.0, 0.0, 1.5)],
    ids=["closed-form", "newton"],
)
def test_observed_strong_order(hurst, drift):
    # E max|x_dt - x_ref| against a 2^12-step reference on the same drivers,
    # dt = 2^-5 ... 2^-9; the log-log slope is the observed strong order.
    # A scheme that lags the noise by one step has order about H, so the
    # test uses H <= 0.75 where that stays outside the bound.
    spec = FbmSpec(hurst=hurst, n_steps=2**12, seed=3)
    drivers = sample_fbm_batch(spec, 100)
    ref = solve_batch(1.0, drift, drivers, spec.times)
    dts, errs = [], []
    for stride in (2**3, 2**4, 2**5, 2**6, 2**7):
        coarse = solve_batch(1.0, drift, drivers[:, ::stride], spec.times[::stride])
        errs.append(np.mean(np.max(np.abs(coarse - ref[:, ::stride]), axis=1)))
        dts.append(stride * 2.0**-12)
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert abs(slope - 1.0) <= 0.15, f"observed strong order {slope:.3f}"


@pytest.mark.parametrize("x0", [1e-12, 1e-6])
@pytest.mark.parametrize("hurst", [0.501, 0.999])
@pytest.mark.parametrize("family", ["reciprocal", "power", "bessel"])
def test_domain_edges(family, hurst, x0):
    # a start next to the singularity, with H next to either end of (1/2, 1)
    drift = {
        "reciprocal": reciprocal_drift(1.0),
        "power": power_drift(1.0, 0.0, 1.5),
        "bessel": bessel_drift(2, hurst),
    }[family]
    spec = FbmSpec(hurst=hurst, n_steps=256, seed=31)
    drivers = sample_fbm_batch(spec, 8)
    sols = solve_batch(x0, drift, drivers, spec.times)
    assert np.all(np.isfinite(sols)) and np.all(sols > 0.0)
    if drift.inverse_coeff is None:
        # every step went through Newton: redo each step's residual as the solver forms it
        dt = float(spec.times[1] - spec.times[0])
        for k in range(1, spec.times.size):
            x = sols[:, k]
            b = sols[:, k - 1] + (drivers[:, k] - drivers[:, k - 1])
            resid = x - dt * np.asarray(drift.f(float(spec.times[k]), x)) - b
            assert np.max(np.abs(resid)) <= solver._NEWTON_TOL


class TestBytePins:
    # A change to the solver's output bytes must be declared: update these
    # digests with it.  Pinned for numpy >= 2.0, whose FFT backend differs
    # from 1.x (taken with numpy 2.4.6).
    @pytest.mark.parametrize(
        "drift, digest",
        [
            (
                reciprocal_drift(1.0),
                "a0750a61f277e8833f34d30fc282170bc177e91cd3f44bc6c2bd964887fe3ab0",
            ),
            (
                power_drift(1.0, 0.0, 1.5),
                "06de66f02fb630083935e6d3697b87afcff053409b73b227918ba19ec36b4301",
            ),
        ],
        ids=["closed-form", "newton"],
    )
    def test_solve_batch_is_pinned(self, drift, digest):
        spec = FbmSpec(0.75, n_steps=256, seed=2024)
        sols = solve_batch(1.0, drift, sample_fbm_batch(spec, 8), spec.times)
        assert sols.shape == (8, 257)
        assert hashlib.sha256(sols.astype("<f8").tobytes()).hexdigest() == digest


def _reference_newton_step(drift, t, b, x_prev, dt, fallbacks):
    """The Newton branch of the implicit step with every row masked explicitly.

    Kept as the reference the solver must match byte for byte.  ``fallbacks``
    collects how many rows took the bisection fallback at each iteration.
    """

    def residual(x):
        return x - dt * np.asarray(drift.f(t, x), dtype=np.float64) - b

    if drift.positive_domain:
        lo = np.minimum(np.where(b > 0, b, x_prev), x_prev) * 0.5
        lo = np.maximum(lo, 1e-300)
        for _ in range(2000):
            bad = residual(lo) >= 0
            if not np.any(bad):
                break
            lo = np.where(bad, lo * 0.5, lo)
        else:
            raise solver.SolverError("could not bracket the implicit step from below")
        hi = np.maximum(b, x_prev)
        x0 = np.maximum(b, 0.5 * x_prev)
    else:
        lo = np.minimum(b, x_prev) - 1.0
        for _ in range(200):
            bad = residual(lo) >= 0
            if not np.any(bad):
                break
            lo = np.where(bad, lo - 2.0 * np.abs(lo) - 1.0, lo)
        else:
            raise solver.SolverError("could not bracket the implicit step from below")
        hi = np.maximum(b, x_prev)
        x0 = b.copy()
    for _ in range(200):
        bad = residual(hi) <= 0
        if not np.any(bad):
            break
        hi = np.where(bad, hi + np.abs(hi) + 1.0, hi)
    else:
        raise solver.SolverError("could not bracket the implicit step from above")

    x = np.clip(x0, lo, hi)
    res = residual(x)
    done = np.abs(res) <= solver._NEWTON_TOL
    for _ in range(solver._MAX_NEWTON_ITERS):
        if np.all(done):
            break
        lo = np.where(~done & (res < 0), x, lo)
        hi = np.where(~done & (res > 0), x, hi)
        deriv = 1.0 - dt * np.asarray(drift.dfdx(t, x), dtype=np.float64)
        step = np.where(done, 0.0, res / deriv)
        cand = x - step
        outside = (cand <= lo) | (cand >= hi)
        fallbacks.append(int(np.count_nonzero(outside & ~done)))
        cand = np.where(outside & ~done, 0.5 * (lo + hi), cand)
        x = np.where(done, x, cand)
        res = np.where(done, res, residual(x))
        done = done | (np.abs(res) <= solver._NEWTON_TOL)
    if not np.all(done):
        raise solver.SolverError(
            f"implicit step did not converge at t={t}; max residual {np.max(np.abs(res)):.3e}"
        )
    return x


def _reference_solve(x0, drift, drivers, times, fallbacks):
    dt = float(times[1] - times[0])
    x = np.full(drivers.shape[0], float(x0))
    columns = [x]
    for k in range(times.size - 1):
        b = x + (drivers[:, k + 1] - drivers[:, k])
        x = _reference_newton_step(drift, float(times[k + 1]), b, x, dt, fallbacks)
        columns.append(x)
    return np.stack(columns, axis=1)


def test_newton_step_matches_masked_reference_through_bisection():
    # Short, coarse grids with a 5x driver push Newton outside its bracket,
    # so the bisection fallback fires; no byte pin reaches that branch.
    whole_line = custom_drift(
        lambda t, x: -2.0 * x + np.sin(x),
        lambda t, x: -2.0 + np.cos(x),
        singularity_exponent=0.0,
        lower_envelope=lambda t: 0.0,
        upper_envelope=lambda t: 0.0,
        positive_domain=False,
    )
    fallbacks = []
    for n in (8, 16, 64):
        spec = FbmSpec(0.55, n_steps=n, seed=3)
        drivers = sample_fbm_batch(spec, 64) * 5
        drifts = [power_drift(1.0, 0.0, q) for q in (0.5, 1.5, 3.0, 6.0)] + [whole_line]
        for drift in drifts:
            for x0 in (1e-6, 1e-2, 1.0, 10.0):
                got = solve_batch(x0, drift, drivers, spec.times)
                want = _reference_solve(x0, drift, drivers, spec.times, fallbacks)
                assert got.tobytes() == want.tobytes(), (n, drift.family, x0)
    assert sum(fallbacks) > 0


def _newton_drift(f, positive_domain=True):
    return custom_drift(
        f,
        lambda t, x: np.zeros_like(x),
        singularity_exponent=1.0,
        lower_envelope=lambda t: 1.0,
        upper_envelope=lambda t: 1.0,
        positive_domain=positive_domain,
    )


class TestImplicitStepErrors:
    def test_nan_residual_is_not_convergence(self):
        # the row started at 5 only ever sees NaN; the row at 1 converges
        drift = _newton_drift(lambda t, x: np.where(x < 2.0, 1.0 / x, np.nan))
        with pytest.raises(solver.SolverError, match="implicit step did not converge .*max residual nan"):
            solve_batch(np.array([1.0, 5.0]), drift, np.zeros((2, 17)), np.linspace(0.0, 1.0, 17))

    @pytest.mark.parametrize(
        "f, positive_domain, driver_step, side",
        [
            (lambda t, x: -np.ones_like(x), True, -1.0, "below"),
            (lambda t, x: -(x**2), False, -1.0, "below"),
            (lambda t, x: x**2, True, 0.0, "above"),
        ],
        ids=["positive-below", "whole-line-below", "above"],
    )
    def test_bracket_failure_raises(self, f, positive_domain, driver_step, side):
        # one step of size dt = 1 from x0 = 1; the residual never changes sign
        drivers = np.array([[0.0, driver_step]])
        with pytest.raises(solver.SolverError, match=f"could not bracket the implicit step from {side}"):
            solve_batch(1.0, _newton_drift(f, positive_domain), drivers, np.array([0.0, 1.0]))


class TestComparison:
    def test_ordering_contraction_monotone(self):
        spec = FbmSpec(hurst=0.75, n_steps=512, seed=44)
        drivers = sample_fbm_batch(spec, 100)
        for row in drivers:
            pair = solve_batch(
                np.array([1.0, 2.0]), reciprocal_drift(1.0), np.vstack([row, row]), spec.times
            )
            gap = pair[1] - pair[0]
            assert np.all(gap >= 0.0)
            assert np.all(gap <= 1.0)
            assert np.all(np.diff(gap) <= 0.0)


class TestResidualDefect:
    def test_zero_drift_zero_defect(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=128, seed=12))
        sol = solve_pathwise(2.0, zero_drift(), driver)
        assert residual_defect(sol, zero_drift(), driver) < 1e-12

    def test_closed_form_case_small_defect(self):
        driver = _flat_driver(2000)
        drift = reciprocal_drift(1.0)
        sol = solve_pathwise(1.0, drift, driver)
        assert residual_defect(sol, drift, driver) < 5e-4

    def test_defect_shrinks_with_dt(self):
        spec = FbmSpec(hurst=0.75, n_steps=1024, seed=77)
        fine = sample_fbm(spec)
        drift = reciprocal_drift(1.0)
        defects = []
        for step in (4, 2, 1):
            times = fine.times[::step]
            driver = SamplePath(times, fine.values[::step], holder_hint=0.75)
            sol = solve_pathwise(1.0, drift, driver)
            defects.append(residual_defect(sol, drift, driver))
        assert defects[0] >= 2.0 * defects[1] * 0.7
        assert defects[1] >= 2.0 * defects[2] * 0.7


class TestEvalAlongPath:
    def test_drift_error_propagates(self):
        def scalar_time_only(t, x):
            if np.ndim(t):
                raise RuntimeError("scalar time only")
            return 1.0 / np.asarray(x, dtype=np.float64)

        drift = custom_drift(
            scalar_time_only,
            lambda t, x: -1.0 / np.asarray(x, dtype=np.float64) ** 2,
            singularity_exponent=1.0,
            lower_envelope=lambda t: 1.0,
            upper_envelope=lambda t: 1.0,
        )
        driver = _flat_driver(64)
        sol = solve_pathwise(1.0, reciprocal_drift(1.0), driver)
        with pytest.raises(RuntimeError, match="scalar time only"):
            residual_defect(sol, drift, driver)

    def test_shape_checked_and_scalar_broadcast(self):
        times = np.linspace(0.0, 1.0, 9)
        values = np.ones(9)
        assert np.array_equal(eval_along_path(lambda t, x: 2.0, times, values), np.full(9, 2.0))
        with pytest.raises(ValueError, match="shape"):
            eval_along_path(lambda t, x: np.ones(3), times, values)

    def test_nonfinite_start_replaced_by_neighbor(self):
        times = np.linspace(0.0, 1.0, 3)
        got = eval_along_path(lambda t, x: x, times, np.array([np.inf, 3.0, 2.0]))
        assert np.array_equal(got, [3.0, 3.0, 2.0])


class TestCir:
    def test_transform_round_trip(self):
        assert cir_transform(1.0, "forward") == 2.0
        for y in (0.0, 0.25, 7.0):
            assert cir_transform(cir_transform(y, "forward"), "inverse") == pytest.approx(y)
        with pytest.raises(ValueError):
            cir_transform(-1.0, "forward")
        with pytest.raises(ValueError):
            cir_transform(1.0, "sideways")

    def test_constant_drift_transform_satisfies_assumptions(self):
        drift = cir_drift_transform(_constant_cir(0.5))
        assert check_drift_assumptions(drift, 0.75).all_pass
        # f1(t, x) = 2 * 0.5 / x
        assert float(drift.f(0.3, np.asarray(2.0))) == pytest.approx(0.5)

    def test_affine_drift_conditions(self):
        # f(t, y) = 1 + y satisfies (a)-(c) and transforms to 2/x + 2
        cir = CirDriftSpec(
            f=lambda t, y: 1.0 + np.asarray(y, dtype=np.float64),
            dfdy=lambda t, y: np.ones_like(np.asarray(y, dtype=np.float64)),
            lower_envelope=lambda t: 1.0,
            upper_envelope=lambda t: 1.0,
        )
        assert check_cir_conditions(cir).all_pass
        drift = cir_drift_transform(cir)
        assert check_drift_assumptions(drift, 0.75).all_pass
        for x in (0.5, 1.0, 4.0):
            assert float(drift.f(0.3, np.asarray(x))) == pytest.approx(2.0 / x + 2.0)

    def test_zero_drift_zero_driver_is_constant(self):
        # without the small-value floor the transform is still well defined,
        # and a flat driver keeps the level frozen
        cir = CirDriftSpec(
            f=lambda t, y: np.zeros_like(np.asarray(y, dtype=np.float64)),
            dfdy=lambda t, y: np.zeros_like(np.asarray(y, dtype=np.float64)),
            lower_envelope=lambda t: 0.0,
            upper_envelope=lambda t: 0.0,
        )
        sol = solve_cir(2.0, cir, _flat_driver(64))
        assert np.allclose(sol.values, 2.0, atol=1e-12)

    def test_linear_drift_fails_floor_condition(self):
        cir = CirDriftSpec(
            f=lambda t, y: np.asarray(y, dtype=np.float64),
            dfdy=lambda t, y: np.ones_like(np.asarray(y, dtype=np.float64)),
            lower_envelope=lambda t: 0.1,
            upper_envelope=lambda t: 1.0,
        )
        rep = check_cir_conditions(cir)
        assert not rep.small_value_floor
        with pytest.raises(CirConditionError, match=r"\(a\)"):
            cir_drift_transform(cir)

    def test_trivial_equation_constant(self):
        cir = _constant_cir(0.5)
        # zero drift AND zero driver would need f = 0 which violates (a); use
        # the exact ODE solution instead: y' = k -> y0 + k t
        sol = solve_cir(1.0, cir, _flat_driver(512))
        assert np.max(np.abs(sol.values - (1.0 + 0.5 * sol.times))) < 1e-3

    def test_square_root_identity(self):
        cir = _constant_cir(0.5)
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=256, seed=6))
        y = solve_cir(1.0, cir, driver)
        x = solve_pathwise(2.0, cir_drift_transform(cir), driver)
        assert np.allclose(y.values, x.values**2 / 4.0, rtol=0, atol=0)

    def test_young_residual_smooth_driver(self):
        k = 0.5
        cir = _constant_cir(k)
        driver = SamplePath.from_function(
            lambda t: 0.3 * np.sin(2 * np.pi * t), 1.0, 1000, holder_hint=1.0
        )
        y = solve_cir(1.0, cir, driver)
        sq = SamplePath(y.times, np.sqrt(y.values), holder_hint=1.0)
        for t in (0.25, 0.5, 1.0):
            idx = y.index_of(t)
            stieltjes = young_integral(sq, driver, 0.0, t, 0.5)
            resid = abs(y.values[idx] - 1.0 - k * t - stieltjes)
            assert resid <= 5e-3

    def test_positivity_on_fbm(self):
        cir = _constant_cir(0.5)
        spec = FbmSpec(hurst=0.75, n_steps=256, seed=10)
        drivers = sample_fbm_batch(spec, 100)
        drift = cir_drift_transform(cir)
        x = solve_batch(2.0, drift, drivers, spec.times)
        assert np.min(x**2 / 4.0) > 0.0


def test_bessel_solution_seminorm_grid_stable():
    hurst = 0.75
    drift = bessel_drift(2, hurst)
    fine_spec = FbmSpec(hurst=hurst, n_steps=1024, seed=15)
    fine_driver = sample_fbm(fine_spec)
    norms = []
    for step in (4, 1):
        times = fine_driver.times[::step]
        driver = SamplePath(times, fine_driver.values[::step], holder_hint=hurst)
        sol = solve_pathwise(1.0, drift, driver)
        norms.append(holder_seminorm(sol, 0.0, 1.0, hurst - 0.05))
    assert norms[1] < 2.0 * norms[0]
