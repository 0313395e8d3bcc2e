"""Assumption checker, implicit stepper closed forms, positivity, change of variables."""

import contextlib
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fbmsde.fbm import FbmSpec, sample_fbm, sample_fbm_batch
from fbmsde.fraccalc import holder_seminorm, young_integral
from fbmsde import solver
from fbmsde.paths import SamplePath
from fbmsde.solver import (
    AssumptionReport,
    DriftSpec,
    bessel_drift,
    check_drift_assumptions,
    cir_transform,
    eval_along_path,
    power_drift,
    reciprocal_drift,
    residual_defect,
    scaled_drift,
    solve_batch,
    solve_pathwise,
)

from drifts import zero_drift


def _flat_driver(n, horizon=1.0):
    return SamplePath(np.linspace(0.0, horizon, n + 1), np.zeros(n + 1))


def _solve_cir(y0, k, driver):
    """Y of y' = k + sqrt(y) phi' as x^2/4, where x' = 2k/x + phi' starts at 2 sqrt(y0)."""
    x = solve_pathwise(cir_transform(y0), reciprocal_drift(2.0 * k), driver)
    return SamplePath(x.times, x.values**2 / 4.0, holder_hint=x.holder_hint)


class TestAssumptionChecker:
    def test_reciprocal_passes_everything(self):
        rep = check_drift_assumptions(reciprocal_drift(1.0), 0.75)
        assert rep.all_pass, rep.details

    def test_bessel_and_unit_power_pass(self):
        assert check_drift_assumptions(bessel_drift(2, 0.75), 0.75).all_pass
        assert check_drift_assumptions(power_drift(1.0, 1.0, 1.0), 0.75).all_pass

    def test_increasing_drift_fails_sign(self):
        drift = DriftSpec(
            "custom",
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
        drift = DriftSpec(
            "custom",
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

    @pytest.mark.parametrize("q", [0.2, 1.0, 1.5, 6.0, 20.0])
    def test_power_family_convexity_passes(self, q):
        # convex in x (df/dx increases in x), which Newton's bracket-free step rests on
        drift = power_drift(2.0, 1.5, q)
        xs = np.geomspace(1e-4, 10.0, 48)
        for d in (drift, scaled_drift(drift, 3.0)):
            assert np.all(np.diff(d.dfdx(0.7, xs)) > 0.0)
        rep = check_drift_assumptions(drift, 0.75, horizon=3.0)
        assert rep.nonnegative_decreasing, rep.details


def _arr(x):
    return np.asarray(x, dtype=np.float64)


def _drift(f, dfdx, alpha=1.0, g=lambda t: 1.0, h=lambda t: 1.0, x1=1.0):
    return DriftSpec(
        "custom", f, dfdx, singularity_exponent=alpha, lower_envelope=g, upper_envelope=h, x1=x1
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


class TestSolver:
    def test_zero_drift_is_pure_translation(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=256, seed=31))
        sol = solve_pathwise(5.0, zero_drift(), driver)
        assert np.allclose(sol.values, 5.0 + driver.values, atol=1e-13)

    def test_zero_drift_brackets_below_minus_one(self):
        # a whole-line path below -1 that then steps up: no clamp may keep
        # the iterate from a negative root
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
        slow = DriftSpec(
            "custom",
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
        sols = {
            step: solve_batch(1.0, reciprocal_drift(1.0), drivers_fine[:, ::step], spec.times[::step])
            for step in (4, 2, 1)
        }
        # rows are independent of the batch; sum their maxima in row order
        d1_tot, d2_tot = 0.0, 0.0
        for d1, d2 in zip(
            np.max(np.abs(sols[4] - sols[2][:, ::2]), axis=1),
            np.max(np.abs(sols[2] - sols[1][:, ::2]), axis=1),
        ):
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


def _bound_audit_block():
    """The ``bound-audit`` benchmark's one block: 60 rows x 1,024 steps, H 0.75, seed 12345."""
    spec = FbmSpec(0.75, n_steps=1024, seed=12345)
    return power_drift(1.0, 1.0, 1.5), sample_fbm_batch(spec, 60), spec.times


def _recording(drift):
    """The drift with every call logged, in call order, as (name, t, x, value) in the returned list."""
    log = []

    def logged(name, fn):
        def wrapped(t, x):
            value = np.asarray(fn(t, x), dtype=np.float64)
            log.append((name, t, np.array(x, dtype=np.float64), value))
            return value

        return wrapped

    return replace(drift, f=logged("f", drift.f), dfdx=logged("dfdx", drift.dfdx)), log


def _call_keys(log):
    """Each logged call's name, time and argument bytes."""
    return [(name, t, x.tobytes()) for name, t, x, _ in log]


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
                "2d57fc49fc9f4371984d288c823e54291f037b085bb8660362c11087bba01f6f",
            ),
        ],
        ids=["closed-form", "newton"],
    )
    def test_solve_batch_is_pinned(self, drift, digest):
        spec = FbmSpec(0.75, n_steps=256, seed=2024)
        sols = solve_batch(1.0, drift, sample_fbm_batch(spec, 8), spec.times)
        assert sols.shape == (8, 257)
        assert hashlib.sha256(sols.astype("<f8").tobytes()).hexdigest() == digest

    def test_bound_audit_drift_calls_are_pinned(self):
        # 3,990 f and dfdx calls over 1,024 steps: the 3.896484375 per step
        # that the benchmark's solver.drift_evals_per_step reports on this block
        drift, drivers, times = _bound_audit_block()
        recorded, calls = _recording(drift)
        solve_batch(1.0, recorded, drivers, times)
        assert len(calls) == 3990
        assert len(calls) / (times.size - 1) == 3.896484375


def _bisection_roots(drift, t, b, dt, guess):
    """The root of x - dt f(t, x) = b in each row, bisected down to adjacent floats.

    The bracket grows from ``guess`` until F changes sign.  F is increasing for
    every drift used here, so the root is unique and does not depend on the
    guess.  Rows are bisected side by side, each on its own scalar equation.
    """

    def F(x):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return x - dt * np.asarray(drift.f(t, x), dtype=np.float64) - b

    width = 1e-3 * (1.0 + np.abs(guess))
    lo = 0.5 * guess if drift.positive_domain else guess - width
    hi = guess + width
    for _ in range(200):
        low, high = F(lo) >= 0, F(hi) <= 0
        if not (low.any() or high.any()):
            break
        lo = np.where(low, lo * 2.0**-8 if drift.positive_domain else lo - 16.0 * width, lo)
        hi = np.where(high, hi + 16.0 * width, hi)
        width = 16.0 * width
    else:
        raise AssertionError("oracle could not bracket the root")
    while True:
        mid = 0.5 * (lo + hi)
        open_rows = (mid > lo) & (mid < hi)
        if not open_rows.any():
            return mid
        below = F(mid) < 0
        lo = np.where(open_rows & below, mid, lo)
        hi = np.where(open_rows & ~below, mid, hi)


def _non_newton_steps(calls, times, b_by_step):
    """Iterations whose next iterate is not the Newton candidate.

    These are the clamps at x / 2 on the positive domain.
    """
    dt = float(times[1] - times[0])
    count = 0
    for k in range(1, times.size):
        t, b = float(times[k]), b_by_step[k]
        fs = [c[1:] for c in calls if c[:2] == ("f", t)]
        ds = [c[1:] for c in calls if c[:2] == ("dfdx", t)]
        # one f call at the start, then one dfdx and one f call per iteration
        assert len(fs) == len(ds) + 1
        for (_, x, fx), (_, xd, d), (_, nxt, _) in zip(fs, ds, fs[1:]):
            res = xd - dt * fx - b  # rows still iterating were evaluated at x == xd
            cand = xd - res / (1.0 - dt * d)
            moved = (nxt != xd) & (x == xd)
            count += int(np.count_nonzero(moved & ~np.isclose(nxt, cand, rtol=1e-12, atol=0.0)))
    return count


_POWERS = (0.5, 1.5, 3.0, 6.0)


def _oracle_grid_fallbacks(drift):
    """Check ``drift`` against the bisection oracle and return ``_non_newton_steps``.

    Short, coarse grids with a 5x driver push Newton candidates below x / 2,
    so the clamp fires; no byte pin reaches it.
    """
    fallbacks = 0
    for n in (8, 16, 64):
        spec = FbmSpec(0.55, n_steps=n, seed=3)
        drivers = sample_fbm_batch(spec, 64) * 5
        dt = float(spec.times[1] - spec.times[0])
        for x0 in (1e-6, 1e-2, 1.0, 10.0):
            recorded, calls = _recording(drift)
            got = solve_batch(x0, recorded, drivers, spec.times)
            b = {k: got[:, k - 1] + (drivers[:, k] - drivers[:, k - 1]) for k in range(1, n + 1)}
            for k in range(1, n + 1):
                root = _bisection_roots(drift, float(spec.times[k]), b[k], dt, got[:, k])
                err = np.max(np.abs(got[:, k] - root))
                assert err <= 1e-10, (n, drift.family, x0, k, err)
            fallbacks += _non_newton_steps(calls, spec.times, b)
    return fallbacks


# the one whole-line drift on the oracle grid
_WHOLE_LINE = DriftSpec(
    "custom",
    lambda t, x: -2.0 * x + np.sin(x),
    lambda t, x: -2.0 + np.cos(x),
    singularity_exponent=0.0,
    lower_envelope=lambda t: 0.0,
    upper_envelope=lambda t: 0.0,
)

# nonincreasing but concave in x near x = 1.5, so the step function F is not
# concave there and Newton may overshoot the root
_NONCONVEX = _drift(
    lambda t, x: 1.0 / _arr(x) + 5.0 * (1.0 - np.tanh(_arr(x) - 2.0)),
    lambda t, x: -1.0 / _arr(x) ** 2 - 5.0 / np.cosh(_arr(x) - 2.0) ** 2,
    h=lambda t: 10.0,
)


def test_whole_line_drift_matches_the_oracle():
    # no clamp applies on the whole line
    assert _oracle_grid_fallbacks(_WHOLE_LINE) == 0


@pytest.mark.parametrize("q", _POWERS, ids=lambda q: f"{q}-clamp")
def test_each_newton_guard_fires_on_the_oracle_grid(q):
    # Newton matches the oracle, and its clamp at x / 2 fires for every q
    assert _oracle_grid_fallbacks(power_drift(1.0, 0.0, q)) > 0


def test_nonconvex_drift_matches_the_oracle():
    # Newton may overshoot the root of the nonconvex drift; the clamp still
    # keeps it positive and every step converges to the oracle's root
    assert check_drift_assumptions(_NONCONVEX, 0.75).nonnegative_decreasing
    assert _oracle_grid_fallbacks(_NONCONVEX) > 0


@pytest.mark.parametrize("x0", [1e3, 1e5, 1e7])
def test_newton_converges_far_from_the_singularity(x0):
    # Near x = 1e7 an exact root's residual rounds to about one ulp, 1.9e-9,
    # above the 1e-10 stop; every step must still converge, to within the
    # stop or a few ulps of the bisected root.
    spec = FbmSpec(0.75, n_steps=256, seed=1)
    drivers = 5 * sample_fbm_batch(spec, 64)
    drift = power_drift(1.0, 0.0, 0.5)
    dt = float(spec.times[1] - spec.times[0])
    got = solve_batch(x0, drift, drivers, spec.times)
    for k in range(1, spec.times.size):
        b = got[:, k - 1] + (drivers[:, k] - drivers[:, k - 1])
        root = _bisection_roots(drift, float(spec.times[k]), b, dt, got[:, k])
        bound = np.maximum(solver._NEWTON_TOL, 2e-15 * np.abs(root))
        assert np.all(np.abs(got[:, k] - root) <= bound), (k, np.max(np.abs(got[:, k] - root)))


def _newton_drift(f, singularity_exponent=1.0):
    return DriftSpec(
        "custom",
        f,
        lambda t, x: np.zeros_like(x),
        singularity_exponent=singularity_exponent,
        lower_envelope=lambda t: 1.0,
        upper_envelope=lambda t: 1.0,
    )


class TestImplicitStepErrors:
    def test_nan_residual_is_not_convergence(self):
        # the row started at 5 only ever sees NaN; the row at 1 converges
        drift = _newton_drift(lambda t, x: np.where(x < 2.0, 1.0 / x, np.nan))
        with pytest.raises(solver.SolverError, match="implicit step did not converge .*max residual nan"):
            solve_batch(np.array([1.0, 5.0]), drift, np.zeros((2, 17)), np.linspace(0.0, 1.0, 17))

    @pytest.mark.parametrize(
        "f, singularity_exponent, driver_step, overflows",
        [
            (lambda t, x: -np.ones_like(x), 1.0, -1.0, False),
            (lambda t, x: -(x**2) - 1.0, 0.0, -1.0, True),
            (lambda t, x: x**2, 1.0, 0.0, True),
        ],
        ids=["positive-below", "whole-line-below", "above"],
    )
    def test_bracket_failure_raises(self, f, singularity_exponent, driver_step, overflows):
        # one step of size dt = 1 from x0 = 1 whose equation has no root in
        # the domain: these drifts break the nonincreasing assumption, so
        # the iteration runs out.  Two of them send the iterate to +-inf,
        # and the drift's own x**2 overflows on the way.
        drivers = np.array([[0.0, driver_step]])
        drift = _newton_drift(f, singularity_exponent)
        warns = pytest.warns(RuntimeWarning) if overflows else contextlib.nullcontext()
        with warns, pytest.raises(solver.SolverError, match="implicit step did not converge"):
            solve_batch(1.0, drift, drivers, np.array([0.0, 1.0]))

    def test_root_at_the_start_is_taken(self):
        # x - (-x^2) - 0 has the roots 0 and -1; the step starts at b = 0
        drift = _newton_drift(lambda t, x: -(x**2), singularity_exponent=0.0)
        sol = solve_batch(1.0, drift, np.array([[0.0, -1.0]]), np.array([0.0, 1.0]))
        assert sol[0, 1] == 0.0


class TestPositivityError:
    # Both routes run on repulsive drifts that keep exact roots positive; the
    # error fires only where rounding lands on 0 or below.

    @pytest.mark.parametrize("later_step_raises", [False, True], ids=["plain", "later-error"])
    def test_closed_form_step_rounding_to_zero(self, later_step_raises):
        # step 2 jumps by -1e10: b^2 = 1e20 swamps 4 dt c = 1, so
        # sqrt(b^2 + 4 dt c) rounds to |b| and x = (b + |b|) / 2 is exactly 0
        drift = reciprocal_drift(1.0)
        if later_step_raises:
            # step 3 then has a negative coefficient; the earlier step is named
            drift = replace(drift, inverse_coeff=lambda t: 1.0 if t <= 0.5 else -1.0)
        drivers = np.zeros((2, 5))
        drivers[0, 2:] = -1e10
        with pytest.raises(solver.PositivityError, match=r"^nonpositive value after step 2$"):
            solve_batch(1.0, drift, drivers, np.linspace(0.0, 1.0, 5))

    def test_newton_final_correction_overshooting_zero(self):
        # dt f = 1e-40 / x^2 with b = -5e-11 on step 2 puts the root near
        # 1.4e-15, below the 1e-10 tolerance; the halving clamp stops at an
        # iterate whose residual is within it, and the last correction -F/F'
        # with F' ~ 1 would carry it past 0 but for its own clamp at x / 2
        drift = power_drift(2e-40, 0.0, 2.0)
        drivers = np.array([[0.0, 0.0, -1.0 - 5e-11]])
        x = solve_batch(1.0, drift, drivers, np.array([0.0, 0.5, 1.0]))[0]
        b = x[1] + (drivers[0, 2] - drivers[0, 1])
        assert x[2] > 0.0
        assert abs(x[2] - 0.5 * drift.f(1.0, x[2]) - b) <= solver._NEWTON_TOL


# increasing in x, against the paper's first assumption: F' = 1 - dt df/dx
# falls below 1, where a converged row takes no last correction
_INCREASING = DriftSpec(
    "custom",
    lambda t, x: 0.8 * np.sin(x) + 0.3 * x,
    lambda t, x: 0.8 * np.cos(x) + 0.3,
    singularity_exponent=0.0,
    lower_envelope=lambda t: 0.0,
    upper_envelope=lambda t: 0.0,
)


def _reference_step(drift, t, b, x_prev, dt, increment):
    """One implicit step, written as a function with two closures and a mask on every Newton iteration.

    The bit-identity oracle for ``solve_batch``'s inlined step loops, kept
    out of the package.
    """
    if drift.inverse_coeff is not None:
        c = drift.inverse_coeff(t)
        if c < 0:
            raise solver.SolverError(f"inverse coefficient negative at t={t}")
        return 0.5 * (b + np.sqrt(b * b + 4.0 * dt * c))

    def residual(x):
        return x - dt * np.asarray(drift.f(t, x), dtype=np.float64) - b

    positive = drift.positive_domain

    def newton(x, res, slope):
        cand = x - res / slope
        return np.maximum(cand, 0.5 * x, out=cand) if positive else cand

    x = b + increment
    if positive:
        np.maximum(x, 0.5 * x_prev, out=x)
    res = residual(x)
    tol = np.maximum(solver._NEWTON_TOL, solver._ROUNDING * (np.abs(x) + np.abs(b)))
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(solver._MAX_NEWTON_ITERS):
        if done.all():
            break
        slope = 1.0 - dt * np.asarray(drift.dfdx(t, x), dtype=np.float64)
        np.copyto(x, newton(x, res, slope), where=~done)
        res = residual(x)
        new = (np.abs(res) <= tol) & ~done
        np.copyto(x, newton(x, res, slope), where=new & (slope >= 1.0))
        done |= new
    if not done.all():
        raise solver.SolverError(
            f"implicit step did not converge at t={t}; max residual {np.max(np.abs(res)):.3e}"
        )
    return x


def _reference_solve(x0, drift, driver_values, times):
    """``solve_batch`` as one ``_reference_step`` call per step, dt taken from the first step."""
    drivers = np.atleast_2d(np.asarray(driver_values, dtype=np.float64))
    times = np.asarray(times, dtype=np.float64)
    n_paths, n_pts = drivers.shape
    if n_pts != times.size:
        raise ValueError("driver and grid sizes differ")
    dt = float(times[1] - times[0])
    x0_vec = np.broadcast_to(np.asarray(x0, dtype=np.float64), (n_paths,)).copy()
    positive = drift.positive_domain
    if positive and np.any(x0_vec <= 0):
        raise ValueError("initial values must be strictly positive")
    out = np.empty((n_paths, n_pts))
    out[:, 0] = x0_vec
    x = x0_vec
    newton = drift.inverse_coeff is None
    increment = 0.0
    filled = 1
    try:
        for k, t in enumerate(times[1:].tolist(), start=1):
            b = x + (drivers[:, k] - drivers[:, k - 1])
            x = _reference_step(drift, t, b, x, dt, increment)
            if newton:
                increment = x - b
                if positive and (x <= 0).any():
                    raise solver.PositivityError(f"nonpositive value after step {k}")
            out[:, k] = x
            filled = k + 1
    finally:
        if positive and not newton:
            bad = (out[:, 1:filled] <= 0).any(axis=0)
            if bad.any():
                raise solver.PositivityError(
                    f"nonpositive value after step {int(bad.argmax()) + 1}"
                ) from None
    return out


def _oracle_cases():
    """(id, x0, drift, drivers, times) for every case the bit-identity oracle covers."""
    drifts = [(f"power{q}", power_drift(1.0, 0.0, q)) for q in _POWERS]
    drifts += [("whole-line", _WHOLE_LINE), ("nonconvex", _NONCONVEX), ("increasing", _INCREASING)]
    for n in (8, 16, 64):
        spec = FbmSpec(0.55, n_steps=n, seed=3)
        drivers = 5 * sample_fbm_batch(spec, 64)
        for name, drift in drifts:
            for x0 in (1e-6, 1e-2, 1.0, 10.0):
                yield f"{name}-n{n}-x0={x0}", x0, drift, drivers, spec.times
    spec = FbmSpec(0.75, n_steps=256, seed=1)
    drivers = 5 * sample_fbm_batch(spec, 64)
    for x0 in (1e3, 1e5, 1e7):
        yield f"far-x0={x0}", x0, power_drift(1.0, 0.0, 0.5), drivers, spec.times
    spec = FbmSpec(0.75, n_steps=512, seed=17)
    drivers = sample_fbm_batch(spec, 32)
    for name, drift in (("reciprocal", reciprocal_drift(1.0)), ("bessel", bessel_drift(3, 0.75))):
        for x0 in (1e-6, 1.0):
            yield f"{name}-x0={x0}", x0, drift, drivers, spec.times
    yield ("bound-audit", 1.0, *_bound_audit_block())


def test_solve_batch_is_bit_identical_to_the_reference_step_loop():
    cases = list(_oracle_cases())
    assert len(cases) == 3 * 7 * 4 + 3 + 2 * 2 + 1
    for name, x0, drift, drivers, times in cases:
        want = _reference_solve(x0, drift, drivers, times)
        assert solve_batch(x0, drift, drivers, times).tobytes() == want.tobytes(), name


def test_newton_calls_the_drift_as_the_reference_does():
    # every f and dfdx call, in order, at the same time and the same iterate
    drift, drivers, times = _bound_audit_block()
    got_drift, got = _recording(drift)
    want_drift, want = _recording(drift)
    solve_batch(1.0, got_drift, drivers, times)
    _reference_solve(1.0, want_drift, drivers, times)
    assert _call_keys(got) == _call_keys(want)


@pytest.mark.parametrize(
    "x0, drift, drivers, times",
    [
        (1.0, reciprocal_drift(1.0), np.zeros((2, 5)), np.linspace(0.0, 1.0, 4)),
        (np.array([1.0, 0.0]), power_drift(1.0, 0.0, 1.5), np.zeros((2, 5)), np.linspace(0.0, 1.0, 5)),
        (np.array([1.0, 5.0]), _newton_drift(lambda t, x: np.where(x < 2.0, 1.0 / x, np.nan)),
         np.zeros((2, 17)), np.linspace(0.0, 1.0, 17)),
        (1.0, _newton_drift(lambda t, x: -np.ones_like(x)), np.array([[0.0, -1.0]]), np.array([0.0, 1.0])),
        (1.0, _newton_drift(lambda t, x: -(x**2) - 1.0, 0.0), np.array([[0.0, -1.0]]), np.array([0.0, 1.0])),
        (1.0, _newton_drift(lambda t, x: x**2), np.array([[0.0, 0.0]]), np.array([0.0, 1.0])),
        # zero drift on the positive domain from the least subnormal: the step lands on 0
        (5e-324, _newton_drift(lambda t, x: np.zeros_like(x)), np.array([[0.0, -5e-324]]),
         np.array([0.0, 1.0])),
        (1.0, replace(reciprocal_drift(1.0), inverse_coeff=lambda t: 1.0 if t <= 0.5 else -1.0),
         np.zeros((2, 5)), np.linspace(0.0, 1.0, 5)),
        (1.0, reciprocal_drift(1.0), np.array([[0.0, 0.0, -1e10, -1e10, -1e10]] * 2),
         np.linspace(0.0, 1.0, 5)),
        (1.0, replace(reciprocal_drift(1.0), inverse_coeff=lambda t: 1.0 if t <= 0.5 else -1.0),
         np.array([[0.0, 0.0, -1e10, -1e10, -1e10]] * 2), np.linspace(0.0, 1.0, 5)),
        (1.0, replace(power_drift(1.0, 0.0, 1.5), f=lambda t, x: 1 / 0), np.zeros((1, 3)),
         np.linspace(0.0, 1.0, 3)),
    ],
    ids=[
        "sizes-differ", "nonpositive-x0", "nan-residual", "positive-below", "whole-line-below",
        "above", "newton-lands-on-zero", "negative-coefficient", "closed-form-rounds-to-zero",
        "closed-form-later-error", "drift-raises",
    ],
)
def test_each_error_matches_the_reference(x0, drift, drivers, times):
    # same exception, same message, after the same drift calls
    want_drift, want_calls = _recording(drift)
    got_drift, got_calls = _recording(drift)
    # overflow warnings are silenced, so each run ends in its own exception
    with np.errstate(all="ignore"):
        with pytest.raises(Exception) as want:
            _reference_solve(x0, want_drift, drivers, times)
        with pytest.raises(Exception) as got:
            solve_batch(x0, got_drift, drivers, times)
    assert (type(got.value), str(got.value)) == (want.type, str(want.value))
    assert _call_keys(got_calls) == _call_keys(want_calls)


class TestGridCheck:
    @pytest.mark.parametrize("drift", [reciprocal_drift(1.0), power_drift(1.0, 0.0, 1.5)],
                             ids=["closed-form", "newton"])
    def test_nonuniform_grid_rejected(self, drift):
        # solved with dt = 0.1 on both steps, this returned 1.0916 and 1.1766
        with pytest.raises(ValueError, match="grid must be uniform"):
            solve_batch(1.0, drift, np.zeros((1, 3)), [0.0, 0.1, 1.0])

    @pytest.mark.parametrize("drift", [reciprocal_drift(1.0), power_drift(1.0, 0.0, 1.5)],
                             ids=["closed-form", "newton"])
    def test_one_point_grid_rejected(self, drift):
        # it used to raise IndexError from times[1]
        with pytest.raises(ValueError, match="at least two points"):
            solve_batch(1.0, drift, np.zeros((1, 1)), [0.0])


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
        assert residual_defect(sol.values, zero_drift(), driver.values, driver.times) < 1e-12

    def test_closed_form_case_small_defect(self):
        driver = _flat_driver(2000)
        drift = reciprocal_drift(1.0)
        sol = solve_pathwise(1.0, drift, driver)
        assert residual_defect(sol.values, drift, driver.values, driver.times) < 5e-4

    def test_defect_shrinks_with_dt(self):
        spec = FbmSpec(hurst=0.75, n_steps=1024, seed=77)
        fine = sample_fbm(spec)
        drift = reciprocal_drift(1.0)
        defects = []
        for step in (4, 2, 1):
            times = fine.times[::step]
            driver = SamplePath(times, fine.values[::step], holder_hint=0.75)
            sol = solve_pathwise(1.0, drift, driver)
            defects.append(residual_defect(sol.values, drift, driver.values, times))
        assert defects[0] >= 2.0 * defects[1] * 0.7
        assert defects[1] >= 2.0 * defects[2] * 0.7

    def test_block_gives_each_rows_defect(self):
        # row i of the solutions is checked against row i of the drivers
        spec = FbmSpec(hurst=0.75, n_steps=64, seed=78)
        drivers = sample_fbm_batch(spec, 5)
        drift = power_drift(1.0, 0.5, 1.5)
        sols = solve_batch(1.0, drift, drivers, spec.times)
        block = residual_defect(sols, drift, drivers, spec.times)
        assert block.shape == (5,)
        for i in range(5):
            assert block[i] == residual_defect(sols[i], drift, drivers[i], spec.times)
        assert np.all(residual_defect(sols, drift, drivers[::-1], spec.times)[[0, 1, 3, 4]] > 1e-2)
        with pytest.raises(ValueError, match="share one grid"):
            residual_defect(sols, drift, drivers[:4], spec.times)
        with pytest.raises(ValueError, match="share one grid"):
            residual_defect(sols, drift, drivers, spec.times[:-1])


class TestEvalAlongPath:
    def test_drift_error_propagates(self):
        def scalar_time_only(t, x):
            if np.ndim(t):
                raise RuntimeError("scalar time only")
            return 1.0 / np.asarray(x, dtype=np.float64)

        drift = DriftSpec(
            "custom",
            scalar_time_only,
            lambda t, x: -1.0 / np.asarray(x, dtype=np.float64) ** 2,
            singularity_exponent=1.0,
            lower_envelope=lambda t: 1.0,
            upper_envelope=lambda t: 1.0,
        )
        driver = _flat_driver(64)
        sol = solve_pathwise(1.0, reciprocal_drift(1.0), driver)
        with pytest.raises(RuntimeError, match="scalar time only"):
            residual_defect(sol.values, drift, driver.values, driver.times)

    def test_shape_checked_and_scalar_broadcast(self):
        times = np.linspace(0.0, 1.0, 9)
        values = np.ones(9)
        assert np.array_equal(eval_along_path(lambda t, x: 2.0, times, values), np.full(9, 2.0))
        with pytest.raises(ValueError, match="shape"):
            eval_along_path(lambda t, x: np.ones(3), times, values)

    def test_nonfinite_start_propagates(self):
        times = np.linspace(0.0, 1.0, 3)
        got = eval_along_path(lambda t, x: x, times, np.array([np.inf, 3.0, 2.0]))
        assert np.array_equal(got, [np.inf, 3.0, 2.0])
        # a drift that is NaN at t = 0 gives a NaN defect, not a patched one
        drift = replace(
            reciprocal_drift(1.0), f=lambda t, x: np.where(t > 0.0, 1.0 / _arr(x), np.nan)
        )
        driver = _flat_driver(16)
        sol = solve_pathwise(1.0, reciprocal_drift(1.0), driver)
        assert np.isnan(residual_defect(sol.values, drift, driver.values, driver.times))


class TestCir:
    def test_transform_round_trip(self):
        assert cir_transform(1.0) == 2.0
        for y in (0.0, 0.25, 7.0):
            assert cir_transform(y) ** 2 / 4.0 == pytest.approx(y)
        with pytest.raises(ValueError):
            cir_transform(-1.0)

    def test_constant_drift_transform_satisfies_assumptions(self):
        # y' = k + sqrt(y) phi' becomes x' = 2k/x + phi' under x = 2 sqrt(y)
        for k in (0.05, 0.5, 2.0):
            for drift in (reciprocal_drift(2.0 * k), solver.cir_drift_transform(k)):
                assert check_drift_assumptions(drift, 0.75).all_pass
                assert float(drift.f(0.3, np.asarray(2.0))) == pytest.approx(k)

    def test_trivial_equation_constant(self):
        # a flat driver leaves y' = k, so y = y0 + k t
        sol = _solve_cir(1.0, 0.5, _flat_driver(512))
        assert np.max(np.abs(sol.values - (1.0 + 0.5 * sol.times))) < 1e-3

    def test_young_residual_smooth_driver(self):
        k = 0.5
        driver = SamplePath.from_function(
            lambda t: 0.3 * np.sin(2 * np.pi * t), 1.0, 1000, holder_hint=1.0
        )
        y = _solve_cir(1.0, k, driver)
        sq = SamplePath(y.times, np.sqrt(y.values), holder_hint=1.0)
        for t in (0.25, 0.5, 1.0):
            idx = y.index_of(t)
            stieltjes = young_integral(sq, driver, 0.0, t, 0.5)
            resid = abs(y.values[idx] - 1.0 - k * t - stieltjes)
            assert resid <= 5e-3

    def test_positivity_on_fbm(self):
        spec = FbmSpec(hurst=0.75, n_steps=256, seed=10)
        drivers = sample_fbm_batch(spec, 100)
        x = solve_batch(cir_transform(1.0), reciprocal_drift(2.0 * 0.5), drivers, spec.times)
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
