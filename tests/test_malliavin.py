"""Derivative kernel bounds, norm positivity, analytic vs finite-difference checks."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from fbmsde import malliavin
from fbmsde.fbm import FbmSpec, inner_product, sample_fbm_batch
from fbmsde.malliavin import ExtrapolationWarning, derivative_report
from fbmsde.paths import GridError, SamplePath, StepFunction
from fbmsde.solver import (
    bessel_drift,
    cumulative_along_path,
    power_drift,
    reciprocal_drift,
    solve_batch,
)

from drifts import zero_drift
from oracles import hurst_covariance, sample_fbm, solve_pathwise


def _flat_driver(n, horizon=1.0):
    return SamplePath(np.linspace(0.0, horizon, n + 1), np.zeros(n + 1))


def _fbm_driver(seed, n=512, hurst=0.75):
    return sample_fbm(FbmSpec(hurst=hurst, n_steps=n, seed=seed))


def _profile(path, drift, t):
    """exp(int_s^t df/dx(r, X_r) dr) at every grid point s <= t, by the report's trapezoid."""
    cum = cumulative_along_path(drift.dfdx, path.times, path.values)
    j = path.index_of(t)
    return np.exp(cum[j] - cum[: j + 1])


def _kernel(path, drift, s, t):
    """exp(int_s^t df/dx(r, X_r) dr): the entry of the profile at s."""
    return _profile(path, drift, t)[path.index_of(s)]


def _report(drift, driver, phi=StepFunction.indicator(0.0, 0.5), t=1.0, **kwargs):
    """``derivative_report`` for the one driver, from x0 = 1 at H = 0.75."""
    return derivative_report(1.0, drift, driver.values[None, :], driver.times, t, phi, 0.75, **kwargs)


class TestKernel:
    def test_equal_times_give_one(self):
        sol = solve_pathwise(1.0, reciprocal_drift(1.0), _fbm_driver(1))
        for t in (0.0, 0.5, 1.0):
            assert _kernel(sol, reciprocal_drift(1.0), t, t) == 1.0

    def test_zero_drift_gives_one(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=128, seed=2))
        sol = solve_pathwise(1.0, zero_drift(), driver)
        assert _kernel(sol, zero_drift(), 0.25, 0.75) == 1.0

    def test_closed_form_along_analytic_path(self):
        # f = k/x along x(s) = sqrt(x0^2 + 2ks):
        # kernel(s, t) = exp(-k int_s^t dr/x^2) = sqrt((x0^2+2ks)/(x0^2+2kt))
        drift = reciprocal_drift(1.0)
        path = SamplePath.from_function(lambda s: np.sqrt(1.0 + 2.0 * s), 1.0, 10_000)
        for s, t in [(0.0, 1.0), (0.3, 0.9), (0.25, 0.5)]:
            got = _kernel(path, drift, s, t)
            want = math.sqrt((1.0 + 2.0 * s) / (1.0 + 2.0 * t))
            assert got == pytest.approx(want, abs=1e-6)

    def test_solved_path_tracks_closed_form(self):
        drift = reciprocal_drift(1.0)
        sol = solve_pathwise(1.0, drift, _flat_driver(10_000))
        got = _kernel(sol, drift, 0.0, 1.0)
        assert got == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-4)

    def test_bounds_and_monotonicity(self):
        drift = reciprocal_drift(1.0)
        sol = solve_pathwise(1.0, drift, _fbm_driver(7))
        prof = _profile(sol, drift, 1.0)
        assert np.all(prof > 0.0) and np.all(prof <= 1.0)
        # for fixed s, longer windows shrink the kernel
        k_half = _kernel(sol, drift, 0.25, 0.5)
        k_full = _kernel(sol, drift, 0.25, 1.0)
        assert k_full <= k_half


class TestNormSquared:
    def test_zero_drift_reproduces_time_power(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=256, seed=3))
        for t in (0.25, 0.5, 1.0):
            [got] = _report(zero_drift(), driver, t=t).norm_sq
            assert got == pytest.approx(t**1.5, abs=1e-4)

    def test_bounded_by_time_power_and_positive(self):
        # row i is the first path of seed 100 + i; rows do not depend on their batch
        drivers = np.array([_fbm_driver(seed, n=256).values for seed in range(100, 200)])
        times = FbmSpec(hurst=0.75, n_steps=256).times
        phi = StepFunction.indicator(0.0, 0.5)
        norm_sq = derivative_report(1.0, reciprocal_drift(1.0), drivers, times, 1.0, phi, 0.75).norm_sq
        assert norm_sq.shape == (100,)
        assert np.all((0.0 < norm_sq) & (norm_sq <= 1.0 + 1e-12))


class TestDirectionalDerivative:
    def test_zero_drift_indicator_reduces_to_covariance(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=512, seed=4))
        for tau in (0.25, 0.5, 1.0):
            [got] = _report(zero_drift(), driver, StepFunction.indicator(0.0, tau)).analytic
            assert got == pytest.approx(hurst_covariance(1.0, tau, 0.75), abs=1e-4)

    def test_zero_direction(self):
        phi = StepFunction(np.array([0.0, 1.0]), np.array([0.0]))
        assert _report(reciprocal_drift(1.0), _fbm_driver(5), phi).analytic[0] == 0.0

    def test_contracting_kernel_shrinks_nonnegative_directions(self):
        # against phi >= 0 the damped kernel gives less than the undamped one
        driver = _fbm_driver(6)
        damped = _report(reciprocal_drift(1.0), driver).analytic[0]
        undamped = _report(zero_drift(), driver).analytic[0]
        assert damped <= undamped

    def test_fd_linear_case_exact(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=256, seed=8))
        rep = _report(zero_drift(), driver)
        target = hurst_covariance(1.0, 0.5, 0.75)
        for q in rep.quotients[0]:
            assert q == pytest.approx(target, abs=1e-4)
        assert rep.extrapolated[0] == pytest.approx(target, abs=1e-4)

    def test_fd_quotients_shrink_monotonically(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=1024, seed=9))
        rep = _report(reciprocal_drift(1.0), driver, eps_list=(0.2, 0.1, 0.05, 0.025))
        diffs = np.abs(np.diff(rep.quotients[0]))
        assert np.all(np.diff(diffs) < 0.0)

    @pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
    def test_fd_matches_analytic(self, seed):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=2048, seed=seed))
        rep = _report(reciprocal_drift(1.0), driver, eps_list=(0.05, 0.025, 0.0125))
        assert rep.error_ratio[0] <= 1.0
        assert abs(rep.analytic[0] - rep.extrapolated[0]) <= max(1e-3, 1e-2 * abs(rep.analytic[0]))

    def test_extrapolation_warning_names_the_caller(self):
        # steps near 1e-9 leave quotients of pure roundoff, not first order in eps
        spec = FbmSpec(0.75, n_steps=256, seed=5)
        drivers = sample_fbm_batch(spec, 4)
        phi = StepFunction.indicator(0.0, 0.5)
        with pytest.warns(ExtrapolationWarning, match="on 4 of 4 rows") as record:
            rep = derivative_report(
                1.0, reciprocal_drift(1.0), drivers, spec.times, 1.0, phi, 0.75,
                eps_list=(1e-9, 5e-10, 2.5e-10),
            )
        # one warning per call, naming the rows it covers
        assert [w.category for w in record] == [ExtrapolationWarning]
        assert {w.filename for w in record} == {__file__}
        assert np.array_equal(rep.extrapolated, rep.quotients[:, -1])


def _bits(rep):
    """Every reported number as text; float reprs round-trip exactly, so equal text means equal bits."""
    fields = (rep.eps, rep.quotients, rep.analytic, rep.extrapolated, rep.norm_sq)
    return repr([a.tolist() for a in fields])


class TestBatchedReport:
    @pytest.mark.parametrize(
        "drift",
        [reciprocal_drift(1.0), zero_drift(), power_drift(1.0, 0.0, 1.5)],
        ids=["closed-form", "zero-linear-response", "newton"],
    )
    def test_batch_equals_single_rows(self, drift):
        spec = FbmSpec(hurst=0.75, n_steps=512, seed=21)
        drivers = sample_fbm_batch(spec, 6)
        args = (1.0, StepFunction.indicator(0.0, 0.5), 0.75)
        batched = derivative_report(1.0, drift, drivers, spec.times, *args)
        single = [derivative_report(1.0, drift, row[None, :], spec.times, *args) for row in drivers]
        assert batched.quotients.shape == (6, 3)
        for name in ("quotients", "analytic", "extrapolated", "norm_sq"):
            stacked = np.concatenate([getattr(s, name) for s in single])
            assert np.array_equal(getattr(batched, name), stacked), name

    def test_kernel_evaluated_once_per_block(self):
        # one dfdx call over the (n_paths, j + 1) block of base solutions
        spec = FbmSpec(hurst=0.75, n_steps=128, seed=22)
        drivers = sample_fbm_batch(spec, 5)
        args = (spec.times, 0.75, StepFunction.indicator(0.0, 0.5), 0.75)
        base = reciprocal_drift(1.0)
        path_calls = []

        def dfdx(t, x):
            if np.ndim(t):
                path_calls.append(np.shape(x))
            return base.dfdx(t, x)

        counted = replace(base, dfdx=dfdx)
        report = derivative_report(1.0, counted, drivers, *args)
        assert path_calls == [(5, 97)]
        assert _bits(report) == _bits(derivative_report(1.0, base, drivers, *args))

    @pytest.mark.parametrize(
        "drift",
        [reciprocal_drift(1.0), power_drift(1.0, 0.5, 1.5), bessel_drift(3, 0.75), zero_drift()],
        ids=["reciprocal", "power", "bessel", "zero"],
    )
    def test_analytic_matches_the_rectangle_pairing(self, drift):
        # per row: the kernel's cell averages on [0, t], built here one path at
        # a time, paired with a two-step direction whose breakpoints lie off
        # the grid by the exact rectangle weights of ``inner_product``
        spec = FbmSpec(hurst=0.75, n_steps=256, seed=31)
        drivers = sample_fbm_batch(spec, 7)
        times, t = spec.times, 0.75
        phi = StepFunction(np.array([0.13, 0.41, 0.77]), np.array([1.5, -0.7]))
        report = derivative_report(1.0, drift, drivers, times, t, phi, 0.75)
        j = int(round(t * 256))
        dt = times[1] - times[0]
        for row, got in zip(solve_batch(1.0, drift, drivers, times), report.analytic):
            v = np.asarray(drift.dfdx(times, row), dtype=np.float64) * np.ones(row.shape)
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[1:] + v[:-1]) * dt)])
            prof = np.exp(cum[j] - cum[: j + 1])
            levels = 0.5 * (prof[1:] + prof[:-1])
            want = inner_product(phi, StepFunction(times[: j + 1], levels), 0.75)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "drift, digest",
        [
            (
                reciprocal_drift(1.0),
                "cca6930a7fb96fce891b47e5bd9cfff80eb1e2329c89f220633a752e7f25f896",
            ),
            (
                power_drift(1.0, 0.0, 1.5),
                "72ee732b959b6258997cdbeabbcfbeba97127da7cd0ff1e82485b96bf07c9ec2",
            ),
        ],
        ids=["closed-form", "newton"],
    )
    def test_report_is_pinned(self, drift, digest):
        # this pins every reported bit; a change must be declared with new
        # digests.  Pinned for numpy >= 2.0, whose FFT backend differs from
        # 1.x (taken with numpy 2.4.6).
        spec = FbmSpec(0.75, n_steps=256, seed=2024)
        drivers = sample_fbm_batch(spec, 8)[:4]
        report = derivative_report(
            1.0, drift, drivers, spec.times, 1.0, StepFunction.indicator(0.0, 0.5), 0.75
        )
        assert (report.error_ratio <= 1.0).all()
        assert hashlib.sha256(_bits(report).encode()).hexdigest() == digest

    def test_one_dimensional_drivers_rejected(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=64, seed=23))
        with pytest.raises(ValueError):
            derivative_report(
                1.0,
                reciprocal_drift(1.0),
                driver.values,
                driver.times,
                1.0,
                StepFunction.indicator(0.0, 0.5),
                0.75,
            )

    def test_time_below_one_step_rejected_before_solving(self, monkeypatch):
        # the kernel on [0, 0] has no cell; this raised IndexError after the solve
        spec = FbmSpec(0.75, 1.0, 64, 1)
        drivers = sample_fbm_batch(spec, 2)

        def no_solve(*args):
            raise AssertionError("solved before the grid check")

        monkeypatch.setattr(malliavin, "solve_batch", no_solve)
        with pytest.raises(GridError, match=r"^t=0.0 must be at least one grid step dt=0.015625$"):
            derivative_report(
                1.0, reciprocal_drift(1.0), drivers, spec.times, 0.0, StepFunction.indicator(0, 0.5), 0.75
            )

    @pytest.mark.parametrize("eps_list", [(0.05, 0.025, 0.025), (0.05, 0.05)])
    def test_repeated_eps_rejected(self, eps_list):
        # a repeated step divides by zero in the Richardson step, or passes
        # on quotients that say nothing
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=64, seed=24))
        with pytest.raises(ValueError, match="distinct positive"):
            _report(reciprocal_drift(1.0), driver, eps_list=eps_list)


def test_no_atoms_in_terminal_law():
    # continuous law proxy: every sorted-sample jump small
    from fbmsde.solver import solve_batch

    spec = FbmSpec(hurst=0.75, n_steps=256, seed=40)
    drivers = sample_fbm_batch(spec, 4000)
    sols = solve_batch(1.0, reciprocal_drift(1.0), drivers, spec.times)
    terminal = np.sort(sols[:, -1])
    _, counts = np.unique(terminal, return_counts=True)
    assert counts.max() <= 10
