"""Derivative kernel bounds, norm positivity, analytic vs finite-difference checks."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from fbmsde.fbm import FbmSpec, hurst_covariance, sample_fbm, sample_fbm_batch
from fbmsde.malliavin import (
    derivative_norm_sq,
    derivative_report,
    directional_derivative_analytic,
    directional_derivative_fd,
    kernel_profile,
    malliavin_kernel,
)
from fbmsde.paths import SamplePath, StepFunction
from fbmsde.solver import power_drift, reciprocal_drift, solve_pathwise, zero_drift


def _flat_driver(n, horizon=1.0):
    return SamplePath(np.linspace(0.0, horizon, n + 1), np.zeros(n + 1))


def _fbm_solution(seed, n=512, hurst=0.75, k=1.0, x0=1.0):
    driver = sample_fbm(FbmSpec(hurst=hurst, n_steps=n, seed=seed))
    return solve_pathwise(x0, reciprocal_drift(k), driver), driver


class TestKernel:
    def test_equal_times_give_one(self):
        sol, _ = _fbm_solution(1)
        for t in (0.0, 0.5, 1.0):
            assert malliavin_kernel(sol, reciprocal_drift(1.0), t, t) == 1.0

    def test_zero_drift_gives_one(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=128, seed=2))
        sol = solve_pathwise(1.0, zero_drift(), driver)
        assert malliavin_kernel(sol, zero_drift(), 0.25, 0.75) == 1.0

    def test_closed_form_along_analytic_path(self):
        # f = k/x along x(s) = sqrt(x0^2 + 2ks):
        # kernel(s, t) = exp(-k int_s^t dr/x^2) = sqrt((x0^2+2ks)/(x0^2+2kt))
        drift = reciprocal_drift(1.0)
        path = SamplePath.from_function(lambda s: np.sqrt(1.0 + 2.0 * s), 1.0, 10_000)
        for s, t in [(0.0, 1.0), (0.3, 0.9), (0.25, 0.5)]:
            got = malliavin_kernel(path, drift, s, t)
            want = math.sqrt((1.0 + 2.0 * s) / (1.0 + 2.0 * t))
            assert got == pytest.approx(want, abs=1e-6)

    def test_solved_path_tracks_closed_form(self):
        drift = reciprocal_drift(1.0)
        sol = solve_pathwise(1.0, drift, _flat_driver(10_000))
        got = malliavin_kernel(sol, drift, 0.0, 1.0)
        assert got == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-4)

    def test_bounds_and_monotonicity(self):
        sol, _ = _fbm_solution(7)
        drift = reciprocal_drift(1.0)
        prof = kernel_profile(sol, drift, 1.0)
        assert np.all(prof > 0.0) and np.all(prof <= 1.0)
        # for fixed s, longer windows shrink the kernel
        k_half = malliavin_kernel(sol, drift, 0.25, 0.5)
        k_full = malliavin_kernel(sol, drift, 0.25, 1.0)
        assert k_full <= k_half


class TestNormSquared:
    def test_zero_drift_reproduces_time_power(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=256, seed=3))
        sol = solve_pathwise(1.0, zero_drift(), driver)
        for t in (0.25, 0.5, 1.0):
            got = derivative_norm_sq(sol, zero_drift(), t, 0.75)
            assert got == pytest.approx(t**1.5, abs=1e-4)

    def test_bounded_by_time_power_and_positive(self):
        drift = reciprocal_drift(1.0)
        for seed in range(100):
            sol, _ = _fbm_solution(seed + 100, n=256)
            got = derivative_norm_sq(sol, drift, 1.0, 0.75)
            assert 0.0 < got <= 1.0 + 1e-12


class TestDirectionalDerivative:
    def test_zero_drift_indicator_reduces_to_covariance(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=512, seed=4))
        sol = solve_pathwise(1.0, zero_drift(), driver)
        for tau in (0.25, 0.5, 1.0):
            got = directional_derivative_analytic(
                sol, zero_drift(), 1.0, StepFunction.indicator(0.0, tau), 0.75
            )
            assert got == pytest.approx(hurst_covariance(1.0, tau, 0.75), abs=1e-4)

    def test_zero_direction(self):
        sol, _ = _fbm_solution(5)
        phi = StepFunction(np.array([0.0, 1.0]), np.array([0.0]))
        assert directional_derivative_analytic(sol, reciprocal_drift(1.0), 1.0, phi, 0.75) == 0.0

    def test_contracting_kernel_shrinks_nonnegative_directions(self):
        # against phi >= 0 the damped kernel gives less than the undamped one
        drift = reciprocal_drift(1.0)
        sol, driver = _fbm_solution(6, n=512)
        free = solve_pathwise(1.0, zero_drift(), driver)
        phi = StepFunction.indicator(0.0, 0.5)
        damped = directional_derivative_analytic(sol, drift, 1.0, phi, 0.75)
        undamped = directional_derivative_analytic(free, zero_drift(), 1.0, phi, 0.75)
        assert damped <= undamped

    def test_fd_linear_case_exact(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=256, seed=8))
        phi = StepFunction.indicator(0.0, 0.5)
        fd_values, extrapolated = directional_derivative_fd(
            1.0, zero_drift(), driver, 1.0, phi, 0.75
        )
        target = hurst_covariance(1.0, 0.5, 0.75)
        for _, q in fd_values:
            assert q == pytest.approx(target, abs=1e-4)
        assert extrapolated == pytest.approx(target, abs=1e-4)

    def test_fd_quotients_shrink_monotonically(self):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=1024, seed=9))
        fd_values, _ = directional_derivative_fd(
            1.0,
            reciprocal_drift(1.0),
            driver,
            1.0,
            StepFunction.indicator(0.0, 0.5),
            0.75,
            eps_list=(0.2, 0.1, 0.05, 0.025),
        )
        quotients = [q for _, q in fd_values]
        diffs = np.abs(np.diff(quotients))
        assert np.all(np.diff(diffs) < 0.0)

    @pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
    def test_fd_matches_analytic(self, seed):
        driver = sample_fbm(FbmSpec(hurst=0.75, n_steps=2048, seed=seed))
        [rep] = derivative_report(
            1.0,
            reciprocal_drift(1.0),
            driver.values[None, :],
            driver.times,
            1.0,
            StepFunction.indicator(0.0, 0.5),
            0.75,
            eps_list=(0.05, 0.025, 0.0125),
        )
        assert rep.passed
        assert abs(rep.analytic_value - rep.extrapolated_fd) <= max(
            1e-3, 1e-2 * abs(rep.analytic_value)
        )


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
        single = [
            derivative_report(1.0, drift, row[None, :], spec.times, *args)[0] for row in drivers
        ]
        assert len(batched) == len(single) == 6
        for b, s in zip(batched, single):
            # float reprs round-trip exactly, so equal reprs mean equal bits
            assert repr(b) == repr(s)

    def test_kernel_evaluated_once_per_row(self):
        spec = FbmSpec(hurst=0.75, n_steps=128, seed=22)
        drivers = sample_fbm_batch(spec, 5)
        args = (spec.times, 1.0, StepFunction.indicator(0.0, 0.5), 0.75)
        base = reciprocal_drift(1.0)
        path_calls = []

        def dfdx(t, x):
            if np.shape(x) == spec.times.shape:
                path_calls.append(x)
            return base.dfdx(t, x)

        counted = replace(base, dfdx=dfdx)
        reports = derivative_report(1.0, counted, drivers, *args)
        assert len(path_calls) == len(drivers)
        assert [repr(r) for r in reports] == [
            repr(r) for r in derivative_report(1.0, base, drivers, *args)
        ]

    @pytest.mark.parametrize("t", [0.5, 1.0])
    @pytest.mark.parametrize(
        "drift", [reciprocal_drift(1.0), power_drift(1.0, 0.0, 1.5)], ids=["closed-form", "newton"]
    )
    def test_report_matches_public_functions(self, drift, t):
        from fbmsde.solver import solve_batch

        spec = FbmSpec(hurst=0.75, n_steps=256, seed=24)
        drivers = sample_fbm_batch(spec, 4)
        phi = StepFunction.indicator(0.0, 0.3)
        reports = derivative_report(1.0, drift, drivers, spec.times, t, phi, 0.75)
        for rep, values in zip(reports, solve_batch(1.0, drift, drivers, spec.times)):
            sol = SamplePath(spec.times, values)
            assert rep.analytic_value == directional_derivative_analytic(sol, drift, t, phi, 0.75)
            assert rep.norm_sq == derivative_norm_sq(sol, drift, t, 0.75)

    @pytest.mark.parametrize(
        "drift, digest",
        [
            (
                reciprocal_drift(1.0),
                "96ed4bd1965b15c8f91c00879438c37442a3c19b026fa8c5a8af9e82e8f5c4f5",
            ),
            (
                power_drift(1.0, 0.0, 1.5),
                "48ee5f87ce2ce95aca57b020f0b194f99d0f912c17f1e0f2e96caeb1f32db8c8",
            ),
        ],
        ids=["closed-form", "newton"],
    )
    def test_report_is_pinned(self, drift, digest):
        # float reprs round-trip exactly, so this pins every reported bit; a
        # change must be declared with new digests.  Pinned for numpy >= 2.0,
        # whose FFT backend differs from 1.x (taken with numpy 2.4.6).
        spec = FbmSpec(0.75, n_steps=256, seed=2024)
        drivers = sample_fbm_batch(spec, 8)[:4]
        reports = derivative_report(
            1.0, drift, drivers, spec.times, 1.0, StepFunction.indicator(0.0, 0.5), 0.75
        )
        assert all(rep.passed for rep in reports)
        text = "\n".join(repr(rep) for rep in reports)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

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


def test_no_atoms_in_terminal_law():
    # continuous law proxy: every sorted-sample jump small
    from fbmsde.solver import solve_batch

    spec = FbmSpec(hurst=0.75, n_steps=256, seed=40)
    drivers = sample_fbm_batch(spec, 4000)
    sols = solve_batch(1.0, reciprocal_drift(1.0), drivers, spec.times)
    terminal = np.sort(sols[:, -1])
    _, counts = np.unique(terminal, return_counts=True)
    assert counts.max() <= 10
