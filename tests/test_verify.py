"""Bound assembly, inequality audits, scaling law, KS machinery, moment stability."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import beta as beta_fn

from fbmsde import verify
from fbmsde.fbm import FbmSpec, sample_fbm_batch
from fbmsde.fraccalc import holder_seminorm, sup_norm, young_integral
from fbmsde.paths import SamplePath
from fbmsde.solver import DriftSpec, bessel_drift, power_drift, reciprocal_drift, solve_batch
from fbmsde.verify import (
    HomogeneityError,
    admissible_order_window,
    check_negative_moments,
    check_path_bound,
    empirical_moment_stability,
    ibp_constant,
    ks_critical_value,
    ks_statistic,
    log_supnorm_bound,
    negative_moment_threshold,
    pair_units,
    scaling_spec,
    scaling_transform,
    simulate_paths,
    window_length,
)


def _whole_batch(spec, drift, x0, n_paths):
    """(times, drivers, solutions) of a whole batch, gathered from the blocks of ``simulate_paths``."""
    blocks = simulate_paths(spec, drift, x0, n_paths, lambda d, s: (d, s))
    return spec.times, np.concatenate([d for d, _ in blocks]), np.concatenate([s for _, s in blocks])


class TestWindowLength:
    def test_zero_driver_norm_leaves_drift_branch(self):
        assert window_length(3.0, 0.6, 1.0, 0.0, 5.0) == pytest.approx(1.0 / 48.0)

    def test_monotone_in_driver_norm(self):
        w1 = window_length(3.0, 0.65, 1.0, 1.0, 5.0)
        w2 = window_length(3.0, 0.65, 1.0, 2.0, 5.0)
        assert w2 <= w1

    def test_three_branch_minimum(self):
        gamma, beta, k_sup, c, phi = 3.0, 0.6, 1.0, 5.0, 1.0
        branch1 = (1.0 / (2.0 * c * gamma * phi)) ** (gamma / (beta * (gamma - 1.0)))
        branch2 = 1.0 / (16.0 * k_sup * gamma)
        branch3 = (1.0 / (8.0 * c * gamma * phi)) ** (1.0 / beta)
        got = window_length(gamma, beta, k_sup, phi, c)
        assert got == pytest.approx(min(branch1, branch2, branch3), rel=1e-12)

    def test_degenerate_configuration(self):
        with pytest.raises(ValueError):
            window_length(3.0, 0.6, 0.0, 0.0, 5.0)

    @pytest.mark.parametrize("arg", range(3))
    def test_nan_input_rejected(self, arg):
        args = [1.0, 1.0, 5.0]
        args[arg] = math.nan
        with pytest.raises(ValueError, match="nonnegative"):
            window_length(3.0, 0.65, *args)


class TestIbpConstant:
    def test_assembly_matches_hand_computation(self):
        beta, gamma, a = 0.75, 3.0, 0.375
        c5 = max(
            1.0 / math.gamma(1.0 - a),
            a / ((beta * (1 - 1 / gamma) - a) * math.gamma(1.0 - a)),
        )
        c6 = (1.0 + (1.0 - a) / (a + beta - 1.0)) / math.gamma(a)
        b1 = math.gamma(1 - a) * math.gamma(a + beta) / math.gamma(1 + beta)
        bi = beta * (1 - 1 / gamma) - a + 1.0
        b2 = math.gamma(bi) * math.gamma(a + beta) / math.gamma(bi + a + beta)
        assert ibp_constant(beta, gamma, a) == pytest.approx(c5 * c6 * max(b1, b2), rel=1e-12)

    @pytest.mark.parametrize(
        "beta,gamma",
        [(0.501, 251.0), (0.51, 26.0), (0.99, 3.0), (0.999, 2.001)],
    )
    def test_domain_edges_match_scipy_beta(self, beta, gamma):
        # beta near 1/2 needs gamma just past beta / (2 beta - 1) for a window
        lo, hi = admissible_order_window(beta, gamma)
        a = 0.5 * (lo + hi)
        beta_int = beta * (1 - 1 / gamma)
        c5 = max(1.0 / math.gamma(1.0 - a), a / ((beta_int - a) * math.gamma(1.0 - a)))
        c6 = (1.0 + (1.0 - a) / (a + beta - 1.0)) / math.gamma(a)
        b = max(beta_fn(1.0 - a, a + beta), beta_fn(beta_int - a + 1.0, a + beta))
        assert ibp_constant(beta, gamma, a) == pytest.approx(c5 * c6 * b, rel=1e-13)

    def test_degenerate_window_rejected(self):
        # beta = 0.6, gamma = 3 sits exactly on the empty-window boundary
        lo, hi = admissible_order_window(0.6, 3.0)
        assert lo >= hi
        with pytest.raises(ValueError):
            ibp_constant(0.6, 3.0)
        # gamma = 4 opens the window
        assert ibp_constant(0.6, 4.0) > 0.0

    def test_order_outside_window_rejected(self):
        with pytest.raises(ValueError):
            ibp_constant(0.75, 3.0, order=0.2)


class TestSupnormBound:
    def test_monotone_in_driver_norm_and_horizon(self):
        args = dict(x0=1.0, gamma=3.0, beta=0.75, k_sup=1.0)
        b1 = log_supnorm_bound(horizon=1.0, phi_norm=1.0, **args)
        b2 = log_supnorm_bound(horizon=1.0, phi_norm=2.0, **args)
        b3 = log_supnorm_bound(horizon=2.0, phi_norm=1.0, **args)
        assert b2 >= b1 and b3 >= b1

    def test_zero_driver_floor(self):
        val = log_supnorm_bound(1.0, 3.0, 0.75, 1.0, 1.0, 0.0)
        assert val >= 0.0  # never below the initial value, log 1

    def test_log_growth_slope(self):
        # log bound ~ phi_norm^{gamma/(beta(gamma-1))} for large norms
        gamma, beta = 3.0, 0.75
        target = gamma / (beta * (gamma - 1.0))
        norms = np.array([2.0, 4.0, 8.0, 16.0])
        logs = [
            math.log(log_supnorm_bound(1.0, gamma, beta, 1.0, 1.0, float(p))) for p in norms
        ]
        slope = np.polyfit(np.log(norms), logs, 1)[0]
        assert abs(slope - target) <= 0.1 * target

    @pytest.mark.parametrize("phi_norm", [1e131, 1e138, 1e300, math.inf])
    def test_huge_driver_norm_gives_a_vacuous_bound(self, phi_norm):
        # the window underflows, so horizon / window is not finite: at 1e131
        # it overflowed int(), from 1e138 on it divided by zero
        assert log_supnorm_bound(1.0, 3.0, 0.65, 1.0, 1.0, phi_norm) == math.inf

    def test_bound_is_finite_below_the_underflow(self):
        assert math.isfinite(log_supnorm_bound(1.0, 3.0, 0.65, 1.0, 1.0, 1e130))

    def test_tiny_driver_norm_drops_the_overflowing_term(self):
        # at 1e-140 the first window term overflows a float; it counts as
        # infinite, so the drift term sets the window
        tiny = log_supnorm_bound(1.0, 3.0, 0.65, 1.0, 1.0, 1e-140)
        assert math.isfinite(tiny)
        assert tiny <= log_supnorm_bound(1.0, 3.0, 0.65, 1.0, 1.0, 1e-100)
        assert window_length(3.0, 0.65, 1.0, 1e-140, 5.0) == pytest.approx(1.0 / 48.0)


class TestPathBoundAudit:
    def test_zero_driver_closed_form_below_bound(self):
        n = 512
        times = np.linspace(0.0, 1.0, n + 1)
        flat = np.zeros((1, n + 1))
        exact = np.sqrt(1.0 + 2.0 * times)[None, :]
        rep = check_path_bound(reciprocal_drift(1.0), exact, flat, times, beta=0.65, gamma=3.0)
        assert rep.pass_fraction == 1.0

    def test_fbm_batch_all_pass(self):
        drift = reciprocal_drift(1.0)
        times, drivers, sols = _whole_batch(
            FbmSpec(hurst=0.75, n_steps=256, seed=3), drift, 1.0, 50
        )
        rep = check_path_bound(drift, sols, drivers, times, beta=0.65, gamma=3.0)
        assert rep.pass_fraction == 1.0
        assert rep.worst_margin >= 0.0

    @pytest.mark.parametrize("driver", ["fbm_times_1e300", "sawtooth_of_1e307"])
    def test_huge_driver_passes_with_infinite_margin(self, driver):
        # an fBm driver scaled by 1e300 underflows the bound's window; the
        # sawtooth's ratios overflow inside the seminorm
        drift = reciprocal_drift(1.0)
        times, drivers, sols = _whole_batch(
            FbmSpec(hurst=0.75, n_steps=256, seed=3), drift, 1.0, 2
        )
        if driver == "fbm_times_1e300":
            drivers = 1e300 * drivers
        else:
            drivers = np.broadcast_to(1e307 * (np.arange(times.size) % 2), drivers.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_path_bound(drift, sols, drivers, times, beta=0.65, gamma=3.0)
        assert rep.pass_fraction == 1.0
        assert rep.worst_margin == math.inf

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    def test_nonfinite_envelope_is_not_dropped(self, value):
        # h is 1 up to t = 0.5 and ``value`` after: the drift cap is that
        # value, not the 1 of the finite part
        drift = power_drift(1.0, 0.0, 1.5)
        times, drivers, sols = _whole_batch(FbmSpec(hurst=0.75, n_steps=64, seed=5), drift, 1.0, 4)
        drift = replace(drift, upper_envelope=lambda t: 1.0 if t <= 0.5 else value)
        if math.isnan(value):
            with pytest.raises(ValueError, match="k_sup"):
                check_path_bound(drift, sols, drivers, times, beta=0.65, gamma=3.0)
        else:
            rep = check_path_bound(drift, sols, drivers, times, beta=0.65, gamma=3.0)
            assert rep.pass_fraction == 1.0
            assert rep.worst_margin == math.inf

    @pytest.mark.parametrize(
        "case, message",
        [
            ("missing_driver", "differ in shape"),
            ("short_grid", "columns for"),
            ("nan_solution", "finite"),
            ("inf_driver", "finite"),
        ],
    )
    def test_malformed_inputs_rejected(self, case, message):
        drift = reciprocal_drift(1.0)
        times, drivers, sols = _whole_batch(
            FbmSpec(hurst=0.75, n_steps=64, seed=5), drift, 1.0, 3
        )
        if case == "missing_driver":
            drivers = drivers[:2]
        elif case == "short_grid":
            times = times[:-1]
        elif case == "nan_solution":
            sols[1, 10] = np.nan
        else:
            drivers[2, 5] = np.inf
        with pytest.raises(ValueError, match=message):
            check_path_bound(drift, sols, drivers, times, beta=0.65, gamma=3.0)


class TestPairingBound:
    def test_explicit_constant_dominates_on_solution_paths(self):
        # |young(y^{1-1/gamma}, phi)| <= C ||phi|| (||y||_inf^{1-1/g} L^beta
        #                                + ||y||_beta^{1-1/g} L^{beta(2-1/g)})
        hurst, beta, gamma = 0.75, 0.65, 3.0
        c = ibp_constant(beta, gamma)
        lo, hi = admissible_order_window(beta, gamma)
        order = 0.5 * (lo + hi)
        times, drivers, sols = _whole_batch(
            FbmSpec(hurst=hurst, n_steps=512, seed=23), reciprocal_drift(1.0), 1.0, 5
        )
        windows = [(0.0, 1.0), (0.25, 0.75), (0.5, 1.0)]
        for drv_row, sol_row in zip(drivers, sols):
            driver = SamplePath(times, drv_row, holder_hint=hurst)
            phi_norm = holder_seminorm(driver, 0.0, 1.0, beta)
            y_path = SamplePath(times, sol_row**gamma, holder_hint=hurst)
            integrand = SamplePath(times, sol_row ** (gamma - 1.0), holder_hint=hurst)
            for s, t in windows:
                got = abs(young_integral(integrand, driver, s, t, order))
                y_sup = sup_norm(y_path, s, t) ** (1.0 - 1.0 / gamma)
                y_sem = holder_seminorm(y_path, s, t, beta) ** (1.0 - 1.0 / gamma)
                length = t - s
                bound = c * phi_norm * (
                    y_sup * length**beta + y_sem * length ** (beta * (2.0 - 1.0 / gamma))
                )
                assert got <= bound


class TestNegativeMoments:
    def test_threshold_values(self):
        assert negative_moment_threshold((1.0 + 1.0) * 0.75, 1.0, 0.75) == pytest.approx(1.0)
        assert negative_moment_threshold(1.0, 1.0, 0.75) == pytest.approx(4.0 / 9.0)

    def test_threshold_monotonicity(self):
        assert negative_moment_threshold(2.0, 1.0, 0.75) > negative_moment_threshold(1.0, 1.0, 0.75)
        assert negative_moment_threshold(1.0, 2.0, 0.75) < negative_moment_threshold(1.0, 1.0, 0.75)

    def test_not_applicable_above_threshold(self):
        rep = check_negative_moments(
            np.ones(100), p=1.0, t=0.6, x0=1.0, k=1.0, hurst=0.75
        )
        assert rep.passed is None

    def test_zero_order_is_exact(self):
        rep = check_negative_moments(
            np.full(50, 3.3), p=0.0, t=0.2, x0=1.0, k=1.0, hurst=0.75
        )
        assert rep.estimate == 1.0 and rep.std_error == 0.0 and rep.passed

    def test_monte_carlo_inequality_small_batch(self):
        drift = reciprocal_drift(1.0)
        times, _, sols = _whole_batch(
            FbmSpec(hurst=0.75, n_steps=512, seed=31), drift, 1.0, 2000
        )
        idx = int(round(0.375 / (times[1] - times[0])))
        rep = check_negative_moments(
            sols[:, idx], p=1.0, t=float(times[idx]), x0=1.0, k=1.0, hurst=0.75
        )
        assert rep.passed is True


class TestClusterStdError:
    def test_pairs_and_a_singleton_by_hand(self):
        # units {0, 1}, {2, 3}, {4}: sums 3, 7, 5 of sizes 2, 2, 1 around the
        # mean 3; residuals 3 - 6, 7 - 6, 5 - 3 square to 9 + 1 + 4 = 14, and
        # SE^2 = 3/2 * 14 / 5^2
        values = 1.0 / np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        rep = check_negative_moments(
            values, p=1.0, t=0.2, x0=1.0, k=1.0, hurst=0.75, units=np.array([0, 0, 1, 1, 2])
        )
        assert rep.estimate == 3.0 and rep.n_paths == 5
        assert rep.std_error == pytest.approx(math.sqrt(1.5 * 14.0) / 5.0, rel=1e-15)

    def test_pairs_give_the_standard_error_of_the_pair_means(self):
        samples = np.random.default_rng(3).uniform(0.5, 2.0, 400)
        rep = check_negative_moments(
            1.0 / samples, p=1.0, t=0.2, x0=1.0, k=1.0, hurst=0.75, units=pair_units(400)
        )
        means = samples.reshape(200, 2).mean(axis=1)
        assert rep.std_error == pytest.approx(np.std(means, ddof=1) / math.sqrt(200), rel=1e-12)

    def test_one_path_per_unit_gives_the_per_path_standard_error(self):
        xt = np.random.default_rng(4).uniform(0.3, 2.0, 501)
        samples = xt**-2.0
        rep = check_negative_moments(xt, p=2.0, t=0.1, x0=1.0, k=1.0, hurst=0.75)
        assert rep.estimate == float(np.mean(samples))
        assert rep.std_error == pytest.approx(np.std(samples, ddof=1) / math.sqrt(501), rel=1e-12)
        singletons = check_negative_moments(xt, p=2.0, t=0.1, x0=1.0, k=1.0, hurst=0.75, units=np.arange(501))
        assert singletons.std_error == rep.std_error

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_unit_gives_zero_without_a_warning(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_negative_moments(
                np.linspace(1.0, 2.0, n), p=1.0, t=0.2, x0=1.0, k=1.0, hurst=0.75, units=np.zeros(n, int)
            )
        assert rep.std_error == 0.0 and rep.passed is True

    def test_units_must_label_every_path(self):
        with pytest.raises(ValueError, match="units"):
            check_negative_moments(np.ones(4), p=1.0, t=0.2, x0=1.0, k=1.0, hurst=0.75, units=np.zeros(3))

    def test_mirrored_pairs_do_not_raise_the_standard_error(self):
        # 2,000 solved paths each way at H 0.75, 256 steps: the pair SE was
        # 0.45-0.50x (t 0.2) and 0.55-0.66x (t 0.4) the independent SE over
        # seeds 0-9
        spec, n_paths, idx = FbmSpec(hurst=0.75, n_steps=256, seed=31), 2000, [51, 102]

        def columns(antithetic: bool) -> np.ndarray:
            blocks = simulate_paths(
                spec, reciprocal_drift(1.0), 1.0, n_paths, lambda d, s: s[:, idx],
                n_points=103, antithetic=antithetic,
            )
            return np.concatenate(blocks)

        independent, mirrored = columns(False), columns(True)
        for j in range(2):
            t = float(spec.times[idx[j]])
            se_ind = check_negative_moments(independent[:, j], p=1.0, t=t, x0=1.0, k=1.0, hurst=0.75).std_error
            pairs = check_negative_moments(
                mirrored[:, j], p=1.0, t=t, x0=1.0, k=1.0, hurst=0.75, units=pair_units(n_paths)
            )
            assert pairs.passed is True
            assert pairs.std_error <= se_ind


class TestScaling:
    def test_identity_at_unit_factor(self):
        x0p, drift_p, spec = scaling_transform(power_drift(1.0, 1.0, 1.0), 1.0, 0.75, 1.0)
        assert x0p == 1.0
        assert spec.a == 1.0
        assert float(drift_p.f(0.5, np.asarray(2.0))) == pytest.approx(0.25)

    @pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
    def test_bessel_exponent_exactly_zero(self, hurst):
        for a in (0.5, 2.0, 7.0):
            spec = scaling_spec(bessel_drift(2, hurst), a, hurst)
            assert spec.exponent == 0.0

    def test_power_exponent(self):
        spec = scaling_spec(power_drift(1.0, 1.0, 1.0), 2.0, 0.75)
        # H + alpha H - gamma_time - 1 with alpha = 1, gamma_time = 1
        assert spec.exponent == pytest.approx(0.75 + 0.75 - 1.0 - 1.0)

    def test_homogeneity_violation_detected(self):
        drift = DriftSpec(
            "custom",
            lambda t, x: 1.0 / (1.0 + np.asarray(x, dtype=np.float64)),
            lambda t, x: -1.0 / (1.0 + np.asarray(x, dtype=np.float64)) ** 2,
            singularity_exponent=1.0,
            lower_envelope=lambda t: 0.5,
            upper_envelope=lambda t: 1.0,
            homogeneity=(0.0, 0.0, -1.0),
        )
        with pytest.raises(HomogeneityError):
            scaling_spec(drift, 2.0, 0.75)

    def test_undeclared_homogeneity_rejected(self):
        drift = DriftSpec(
            "custom",
            lambda t, x: 1.0 / np.asarray(x, dtype=np.float64),
            lambda t, x: -1.0 / np.asarray(x, dtype=np.float64) ** 2,
            singularity_exponent=1.0,
            lower_envelope=lambda t: 1.0,
            upper_envelope=lambda t: 1.0,
        )
        with pytest.raises(HomogeneityError):
            scaling_spec(drift, 2.0, 0.75)


class TestKolmogorovSmirnov:
    def test_identical_samples(self):
        x = np.arange(10.0)
        assert ks_statistic(x, x) == 0.0

    def test_disjoint_supports(self):
        assert ks_statistic(np.arange(5.0), np.arange(10.0, 15.0)) == 1.0

    def test_null_calibration(self):
        rng = np.random.default_rng(5)
        m = 5000
        a, b = rng.standard_normal(m), rng.standard_normal(m)
        assert ks_statistic(a, b) < ks_critical_value(m, m, alpha=0.01)

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            ks_critical_value(100, 5000)


class TestMomentStability:
    def test_zero_order_exact(self):
        rep = empirical_moment_stability(np.random.default_rng(0).uniform(1, 2, 100), [0.0])
        entry = rep.entries[0]
        assert entry.first_half == 1.0 and entry.second_half == 1.0 and entry.passed

    def test_deterministic_paths_zero_variance(self):
        rep = empirical_moment_stability(np.full(64, 2.5), [1.0, 2.0])
        for e in rep.entries:
            assert e.std_error == 0.0 and e.passed

    def test_solution_sup_norm_moments_stable(self):
        _, _, sols = _whole_batch(
            FbmSpec(hurst=0.75, n_steps=256, seed=9), reciprocal_drift(1.0), 1.0, 4000
        )
        sups = np.max(np.abs(sols), axis=1)
        rep = empirical_moment_stability(sups, [1.0, 2.0, 4.0, 8.0])
        assert rep.all_pass


@pytest.mark.parametrize("drift", [reciprocal_drift(1.0), power_drift(1.0, 1.0, 1.5)])
def test_solve_horizon_keeps_leading_columns(drift):
    # 40 of 129 points are drawn as the 64-step prefix grid on [0, 0.5]; the
    # scheme is causal, so stopping the solve early leaves the bits a
    # full-grid solve on the same drivers gives in those columns
    spec = FbmSpec(hurst=0.75, n_steps=128, seed=4)
    ((d, s),) = simulate_paths(spec, drift, 1.0, 9, lambda d, s: (d, s), n_points=40)
    prefix = FbmSpec(hurst=0.75, horizon=0.5, n_steps=64, seed=4)
    assert np.array_equal(d, sample_fbm_batch(prefix, 9)[:, :40])
    drivers = sample_fbm_batch(spec, 9)
    drivers[:, :40] = d
    sols = solve_batch(1.0, drift, drivers, spec.times)
    assert s.tobytes() == sols[:, :40].tobytes()


@pytest.mark.parametrize(
    "n_steps, n_points, n_pre, horizon",
    [
        (128, 2, 2, 2 / 128),  # the shortest prefix FbmSpec admits
        (128, 33, 32, 0.25),  # n_points - 1 is already a power of two
        (128, 34, 64, 0.5),  # one step past it
        (1000, 301, 512, 0.512),  # a grid that is not a power of two
        (1000, 600, 1000, 1.0),  # the next power of two overshoots: the full grid
        (128, 129, 128, 1.0),  # every point
    ],
)
def test_drivers_are_rows_of_the_power_of_two_prefix(n_steps, n_points, n_pre, horizon):
    spec = FbmSpec(hurst=0.7, n_steps=n_steps, seed=31)
    ((d, s),) = simulate_paths(spec, reciprocal_drift(1.0), 1.0, 5, lambda d, s: (d, s), n_points=n_points)
    prefix = FbmSpec(hurst=0.7, horizon=horizon, n_steps=n_pre, seed=31)
    assert d.tobytes() == sample_fbm_batch(prefix, 5)[:, :n_points].tobytes()
    assert s.shape == (5, n_points)
    if n_pre == n_steps:  # full-grid bytes, as without n_points
        assert d.tobytes() == sample_fbm_batch(spec, 5)[:, :n_points].tobytes()


def test_prefix_drivers_have_the_fbm_law():
    # 20,000 rows on 80 of 257 points (drawn as 128 steps on [0, 0.5]): the
    # variance of phi_t and the lag-1 covariance of the last two increments
    # match fBm on the full grid, each within 4 standard errors
    hurst, n_points, n_rows = 0.75, 80, 20_000
    spec = FbmSpec(hurst=hurst, n_steps=256, seed=77)
    tails = np.concatenate(
        simulate_paths(spec, reciprocal_drift(1.0), 1.0, n_rows, lambda d, s: d[:, -3:].copy(), n_points=n_points)
    )
    t, dt = spec.times[n_points - 1], spec.horizon / spec.n_steps
    sq = tails[:, -1] ** 2
    assert abs(sq.mean() - t ** (2 * hurst)) <= 4.0 * sq.std(ddof=1) / math.sqrt(n_rows)
    steps = np.diff(tails, axis=1)
    prod = steps[:, 0] * steps[:, 1]
    lag1 = 0.5 * dt ** (2 * hurst) * (2.0 ** (2 * hurst) - 2.0)
    assert abs(prod.mean() - lag1) <= 4.0 * prod.std(ddof=1) / math.sqrt(n_rows)


@pytest.mark.parametrize("n_points", [1, 130])
def test_solve_horizon_outside_grid_rejected(n_points):
    with pytest.raises(ValueError, match="n_points must lie in"):
        simulate_paths(FbmSpec(0.75, n_steps=128), reciprocal_drift(1.0), 1.0, 2, np.min, n_points=n_points)


class TestAntitheticDrivers:
    spec = FbmSpec(hurst=0.75, n_steps=128, seed=6)

    def _blocks(self, n_paths: int, n_points: int | None = None) -> list:
        return simulate_paths(
            self.spec, reciprocal_drift(1.0), 1.0, n_paths, lambda d, s: (d.copy(), s.copy()),
            n_points=n_points, antithetic=True,
        )

    @pytest.mark.parametrize("n_paths", [8, 7])
    def test_odd_rows_are_the_negated_even_rows(self, n_paths):
        ((d, s),) = self._blocks(n_paths, n_points=40)
        # the even rows are the first ceil(n_paths / 2) rows of the prefix grid
        prefix = FbmSpec(hurst=0.75, horizon=0.5, n_steps=64, seed=6)
        assert d[0::2].tobytes() == sample_fbm_batch(prefix, (n_paths + 1) // 2)[:, :40].tobytes()
        assert (-d[0 : n_paths - 1 : 2]).tobytes() == d[1::2].tobytes()
        assert s.tobytes() == solve_batch(1.0, reciprocal_drift(1.0), d, self.spec.times[:40]).tobytes()

    @pytest.mark.parametrize("plain_rows", [2, 6])
    @pytest.mark.parametrize("n_paths", [21, 24])
    def test_blocks_change_no_byte(self, monkeypatch, plain_rows, n_paths):
        # a plain block of 2 or 6 rows becomes a mirrored block of 4: every
        # block starts on an even sampled row
        whole = self._blocks(n_paths)
        monkeypatch.setattr(verify, "_BLOCK_BYTES", 8 * self.spec.n_steps * plain_rows)
        blocks = self._blocks(n_paths)
        assert [len(d) for d, _ in blocks] == [4] * (n_paths // 4) + ([n_paths % 4] if n_paths % 4 else [])
        for k in (0, 1):
            assert np.concatenate([b[k] for b in blocks]).tobytes() == whole[0][k].tobytes()

    def test_odd_n_paths_leaves_the_last_path_unmirrored(self, monkeypatch):
        monkeypatch.setattr(verify, "_BLOCK_BYTES", 8 * self.spec.n_steps * 4)
        drivers = np.concatenate([d for d, _ in self._blocks(9)])
        assert drivers.shape == (9, 129)
        assert drivers[8].tobytes() == sample_fbm_batch(self.spec, 6)[4].tobytes()
        assert not np.array_equal(drivers[8], -drivers[7])
        # the unit labels follow the layout: a unit is one driver and its negation
        units = pair_units(9)
        assert units.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4]
        for u in range(5):
            rows = drivers[units == u]
            assert (-rows[1:]).tobytes() == rows[:1].repeat(len(rows) - 1, axis=0).tobytes()


def test_streamed_reduction_memory_is_flat_in_n_paths(monkeypatch):
    # a neg-moments-style reduction keeps two columns per block, so its
    # traced peak is set by one block, not by n_paths
    spec, drift, rows = FbmSpec(hurst=0.75, n_steps=256, seed=8), reciprocal_drift(1.0), 64
    monkeypatch.setattr(verify, "_BLOCK_BYTES", 8 * spec.n_steps * rows)

    def peak(n_blocks: int) -> int:
        tracemalloc.start()
        try:
            simulate_paths(spec, drift, 1.0, n_blocks * rows, lambda d, s: s[:, [51, 102]], n_points=103)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # fill the eigenvalue cache first
    assert peak(8) <= 1.3 * peak(2)
