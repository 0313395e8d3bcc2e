"""Norms, compensated derivative closed forms, pairing vs Riemann-Stieltjes."""

import math

import numpy as np
import pytest

from fbmsde import fraccalc
from fbmsde.fbm import FbmSpec, sample_fbm, sample_fbm_batch
from fbmsde.fraccalc import (
    OrderValidityWarning,
    default_ibp_order,
    frac_deriv_left,
    frac_deriv_right,
    holder_seminorm,
    riemann_stieltjes,
    sup_norm,
    young_integral,
)
from fbmsde.paths import GridError, SamplePath


def _path(fn, n, horizon=1.0, hint=1.0):
    return SamplePath.from_function(fn, horizon, n, holder_hint=hint)


def _per_lag_seminorm(x, s, t, beta):
    """Reference: the seminorm scanned one lag at a time, over all lags."""
    i, j = x.slice_indices(s, t)
    vals = x.values[i : j + 1]
    dt = x.dt
    best = 0.0
    for lag in range(1, vals.size):
        top = np.max(np.abs(vals[lag:] - vals[:-lag]))
        best = max(best, top / (lag * dt) ** beta)
    return float(best)


class TestNorms:
    def test_sup_norm_constant_and_linear(self):
        assert sup_norm(_path(lambda t: -3.0 + 0 * t, 64), 0.0, 1.0) == 3.0
        assert sup_norm(_path(lambda t: t, 64), 0.0, 1.0) == 1.0

    def test_sup_norm_sine(self):
        p = _path(lambda t: np.sin(2 * np.pi * t), 1024)
        assert sup_norm(p, 0.0, 1.0) == pytest.approx(1.0, abs=1e-4)

    def test_sup_norm_empty_interval(self):
        p = _path(lambda t: t, 10)
        with pytest.raises(GridError):
            sup_norm(p, 0.31, 0.39)

    def test_seminorm_constant_zero(self):
        assert holder_seminorm(_path(lambda t: 4.2 + 0 * t, 64), 0.0, 1.0, 0.5) == 0.0

    def test_seminorm_linear(self):
        # |u - v| / |u - v|^0.5 is maximized at the full interval
        assert holder_seminorm(_path(lambda t: t, 128), 0.0, 1.0, 0.5) == pytest.approx(1.0)

    def test_seminorm_grid_monotone(self):
        fn = lambda t: np.sin(5 * t) + 0.3 * np.cos(17 * t)
        coarse = holder_seminorm(_path(fn, 128), 0.0, 1.0, 0.6)
        fine = holder_seminorm(_path(fn, 1024), 0.0, 1.0, 0.6)
        assert fine >= coarse

    def test_seminorm_fbm_stable_under_refinement(self):
        fine = sample_fbm(FbmSpec(hurst=0.75, n_steps=1024, seed=13))
        coarse = SamplePath(fine.times[::4], fine.values[::4], holder_hint=0.75)
        s_fine = holder_seminorm(fine, 0.0, 1.0, 0.7)
        s_coarse = holder_seminorm(coarse, 0.0, 1.0, 0.7)
        assert s_coarse <= s_fine < 2.0 * s_coarse

    def test_seminorm_exact_above_4096_points(self):
        # every lag is scanned at every grid size, not only power-of-two ones
        for m in (4097, 8193):
            rough = sample_fbm(FbmSpec(hurst=0.75, n_steps=m - 1, seed=99))
            assert holder_seminorm(rough, 0.0, 1.0, 0.65) == _per_lag_seminorm(rough, 0.0, 1.0, 0.65)
        p = _path(lambda t: t, 8192)
        assert holder_seminorm(p, 0.0, 1.0, 0.5) == pytest.approx(1.0)

    def test_seminorm_never_decreases_under_refinement(self):
        # the full grid holds every pair of the every-other-point grid
        spec = FbmSpec(0.75, n_steps=4096, seed=11)
        times = spec.times
        for row in sample_fbm_batch(spec, 40):
            fine = holder_seminorm(SamplePath(times, row), 0.0, 1.0, 0.65)
            coarse = holder_seminorm(SamplePath(times[::2], row[::2]), 0.0, 1.0, 0.65)
            assert fine >= coarse

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_seminorm_rejects_non_finite_path(self, bad):
        values = np.linspace(0.0, 1.0, 9)
        values[4] = bad
        with pytest.raises(ValueError, match="not finite"):
            holder_seminorm(SamplePath(np.linspace(0.0, 1.0, 9), values), 0.0, 1.0, 0.5)


class TestSeminormScan:
    """The blocked lag scan, with its early stop, equals the per-lag scan bit for bit."""

    @staticmethod
    def _walk(m, seed):
        rng = np.random.default_rng(seed)
        return SamplePath(np.linspace(0.0, 1.0, m), np.cumsum(rng.standard_normal(m)) / m**0.75)

    @pytest.mark.parametrize("beta", [0.3, 0.65, 0.99])
    # 1000 and 4000 points leave a last block shorter than 64 lags
    @pytest.mark.parametrize("m", [2, 3, 63, 64, 65, 66, 129, 1000, 1025, 4000, 4096, 4097, 8193])
    def test_whole_interval(self, m, beta):
        p = self._walk(m, seed=m)
        assert holder_seminorm(p, 0.0, 1.0, beta) == _per_lag_seminorm(p, 0.0, 1.0, beta)

    @pytest.mark.parametrize("beta", [0.3, 0.65, 0.99])
    @pytest.mark.parametrize("m", [65, 1025, 4096])
    def test_power_path_ties_every_lag(self, m, beta):
        # t**beta by Python's power, as the divisors are: every lag's ratio is
        # 1 exactly, so a last-bit change in any divisor changes the value
        times = np.linspace(0.0, 1.0, m)
        p = SamplePath(times, [u**beta for u in times.tolist()])
        assert holder_seminorm(p, 0.0, 1.0, beta) == _per_lag_seminorm(p, 0.0, 1.0, beta) == 1.0

    @pytest.mark.parametrize("beta", [0.3, 0.65, 0.99])
    @pytest.mark.parametrize("s, t", [(0.25, 1.0), (0.1, 0.6), (0.5, 0.56), (0.999, 1.0)])
    def test_sub_interval(self, s, t, beta):
        p = self._walk(1025, seed=7)
        assert holder_seminorm(p, s, t, beta) == _per_lag_seminorm(p, s, t, beta)

    # The early stop: the scan ends once max - min over the next lag's
    # divisor cannot beat the best ratio so far.

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Count the lag blocks the exact scan reads."""
        seen = []
        view = fraccalc.sliding_window_view

        def counting_view(*args, **kwargs):
            seen.append(1)
            return view(*args, **kwargs)

        monkeypatch.setattr(fraccalc, "sliding_window_view", counting_view)
        return seen

    def test_constant_path_stops_before_the_first_block(self, blocks):
        p = SamplePath(np.linspace(0.0, 1.0, 1025), np.full(1025, 4.2))
        assert holder_seminorm(p, 0.0, 1.0, 0.5) == _per_lag_seminorm(p, 0.0, 1.0, 0.5) == 0.0
        assert blocks == []

    def test_linear_path_scans_every_block(self, blocks):
        # the ratio (lag dt)^0.7 grows with the lag, so the last lag wins
        p = _path(lambda t: t, 1024)
        assert holder_seminorm(p, 0.0, 1.0, 0.3) == _per_lag_seminorm(p, 0.0, 1.0, 0.3)
        assert len(blocks) == 16

    def test_walk_stops_early(self, blocks):
        p = self._walk(1025, seed=3)
        assert holder_seminorm(p, 0.0, 1.0, 0.65) == _per_lag_seminorm(p, 0.0, 1.0, 0.65)
        assert 0 < len(blocks) < 16

    @pytest.mark.parametrize("beta", [0.3, 0.65, 0.99])
    def test_spike_in_final_block(self, beta):
        p = self._walk(1025, seed=5)
        values = p.values.copy()
        values[-20] += 10.0 * np.ptp(values)
        p = SamplePath(p.times, values)
        assert holder_seminorm(p, 0.0, 1.0, beta) == _per_lag_seminorm(p, 0.0, 1.0, beta)

    @pytest.mark.parametrize("peak", [65, 129, 577])
    def test_best_ratio_at_first_lag_of_a_block(self, peak):
        # a ramp that levels off at index `peak`: the ratio rises with the lag
        # up to `peak` and falls after it, so the stop test at block `peak`
        # must use that block's first divisor
        times = np.linspace(0.0, 1.0, 1025)
        p = SamplePath(times, np.minimum(times, times[peak]))
        assert holder_seminorm(p, 0.0, 1.0, 0.3) == _per_lag_seminorm(p, 0.0, 1.0, 0.3)

    def test_divisors_cached_read_only(self):
        divisors, monotone = fraccalc._lag_divisors(1024, 1.0 / 1024, 0.65)
        assert monotone and divisors.shape == (1024,)
        assert not divisors.flags.writeable
        with pytest.raises(ValueError):
            divisors[0] = 1.0
        assert fraccalc._lag_divisors(1024, 1.0 / 1024, 0.65)[0] is divisors

    def test_non_monotone_divisors_scan_every_block(self, monkeypatch, blocks):
        p = self._walk(1025, seed=3)
        real = fraccalc._lag_divisors
        monkeypatch.setattr(fraccalc, "_lag_divisors", lambda *key: (real(*key)[0], False))
        assert holder_seminorm(p, 0.0, 1.0, 0.65) == _per_lag_seminorm(p, 0.0, 1.0, 0.65)
        assert len(blocks) == 16

    def test_divisor_dip_is_not_pruned_away(self, monkeypatch):
        # a divisor that drops at the last lag lifts that lag's ratio above
        # every earlier one; only the full scan finds it
        p = self._walk(1025, seed=3)
        divisors = fraccalc._lag_divisors(1024, p.dt, 0.65)[0].copy()
        divisors[-1] = divisors[0]
        monkeypatch.setattr(fraccalc, "_lag_divisors", lambda *key: (divisors, False))
        vals = p.values
        expected = max(
            float(np.max(np.abs(vals[lag:] - vals[:-lag]))) / divisors[lag - 1]
            for lag in range(1, 1025)
        )
        assert expected == abs(vals[-1] - vals[0]) / divisors[0]
        assert holder_seminorm(p, 0.0, 1.0, 0.65) == expected


class TestLeftDerivative:
    @pytest.mark.parametrize("order", [0.25, 0.4, 0.55, 0.7])
    def test_constant_closed_form(self, order):
        c = 2.5
        p = _path(lambda t: c + 0 * t, 512)
        rng = np.random.default_rng(4)
        for _ in range(20):
            i, j = sorted(rng.integers(0, 513, size=2))
            if j - i < 1:
                continue
            s, u = i / 512, j / 512
            got = frac_deriv_left(p, s, u, order)
            want = c * (u - s) ** (-order) / math.gamma(1.0 - order)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("order", [0.3, 0.45, 0.6])
    def test_monomial_closed_form(self, order):
        p = _path(lambda t: t, 2048)
        for u in (0.25, 0.5, 0.75, 1.0):
            got = frac_deriv_left(p, 0.0, u, order)
            want = u ** (1.0 - order) / math.gamma(2.0 - order)
            assert got == pytest.approx(want, abs=1e-6)

    def test_linearity(self):
        n = 512
        p1 = _path(lambda t: t**2, n)
        p2 = _path(np.cos, n)
        combo = SamplePath(p1.times, 3.0 * p1.values - 2.0 * p2.values)
        got = frac_deriv_left(combo, 0.0, 0.75, 0.4)
        want = 3.0 * frac_deriv_left(p1, 0.0, 0.75, 0.4) - 2.0 * frac_deriv_left(p2, 0.0, 0.75, 0.4)
        assert got == pytest.approx(want, rel=1e-12)

    def test_domain_errors(self):
        p = _path(lambda t: t, 32)
        with pytest.raises(ValueError):
            frac_deriv_left(p, 0.5, 0.25, 0.4)
        with pytest.raises(ValueError):
            frac_deriv_left(p, 0.0, 0.5, 1.5)


class TestRightDerivative:
    @pytest.mark.parametrize("order", [0.3, 0.45, 0.6])
    def test_constant_vanishes(self, order):
        p = _path(lambda t: 7.0 + 0 * t, 256)
        for u in (0.0, 0.25, 0.625):
            assert frac_deriv_right(p, u, 1.0, order) == 0.0

    @pytest.mark.parametrize("order", [0.3, 0.45, 0.6])
    def test_linear_closed_form(self, order):
        p = _path(lambda t: t, 2048)
        for u in (0.0, 0.25, 0.5, 0.9):
            got = frac_deriv_right(p, u, 1.0, order)
            want = (1.0 - u) ** order / math.gamma(1.0 + order)
            assert got == pytest.approx(want, abs=1e-6)

    def test_decay_bound_on_fbm_path(self):
        # |D phi| <= C * seminorm * (t-u)^{order+beta-1} with the explicit C
        hurst, beta, order = 0.75, 0.65, 0.45
        phi = sample_fbm(FbmSpec(hurst=hurst, n_steps=1024, seed=3))
        norm = holder_seminorm(phi, 0.0, 1.0, beta)
        c = (1.0 + (1.0 - order) / (order + beta - 1.0)) / math.gamma(order)
        for u in np.linspace(0.0, 0.99, 34):
            got = abs(frac_deriv_right(phi, float(u), 1.0, order))
            assert got <= c * norm * (1.0 - u) ** (order + beta - 1.0) * (1.0 + 1e-9)


class TestYoungIntegral:
    def test_constant_integrand(self):
        n = 1024
        const = _path(lambda t: 3.0 + 0 * t, n)
        phi = _path(np.sin, n)
        got = young_integral(const, phi, 0.0, 1.0, 0.45)
        assert got == pytest.approx(3.0 * math.sin(1.0), abs=2e-5)

    def test_smooth_pair_vs_refined_oracle(self):
        # left-point sums carry an O(dt) bias, so the oracle runs on a much
        # finer rendering of the same smooth functions
        n, n_oracle = 2048, 1 << 20
        y = _path(lambda t: t**2, n)
        phi = _path(np.sin, n)
        y_f = _path(lambda t: t**2, n_oracle)
        phi_f = _path(np.sin, n_oracle)
        oracle = riemann_stieltjes(y_f, phi_f, 0.0, 1.0)
        got = young_integral(y, phi, 0.0, 1.0, 0.4)
        assert abs(got - oracle) <= 1e-5 * abs(oracle)

    def test_chain_rule_smooth(self):
        n = 2048
        phi = _path(np.sin, n)
        got = young_integral(phi, phi, 0.0, 1.0, 0.45)
        want = math.sin(1.0) ** 2 / 2.0
        assert abs(got - want) <= 1e-5 * abs(want)

    @pytest.mark.parametrize("order", [0.3, 0.45, 0.6])
    def test_random_smooth_pairs_match_oracle(self, order):
        rng = np.random.default_rng(2024)
        n, n_oracle = 1024, 1 << 17
        for _ in range(7):
            a1, a2, b1, b2 = rng.uniform(-1, 1, size=4)
            w1, w2 = rng.uniform(1, 5, size=2)
            y_fn = lambda t: a1 * np.sin(w1 * t) + a2 * t**2
            p_fn = lambda t: b1 * np.cos(w2 * t) + b2 * t
            got = young_integral(_path(y_fn, n), _path(p_fn, n), 0.0, 1.0, order)
            oracle = riemann_stieltjes(_path(y_fn, n_oracle), _path(p_fn, n_oracle), 0.0, 1.0)
            assert abs(got - oracle) <= 1e-4 * (1.0 + abs(oracle))

    def test_validity_warning(self):
        n = 256
        y = _path(lambda t: t, n, hint=1.0)
        phi = sample_fbm(FbmSpec(hurst=0.75, n_steps=n, seed=2))
        with pytest.warns(OrderValidityWarning):
            young_integral(y, phi, 0.0, 1.0, 0.2)  # 0.2 <= 1 - 0.75

    def test_grid_mismatch_rejected(self):
        y = _path(lambda t: t, 128)
        phi = _path(np.sin, 256)
        with pytest.raises(GridError):
            young_integral(y, phi, 0.0, 1.0, 0.45)


class TestRiemannStieltjes:
    def test_step_integrand_exact(self):
        n = 100
        times = np.linspace(0, 1, n + 1)
        y_vals = np.where(times < 0.5, 2.0, -1.0)
        y = SamplePath(times, y_vals)
        phi = _path(np.cos, n)
        got = riemann_stieltjes(y, phi, 0.0, 1.0)
        want = 2.0 * (math.cos(0.5) - 1.0) + (-1.0) * (math.cos(1.0) - math.cos(0.5))
        assert got == pytest.approx(want, abs=1e-12)

    def test_unit_integrand_telescopes(self):
        n = 64
        one = _path(lambda t: 1.0 + 0 * t, n)
        phi = _path(np.sin, n)
        assert riemann_stieltjes(one, phi, 0.0, 1.0) == pytest.approx(math.sin(1.0), abs=1e-14)

    def test_first_order_refinement(self):
        truth = math.sin(1.0) ** 2 / 2.0  # int sin d(sin)
        diffs = []
        for n in (512, 1024, 2048):
            got = riemann_stieltjes(_path(np.sin, n), _path(np.sin, n), 0.0, 1.0)
            diffs.append(abs(got - truth))
        assert diffs[0] / diffs[1] >= 2.0 * 0.9
        assert diffs[1] / diffs[2] >= 2.0 * 0.9


def test_default_ibp_order_window():
    assert default_ibp_order(0.75, 0.65) == pytest.approx(0.45)
    with pytest.raises(ValueError):
        default_ibp_order(0.55, 0.4)
