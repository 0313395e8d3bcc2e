"""Norms, compensated derivative closed forms, pairing vs Riemann-Stieltjes."""

import math
import warnings

import numpy as np
import pytest

from fbmsde import fraccalc
from fbmsde.fbm import FbmSpec, sample_fbm_batch
from fbmsde.fraccalc import holder_seminorm, young_integral
from fbmsde.paths import GridError, SamplePath

from oracles import frac_deriv_left, frac_deriv_right, sample_fbm, sup_norm


def _path(fn, n, horizon=1.0):
    return SamplePath.from_function(fn, horizon, n)


def _per_lag_seminorm(x, s, t, beta, divisors=None):
    """Reference: the seminorm scanned one lag at a time, over all lags.

    ``divisors[lag - 1]`` replaces ``(lag * dt) ** beta`` when given.
    """
    i, j = x.slice_indices(s, t)
    vals = x.values[i : j + 1]
    dt = x.dt
    best = 0.0
    for lag in range(1, vals.size):
        top = np.max(np.abs(vals[lag:] - vals[:-lag]))
        div = (lag * dt) ** beta if divisors is None else divisors[lag - 1]
        best = max(best, top / div)
    return float(best)


def riemann_stieltjes(y, phi, s, t):
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
        coarse = SamplePath(fine.times[::4], fine.values[::4])
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
    """The block-bounded scan equals the per-lag scan bit for bit."""

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

    @pytest.mark.parametrize("hurst", [0.51, 0.99])
    @pytest.mark.parametrize("m", [2, 3, 65, 66, 257, 1000, 4097])
    def test_edge_sweep(self, m, hurst):
        # fBm near both ends of the Hurst range, on the whole grid and on
        # sub-intervals that start and end at odd offsets
        n = max(m - 1, 2)
        p = sample_fbm(FbmSpec(hurst=hurst, n_steps=n, seed=m))
        times = p.times
        spans = [(0.0, times[m - 1])]
        if n >= 4:
            spans += [(times[1], times[-2]), (times[3], times[n // 2 + 1])]
        for beta in (0.3, 0.65, 0.99):
            for s, t in spans:
                assert holder_seminorm(p, s, t, beta) == _per_lag_seminorm(p, s, t, beta)

    @pytest.mark.parametrize("m", [3, 65, 66, 257, 1000])
    def test_exact_ties(self, m):
        # a unit step: every block reaches the same increment 1, so the block
        # bounds tie; a square wave ties every odd lag's increment
        times = np.linspace(0.0, 1.0, m)
        step = SamplePath(times, (np.arange(m) >= m // 2).astype(float))
        wave = SamplePath(times, (np.arange(m) % 2).astype(float))
        for p in (step, wave):
            for beta in (0.3, 0.65, 0.99):
                assert holder_seminorm(p, 0.0, 1.0, beta) == _per_lag_seminorm(p, 0.0, 1.0, beta)

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
        # up to `peak` and falls after it, so the winning pair sits at the
        # first lag of a block, where that block's smallest divisor is
        times = np.linspace(0.0, 1.0, 1025)
        p = SamplePath(times, np.minimum(times, times[peak]))
        assert holder_seminorm(p, 0.0, 1.0, 0.3) == _per_lag_seminorm(p, 0.0, 1.0, 0.3)

    def test_overflowing_ratios_give_inf_quietly(self):
        # increments of 1e307 over divisors below 1 overflow every ratio
        times = np.linspace(0.0, 1.0, 1025)
        p = SamplePath(times, np.where(np.arange(1025) % 2 == 1, 1e307, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert holder_seminorm(p, 0.0, 1.0, 0.65) == math.inf

    # The scan reads a block only while its upper bound beats the best ratio
    # so far, and in it only the start points that can still win.

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Record (first lag, u0, u1) of each lag block the scan reads."""
        seen = []
        scan = fraccalc._block_max

        def counting_scan(pad, buf, divisors, m, lag, u0, u1):
            seen.append((lag, u0, u1))
            return scan(pad, buf, divisors, m, lag, u0, u1)

        monkeypatch.setattr(fraccalc, "_block_max", counting_scan)
        return seen

    @staticmethod
    def _tables(divisors):
        """Divisors with the min and max of each 64-lag block, as ``_lag_divisors`` returns them."""
        blocks = [divisors[k : k + 64] for k in range(0, divisors.size, 64)]
        return divisors, np.array([b.min() for b in blocks]), np.array([b.max() for b in blocks])

    def test_constant_path_stops_before_the_first_block(self, blocks):
        p = SamplePath(np.linspace(0.0, 1.0, 1025), np.full(1025, 4.2))
        assert holder_seminorm(p, 0.0, 1.0, 0.5) == _per_lag_seminorm(p, 0.0, 1.0, 0.5) == 0.0
        assert blocks == []

    def test_linear_path_reads_at_most_two_blocks(self, blocks):
        # the ratio (lag dt)^0.7 grows with the lag, so the last lag wins: the
        # last block's lower bound is the answer, and every earlier block's
        # upper bound falls below it
        p = _path(lambda t: t, 1024)
        assert holder_seminorm(p, 0.0, 1.0, 0.3) == _per_lag_seminorm(p, 0.0, 1.0, 0.3)
        assert 1 <= len(blocks) <= 2
        # only start points near 0 reach lags long enough to win
        lag, u0, u1 = blocks[0]
        assert (lag, u0) == (961, 0) and u1 < 64

    def test_walk_stops_early(self, blocks):
        p = self._walk(1025, seed=3)
        assert holder_seminorm(p, 0.0, 1.0, 0.65) == _per_lag_seminorm(p, 0.0, 1.0, 0.65)
        assert 0 < len(blocks) < 16

    def test_divisors_cached_read_only(self):
        divisors, block_min, block_max = fraccalc._lag_divisors(1000, 1.0 / 1000, 0.65)
        assert divisors.shape == (1000,) and block_min.shape == block_max.shape == (16,)
        # the last block holds lags 961..1000 only
        for got, want in zip((divisors, block_min, block_max), self._tables(divisors)):
            assert np.array_equal(got, want)
            assert not got.flags.writeable
            with pytest.raises(ValueError):
                got[0] = 1.0
        assert fraccalc._lag_divisors(1000, 1.0 / 1000, 0.65)[0] is divisors

    def test_non_monotone_divisors_stay_exact(self, monkeypatch, blocks):
        # divisors reversed inside every block: the bounds take each block's
        # min and max divisor, so the pruned scan still finds the winner
        p = self._walk(1025, seed=3)
        divisors = fraccalc._lag_divisors(1024, p.dt, 0.65)[0].reshape(16, 64)[:, ::-1].ravel()
        monkeypatch.setattr(fraccalc, "_lag_divisors", lambda *key: self._tables(divisors))
        expected = _per_lag_seminorm(p, 0.0, 1.0, 0.65, divisors)
        assert holder_seminorm(p, 0.0, 1.0, 0.65) == expected
        assert 0 < len(blocks) < 16

    def test_divisor_dip_is_not_pruned_away(self, monkeypatch, blocks):
        # a divisor that drops at the last lag lifts that lag's ratio above
        # every earlier one; the last block's smallest divisor carries the dip
        p = self._walk(1025, seed=3)
        divisors = fraccalc._lag_divisors(1024, p.dt, 0.65)[0].copy()
        divisors[-1] = divisors[0]
        monkeypatch.setattr(fraccalc, "_lag_divisors", lambda *key: self._tables(divisors))
        expected = _per_lag_seminorm(p, 0.0, 1.0, 0.65, divisors)
        assert expected == abs(p.values[-1] - p.values[0]) / divisors[0]
        assert holder_seminorm(p, 0.0, 1.0, 0.65) == expected
        assert 961 in [lag for lag, _, _ in blocks]


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

    def test_grid_mismatch_rejected(self):
        y = _path(lambda t: t, 128)
        phi = _path(np.sin, 256)
        with pytest.raises(GridError):
            young_integral(y, phi, 0.0, 1.0, 0.45)


class TestRoughPathPins:
    """Values on random-walk paths, recorded before the right derivative was
    taken from the reflected path; the smooth-path tests above cannot see a
    change of stencil on a rough path."""

    ORDERS = (0.3, 0.45, 0.6)
    # grid index windows (s, t) of n steps
    WINDOWS = {
        "whole": lambda n: (0, n),
        "inner": lambda n: (n // 4, 3 * n // 4),
        "first": lambda n: (0, 2),
        "last": lambda n: (n - 2, n),
    }
    # young_integral(_walk(11, n), _walk(12, n)) at ORDERS
    YOUNG = {
        (64, "whole"): (0.016484716459272773, 0.016563638408512944, 0.016430029222820955),
        (64, "inner"): (0.06267903737255803, 0.06039200530054524, 0.05900083730724253),
        (64, "first"): (0.0016351404145325068, 0.0015169101986077706, 0.0013603648454873487),
        (64, "last"): (0.0008939385093185801, 0.0010571379919278132, 0.0013448510889205458),
        (257, "whole"): (0.005230631561355812, 0.005350940658329184, 0.005250234509852236),
        (257, "inner"): (-0.007888861346623298, -0.007705783971901702, -0.00774762478723774),
        (257, "first"): (0.00020320076039293726, 0.00018850815689306865, 0.0001690540876845001),
        (257, "last"): (0.00613526190162972, 0.006039134302186563, 0.005933683459579147),
    }
    # frac_deriv_right(_walk(12, 257), u, t_j, order) at the u of _right_nodes
    RIGHT = {
        (257, 0.3): (0.40070591990605653, -0.9105010332302721, -0.6442333857234123, 0.9493581616030404, 2.2268848897444613),
        (257, 0.45): (0.3216579656714388, -0.33060349073965933, -0.38023066083428375, 0.3771709105338343, 1.0042137452652897),
        (257, 0.6): (0.21815730168821762, -0.0793317311414705, -0.21564365391589, 0.1465748344579688, 0.4467834552304806),
        (150, 0.3): (0.3722083155123389, -0.9421814931222252, -0.7052564524263836, 0.4378586495993765, -1.2136373846641384),
        (150, 0.45): (0.27904268336160787, -0.3768858198290536, -0.45545557046996277, 0.17906827934151912, -0.45440603014118497),
        (150, 0.6): (0.16270922986975972, -0.13818502705075275, -0.2978668246407037, 0.07120276087178778, -0.1653736618268026),
    }
    # frac_deriv_left(_walk(11, 257), s_i, u, order) at the u of _left_nodes
    LEFT = {
        (0, 0.3): (-0.016575273516048726, 0.04192223435618213, 0.395314935592151, 0.3249907016938633),
        (0, 0.45): (-0.043217433829696186, 0.1188371758907296, 0.7677714507277832, 0.5797255683070296),
        (0, 0.6): (-0.11043026481156644, 0.32797336326409676, 1.5126632278390835, 1.0155856361095315),
        (40, 0.3): (-0.24946090310505664, -0.15380449450392122, 0.395131593848916, 0.32496226798970596),
        (40, 0.45): (-0.5028626315731328, -0.25433053626763585, 0.767482339100368, 0.5796787314394848),
        (40, 0.6): (-0.9052269980995996, -0.3608967920255206, 1.5123048491134905, 1.0155275647572664),
    }

    @staticmethod
    def _walk(seed, n):
        # cumulative sums of seeded normals, which every supported numpy draws alike
        rng = np.random.default_rng(seed)
        steps = rng.standard_normal(n) * (1.0 / n) ** 0.75
        return SamplePath(np.linspace(0.0, 1.0, n + 1), np.concatenate([[0.0], np.cumsum(steps)]))

    @pytest.mark.parametrize("n,window", list(YOUNG))
    def test_young_integral(self, n, window):
        y, phi = self._walk(11, n), self._walk(12, n)
        i, j = self.WINDOWS[window](n)
        got = [young_integral(y, phi, y.times[i], y.times[j], a) for a in self.ORDERS]
        assert got == pytest.approx(self.YOUNG[n, window], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("j,order", list(RIGHT))
    def test_right_derivative_off_grid(self, j, order):
        phi = self._walk(12, 257)
        t, dt = phi.times[j], 1.0 / 257
        nodes = (0.3 * dt, 0.1234, 0.5 + dt / 3, t - 0.5 * dt, t - 1.7 * dt)
        got = [frac_deriv_right(phi, u, t, order) for u in nodes]
        assert got == pytest.approx(self.RIGHT[j, order], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("i,order", list(LEFT))
    def test_left_derivative_off_grid(self, i, order):
        y = self._walk(11, 257)
        s, dt = y.times[i], 1.0 / 257
        nodes = (s + 0.5 * dt, s + 1.3 * dt, 0.61803, 1.0 - 0.4 * dt)
        got = [frac_deriv_left(y, s, u, order) for u in nodes]
        assert got == pytest.approx(self.LEFT[i, order], rel=1e-9, abs=0.0)


def test_two_point_grid_rejected():
    # the quadratic reconstruction reads three points; on two it read values[-1]
    # and gave young_integral -12.80 for the exact 0.5
    line = _path(lambda t: t, 1)
    with pytest.raises(GridError):
        young_integral(line, line, 0.0, 1.0, 0.45)
    with pytest.raises(GridError):
        frac_deriv_left(line, 0.0, 0.5, 0.45)
    with pytest.raises(GridError):
        frac_deriv_right(line, 0.3, 1.0, 0.45)
    # on three points a line keeps its closed forms (see the tests above)
    line = _path(lambda t: t, 2)
    left = 0.5**0.55 / math.gamma(1.55)
    assert frac_deriv_left(line, 0.0, 0.5, 0.45) == pytest.approx(left, rel=1e-12)
    assert frac_deriv_right(line, 0.3, 1.0, 0.45) == pytest.approx(0.7**0.45 / math.gamma(1.45), rel=1e-12)


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

