"""Covariance identities, exact-sampler statistics, inner-product closed forms."""

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from fbmsde.fbm import (
    _BLOCK_ROWS,
    FbmSpec,
    _circulant_sqrt_eigs,
    _cholesky_factor,
    _philox_state,
    _sqrt_kernel_const,
    embed_direction,
    grid_inner_product,
    hurst_covariance,
    inner_product,
    kernel_coeff,
    sample_fbm,
    sample_fbm_batch,
    volterra_kernel,
)
from fbmsde.fraccalc import holder_seminorm
from fbmsde.paths import StepFunction


class TestCovariance:
    def test_diagonal_and_symmetry(self):
        assert hurst_covariance(1.0, 1.0, 0.75) == 1.0
        for s, t, h in [(0.3, 0.9, 0.6), (1.5, 0.2, 0.75), (2.0, 2.0, 0.9)]:
            assert hurst_covariance(s, t, h) == hurst_covariance(t, s, h)
            assert hurst_covariance(t, t, h) == pytest.approx(t ** (2 * h), abs=0)

    def test_brownian_case_is_min(self):
        assert hurst_covariance(1.0, 3.0, 0.5) == 1.0
        assert hurst_covariance(2.5, 0.7, 0.5) == pytest.approx(0.7)

    def test_direct_value(self):
        # (1 + 2^1.5 - 1)/2 = sqrt(2)
        assert hurst_covariance(1.0, 2.0, 0.75) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            hurst_covariance(-1.0, 1.0, 0.75)
        with pytest.raises(ValueError):
            hurst_covariance(1.0, 1.0, 1.0)


def test_kernel_coeff_values():
    assert kernel_coeff(0.75) == pytest.approx(0.375, abs=1e-15)
    assert kernel_coeff(0.5) == 0.0
    assert kernel_coeff(0.9) == pytest.approx(0.72, abs=1e-12)
    with pytest.raises(ValueError):
        kernel_coeff(1.2)


@pytest.mark.parametrize("hurst", [0.501, 0.6, 0.75, 0.9, 0.99, 0.999])
def test_sqrt_kernel_const_matches_beta_function(hurst):
    # c_H = sqrt(H(2H-1) / B(2-2H, H-1/2)), with scipy's Beta as the oracle
    expected = math.sqrt(hurst * (2 * hurst - 1) / beta_fn(2 - 2 * hurst, hurst - 0.5))
    assert _sqrt_kernel_const(hurst) == pytest.approx(expected, rel=1e-13)


class TestVolterraKernel:
    def test_vanishes_when_s_above_t(self):
        assert volterra_kernel(0.5, 1.0, 0.75) == 0.0

    def test_monotone_in_t(self):
        s = 0.3
        vals = [volterra_kernel(t, s, 0.75) for t in (0.4, 0.6, 0.9)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_domain_error(self):
        with pytest.raises(ValueError):
            volterra_kernel(1.0, 0.0, 0.75)

    @pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
    def test_squared_integral_reproduces_variance(self, hurst):
        val, _ = quad(lambda r: volterra_kernel(1.0, r, hurst) ** 2, 0.0, 1.0, points=[0.0], limit=200)
        assert val == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("hurst", [0.6, 0.75, 0.9])
    def test_factorization_on_grid(self, hurst):
        # integral_0^{s^t} K(t,r) K(s,r) dr = R(s,t) on a 5x5 grid in (0, 1]
        pts = np.linspace(0.2, 1.0, 5)
        for s in pts:
            for t in pts:
                lo = min(s, t)
                val, _ = quad(
                    lambda r: volterra_kernel(t, r, hurst) * volterra_kernel(s, r, hurst),
                    0.0,
                    lo,
                    points=[0.0, lo],
                    limit=200,
                )
                assert val == pytest.approx(hurst_covariance(s, t, hurst), abs=1e-4)


class TestSampler:
    def test_deterministic_bytes(self):
        spec = FbmSpec(hurst=0.7, n_steps=64, seed=99)
        a, b = sample_fbm(spec), sample_fbm(spec)
        assert np.array_equal(a.values, b.values)
        assert a.values[0] == 0.0

    def test_batch_row_matches_single(self):
        spec = FbmSpec(hurst=0.8, n_steps=32, seed=5)
        batch = sample_fbm_batch(spec, 4)
        assert np.array_equal(batch[0], sample_fbm(spec).values)

    @pytest.mark.parametrize("method", ["circulant_embedding", "cholesky"])
    def test_block_invariance(self, method):
        # row i equals the one-path draw keyed seed XOR i, for batches ending
        # on either side of every block boundary
        spec = FbmSpec(hurst=0.75, n_steps=64, method=method, seed=11)
        singles = [
            sample_fbm(replace(spec, seed=spec.seed ^ i)).values for i in range(3 * _BLOCK_ROWS + 1)
        ]
        for blocks in range(4):
            for n_paths in (blocks * _BLOCK_ROWS - 1, blocks * _BLOCK_ROWS, blocks * _BLOCK_ROWS + 1):
                if n_paths < 1:
                    continue
                batch = sample_fbm_batch(spec, n_paths)
                assert batch.shape == (n_paths, 65)
                for i, row in enumerate(batch):
                    assert np.array_equal(row, singles[i]), (n_paths, i)

    def test_methods_disagree_pathwise_but_share_law(self):
        circ = FbmSpec(hurst=0.75, n_steps=64, seed=1, method="circulant_embedding")
        chol = FbmSpec(hurst=0.75, n_steps=64, seed=1, method="cholesky")
        assert not np.array_equal(sample_fbm(circ).values, sample_fbm(chol).values)

    def test_brownian_increments_uncorrelated(self):
        spec = FbmSpec(hurst=0.5, n_steps=64, seed=7)
        vals = sample_fbm_batch(spec, 4000)
        inc = np.diff(vals, axis=1)
        lag1 = np.mean(inc[:, :-1] * inc[:, 1:]) / np.mean(inc**2)
        assert abs(lag1) < 0.03

    @pytest.mark.parametrize("method", ["circulant_embedding", "cholesky"])
    def test_terminal_variance(self, method):
        m = 20_000
        spec = FbmSpec(hurst=0.75, horizon=1.0, n_steps=64, method=method, seed=42)
        terminal = sample_fbm_batch(spec, m)[:, -1]
        sq = terminal**2
        se = math.sqrt((np.mean(sq**2) - np.mean(sq) ** 2) / m)
        assert abs(np.var(terminal) - 1.0) < 3.0 * se

    def test_hurst_below_half_rejected(self):
        with pytest.raises(ValueError):
            FbmSpec(hurst=0.4, n_steps=16)


def _per_path_values(spec: FbmSpec, path_index: int) -> np.ndarray:
    """The one-path-at-a-time sampler the block kernel replaced, kept as its reference."""
    rng = np.random.Generator(np.random.Philox(key=int(spec.seed) ^ path_index))
    n = spec.n_steps
    if spec.method == "circulant_embedding":
        coeff = _circulant_sqrt_eigs(spec.hurst, n)
        w = np.zeros(2 * n, dtype=np.complex128)
        w[0] = coeff[0] * np.sqrt(2.0) * rng.standard_normal()
        w[n] = coeff[n] * np.sqrt(2.0) * rng.standard_normal()
        ab = rng.standard_normal((n - 1, 2))
        w[1:n] = coeff[1:n] * (ab[:, 0] + 1j * ab[:, 1])
        w[n + 1 :] = np.conj(w[1:n][::-1])
        noise = np.fft.fft(w).real[:n]
        increments = (spec.horizon / n) ** spec.hurst * noise
        return np.concatenate([[0.0], np.cumsum(increments)])
    z = rng.standard_normal(n)
    return np.concatenate([[0.0], spec.horizon**spec.hurst * (_cholesky_factor(spec.hurst, n) @ z)])


class TestBlockSampler:
    @pytest.mark.parametrize("method", ["circulant_embedding", "cholesky"])
    @pytest.mark.parametrize("n_steps", [2, 3, 1023, 1024])
    @pytest.mark.parametrize("hurst", [0.5, 0.51, 0.75, 0.99])
    def test_rows_equal_per_path_reference(self, hurst, n_steps, method):
        sizes = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3)
        for seed in (0, 12345, 2**64 - 1):
            for horizon in (1.0, 2.5):
                spec = FbmSpec(hurst, horizon=horizon, n_steps=n_steps, method=method, seed=seed)
                ref = np.array([_per_path_values(spec, i) for i in range(max(sizes))])
                for n_paths in sizes:
                    assert np.array_equal(sample_fbm_batch(spec, n_paths), ref[:n_paths])
                assert np.array_equal(sample_fbm(spec).values, ref[0])

    def test_rekeyed_state_draws_like_fresh_philox(self):
        bitgen = np.random.Philox(key=3)
        rng = np.random.Generator(bitgen)
        for key in (0, 12345 ^ 7, 2**64 - 1):
            # leave a moved counter, a partly used buffer and a cached half word
            rng.standard_normal(5)
            rng.integers(0, 10, dtype=np.uint32)
            bitgen.state = _philox_state(key)
            fresh = np.random.Generator(np.random.Philox(key=key))
            assert np.array_equal(rng.standard_normal(11), fresh.standard_normal(11))
            assert np.array_equal(
                rng.integers(0, 2**32, 5, dtype=np.uint32), fresh.integers(0, 2**32, 5, dtype=np.uint32)
            )

    def test_stream_is_pinned(self):
        # a change to the per-path streams must be declared: update this digest with it
        batch = sample_fbm_batch(FbmSpec(0.75, n_steps=1024, seed=12345), 40)
        digest = hashlib.sha256(batch.astype("<f8").tobytes()).hexdigest()
        assert digest == "a9d13e069c606afb695a9e353d6005da7348c6d546af172af4ee023786188fe3"


class TestInnerProduct:
    def test_indicators_reproduce_covariance(self):
        for s, t, h in [(1.0, 2.0, 0.75), (0.4, 0.9, 0.6), (0.5, 0.5, 0.9)]:
            got = inner_product(StepFunction.indicator(0, t), StepFunction.indicator(0, s), h)
            assert got == pytest.approx(hurst_covariance(s, t, h), abs=1e-12)

    def test_disjoint_indicators(self):
        got = inner_product(StepFunction.indicator(0, 1.0), StepFunction.indicator(1.0, 2.0), 0.75)
        assert got == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            bp1 = np.sort(rng.uniform(0, 1, 4))
            bp2 = np.sort(rng.uniform(0, 1, 5))
            f = StepFunction(bp1, rng.standard_normal(3))
            g = StepFunction(bp2, rng.standard_normal(4))
            assert inner_product(f, g, 0.75) == pytest.approx(inner_product(g, f, 0.75), rel=1e-12)
            f2 = StepFunction(bp1, 2.0 * f.levels)
            assert inner_product(f2, g, 0.75) == pytest.approx(
                2.0 * inner_product(f, g, 0.75), rel=1e-12
            )

    def test_positive_semidefinite_on_random_steps(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            k = rng.integers(1, 6)
            bp = np.sort(rng.uniform(0.0, 1.0, k + 1))
            while np.any(np.diff(bp) <= 0):
                bp = np.sort(rng.uniform(0.0, 1.0, k + 1))
            f = StepFunction(bp, rng.standard_normal(k))
            h = rng.uniform(0.55, 0.95)
            assert inner_product(f, f, h) >= -1e-12

    def test_rejects_short_memory(self):
        with pytest.raises(ValueError):
            inner_product(StepFunction.indicator(0, 1), StepFunction.indicator(0, 1), 0.5)

    def test_grid_fast_path_matches_general(self):
        rng = np.random.default_rng(8)
        m, dt = 40, 0.025
        u, v = rng.standard_normal(m), rng.standard_normal(m)
        bp = np.arange(m + 1) * dt
        general = inner_product(StepFunction(bp, u), StepFunction(bp, v), 0.8)
        assert grid_inner_product(u, v, dt, 0.8) == pytest.approx(general, rel=1e-10)


class TestEmbedDirection:
    def test_indicator_embeds_to_covariance_slice(self):
        grid = np.linspace(0, 1, 33)
        h = embed_direction(StepFunction.indicator(0, 0.4), 0.75, grid)
        expected = [hurst_covariance(t, 0.4, 0.75) for t in grid]
        assert np.allclose(h.values, expected, atol=1e-12)
        assert h.values[0] == 0.0

    def test_zero_direction(self):
        grid = np.linspace(0, 1, 17)
        h = embed_direction(StepFunction(np.array([0.0, 1.0]), np.array([0.0])), 0.75, grid)
        assert np.all(h.values == 0.0)

    def test_embedded_path_is_holder_h(self):
        # grid seminorm at exponent H - eps stays bounded under refinement
        phi = StepFunction(np.array([0.0, 0.3, 0.7]), np.array([1.0, -2.0]))
        hurst = 0.75
        norms = []
        for n in (256, 1024):
            h = embed_direction(phi, hurst, np.linspace(0, 1, n + 1))
            norms.append(holder_seminorm(h, 0.0, 1.0, hurst - 0.05))
        assert norms[1] < 2.0 * norms[0]
