"""Covariance identities, exact-sampler statistics, inner-product closed forms."""

import hashlib
import math

import numpy as np
import pytest

from fbmsde.fbm import (
    _BLOCK_ROWS,
    FbmSpec,
    _circulant_sqrt_eigs,
    _philox_state,
    embed_direction,
    grid_inner_product,
    hurst_covariance,
    inner_product,
    sample_fbm,
    sample_fbm_batch,
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


# The one sampler's name, kept as a parameter id so these cases keep the names
# they had while a Cholesky sampler shared them.
_SAMPLER = pytest.mark.parametrize("sampler", ["circulant_embedding"])


def cholesky_rows(hurst: float, n: int, seed: int, n_paths: int) -> np.ndarray:
    """Exact unit-horizon fBm at the grid times 1/n .. 1, the slow reference sampler.

    Rows 2j and 2j + 1 are ``L @ z`` for the (2, n) normals z of
    ``Philox(key=[j, seed])``, with L the lower Cholesky factor of the grid
    covariance: an O(n^3) draw the circulant sampler is checked against in law.
    """
    t = np.arange(1, n + 1, dtype=np.float64) / n
    h2 = 2.0 * hurst
    factor = np.linalg.cholesky(
        0.5 * (t[:, None] ** h2 + t[None, :] ** h2 - np.abs(t[:, None] - t[None, :]) ** h2)
    )
    rows = []
    for pair in range((n_paths + 1) // 2):
        rng = np.random.Generator(np.random.Philox(key=np.array([pair, seed], dtype=np.uint64)))
        rows.extend(factor @ z for z in rng.standard_normal((2, n)))
    return np.array(rows[:n_paths])


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

    @_SAMPLER
    def test_block_invariance(self, sampler):
        # row i equals the per-pair reference row, for batches ending on either
        # side of every block boundary, odd sizes included
        spec = FbmSpec(hurst=0.75, n_steps=64, seed=11)
        ref = _reference_rows(spec, 3 * _BLOCK_ROWS + 1)
        for blocks in range(4):
            for n_paths in (blocks * _BLOCK_ROWS - 1, blocks * _BLOCK_ROWS, blocks * _BLOCK_ROWS + 1):
                if n_paths < 1:
                    continue
                batch = sample_fbm_batch(spec, n_paths)
                assert batch.shape == (n_paths, 65)
                for i, row in enumerate(batch):
                    assert np.array_equal(row, ref[i]), (n_paths, i)

    @_SAMPLER
    def test_offset_batch_equals_rows_of_whole_batch(self, sampler):
        # offsets on and off the sampler's block boundaries, with odd counts
        # that end a batch on the first row of a pair
        spec = FbmSpec(hurst=0.75, n_steps=64, seed=17)
        total = 3 * _BLOCK_ROWS + 1
        whole = sample_fbm_batch(spec, total)
        for first_row in (0, 2, _BLOCK_ROWS - 2, _BLOCK_ROWS, _BLOCK_ROWS + 2, 2 * _BLOCK_ROWS):
            for n_paths in (1, 2, 3, _BLOCK_ROWS + 1, total - first_row):
                if first_row + n_paths > total:
                    continue
                part = sample_fbm_batch(spec, n_paths, first_row=first_row)
                assert part.tobytes() == whole[first_row : first_row + n_paths].tobytes(), (
                    first_row,
                    n_paths,
                )

    @pytest.mark.parametrize("first_row", [1, 17, -2])
    def test_odd_or_negative_first_row_rejected(self, first_row):
        with pytest.raises(ValueError, match="first_row must be even"):
            sample_fbm_batch(FbmSpec(hurst=0.75, n_steps=16), 4, first_row=first_row)

    def test_nearby_seeds_share_no_row(self):
        # keys must hold the whole seed: keyed by seed XOR row index, these 8
        # seeds would draw the same 8 rows, permuted
        rows = {
            row.tobytes()
            for seed in range(12344, 12352)
            for row in sample_fbm_batch(FbmSpec(0.75, n_steps=64, seed=seed), 8)
        }
        assert len(rows) == 64

    @_SAMPLER
    def test_pair_rows_independent_with_fgn_covariance(self, sampler):
        # the real and imaginary rows of one FFT: each with the unit-step fGn
        # autocovariance, and uncorrelated with each other, within 4 standard errors
        hurst, n, lags = 0.75, 32, 4
        spec = FbmSpec(hurst, n_steps=n, seed=2718)
        inc = np.diff(sample_fbm_batch(spec, 20_000), axis=1) * n**hurst
        even, odd = inc[0::2], inc[1::2]
        k = np.arange(lags, dtype=np.float64)
        gamma = 0.5 * ((k + 1.0) ** (2 * hurst) - 2.0 * k ** (2 * hurst) + np.abs(k - 1.0) ** (2 * hurst))
        for k in range(lags):
            for a, b, expected in (
                (even, even, gamma[k]),
                (odd, odd, gamma[k]),
                (even, odd, 0.0),
                (odd, even, 0.0),
            ):
                per_path = np.mean(a[:, : n - k] * b[:, k:], axis=1)
                se = np.std(per_path) / math.sqrt(per_path.size)
                assert abs(np.mean(per_path) - expected) < 4.0 * se, (k, expected)

    def test_brownian_increments_uncorrelated(self):
        spec = FbmSpec(hurst=0.5, n_steps=64, seed=7)
        vals = sample_fbm_batch(spec, 4000)
        inc = np.diff(vals, axis=1)
        lag1 = np.mean(inc[:, :-1] * inc[:, 1:]) / np.mean(inc**2)
        assert abs(lag1) < 0.03

    @_SAMPLER
    def test_terminal_variance(self, sampler):
        m = 20_000
        spec = FbmSpec(hurst=0.75, horizon=1.0, n_steps=64, seed=42)
        terminal = sample_fbm_batch(spec, m)[:, -1]
        sq = terminal**2
        se = math.sqrt((np.mean(sq**2) - np.mean(sq) ** 2) / m)
        assert abs(np.var(terminal) - 1.0) < 3.0 * se

    @pytest.mark.parametrize("seed", [1.9, "7"])
    def test_non_integer_seed_rejected(self, seed):
        # int() would truncate 1.9 to seed 1 and parse "7"
        with pytest.raises(ValueError, match="seed must be an integer"):
            FbmSpec(0.75, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(12345), np.uint64(2**64 - 1)])
    def test_numpy_integer_seed_draws_like_int(self, seed):
        spec = FbmSpec(0.75, n_steps=64, seed=seed)
        same = FbmSpec(0.75, n_steps=64, seed=int(seed))
        assert np.array_equal(sample_fbm_batch(spec, 3), sample_fbm_batch(same, 3))

    def test_hurst_below_half_rejected(self):
        with pytest.raises(ValueError):
            FbmSpec(hurst=0.4, n_steps=16)


def _per_pair_values(spec: FbmSpec, pair: int) -> np.ndarray:
    """Rows 2j and 2j + 1 drawn one pair at a time, kept as the block kernel's reference."""
    rng = np.random.Generator(np.random.Philox(key=np.array([pair, spec.seed], dtype=np.uint64)))
    n = spec.n_steps
    z = rng.standard_normal(4 * n)
    noise = np.fft.fft(_circulant_sqrt_eigs(spec.hurst, n) * (z[0::2] + 1j * z[1::2]))[:n]
    increments = (spec.horizon / n) ** spec.hurst * np.stack([noise.real, noise.imag])
    return np.hstack([np.zeros((2, 1)), np.cumsum(increments, axis=1)])


def _reference_rows(spec: FbmSpec, n_paths: int) -> np.ndarray:
    return np.vstack([_per_pair_values(spec, j) for j in range((n_paths + 1) // 2)])[:n_paths]


class TestBlockSampler:
    @_SAMPLER
    @pytest.mark.parametrize("n_steps", [2, 3, 1023, 1024])
    @pytest.mark.parametrize("hurst", [0.5, 0.51, 0.75, 0.99])
    def test_rows_equal_per_path_reference(self, hurst, n_steps, sampler):
        sizes = (1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3)
        for seed in (0, 12345, 2**64 - 1):
            for horizon in (1.0, 2.5):
                spec = FbmSpec(hurst, horizon=horizon, n_steps=n_steps, seed=seed)
                ref = _reference_rows(spec, max(sizes))
                for n_paths in sizes:
                    assert np.array_equal(sample_fbm_batch(spec, n_paths), ref[:n_paths])
                assert np.array_equal(sample_fbm(spec).values, ref[0])

    def test_embedding_nonnegative_definite_over_working_range(self):
        # for H in [1/2, 1) the fGn autocovariance is nonnegative, decreasing
        # and convex, so the minimal embedding needs no fallback sampler
        # (Dietrich & Newsam 1997); unwrapped, so the sweep fills no cache
        for hurst in np.linspace(0.5, 0.999, 25):
            for n in (2, 3, 5, 64, 1023, 1024, 4096, 16384, 65536):
                _circulant_sqrt_eigs.__wrapped__(float(hurst), n)

    def test_rekeyed_state_draws_like_fresh_philox(self):
        bitgen = np.random.Philox(key=3)
        rng = np.random.Generator(bitgen)
        for pair, seed in ((0, 0), (7, 12345), (2**63, 1), (2**64 - 1, 2**64 - 1)):
            # leave a moved counter, a partly used buffer and a cached half word
            rng.standard_normal(5)
            rng.integers(0, 10, dtype=np.uint32)
            bitgen.state = _philox_state(pair, seed)
            fresh = np.random.Generator(np.random.Philox(key=np.array([pair, seed], dtype=np.uint64)))
            assert np.array_equal(rng.standard_normal(11), fresh.standard_normal(11))
            assert np.array_equal(
                rng.integers(0, 2**32, 5, dtype=np.uint32), fresh.integers(0, 2**32, 5, dtype=np.uint32)
            )

    def test_stream_is_pinned(self):
        # a change to the per-path streams must be declared: update this digest
        # with it.  Pinned for numpy >= 2.0, whose FFT backend differs from 1.x.
        batch = sample_fbm_batch(FbmSpec(0.75, n_steps=1024, seed=12345), 40)
        digest = hashlib.sha256(batch.astype("<f8").tobytes()).hexdigest()
        assert digest == "b8cb66948ca3751055189a94b94ea3ccb5e09c8fa7a778aa27be715ad4d3bacf"


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

    @pytest.mark.parametrize("hurst", [0.51, 0.75, 0.99])
    @pytest.mark.parametrize("m", [1, 2, 7, 1000, 2048])
    def test_block_norm_matches_dense_toeplitz_and_general(self, m, hurst):
        # levels in [0.5, 1.5], like the kernel averages the norm is taken
        # of, so no polarised value is small by cancellation
        rng = np.random.default_rng(m)
        dt, h2 = 1.0 / m, 2.0 * hurst
        u, v = rng.random(m) + 0.5, rng.random(m) + 0.5
        k = np.arange(m, dtype=np.float64)
        gamma = 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)
        toeplitz = dt**h2 * gamma[np.abs(np.subtract.outer(np.arange(m), np.arange(m)))]
        bp = np.arange(m + 1) * dt
        for a, b in ((u, u), (u, v)):
            got = grid_inner_product(a, b, dt, hurst)
            assert isinstance(got, float)
            assert got == pytest.approx(a @ toeplitz @ b, rel=1e-12)
            general = inner_product(StepFunction(bp, a), StepFunction(bp, b), hurst)
            assert got == pytest.approx(general, rel=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 7, 513, 2048])
    def test_block_rows_equal_one_row_calls_bitwise(self, m):
        rng = np.random.default_rng(m + 1)
        u, v = rng.random((5, m)), rng.standard_normal((5, m))
        for a, b in ((u, u), (u, v)):
            block = grid_inner_product(a, b, 0.01, 0.75)
            assert block.shape == (5,)
            rows = [grid_inner_product(a[i], b[i], 0.01, 0.75) for i in range(5)]
            assert np.array_equal(block, rows)

    def test_block_norm_rejects_mismatched_or_empty_levels(self):
        with pytest.raises(ValueError, match="equally shaped"):
            grid_inner_product(np.ones((2, 4)), np.ones((2, 5)), 0.1, 0.75)
        with pytest.raises(ValueError, match="equally shaped"):
            grid_inner_product(np.ones((1, 2, 4)), np.ones((1, 2, 4)), 0.1, 0.75)
        with pytest.raises(ValueError, match="nonempty"):
            grid_inner_product(np.ones(0), np.ones(0), 0.1, 0.75)


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
