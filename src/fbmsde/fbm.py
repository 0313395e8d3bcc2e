"""Exact sampling of fractional Brownian motion and its Gaussian geometry.

Covariance: R(s, t) = (t^{2H} + s^{2H} - |t-s|^{2H}) / 2 with Hurst index
H > 1/2 (long memory).  Paths are sampled exactly, in O(n log n), by
circulant embedding of the stationary increment covariance.  For H >= 1/2
the fGn autocovariance is nonnegative, decreasing and convex, so the minimal
embedding is nonnegative definite (Dietrich & Newsam 1997); only rounding
near H = 1 on very long grids breaks that, and raises ``FbmSamplingError``.
Paths are drawn in pairs: rows 2j and 2j + 1 take their normals from one
Philox generator re-keyed to ``[j, seed]``, so a row's bits depend only on
the seed and its index, never on the batch.  Complex Gaussian weights on
every mode of the embedding make the real and imaginary parts of one FFT two
independent exact samples (Wood & Chan 1994).  The module also evaluates
the singular-kernel inner product of step functions (on a uniform grid, from
the same circulant eigenvalues) and the embedding of step directions into
Hölder path space.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np
# numpy 2 loads these submodules on first attribute access; importing them
# here keeps that cost in start-up rather than inside the first sample.
from numpy.fft import fft, rfft
from numpy.random import Generator, Philox

from .paths import SamplePath, StepFunction

__all__ = [
    "FbmSpec",
    "FbmSamplingError",
    "sample_fbm_batch",
    "inner_product",
    "grid_inner_product",
    "embed_direction",
]

# Eigenvalues of the circulant embedding this close to zero are roundoff and
# get clamped; anything more negative means the embedding genuinely failed.
_EIG_TOL = 1e-10
# Paths the sampler fills at once, as 8 pairs.  At n_steps = 1024 a block's
# normals, weights and spectra (~0.8 MB) fit a 2 MB L2 share; 32 to 128 rows
# were not faster beyond the run-to-run spread.
_BLOCK_ROWS = 16


class FbmSamplingError(RuntimeError):
    """Raised when the circulant embedding is not nonnegative definite, so no exact path exists."""


@dataclass(frozen=True)
class FbmSpec:
    """Parameters of one fractional Brownian path on a uniform grid.

    ``hurst`` must lie in [1/2, 1): the open interval (1/2, 1) is the regime
    every experiment targets, H = 1/2 is admitted only as the Brownian sanity
    case.  ``n_steps`` counts increments, so paths carry n_steps + 1 points.
    """

    hurst: float
    horizon: float = 1.0
    n_steps: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.5 <= self.hurst < 1.0:
            raise ValueError(f"hurst must lie in [1/2, 1), got {self.hurst}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {self.seed!r}") from None
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in 64 bits")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


def _fgn_autocovariance(hurst: float, n_lags: int) -> np.ndarray:
    """Autocovariance of unit-step fractional Gaussian noise at lags 0 .. n_lags - 1."""
    k = np.arange(n_lags, dtype=np.float64)
    h2 = 2.0 * hurst
    return 0.5 * ((k + 1.0) ** h2 - 2.0 * k**h2 + np.abs(k - 1.0) ** h2)


@functools.lru_cache(maxsize=64)
def _circulant_sqrt_eigs(hurst: float, n: int) -> np.ndarray:
    """sqrt(eig / m) of the size-m = 2n circulant embedding of unit-step noise."""
    gamma = _fgn_autocovariance(hurst, n + 1)
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigs = fft(row).real
    if eigs.min() < -_EIG_TOL:
        raise FbmSamplingError(
            f"circulant embedding for hurst={hurst}, n_steps={n} produced eigenvalue "
            f"{eigs.min():.3e} < -{_EIG_TOL}; lower hurst or n_steps"
        )
    eigs = np.clip(eigs, 0.0, None)
    out = np.sqrt(eigs / (2.0 * n))
    out.setflags(write=False)
    return out


def _philox_state(pair: int, seed: int) -> dict:
    """The state ``Philox(key=[pair, seed])`` starts in: counter zero, empty buffer."""
    ctr = {"counter": [0, 0, 0, 0], "key": [pair, seed]}
    return dict(bit_generator="Philox", state=ctr, buffer=[0] * 4, buffer_pos=4, has_uint32=0, uinteger=0)


def sample_fbm_batch(spec: FbmSpec, n_paths: int, first_row: int = 0) -> np.ndarray:
    """Draw rows ``first_row`` .. ``first_row + n_paths - 1`` of the seed's path sequence.

    Rows 2j and 2j + 1 use the key ``[j, seed]``, so a row's bits depend only
    on the seed and its index: a batch starting at ``first_row`` equals those
    rows of one batch started at 0, which lets callers draw a long batch in
    consecutive blocks.  ``first_row`` must be even, since rows are keyed in
    pairs; an odd value raises ``ValueError``.

    Returns an (n_paths, n_steps + 1) matrix, filled ``_BLOCK_ROWS`` rows at a
    time.  Each pair of rows re-keys one Philox generator by assigning its
    state, so it draws what a fresh ``Philox(key=[j, seed])`` draws, whatever
    the batch size, without a ``SeedSequence`` built from OS entropy per pair.
    Each pair draws 4n normals, read as 2n complex weights on the modes, and
    takes one FFT: its real part is row 2j and its imaginary part row 2j + 1
    (dropped for the last row of an odd batch).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be positive")
    if first_row < 0 or first_row % 2:
        raise ValueError(f"first_row must be even and nonnegative, got {first_row}")
    n = spec.n_steps
    seed = int(spec.seed)
    rng = Generator(Philox(key=0))
    n_pairs = (n_paths + 1) // 2
    normals = np.empty((min(_BLOCK_ROWS // 2, n_pairs), 4 * n))
    out = np.zeros((n_paths, n + 1))
    for lo in range(0, n_pairs, len(normals)):
        z, block = normals[: n_pairs - lo], out[2 * lo : 2 * (lo + len(normals)), 1:]
        for j, row in enumerate(z, start=first_row // 2 + lo):
            rng.bit_generator.state = _philox_state(j, seed)
            rng.standard_normal(out=row)
        w = fft(_circulant_sqrt_eigs(spec.hurst, n) * z.view(np.complex128), axis=1)
        scale = (spec.horizon / n) ** spec.hurst
        np.multiply(scale, w.real[:, :n], out=block[0::2])
        np.multiply(scale, w.imag[: len(block) // 2, :n], out=block[1::2])
        np.cumsum(block, axis=1, out=block)
    return out


def _rect_weight(a, b, c, d, h2: float):
    """alpha_H * integral over [a,b] x [c,d] of |r-u|^{2H-2}, in closed form."""
    return 0.5 * (
        np.abs(b - c) ** h2
        - np.abs(a - c) ** h2
        - np.abs(b - d) ** h2
        + np.abs(a - d) ** h2
    )


def inner_product(phi: StepFunction, psi: StepFunction, hurst: float) -> float:
    """Singular-kernel inner product of two step functions, exactly.

    The |r-u|^{2H-2} kernel integrates over every rectangle pair to explicit
    power functions, so the value is exact up to roundoff.  Requires H > 1/2;
    the kernel representation is not integrable otherwise.
    """
    if not 0.5 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst}")
    h2 = 2.0 * hurst
    a = phi.breakpoints[:-1][:, None]
    b = phi.breakpoints[1:][:, None]
    c = psi.breakpoints[:-1][None, :]
    d = psi.breakpoints[1:][None, :]
    weights = _rect_weight(a, b, c, d, h2)
    return float(phi.levels @ weights @ psi.levels)


def grid_inner_product(
    levels_u: np.ndarray, levels_v: np.ndarray, dt: float, hurst: float
) -> float | np.ndarray:
    """Inner product of step functions sharing the same m uniform cells, per row.

    ``levels_u`` and ``levels_v`` are 1-d (one pair: a float) or (rows, m)
    (a block: one value per row).  On uniform cells the rectangle weights
    collapse to the Toeplitz matrix T of the fGn lags, and T is the leading
    block of the size-2m circulant the sampler diagonalises, so the value is
    dt^{2H} sum_k s_k^2 Re(U_k conj V_k), with U, V the length-2m FFTs of the
    zero-padded rows and s_k^2 the circulant eigenvalues over 2m.  Each term
    of u^T T u is then >= 0.  A row's value does not depend on the rows
    beside it.

    The eigenvalues come from ``_circulant_sqrt_eigs``: a grid whose
    embedding is indefinite raises ``FbmSamplingError``, and the clamp to 0
    of eigenvalues within 1e-10 of 0 moves u^T T u by at most
    1e-10 dt^{2H} |u|^2 (Parseval).
    """
    if not 0.5 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst}")
    u = np.asarray(levels_u, dtype=np.float64)
    v = np.asarray(levels_v, dtype=np.float64)
    if u.shape != v.shape or u.ndim not in (1, 2) or u.shape[-1] < 1:
        raise ValueError("level arrays must be 1-d or 2-d, equally shaped and nonempty")
    m = u.shape[-1]
    weights = _circulant_sqrt_eigs(hurst, m)[: m + 1] ** 2
    weights[1:m] *= 2.0  # rfft keeps one of each conjugate pair of interior modes
    uu = rfft(u, n=2 * m, axis=-1)
    vv = uu if v is u else rfft(v, n=2 * m, axis=-1)
    # a sum per row, not a matrix product, which BLAS may round differently per block
    total = (weights * (uu.real * vv.real + uu.imag * vv.imag)).sum(axis=-1)
    return dt ** (2.0 * hurst) * (float(total) if u.ndim == 1 else total)


def embed_direction(phi: StepFunction, hurst: float, times: np.ndarray) -> SamplePath:
    """Embed a step direction into path space: h(t) = <phi, 1_[0,t]>.

    The embedded path is Hölder continuous of order H and satisfies h(0) = 0.
    """
    if not 0.5 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (1/2, 1), got {hurst}")
    t = np.asarray(times, dtype=np.float64)[None, :]
    h2 = 2.0 * hurst
    a = phi.breakpoints[:-1][:, None]
    b = phi.breakpoints[1:][:, None]
    weights = _rect_weight(a, b, np.zeros_like(t), t, h2)
    values = phi.levels @ weights
    return SamplePath(np.asarray(times, dtype=np.float64), values)
