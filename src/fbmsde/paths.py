"""Shared containers: uniform-grid sample paths and step functions.

Every path object in the package lives on a uniform time grid starting at 0;
step functions are the finitely-supported directions used for inner products
and perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["GridError", "SamplePath", "StepFunction"]

_SNAP_RTOL = 1e-9


class GridError(ValueError):
    """An operation was asked to work off the path's uniform grid."""


def _check_uniform_grid(times: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``times`` is a strictly increasing uniform 1-d grid of 2+ points.

    A step may differ from the mean step by 1e-15 + 1e-9 of it; an infinite
    span, or a NaN anywhere, is not uniform.
    """
    if times.ndim != 1 or times.size < 2:
        raise ValueError("a grid needs at least two points")
    steps = np.diff(times)
    if (steps <= 0).any():
        raise ValueError("grid must be strictly increasing")
    dt = (times[-1] - times[0]) / (times.size - 1)
    # np.allclose(steps, dt, rtol=1e-9, atol=1e-15) at a third of the cost; an infinite
    # span, which allclose let through on a two-point grid, is rejected
    if not (np.isfinite(dt) and (np.abs(steps - dt) <= 1e-15 + 1e-9 * abs(dt)).all()):
        raise ValueError("grid must be uniform")


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array``; the caller's own array keeps its flags."""
    view = array.view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True, eq=False)
class SamplePath:
    """A real function sampled on a uniform grid ``0 = t_0 < t_1 < ... < t_n``."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if times.ndim != 1 or values.ndim != 1 or times.size != values.size:
            raise ValueError("times and values must be 1-d arrays of equal length")
        _check_uniform_grid(times)
        if times[0] != 0.0:
            raise ValueError("grid must start at 0")
        object.__setattr__(self, "times", _read_only(times))
        object.__setattr__(self, "values", _read_only(values))

    @property
    def dt(self) -> float:
        return float(self.times[-1] / (self.times.size - 1))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def index_of(self, t: float) -> int:
        """Grid index of time ``t``; raises GridError if t is off the grid."""
        dt = self.dt
        idx = int(round(t / dt))
        if idx < 0 or idx >= self.times.size:
            raise GridError(f"time {t} outside the grid span [0, {self.horizon}]")
        if abs(t - idx * dt) > _SNAP_RTOL * max(1.0, abs(t)):
            raise GridError(f"time {t} does not lie on the grid (dt={dt})")
        return idx

    def slice_indices(self, s: float, t: float) -> tuple[int, int]:
        """Indices (i, j) of the grid points inside [s, t], inclusive."""
        if t < s:
            raise GridError(f"empty interval [{s}, {t}]")
        dt = self.dt
        i = int(np.ceil(s / dt - _SNAP_RTOL))
        j = int(np.floor(t / dt + _SNAP_RTOL))
        i = max(i, 0)
        j = min(j, self.times.size - 1)
        if j < i:
            raise GridError(f"no grid point lies in [{s}, {t}]")
        return i, j

    @classmethod
    def from_function(
        cls, fn: Callable[[np.ndarray], np.ndarray], horizon: float, n_steps: int
    ) -> "SamplePath":
        times = np.linspace(0.0, horizon, n_steps + 1)
        return cls(times, np.asarray(fn(times), dtype=np.float64))


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Piecewise-constant function: ``levels[i]`` on ``[breakpoints[i], breakpoints[i+1])``.

    Zero outside the breakpoint span.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self) -> None:
        bp = np.ascontiguousarray(self.breakpoints, dtype=np.float64)
        lv = np.ascontiguousarray(self.levels, dtype=np.float64)
        if bp.ndim != 1 or lv.ndim != 1 or lv.size != bp.size - 1 or lv.size < 1:
            raise ValueError("need k+1 breakpoints and k levels with k >= 1")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if bp[0] < 0:
            raise ValueError("breakpoints must be nonnegative")
        if not np.all(np.isfinite(lv)):
            raise ValueError("levels must be finite")
        object.__setattr__(self, "breakpoints", _read_only(bp))
        object.__setattr__(self, "levels", _read_only(lv))

    @classmethod
    def indicator(cls, a: float, b: float) -> "StepFunction":
        """The indicator of the interval [a, b]."""
        return cls(np.array([a, b]), np.array([1.0]))
