"""Configuration-driven experiment runner.

One subcommand per verification suite; every run echoes the configuration keys
its experiment reads into a structured text report, writes plot-ready CSV
paths, and exits 0 only when every claim passes (not-applicable claims do not
fail a run).  Identical configuration and seed produce byte-identical
artifacts, independent of the path blocks Monte Carlo experiments stream in.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import fbm, fraccalc, malliavin, solver, verify
from .paths import GridError, SamplePath, StepFunction

__all__ = ["ExperimentConfig", "Claim", "RunReport", "ConfigError", "parse_config", "run_experiment", "main"]

# The drift families and the keys each one reads; an experiment that reads
# "drift" reads the keys of the family chosen.
_DRIFT_KEYS = {
    "reciprocal": ("drift_k",),
    "power": ("drift_k", "time_exponent", "singularity_exponent"),
    "bessel": ("bessel_dimension",),
}

# XORed into the seed of the scaling experiment's comparison batch.  Sampler
# keys are [pair, seed], so any seed that differs from the primary batch's
# keeps the two batches' keys disjoint; a nonzero flip always differs.
_SCALING_SEED_FLIP = 0xA5A5A5A5 << 32


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    hurst: float = 0.75
    horizon: float = 1.0
    n_steps: int = 256
    n_paths: int = 200
    seed: int = 12345
    method: str = "circulant_embedding"  # the only legal value; kept so command lines passing it still run
    drift: str = "reciprocal"
    drift_k: float = 1.0
    time_exponent: float = 1.0
    singularity_exponent: float = 1.0
    bessel_dimension: int = 2
    x0: float = 1.0
    y0: float = 1.0
    cir_k: float = 0.5
    beta: float = 0.65
    gamma: float = 3.0
    p_orders: tuple[float, ...] = (1.0, 2.0)
    t_eval: tuple[float, ...] = (0.2, 0.4)
    tau: float = 0.5
    t_check: float = 1.0
    eps_list: tuple[float, ...] = (0.05, 0.025, 0.0125)
    scale_a: float = 2.0
    scale_t: float = 0.5
    threads: int = 1  # the only legal value; kept so command lines passing --threads 1 still run
    output_dir: str = "out"
    wide: bool = False

    def validate(self) -> None:
        """Reject the config before any work; the library's own checks raise ConfigError too."""
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        # The range checks below only compare, which NaN passes.
        for key, kind in _KINDS.items():
            if kind is float or kind == tuple[float, ...]:
                value = getattr(self, key)
                if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
                    raise ConfigError(f"{key} must be finite, got {value}")
        if not 0.5 < self.hurst < 1.0:
            raise ConfigError(f"hurst must lie in (1/2, 1), got {self.hurst}")
        try:
            self.fbm_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.threads != 1:
            raise ConfigError(f"threads must be 1 (every block is solved on one thread), got {self.threads}")
        if self.method != "circulant_embedding":
            raise ConfigError(f"method must be circulant_embedding (the only sampler), got {self.method!r}")
        # The range checks below bind only the keys the experiment reads.
        reads = _keys_read(self.experiment, self.drift)
        for key in ("n_paths", "drift_k", "singularity_exponent", "x0", "y0", "cir_k", "scale_a"):
            if key in reads and getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive")
        if "drift" in reads and self.drift not in _DRIFT_KEYS:
            raise ConfigError(f"drift must be one of {tuple(_DRIFT_KEYS)}, got {self.drift!r}")
        if "time_exponent" in reads and self.time_exponent < 0:
            raise ConfigError("time_exponent must be nonnegative")
        if "bessel_dimension" in reads and self.bessel_dimension < 2:
            raise ConfigError("bessel_dimension must be at least 2")
        if "p_orders" in reads and (not self.p_orders or any(p < 0 for p in self.p_orders)):
            raise ConfigError("p_orders must contain nonnegative values")
        if "p_orders" in reads and len(set(self.p_orders)) < len(self.p_orders):
            raise ConfigError(f"p_orders must not repeat a value, got {_fmt(self.p_orders)}")
        if "eps_list" in reads and (not self.eps_list or any(e <= 0 for e in self.eps_list)):
            raise ConfigError("eps_list must contain positive values")
        if "eps_list" in reads and len(set(self.eps_list)) < len(self.eps_list):
            raise ConfigError(f"eps_list must not repeat a value, got {_fmt(self.eps_list)}")
        for key in ("tau", "t_check", "scale_t", "t_eval"):
            times = self.t_eval if key == "t_eval" else (getattr(self, key),)
            if key in reads and (not times or any(not 0 < t <= self.horizon for t in times)):
                raise ConfigError(f"{key} must lie in (0, horizon]")
        if "beta" in reads:
            try:
                lo, hi = verify.admissible_order_window(self.beta, self.gamma)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            if lo >= hi:
                raise ConfigError(
                    f"empty pairing-order window for beta={self.beta}, gamma={self.gamma}; "
                    f"need gamma > beta/(2 beta - 1) = {self.beta / (2 * self.beta - 1):.4g}"
                )
            if not self.beta < self.hurst:
                raise ConfigError(f"beta must lie in (1/2, hurst), got {self.beta}")

    def drift_spec(self) -> solver.DriftSpec:
        if self.drift == "reciprocal":
            return solver.reciprocal_drift(self.drift_k)
        if self.drift == "power":
            return solver.power_drift(self.drift_k, self.time_exponent, self.singularity_exponent)
        return solver.bessel_drift(self.bessel_dimension, self.hurst)

    def fbm_spec(self, horizon: float | None = None, n_steps: int | None = None) -> fbm.FbmSpec:
        return fbm.FbmSpec(
            hurst=self.hurst,
            horizon=self.horizon if horizon is None else horizon,
            n_steps=self.n_steps if n_steps is None else n_steps,
            seed=self.seed,
        )


@dataclass(frozen=True)
class Claim:
    name: str
    value: float
    bound: float | None
    criterion: str
    passed: bool | None  # None = not applicable

    @property
    def outcome(self) -> str:
        if self.passed is None:
            return "not applicable"
        return "pass" if self.passed else "fail"


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    claims: tuple[Claim, ...]
    artifacts: tuple[str, ...]
    wall_clock: float

    @property
    def all_ok(self) -> bool:
        return all(c.passed is not False for c in self.claims)

    @property
    def tally(self) -> tuple[int, int, int]:
        """Counts of (pass, fail, not-applicable) claims.

        ``count`` compares by equality, so numpy booleans are counted too.
        """
        outcomes = [c.passed for c in self.claims]
        return outcomes.count(True), outcomes.count(False), outcomes.count(None)


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    # No config key admits NaN or an infinity; rejecting them here names the
    # config-file line, ahead of the same check in ``validate``.
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw!r}")
    return value


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(part) for part in raw.split(",") if part.strip())


# Each config key's type, read off the dataclass, and the parser for each type.
_KINDS = get_type_hints(ExperimentConfig)
_PARSERS = {int: int, float: _parse_float, str: str, bool: _parse_bool, tuple[float, ...]: _parse_floats}


def _parse_value(key: str, raw: str):
    return _PARSERS[_KINDS[key]](raw)


def parse_config(text: str) -> dict:
    """Strict parse of a flat ``key = value`` document with [section] grouping lines.

    Unknown keys, duplicate keys and malformed lines are rejected with the
    offending line number.
    """
    out: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]") and len(line) > 2:
            continue  # grouping header, keys are global
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw_val = line.partition("=")
        key, raw_val = key.strip(), raw_val.strip()
        if key not in _KINDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            out[key] = _parse_value(key, raw_val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return out


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    if isinstance(x, tuple):
        return ",".join(_fmt(v) for v in x)
    return str(x)


# Grid times formatted at once: the Python floats of one slice, not of the
# whole matrix, are alive at a time (64 times x 3,000 paths is about 6 MB).
_CSV_SLICE = 64


def _write_time_major(path: Path, header: str, times: np.ndarray, values: np.ndarray) -> None:
    """One line per grid time: the time, then that time's value on each row of ``values``."""
    # "%.17g" % x is _fmt(float(x)): one format per line, not one call per value.
    line = ",".join(["%.17g"] * (values.shape[0] + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, times.size, _CSV_SLICE):
            hi = lo + _CSV_SLICE
            rows = np.column_stack([times[lo:hi], values[:, lo:hi].T]).tolist()
            fh.writelines(line % tuple(r) for r in rows)


def _write_paths_csv(
    out_dir: Path, times: np.ndarray, values: np.ndarray, wide: bool, stem: str = "path"
) -> list[str]:
    values = np.atleast_2d(values)
    out_dir.mkdir(parents=True, exist_ok=True)
    if wide:
        header = "time," + ",".join(f"{stem}_{i:04d}" for i in range(values.shape[0]))
        _write_time_major(out_dir / f"{stem}s.csv", header, times, values)
        return [f"{stem}s.csv"]
    names = [f"{stem}_{i:04d}.csv" for i in range(values.shape[0])]
    for name, row in zip(names, values):
        _write_time_major(out_dir / name, "time,value", times, row[None, :])
    return names


_REPORT_NAME = "report.txt"


def _write_report(out_dir: Path, report: RunReport) -> None:
    lines = ["fbmsde report", f"experiment: {report.config.experiment}", "config:"]
    for key in _keys_read(report.config.experiment, report.config.drift):
        lines.append(f"  {key}: {_fmt(getattr(report.config, key))}")
    lines.append("claims:")
    for c in report.claims:
        lines.append(f"  {c.name}:")
        lines.append(f"    value: {_fmt(c.value)}")
        if c.bound is not None:
            lines.append(f"    bound: {_fmt(c.bound)}")
        lines.append(f"    criterion: {c.criterion}")
        lines.append(f"    outcome: {c.outcome}")
    lines.append("artifacts:")
    for name in report.artifacts[:-1]:  # the last artifact is this report
        lines.append(f"  - {name}")
    lines.append("summary: {} pass, {} fail, {} not-applicable".format(*report.tally))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / _REPORT_NAME).write_text("\n".join(lines) + "\n")


def _snap_down(t: float, dt: float) -> float:
    return math.floor(t / dt + 1e-9) * dt


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _exp_fbm_sample(cfg: ExperimentConfig, out_dir: Path):
    """sample fractional noise paths and check the terminal variance"""
    spec = cfg.fbm_spec()
    values = fbm.sample_fbm_batch(spec, cfg.n_paths)
    terminal = values[:, -1]
    target = cfg.horizon ** (2.0 * cfg.hurst)
    var_hat = float(np.var(terminal, ddof=1)) if cfg.n_paths > 1 else 0.0
    if cfg.n_paths >= 100:
        sq = terminal**2
        se_var = float(np.sqrt((np.mean(sq**2) - np.mean(sq) ** 2) / cfg.n_paths))
        criterion = "|value - bound| <= 3 standard errors of the variance estimate"
        passed = abs(var_hat - target) <= 3.0 * se_var
    else:
        criterion, passed = "not applicable: variance check needs n_paths >= 100", None
    claims = [Claim("terminal_variance", var_hat, target, criterion, passed)]
    artifacts = _write_paths_csv(out_dir, spec.times, values, cfg.wide)
    return claims, artifacts


def _exp_simulate(cfg: ExperimentConfig, out_dir: Path):
    """solve the singular equation over a Monte Carlo batch; positivity audit"""
    drift = cfg.drift_spec()
    spec = cfg.fbm_spec()
    times = spec.times
    n_defect = min(cfg.n_paths, 16)
    # The wide CSV is time-major, so every solution is kept; of the drivers,
    # only the first n_defect rows, which the defect check reads.
    kept = []

    def keep(d, s):
        need = n_defect - sum(map(len, kept))
        if need > 0:
            kept.append(d[:need].copy())
        return s

    solutions = np.concatenate(verify.simulate_paths(spec, drift, cfg.x0, cfg.n_paths, keep))
    min_val = float(np.min(solutions))
    # numpy's max and min, here and in the runners below, pass a NaN on where
    # Python's would drop it, so a NaN claim value fails its claim
    defects = solver.residual_defect(solutions[:n_defect], drift, np.concatenate(kept), times)
    worst_defect = float(np.max(defects))
    dt = float(times[1] - times[0])
    claims = [
        Claim("positivity_min_value", min_val, 0.0, "value > bound (strict)", min_val > 0.0),
        Claim(
            "integral_equation_defect",
            worst_defect,
            None,
            "reported (trapezoid residual of the integral equation, first 16 paths)",
            math.isfinite(worst_defect),
        ),
        Claim("grid_step", dt, None, "reported", True),
    ]
    artifacts = _write_paths_csv(out_dir, times, solutions, cfg.wide)
    return claims, artifacts


def _exp_verify_bound(cfg: ExperimentConfig, out_dir: Path):
    """audit the explicit sup-norm bound path by path"""
    drift = cfg.drift_spec()
    spec = cfg.fbm_spec()
    audits = verify.simulate_paths(
        spec, drift, cfg.x0, cfg.n_paths,
        lambda d, s: verify.check_path_bound(drift, s, d, spec.times, cfg.beta, cfg.gamma),
    )
    report = replace(
        audits[0],
        n_paths=sum(a.n_paths for a in audits),
        n_passed=sum(a.n_passed for a in audits),
        worst_margin=float(np.min([a.worst_margin for a in audits])),
    )
    claims = [
        Claim(
            "supnorm_bound_pass_fraction",
            report.pass_fraction,
            1.0,
            "value == bound (every path obeys the explicit bound)",
            report.pass_fraction == 1.0,
        ),
        Claim(
            "worst_log_margin",
            report.worst_margin,
            0.0,
            "value >= bound",
            report.worst_margin >= 0.0,
        ),
    ]
    return claims, []


def _exp_neg_moments(cfg: ExperimentConfig, out_dir: Path):
    """inverse-moment inequality below its time threshold"""
    if cfg.drift != "reciprocal":
        raise ConfigError("neg-moments requires drift = reciprocal")
    spec = cfg.fbm_spec()
    dt = float(spec.times[1] - spec.times[0])
    t_snapped = [_snap_down(t, dt) for t in cfg.t_eval]
    if 0.0 in t_snapped:
        raise ConfigError(f"every t_eval must be at least one grid step dt={_fmt(dt)}")
    if len(set(t_snapped)) < len(t_snapped):
        raise ConfigError(f"t_eval values snap to the same grid time (grid step dt={_fmt(dt)})")
    drift = cfg.drift_spec()
    idx = [int(round(t / dt)) for t in t_snapped]
    # Only the t_eval columns are read, so the solve stops at the last of them.
    # Rows 2i and 2i + 1 solve one driver and its negation: one unit per pair.
    blocks = verify.simulate_paths(
        spec, drift, cfg.x0, cfg.n_paths, lambda d, s: s[:, idx], n_points=max(idx) + 1, antithetic=True
    )
    columns = np.concatenate(blocks)
    pairs = verify.pair_units(cfg.n_paths)
    claims = []
    for p in cfg.p_orders:
        for j, t in enumerate(t_snapped):
            rep = verify.check_negative_moments(
                columns[:, j], p=p, t=t, x0=cfg.x0, k=cfg.drift_k, hurst=cfg.hurst, units=pairs
            )
            bound = rep.claim_bound
            claims.append(
                Claim(
                    f"inverse_moment[p={_fmt(p)},t={_fmt(t)}]",
                    rep.estimate,
                    (bound + 3.0 * rep.std_error) if bound is not None else None,
                    "value <= bound (x0^-p plus 3 standard errors over antithetic driver pairs)"
                    if bound is not None
                    else "not applicable: t above the claim threshold",
                    rep.passed,
                )
            )
    return claims, []


def _last_column(drivers: np.ndarray, solutions: np.ndarray) -> np.ndarray:
    return solutions[:, -1].copy()  # a copy, so the block it came from is freed


def _exp_scaling(cfg: ExperimentConfig, out_dir: Path):
    """distributional self-similarity under time-space rescaling"""
    if cfg.n_paths < 1000:
        raise ConfigError(
            "scaling needs n_paths >= 1000 per side for the asymptotic KS critical value"
        )
    drift = cfg.drift_spec()
    a = cfg.scale_a
    dt = cfg.scale_t / cfg.n_steps
    n_inner = cfg.scale_t / a / dt
    if abs(n_inner - round(n_inner)) > 1e-9:
        raise ConfigError("scale_t / scale_a must land on the grid: choose n_steps divisible by scale_a")
    if round(n_inner) < 2:
        raise ConfigError(
            f"scale_t / scale_a spans {round(n_inner)} grid step(s), fewer than 2: "
            "choose n_steps of at least 2 * scale_a"
        )
    x0_b, drift_b, spec = verify.scaling_transform(drift, a, cfg.hurst, cfg.x0)
    spec_a = cfg.fbm_spec(horizon=cfg.scale_t / a, n_steps=int(round(n_inner)))
    side_a = a**cfg.hurst * np.concatenate(
        verify.simulate_paths(spec_a, drift, cfg.x0, cfg.n_paths, _last_column)
    )
    spec_b = replace(
        cfg.fbm_spec(horizon=cfg.scale_t, n_steps=cfg.n_steps),
        seed=cfg.seed ^ _SCALING_SEED_FLIP,
    )
    side_b = np.concatenate(
        verify.simulate_paths(spec_b, drift_b, x0_b, cfg.n_paths, _last_column)
    )
    stat = verify.ks_statistic(side_a, side_b)
    crit = verify.ks_critical_value(cfg.n_paths, cfg.n_paths, alpha=0.01)
    claims = [
        Claim(
            "scaling_ks_statistic",
            stat,
            crit,
            "value < bound (two-sample KS below the 1% critical value)",
            stat < crit,
        ),
        Claim(
            "drift_rescaling_exponent",
            spec.exponent,
            None,
            "reported (H - n H - m - 1)",
            True,
        ),
    ]
    if cfg.drift == "bessel":
        claims.append(
            Claim(
                "bessel_exponent_zero",
                spec.exponent,
                0.0,
                "value == bound exactly",
                spec.exponent == 0.0,
            )
        )
    return claims, []


def _exp_malliavin(cfg: ExperimentConfig, out_dir: Path):
    """analytic vs finite-difference directional derivatives"""
    spec = cfg.fbm_spec()
    try:  # the same grid lookup the derivative report makes on its grid
        check_index = SamplePath(spec.times, spec.times).index_of(cfg.t_check)
    except GridError as exc:
        raise ConfigError(f"t_check: {exc}") from exc
    if check_index == 0:  # the kernel on [0, t_check] would have no cell
        raise ConfigError(f"t_check must be at least one grid step dt={_fmt(spec.times[1])}")
    drift = cfg.drift_spec()
    direction = StepFunction.indicator(0.0, cfg.tau)
    drivers = fbm.sample_fbm_batch(spec, cfg.n_paths)
    report = malliavin.derivative_report(
        cfg.x0,
        drift,
        drivers,
        spec.times,
        cfg.t_check,
        direction,
        cfg.hurst,
        eps_list=cfg.eps_list,
    )
    err = np.abs(report.analytic - report.extrapolated)
    worst_rel = float(np.max(err / np.maximum(1e-300, np.abs(report.analytic))))
    norm_lo, norm_hi = float(np.min(report.norm_sq)), float(np.max(report.norm_sq))
    cap = cfg.t_check ** (2.0 * cfg.hurst)
    claims = [
        Claim(
            "fd_vs_analytic_worst_rel_error",
            worst_rel,
            None,
            "all paths within max(1e-3, 1% relative)",
            bool(np.all(report.passed)),
        ),
        Claim("derivative_norm_sq_min", norm_lo, 0.0, "value > bound (strict)", norm_lo > 0.0),
        Claim(
            "derivative_norm_sq_max",
            norm_hi,
            cap,
            "value <= bound (t^{2H})",
            norm_hi <= cap * (1.0 + 1e-12),
        ),
    ]
    return claims, []


def _exp_cir(cfg: ExperimentConfig, out_dir: Path):
    """square-root-diffusion change of variables: residual and positivity"""
    # x = 2 sqrt(y) turns y' = k + sqrt(y) phi' into x' = 2k/x + phi'; y = x^2/4
    k = cfg.cir_k
    drift = solver.reciprocal_drift(2.0 * k)
    x0 = solver.cir_transform(cfg.y0)
    # deterministic smooth-driver residual check of the change of variables
    n_smooth = max(cfg.n_steps, 1000)
    smooth = SamplePath.from_function(
        lambda t: 0.3 * np.sin(2.0 * np.pi * t / cfg.horizon), cfg.horizon, n_smooth, holder_hint=1.0
    )
    x_path = solver.solve_pathwise(x0, drift, smooth)
    y_path = SamplePath(x_path.times, x_path.values**2 / 4.0, holder_hint=1.0)
    sqrt_y = SamplePath(y_path.times, np.sqrt(y_path.values), holder_hint=1.0)
    resids = []
    for frac in (0.25, 0.5, 0.75, 1.0):
        t = _snap_down(frac * cfg.horizon, y_path.dt)
        idx = y_path.index_of(t)
        stieltjes = fraccalc.young_integral(sqrt_y, smooth, 0.0, t, 0.5)
        resids.append(abs(y_path.values[idx] - cfg.y0 - k * t - stieltjes))
    worst_resid = float(np.max(resids))
    # stochastic positivity run
    y_mins = verify.simulate_paths(
        cfg.fbm_spec(), drift, x0, cfg.n_paths, lambda d, x: float(np.min(x**2 / 4.0))
    )
    y_min = float(np.min(y_mins))
    claims = [
        Claim(
            "young_residual_smooth_driver",
            worst_resid,
            5e-3,
            "value <= bound",
            worst_resid <= 5e-3,
        ),
        Claim("positivity_min_value", y_min, 0.0, "value > bound (strict)", y_min > 0.0),
    ]
    artifacts = _write_paths_csv(out_dir, y_path.times, y_path.values, True, stem="cir_smooth_path")
    return claims, artifacts


def _exp_moments(cfg: ExperimentConfig, out_dir: Path):
    """half-batch stability of sup-norm moments"""
    if cfg.n_paths < 4:
        raise ConfigError("moments needs n_paths >= 4 for its two half-batch estimates")
    drift = cfg.drift_spec()
    blocks = verify.simulate_paths(
        cfg.fbm_spec(), drift, cfg.x0, cfg.n_paths, lambda d, s: np.abs(s).max(axis=1)
    )
    sups = np.concatenate(blocks)
    report = verify.empirical_moment_stability(sups, cfg.p_orders)
    claims = [
        Claim(
            f"moment_stability[p={_fmt(e.order)}]",
            abs(e.first_half - e.second_half),
            5.0 * e.std_error,
            "value <= bound (half-batch estimates within 5 combined standard errors)",
            e.passed,
        )
        for e in report.entries
    ]
    return claims, []


# Every experiment reads these keys; _RUNNERS lists the rest.
_SHARED_KEYS = ("hurst", "horizon", "n_steps", "n_paths", "seed", "output_dir")
_SOLVE_KEYS = ("drift", "x0")

# The experiments in subcommand order: each one's runner, whose docstring is
# its help text, and the keys it reads beyond the shared ones (a key one of its
# validation checks reads counts); one that reads "drift" reads the chosen
# family's keys of _DRIFT_KEYS too.  Only these keys are range-checked and
# echoed in its report.
_RUNNERS = {
    "fbm-sample": (_exp_fbm_sample, ("wide",)),
    "simulate": (_exp_simulate, (*_SOLVE_KEYS, "wide")),
    "verify-bound": (_exp_verify_bound, (*_SOLVE_KEYS, "beta", "gamma")),
    "neg-moments": (_exp_neg_moments, (*_SOLVE_KEYS, "p_orders", "t_eval")),
    "scaling": (_exp_scaling, (*_SOLVE_KEYS, "scale_a", "scale_t")),
    "malliavin": (_exp_malliavin, (*_SOLVE_KEYS, "tau", "t_check", "eps_list")),
    "cir": (_exp_cir, ("y0", "cir_k")),
    "moments": (_exp_moments, (*_SOLVE_KEYS, "p_orders")),
}


EXPERIMENTS = tuple(_RUNNERS)


def _keys_read(experiment: str, drift: str) -> tuple[str, ...]:
    """The config keys ``experiment`` reads at drift family ``drift``, in dataclass order."""
    keys = _RUNNERS[experiment][1]
    reads = {*_SHARED_KEYS, *keys, *(_DRIFT_KEYS.get(drift, ()) if "drift" in keys else ())}
    return tuple(key for key in _KINDS if key in reads)


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Execute one experiment: validates, runs, writes report + CSV artifacts."""
    cfg.validate()
    out_dir = Path(cfg.output_dir)  # made by the first write, so a rejected config leaves none
    start = time.perf_counter()
    claims, artifacts = _RUNNERS[cfg.experiment][0](cfg, out_dir)
    wall = time.perf_counter() - start
    report = RunReport(cfg, tuple(claims), (*artifacts, _REPORT_NAME), wall)
    _write_report(out_dir, report)
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fbmsde",
        description=(
            "Simulation and verification lab for positivity-preserving singular "
            "equations driven by long-memory fractional noise."
        ),
        epilog=(
            "Config files are flat 'key = value' documents ([section] headers are "
            "allowed as grouping). Precedence: defaults < --config file < command-line "
            "flags; the SEED environment variable applies only when no other seed is given. "
            "Exit codes: 0 all claims pass, 1 claim failure, 2 usage error."
        ),
    )
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--config", type=str, default=None, help="flat key=value config file")
    for key, kind in _KINDS.items():
        if key == "experiment":
            continue
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            flags.add_argument(flag, action="store_const", const=True, default=None)
        else:
            flags.add_argument(flag, type=str, default=None, metavar=key.upper())
    sub = parser.add_subparsers(dest="experiment", required=True, metavar="EXPERIMENT")
    for name, (runner, _) in _RUNNERS.items():
        sub.add_parser(name, help=runner.__doc__, parents=[flags])
    return parser


def _assemble_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {"experiment": args.experiment}
    if args.config is not None:
        text = Path(args.config).read_text()
        file_values = parse_config(text)
        if "experiment" in file_values and file_values["experiment"] != args.experiment:
            raise ConfigError(
                f"config file names experiment {file_values['experiment']!r} "
                f"but the subcommand is {args.experiment!r}"
            )
        values.update(file_values)
    seed_given = "seed" in values
    for key, kind in _KINDS.items():
        raw = getattr(args, key)
        if key == "experiment" or raw is None:
            continue
        if key == "seed":
            seed_given = True
        try:
            values[key] = raw if kind is bool else _parse_value(key, raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for --{key.replace('_', '-')}: {exc}") from exc
    if not seed_given and os.environ.get("SEED"):
        try:
            values["seed"] = int(os.environ["SEED"])
        except ValueError as exc:
            raise ConfigError(f"SEED environment variable is not an integer: {exc}") from exc
    return ExperimentConfig(**values)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _assemble_config(args)
        report = run_experiment(cfg)
    except (ConfigError, fbm.FbmSamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n_pass, n_fail, n_na = report.tally
    status = "PASS" if report.all_ok else "FAIL"
    print(
        f"{cfg.experiment}: {status} ({n_pass} pass, {n_fail} fail, {n_na} not-applicable) "
        f"in {report.wall_clock:.2f}s -> {Path(cfg.output_dir) / _REPORT_NAME}"
    )
    return 0 if report.all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
