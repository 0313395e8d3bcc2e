"""Configuration-driven experiment runner.

One subcommand per verification suite; every run echoes the configuration keys
its experiment reads into a structured text report, writes plot-ready CSV
paths, and exits 0 only when no claim fails (not-applicable and reported
claims do not fail a run).  Identical configuration and seed produce
byte-identical artifacts, independent of the path blocks Monte Carlo
experiments stream in.
"""

from __future__ import annotations

import argparse
import math
import operator
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

# Each drift family's constructor on ``solver``, which checks its arguments,
# and the config keys it takes, in argument order; an experiment that reads
# "drift" reads the keys of the family chosen.  The constructor is looked up
# by name when the drift is built, so a wrapper installed on ``solver`` (the
# benchmark's drift-call counter) is the one called.
_DRIFTS = {
    "reciprocal": (solver.reciprocal_drift.__name__, ("drift_k",)),
    "power": (solver.power_drift.__name__, ("drift_k", "time_exponent", "singularity_exponent")),
    "bessel": (solver.bessel_drift.__name__, ("bessel_dimension", "hurst")),
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
        if "drift" in _RUNNERS[self.experiment][1]:
            self.drift_spec()  # the family's constructor checks the keys it takes
        # The range checks below bind only the keys the experiment reads.
        reads = _keys_read(self.experiment, self.drift)
        for key in ("n_paths", "x0", "y0", "cir_k", "scale_a"):
            if key in reads and getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive")
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
                verify.admissible_order_window(self.beta, self.gamma)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            if not self.beta < self.hurst:
                raise ConfigError(f"beta must lie in (1/2, hurst), got {self.beta}")

    def drift_spec(self) -> solver.DriftSpec:
        """The chosen family's drift; an unknown family, or a key its constructor rejects, is a ConfigError."""
        if self.drift not in _DRIFTS:
            raise ConfigError(f"drift must be one of {tuple(_DRIFTS)}, got {self.drift!r}")
        constructor, keys = _DRIFTS[self.drift]
        try:
            return getattr(solver, constructor)(*(getattr(self, key) for key in keys))
        except ValueError as exc:
            config = ", ".join(f"{key} = {_fmt(getattr(self, key))}" for key in keys)
            raise ConfigError(f"{self.drift} drift: {exc} (config: {config})") from exc

    def fbm_spec(self, horizon: float | None = None, n_steps: int | None = None) -> fbm.FbmSpec:
        return fbm.FbmSpec(
            hurst=self.hurst,
            horizon=self.horizon if horizon is None else horizon,
            n_steps=self.n_steps if n_steps is None else n_steps,
            seed=self.seed,
        )


# Each comparator's test of its two sides: the value and the bound widened by
# the slack, or for "|-|<=", |value - bound| and the slack.
_COMPARATORS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "|-|<=": operator.le,
}


@dataclass(frozen=True)
class Claim:
    """``value <comparator> bound``, the bound widened by a stated ``slack``.

    The slack is added to the bound of "<" and "<=" and taken from that of
    ">" and ">="; "|-|<=" means |value - bound| <= slack.  The criterion line,
    the outcome and the signed margin all derive from these fields, so a
    report can be rechecked from its own lines.  The comparator "reported"
    states a value and fails only a non-finite one; "not applicable" says why
    in ``note``.
    """

    name: str
    value: float
    comparator: str  # a key of _COMPARATORS, "reported" or "not applicable"
    bound: float | None = None
    slack: float = 0.0
    note: str = ""

    def _sides(self) -> tuple[float, float]:
        if self.comparator == "|-|<=":
            return abs(self.value - self.bound), self.slack
        if ">" in self.comparator:
            return self.value, self.bound - self.slack
        return self.value, self.bound + self.slack

    @property
    def passed(self) -> bool | None:
        """None for a reported or not-applicable claim, except False for a non-finite reported value."""
        if self.comparator not in _COMPARATORS:
            return False if self.comparator == "reported" and not math.isfinite(self.value) else None
        return _COMPARATORS[self.comparator](*self._sides())

    @property
    def margin(self) -> float | None:
        """Signed distance from failing: >= 0 (> 0 under "<" and ">") when a checked claim passes."""
        if self.comparator not in _COMPARATORS:
            return None
        lhs, rhs = self._sides()
        gap = lhs - rhs if ">" in self.comparator else rhs - lhs
        return -abs(gap) if self.comparator == "==" else gap

    @property
    def criterion(self) -> str:
        if self.comparator == "not applicable":
            return f"not applicable: {self.note}"
        if self.comparator == "|-|<=":
            text = f"|value - bound| <= {_fmt(self.slack)}"
        elif self.comparator in _COMPARATORS:
            sign = "-" if ">" in self.comparator else "+"
            text = f"value {self.comparator} bound" + (f" {sign} {_fmt(self.slack)}" if self.slack else "")
        else:
            text = "reported"
        return f"{text} ({self.note})" if self.note else text

    @property
    def outcome(self) -> str:
        return self.comparator if self.passed is None else "pass" if self.passed else "fail"


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    claims: tuple[Claim, ...]
    artifacts: tuple[str, ...]
    wall_clock: float

    @property
    def all_ok(self) -> bool:
        return self.tally[1] == 0

    @property
    def tally(self) -> tuple[int, int, int]:
        """Counts of (pass, fail, not-applicable) claims; reported claims count in none."""
        outcomes = [c.outcome for c in self.claims]
        return outcomes.count("pass"), outcomes.count("fail"), outcomes.count("not applicable")


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
_PARSERS = {int: int, float: _parse_float, str: str, tuple[float, ...]: _parse_floats}


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


def _write_paths_csv(out_dir: Path, times: np.ndarray, values: np.ndarray, stem: str = "path") -> list[str]:
    """One time-major ``{stem}s.csv``: a line per grid time, the time, then a column per row of ``values``."""
    values = np.atleast_2d(values)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = "time," + ",".join(f"{stem}_{i:04d}" for i in range(values.shape[0]))
    # "%.17g" % x is _fmt(float(x)): one format per line, not one call per value.
    line = ",".join(["%.17g"] * (values.shape[0] + 1)) + "\n"
    with open(out_dir / f"{stem}s.csv", "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, times.size, _CSV_SLICE):
            hi = lo + _CSV_SLICE
            rows = np.column_stack([times[lo:hi], values[:, lo:hi].T]).tolist()
            fh.writelines(line % tuple(r) for r in rows)
    return [f"{stem}s.csv"]


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
        # The terminal value is exactly N(0, T^2H), so the sample variance's
        # standard error under that law is sqrt(2 / (n - 1)) T^2H.
        ses = 3.0
        slack = ses * math.sqrt(2.0 / (cfg.n_paths - 1)) * target
        note = f"{_fmt(ses)} standard errors of the variance, sqrt(2/(n_paths-1)) T^(2H)"
        claim = Claim("terminal_variance", var_hat, "|-|<=", target, slack, note)
    else:
        note = "variance check needs n_paths >= 100"
        claim = Claim("terminal_variance", var_hat, "not applicable", target, note=note)
    return [claim], _write_paths_csv(out_dir, spec.times, values)


def _exp_simulate(cfg: ExperimentConfig, out_dir: Path):
    """solve the singular equation over a Monte Carlo batch; positivity audit"""
    drift = cfg.drift_spec()
    spec = cfg.fbm_spec()
    times = spec.times
    n_defect = min(cfg.n_paths, 16)
    # The CSV is time-major, so every solution is kept.  The defect check reads
    # the first n_defect drivers, drawn again: sampler rows are keyed by index,
    # so these are the rows the solve streamed.
    solutions = verify.simulate_paths(spec, drift, cfg.x0, cfg.n_paths, lambda d, s: s)
    min_val = float(np.min(solutions))
    # numpy's max and min, here and in the runners below, pass a NaN on where
    # Python's would drop it, so a NaN claim value fails its claim
    drivers = fbm.sample_fbm_batch(spec, n_defect)
    defects = solver.residual_defect(solutions[:n_defect], drift, drivers, times)
    worst_defect = float(np.max(defects))
    dt = float(times[1] - times[0])
    note = f"trapezoid residual of the integral equation, first {n_defect} paths"
    claims = [
        Claim("positivity_min_value", min_val, ">", 0.0),
        Claim("integral_equation_defect", worst_defect, "reported", note=note),
        Claim("grid_step", dt, "reported"),
    ]
    return claims, _write_paths_csv(out_dir, times, solutions)


def _exp_verify_bound(cfg: ExperimentConfig, out_dir: Path):
    """audit the explicit sup-norm bound path by path"""
    drift = cfg.drift_spec()
    spec = cfg.fbm_spec()
    margins = verify.simulate_paths(
        spec, drift, cfg.x0, cfg.n_paths,
        lambda d, s: verify.check_path_bound(drift, s, d, spec.times, cfg.beta, cfg.gamma),
    )
    # a NaN margin is not >= 0, so it fails both claims
    pass_fraction = np.count_nonzero(margins >= 0.0) / margins.size
    note = "every path obeys the explicit bound"
    claims = [
        Claim("supnorm_bound_pass_fraction", pass_fraction, "==", 1.0, note=note),
        Claim("worst_log_margin", float(np.min(margins)), ">=", 0.0),
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
    columns = verify.simulate_paths(
        spec, drift, cfg.x0, cfg.n_paths, lambda d, s: s[:, idx], n_points=max(idx) + 1, antithetic=True
    )
    pairs = verify.pair_units(cfg.n_paths)
    ses = 3.0
    note = f"x0^-p plus {_fmt(ses)} standard errors over antithetic driver pairs"
    claims = []
    for p in cfg.p_orders:
        for j, t in enumerate(t_snapped):
            rep = verify.check_negative_moments(
                columns[:, j], p=p, t=t, x0=cfg.x0, k=cfg.drift_k, hurst=cfg.hurst, units=pairs
            )
            name = f"inverse_moment[p={_fmt(p)},t={_fmt(t)}]"
            if rep.claim_bound is None:
                claims.append(Claim(name, rep.estimate, "not applicable", note="t above the claim threshold"))
            else:
                threshold = rep.claim_bound + ses * rep.std_error
                claims.append(Claim(name, rep.estimate, "<=", threshold, note=note))
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
    x0_b, drift_b, exponent = verify.scaling_transform(drift, a, cfg.hurst, cfg.x0)
    spec_a = cfg.fbm_spec(horizon=cfg.scale_t / a, n_steps=int(round(n_inner)))
    side_a = a**cfg.hurst * verify.simulate_paths(spec_a, drift, cfg.x0, cfg.n_paths, _last_column)
    spec_b = replace(
        cfg.fbm_spec(horizon=cfg.scale_t, n_steps=cfg.n_steps),
        seed=cfg.seed ^ _SCALING_SEED_FLIP,
    )
    side_b = verify.simulate_paths(spec_b, drift_b, x0_b, cfg.n_paths, _last_column)
    alpha = 0.01
    stat = verify.ks_statistic(side_a, side_b)
    crit = verify.ks_critical_value(cfg.n_paths, cfg.n_paths, alpha=alpha)
    note = f"two-sample KS below the {alpha:.0%} critical value"
    claims = [
        Claim("scaling_ks_statistic", stat, "<", crit, note=note),
        Claim("drift_rescaling_exponent", exponent, "reported", note="H - n H - m - 1"),
    ]
    if cfg.drift == "bessel":
        claims.append(Claim("bessel_exponent_zero", exponent, "==", 0.0))
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
    norm_lo, norm_hi = float(np.min(report.norm_sq)), float(np.max(report.norm_sq))
    cap = cfg.t_check ** (2.0 * cfg.hurst)
    tolerance = f"max({_fmt(malliavin.FD_ABS_TOL)}, {_fmt(malliavin.FD_REL_TOL)} |analytic|)"
    note = f"worst over paths of |analytic - extrapolated| / {tolerance}"
    rounding = 1e-12  # the norm's slack, relative to the cap
    cap_note = f"t^{{2H}} plus {rounding:g} of it"
    claims = [
        Claim("fd_vs_analytic_worst_error_ratio", float(np.max(report.error_ratio)), "<=", 1.0, note=note),
        Claim("derivative_norm_sq_min", norm_lo, ">", 0.0),
        Claim("derivative_norm_sq_max", norm_hi, "<=", cap, cap * rounding, cap_note),
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
        lambda t: 0.3 * np.sin(2.0 * np.pi * t / cfg.horizon), cfg.horizon, n_smooth
    )
    x = solver.solve_batch(x0, drift, smooth.values[None, :], smooth.times)[0]
    y_path = SamplePath(smooth.times, x**2 / 4.0)
    sqrt_y = SamplePath(y_path.times, np.sqrt(y_path.values))
    resids = []
    for frac in (0.25, 0.5, 0.75, 1.0):
        t = _snap_down(frac * cfg.horizon, y_path.dt)
        idx = y_path.index_of(t)
        stieltjes = fraccalc.young_integral(sqrt_y, smooth, 0.0, t, 0.5)
        resids.append(abs(y_path.values[idx] - cfg.y0 - k * t - stieltjes))
    worst_resid = float(np.max(resids))
    # stochastic positivity run
    y_mins = verify.simulate_paths(
        cfg.fbm_spec(), drift, x0, cfg.n_paths, lambda d, x: np.min(x**2 / 4.0, axis=1)
    )
    y_min = float(np.min(y_mins))
    claims = [
        Claim("young_residual_smooth_driver", worst_resid, "<=", 5e-3),
        Claim("positivity_min_value", y_min, ">", 0.0),
    ]
    return claims, _write_paths_csv(out_dir, y_path.times, y_path.values, stem="cir_smooth_path")


def _exp_moments(cfg: ExperimentConfig, out_dir: Path):
    """half-batch stability of sup-norm moments"""
    if cfg.n_paths < 4:
        raise ConfigError("moments needs n_paths >= 4 for its two half-batch estimates")
    drift = cfg.drift_spec()
    sups = verify.simulate_paths(
        cfg.fbm_spec(), drift, cfg.x0, cfg.n_paths, lambda d, s: np.abs(s).max(axis=1)
    )
    ses = 5.0
    note = f"half-batch estimates within {_fmt(ses)} combined standard errors"
    claims = []
    for e in verify.empirical_moment_stability(sups, cfg.p_orders):
        gap = abs(e.first_half - e.second_half)
        claims.append(Claim(f"moment_stability[p={_fmt(e.order)}]", gap, "<=", ses * e.std_error, note=note))
    return claims, []


# Every experiment reads these keys; _RUNNERS lists the rest.
_SHARED_KEYS = ("hurst", "horizon", "n_steps", "n_paths", "seed", "output_dir")
_SOLVE_KEYS = ("drift", "x0")

# The experiments in subcommand order: each one's runner, whose docstring is
# its help text, and the keys it reads beyond the shared ones (a key one of its
# validation checks reads counts); one that reads "drift" reads the chosen
# family's keys of _DRIFTS too.  Only these keys are range-checked and
# echoed in its report.
_RUNNERS = {
    "fbm-sample": (_exp_fbm_sample, ()),
    "simulate": (_exp_simulate, _SOLVE_KEYS),
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
    reads = {*_SHARED_KEYS, *keys, *(_DRIFTS[drift][1] if "drift" in keys else ())}
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
    for key in _KINDS:
        if key != "experiment":
            flags.add_argument("--" + key.replace("_", "-"), type=str, default=None, metavar=key.upper())
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
    for key in _KINDS:
        raw = getattr(args, key)
        if key == "experiment" or raw is None:
            continue
        if key == "seed":
            seed_given = True
        try:
            values[key] = _parse_value(key, raw)
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage error (2) or --help (0)
        return exc.code
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
