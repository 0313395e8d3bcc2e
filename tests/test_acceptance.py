"""Acceptance suite: the quantitative exit criteria at full desk scale.

Each test prints one `ACCEPTANCE <n> (<name>): PASS/FAIL` line; run with
``pytest tests/test_acceptance.py -v -s``.  Statistical criteria use fixed
seeds so the suite is deterministic.
"""

import math

import numpy as np
import pytest

from fbmsde.cli import main as cli_main
from fbmsde.fbm import FbmSpec, sample_fbm_batch
from fbmsde.fraccalc import young_integral
from fbmsde.malliavin import derivative_report
from fbmsde.paths import SamplePath, StepFunction
from fbmsde.solver import (
    bessel_drift,
    cir_transform,
    power_drift,
    reciprocal_drift,
    solve_batch,
)
from fbmsde.verify import (
    check_negative_moments,
    check_path_bound,
    ks_critical_value,
    ks_statistic,
    log_supnorm_bound,
    negative_moment_threshold,
    scaling_transform,
    simulate_paths,
)

from drifts import zero_drift
from oracles import frac_deriv_left, frac_deriv_right, hurst_covariance, solve_pathwise
# the Cholesky reference sampler lives with the fbm tests, and the
# Riemann-Stieltjes oracle of young_integral with the fraccalc tests
from test_fbm import cholesky_rows
from test_fraccalc import riemann_stieltjes


def _whole_batch(spec, drift, x0, n_paths):
    """(times, drivers, solutions) of a whole batch from ``simulate_paths``."""
    both = simulate_paths(spec, drift, x0, n_paths, lambda d, s: np.stack([d, s], axis=1))
    return spec.times, both[:, 0], both[:, 1]


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. fBm exactness
# ---------------------------------------------------------------------------


def test_criterion_1_fbm_exactness():
    m = 20_000
    n = 64
    worst_t = 0.0
    worst_ks = 0.0
    ok = True
    for hurst in (0.6, 0.75, 0.9):
        spec_c = FbmSpec(hurst=hurst, n_steps=n, seed=1001)
        vals_c = sample_fbm_batch(spec_c, m)[:, 1:]
        vals_l = cholesky_rows(hurst, n, 1001 ^ (1 << 40), m)
        times = spec_c.times[1:]
        target = 0.5 * (
            times[:, None] ** (2 * hurst)
            + times[None, :] ** (2 * hurst)
            - np.abs(times[:, None] - times[None, :]) ** (2 * hurst)
        )
        for vals in (vals_c, vals_l):
            emp = vals.T @ vals / m
            second = (vals**2).T @ (vals**2) / m
            se = np.sqrt(np.maximum(second - emp**2, 1e-300) / m)
            tstat = np.max(np.abs(emp - target) / se)
            worst_t = max(worst_t, float(tstat))
            ok = ok and tstat < 4.0
        ks = ks_statistic(vals_c[:, -1], vals_l[:, -1])
        worst_ks = max(worst_ks, ks)
        ok = ok and ks < ks_critical_value(m, m, alpha=0.01)
    _report(
        1,
        "fBm exactness",
        ok,
        f"worst |t|={worst_t:.2f} (<4), worst KS={worst_ks:.4f} "
        f"(<{ks_critical_value(m, m, alpha=0.01):.4f})",
    )


# ---------------------------------------------------------------------------
# 2. fractional-calculus oracle equivalence
# ---------------------------------------------------------------------------


def test_criterion_2_pairing_oracle_equivalence():
    rng = np.random.default_rng(77)
    n, n_oracle = 1024, 1 << 17
    orders = (0.3, 0.45, 0.6)
    worst = 0.0
    ok = True
    for i in range(20):
        a1, a2, b1, b2 = rng.uniform(-1.0, 1.0, size=4)
        w1, w2 = rng.uniform(1.0, 5.0, size=2)
        y_fn = lambda t: a1 * np.sin(w1 * t) + a2 * t**2
        p_fn = lambda t: b1 * np.cos(w2 * t) + b2 * t
        got = young_integral(
            SamplePath.from_function(y_fn, 1.0, n),
            SamplePath.from_function(p_fn, 1.0, n),
            0.0,
            1.0,
            orders[i % 3],
        )
        oracle = riemann_stieltjes(
            SamplePath.from_function(y_fn, 1.0, n_oracle),
            SamplePath.from_function(p_fn, 1.0, n_oracle),
            0.0,
            1.0,
        )
        rel = abs(got - oracle) / (1.0 + abs(oracle))
        worst = max(worst, rel)
        ok = ok and rel <= 1e-4

    # monomial closed forms for the compensated derivatives
    lin = SamplePath.from_function(lambda t: t, 1.0, 2048)
    worst_mono = 0.0
    for order in orders:
        for u in (0.25, 0.625, 1.0):
            left = frac_deriv_left(lin, 0.0, u, order)
            worst_mono = max(
                worst_mono, abs(left - u ** (1 - order) / math.gamma(2 - order))
            )
        for u in (0.0, 0.25, 0.625):
            right = frac_deriv_right(lin, u, 1.0, order)
            worst_mono = max(
                worst_mono, abs(right - (1 - u) ** order / math.gamma(1 + order))
            )
    ok = ok and worst_mono <= 1e-6
    _report(
        2,
        "pairing vs Riemann-Stieltjes oracle",
        ok,
        f"worst pair error={worst:.2e} (<=1e-4), worst monomial={worst_mono:.2e} (<=1e-6)",
    )


# ---------------------------------------------------------------------------
# 3. solver positivity and closed form
# ---------------------------------------------------------------------------


def test_criterion_3_solver():
    # closed form at dt = 1e-4
    n = 10_000
    flat = SamplePath(np.linspace(0.0, 1.0, n + 1), np.zeros(n + 1))
    sol = solve_pathwise(1.0, reciprocal_drift(1.0), flat)
    closed_err = float(np.max(np.abs(sol.values - np.sqrt(1.0 + 2.0 * sol.times))))
    ok = closed_err <= 1e-3

    # 1000 driven paths strictly positive at dt = 1/1024
    spec = FbmSpec(hurst=0.75, n_steps=1024, seed=2002)
    drivers = sample_fbm_batch(spec, 1000)
    sols = solve_batch(1.0, reciprocal_drift(1.0), drivers, spec.times)
    min_val = float(np.min(sols))
    ok = ok and min_val > 0.0

    # dt-halving self-convergence consistent with first order on 100 paths
    spec_f = FbmSpec(hurst=0.75, n_steps=2048, seed=2003)
    fine = sample_fbm_batch(spec_f, 100)
    sols_by_step = {
        step: solve_batch(1.0, reciprocal_drift(1.0), fine[:, ::step], spec_f.times[::step])
        for step in (4, 2, 1)
    }
    # rows are independent of the batch; sum their maxima in row order
    d1_tot, d2_tot = 0.0, 0.0
    for d1, d2 in zip(
        np.max(np.abs(sols_by_step[4] - sols_by_step[2][:, ::2]), axis=1),
        np.max(np.abs(sols_by_step[2] - sols_by_step[1][:, ::2]), axis=1),
    ):
        d1_tot += d1
        d2_tot += d2
    ratio = d1_tot / d2_tot
    ok = ok and d1_tot <= 2.0 * (2.0 * d2_tot)
    _report(
        3,
        "solver positivity + closed form",
        ok,
        f"closed-form err={closed_err:.2e} (<=1e-3), min value={min_val:.4f} (>0), "
        f"halving ratio={ratio:.2f} (<=4)",
    )


# ---------------------------------------------------------------------------
# 4. comparison invariant
# ---------------------------------------------------------------------------


def test_criterion_4_comparison():
    spec = FbmSpec(hurst=0.75, n_steps=512, seed=3001)
    drivers = sample_fbm_batch(spec, 100)
    x0, x0p = 1.0, 2.0
    ok = True
    for row in drivers:
        pair = solve_batch(
            np.array([x0, x0p]), reciprocal_drift(1.0), np.vstack([row, row]), spec.times
        )
        gap = pair[1] - pair[0]
        ok = ok and bool(np.all(gap >= 0.0) and np.all(gap <= x0p - x0))
        ok = ok and bool(np.all(np.diff(gap) <= 0.0))
    _report(4, "comparison invariant", ok, "0 <= gap <= x0'-x0 and nonincreasing, exact")


# ---------------------------------------------------------------------------
# 5. explicit sup-norm bound audit
# ---------------------------------------------------------------------------


def test_criterion_5_supnorm_bound():
    # (hurst, beta) pairs with gamma chosen so the order window is nonempty
    cases = [(0.6, 0.55, 6.0), (0.75, 0.65, 3.0), (0.9, 0.8, 3.0)]
    ok = True
    details = []
    for hurst, beta, gamma in cases:
        for drift in (reciprocal_drift(1.0), bessel_drift(2, hurst)):
            spec = FbmSpec(hurst=hurst, n_steps=512, seed=4001)
            times, drivers, sols = _whole_batch(spec, drift, 1.0, 200)
            margins = check_path_bound(drift, sols, drivers, times, beta=beta, gamma=gamma)
            pass_fraction = np.count_nonzero(margins >= 0.0) / margins.size
            ok = ok and pass_fraction == 1.0
            details.append(f"H={hurst}/{drift.family}: {pass_fraction:.2f}")

    # log-bound growth slope vs driver norm
    gamma, beta = 3.0, 0.75
    target = gamma / (beta * (gamma - 1.0))
    norms = np.array([2.0, 4.0, 8.0, 16.0])
    logs = [math.log(log_supnorm_bound(1.0, gamma, beta, 1.0, 1.0, float(p))) for p in norms]
    slope = float(np.polyfit(np.log(norms), logs, 1)[0])
    slope_ok = abs(slope - target) <= 0.1 * target
    ok = ok and slope_ok
    _report(
        5,
        "explicit bound audit",
        ok,
        f"pass fractions [{', '.join(details)}], slope={slope:.3f} vs {target:.3f} (10%)",
    )


# ---------------------------------------------------------------------------
# 6. negative moments
# ---------------------------------------------------------------------------


def test_criterion_6_negative_moments():
    m, k, hurst, x0 = 20_000, 1.0, 0.75, 1.0
    # dt = 1/2048 exactly; horizon 0.5 covers every requested time
    spec = FbmSpec(hurst=hurst, horizon=0.5, n_steps=1024, seed=5001)
    dt = 0.5 / 1024
    _, _, sols = _whole_batch(spec, reciprocal_drift(k), x0, m)
    ok = True
    details = []
    # the requested times sit off the 1/2048 grid; snap down, staying below
    # each order's threshold
    for p, t_req in [(1.0, 0.2), (1.0, 0.4), (2.0, 0.1), (2.0, 0.15)]:
        idx = int(math.floor(t_req / dt + 1e-9))
        t = idx * dt
        assert t <= negative_moment_threshold(k, p, hurst)
        rep = check_negative_moments(sols[:, idx], p=p, t=t, x0=x0, k=k, hurst=hurst)
        ok = ok and rep.estimate <= rep.claim_bound + 3.0 * rep.std_error
        details.append(f"p={p:g},t={t:.4f}: {rep.estimate:.4f}<=1+3*{rep.std_error:.4f}")
    _report(6, "negative moments", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. scaling law
# ---------------------------------------------------------------------------


def test_criterion_7_scaling():
    m, hurst, a, t = 5000, 0.75, 2.0, 0.5
    drift = power_drift(1.0, 1.0, 1.0)
    # common grid step 1/2048 on both sides
    spec_a = FbmSpec(hurst=hurst, horizon=t / a, n_steps=512, seed=6001)
    _, _, sols_a = _whole_batch(spec_a, drift, 1.0, m)
    side_a = a**hurst * sols_a[:, -1]
    x0_b, drift_b, _ = scaling_transform(drift, a, hurst, 1.0)
    spec_b = FbmSpec(hurst=hurst, horizon=t, n_steps=1024, seed=6001 ^ (1 << 40))
    _, _, sols_b = _whole_batch(spec_b, drift_b, x0_b, m)
    stat = ks_statistic(side_a, sols_b[:, -1])
    crit = ks_critical_value(m, m, alpha=0.01)
    ok = stat < crit

    bessel_zero = all(
        scaling_transform(bessel_drift(2, h), aa, h, 1.0)[2] == 0.0
        for h in (0.6, 0.75, 0.9)
        for aa in (0.5, 2.0, 3.0)
    )
    ok = ok and bessel_zero
    _report(
        7,
        "scaling law",
        ok,
        f"KS={stat:.4f} (<{crit:.4f}), radial-drift exponent exactly 0: {bessel_zero}",
    )


# ---------------------------------------------------------------------------
# 8. derivative checks
# ---------------------------------------------------------------------------


def test_criterion_8_malliavin():
    hurst, n = 0.75, 2048
    drift = reciprocal_drift(1.0)
    direction = StepFunction.indicator(0.0, 0.5)
    spec = FbmSpec(hurst=hurst, n_steps=n, seed=7001)
    drivers = sample_fbm_batch(spec, 50)
    report = derivative_report(
        1.0, drift, drivers, spec.times, 1.0, direction, hurst, eps_list=(0.05, 0.025, 0.0125)
    )
    assert report.analytic.shape == (50,)
    err = np.abs(report.analytic - report.extrapolated)
    ok = bool(np.all(err <= np.maximum(1e-3, 1e-2 * np.abs(report.analytic))))
    worst_rel = float(np.max(err / np.abs(report.analytic)))
    ok = ok and bool(np.all((0.0 < report.norm_sq) & (report.norm_sq <= 1.0 + 1e-12)))

    # zero-drift indicator case reduces to the covariance, on the first driver
    cov_err = 0.0
    for tau in (0.25, 0.5, 1.0):
        rep0 = derivative_report(
            1.0, zero_drift(), drivers[:1], spec.times, 1.0, StepFunction.indicator(0.0, tau), hurst
        )
        cov_err = max(cov_err, abs(rep0.analytic[0] - hurst_covariance(1.0, tau, hurst)))
    cov_err = max(cov_err, abs(rep0.norm_sq[0] - 1.0))
    ok = ok and cov_err <= 1e-4
    _report(
        8,
        "derivative checks",
        ok,
        f"worst FD rel err={worst_rel:.2e} (<=max(1e-3,1%)), "
        f"zero-drift covariance err={cov_err:.2e} (<=1e-4)",
    )


# ---------------------------------------------------------------------------
# 9. square-root diffusion
# ---------------------------------------------------------------------------


def test_criterion_9_cir():
    # x = 2 sqrt(y) turns y' = k + sqrt(y) phi' into x' = 2k/x + phi'; y = x^2/4
    k = 0.5
    drift = reciprocal_drift(2.0 * k)
    # smooth-driver residual of the original integral equation at dt = 1e-3
    driver = SamplePath.from_function(
        lambda t: 0.3 * np.sin(2.0 * np.pi * t), 1.0, 1000
    )
    x_smooth = solve_pathwise(cir_transform(1.0), drift, driver)
    y = SamplePath(driver.times, x_smooth.values**2 / 4.0)
    sq = SamplePath(y.times, np.sqrt(y.values))
    worst = 0.0
    for t in (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0):
        idx = y.index_of(t)
        stieltjes = young_integral(sq, driver, 0.0, t, 0.5)
        worst = max(worst, abs(y.values[idx] - 1.0 - k * t - stieltjes))
    ok = worst <= 5e-3

    # positivity over 1000 driven paths
    spec = FbmSpec(hurst=0.75, n_steps=512, seed=8001)
    drivers = sample_fbm_batch(spec, 1000)
    x = solve_batch(cir_transform(1.0), drift, drivers, spec.times)
    y_min = float(np.min(x**2 / 4.0))
    ok = ok and y_min > 0.0
    _report(
        9,
        "square-root diffusion",
        ok,
        f"young residual={worst:.2e} (<=5e-3), min Y={y_min:.3e} (>0)",
    )


# ---------------------------------------------------------------------------
# 10. determinism end to end
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "experiment,extra",
    [
        ("fbm-sample", ["--n-paths", "128", "--n-steps", "64"]),
        ("simulate", ["--n-paths", "64", "--n-steps", "128"]),
        ("verify-bound", ["--n-paths", "32", "--n-steps", "128"]),
        ("neg-moments", ["--n-paths", "256", "--n-steps", "256"]),
        ("scaling", ["--n-paths", "1000", "--n-steps", "128"]),
        ("malliavin", ["--n-paths", "8", "--n-steps", "512"]),
        ("cir", ["--n-paths", "64", "--n-steps", "128"]),
        ("moments", ["--n-paths", "256", "--n-steps", "128"]),
    ],
)
def test_criterion_10_determinism(experiment, extra, tmp_path):
    out = tmp_path / "run"
    args = [experiment, *extra, "--output-dir", str(out)]
    code_a = cli_main(args)
    snapshots = {
        p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix in (".txt", ".csv")
    }
    code_b = cli_main(args)
    ok = code_a == code_b and code_a in (0, 1)
    for p in sorted(out.iterdir()):
        if p.suffix in (".txt", ".csv"):
            ok = ok and snapshots[p.name] == p.read_bytes()
    _report(10, f"determinism [{experiment}]", ok, "reruns byte-stable")
