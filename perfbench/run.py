"""fbmsde benchmark: fixed CLI experiments, each run in a fresh ``fbmsde`` process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A fresh process per run is how users run the CLI, so every run pays the
interpreter start, the numpy/scipy/fbmsde imports and the cache fills of the
circulant eigenvalues.  With ``--trace 0`` the workload runs again and again
for S seconds and the end-to-end metrics are medians over those runs, each
time rescaled by the reference kernel timed next to it (see ``at_ref_speed``).
With ``--trace 1`` untraced and traced runs alternate; the traced runs give
the per-layer metrics (see ``child.Tracer``) and their difference from the
untraced runs gives the tracing overhead.  Runs start one at a time.

Every run is checked: it must exit 0 with no claim failing, its report must
be well formed, and all runs of one invocation (traced or not) must produce
byte-identical outputs.  Failed runs are counted, never retried.  The
last line of stdout is the JSON result; metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
# Relative and identical for every run: report.txt echoes the output directory.
OUT_REL = ".perfbench_work/out"
DEADLINE_S = 170.0  # a whole invocation must end within 180 s
MIN_RUNS = 3
MIN_TRACED = 2  # the exact-repeat check on counts needs two traced runs
# child.reference_s on the record machine (perfbench/RECORD.md) when its host
# runs fast; reported times are rescaled to a host where the kernel takes this.
REF_S = 0.025

COMMON = {"hurst": "0.75", "threads": "1", "method": "circulant_embedding"}


@dataclass(frozen=True)
class Workload:
    experiment: str
    options: dict
    spans: tuple[str, ...]  # spans that must record at least one call when traced


WORKLOADS = {
    "mc-moments": Workload(
        "neg-moments",
        {"drift": "reciprocal", "n-steps": "1024", "n-paths": "4000", "p-orders": "1,2", "t-eval": "0.2,0.4"},
        ("cli", "verify.simulate", "fbm.sample", "solver.solve", "verify.stats"),
    ),
    "bound-audit": Workload(
        "verify-bound",
        {
            "drift": "power",
            "singularity-exponent": "1.5",
            "beta": "0.65",
            "gamma": "3",
            "n-steps": "1024",
            "n-paths": "60",
        },
        ("cli", "verify.simulate", "fbm.sample", "solver.solve", "verify.audit", "fraccalc.seminorm"),
    ),
    "derivs": Workload(
        "malliavin",
        {"drift": "reciprocal", "n-steps": "2048", "n-paths": "15", "tau": "0.5"},
        ("cli", "fbm.sample", "malliavin.report", "solver.solve", "fbm.geometry"),
    ),
}

# Counts that must repeat exactly between traced runs at one seed.
EXACT_COUNTS = (
    "fbm.sample.calls",
    "fbm.paths",
    "fbm.bytes_out",
    "solver.solve.calls",
    "solver.path_steps",
    "solver.rows_per_call",
    "solver.drift_evals_per_step",
    "fraccalc.seminorm.calls",
    "fraccalc.seminorm_pairs",
    "malliavin.report.calls",
)


def cli_args(name: str, seed: int, overrides: dict | None = None) -> list[str]:
    w = WORKLOADS[name]
    opts = {**COMMON, **w.options, **(overrides or {}), "seed": str(seed), "output-dir": OUT_REL}
    return [w.experiment] + [part for key, val in opts.items() for part in ("--" + key, val)]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS thread, like --threads 1: on a host of a few shared cores a
    # second busy thread slows the first, so the run would time the scheduler.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Run:
    error: str = ""
    run_s: float = math.nan
    setup_s: float = math.nan
    ref_s: float = math.nan  # child.reference_s, mean of before and after the run
    rss_mb: float = math.nan
    digest: str = ""
    trace: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.error


def _option(args: list[str], flag: str) -> str:
    return args[args.index(flag) + 1]


def check_outputs(args: list[str], out: Path) -> str:
    """Validate one run's output directory; return "" or what is wrong."""
    report = (out / "report.txt").read_text()
    lines = report.splitlines()
    if lines[:2] != ["fbmsde report", f"experiment: {args[0]}"]:
        return "report.txt header does not name the experiment"
    for key, flag in (("n_paths", "--n-paths"), ("seed", "--seed")):
        if f"  {key}: {_option(args, flag)}" not in lines:
            return f"report.txt does not echo {key}"
    summary = re.fullmatch(r"summary: (\d+) pass, 0 fail, \d+ not-applicable", lines[-1])
    if summary is None or int(summary[1]) < 1:
        return f"claims failed or missing: {lines[-1]!r}"
    if any(line.strip() == "outcome: fail" for line in lines):
        return "a claim failed"
    listed = [line[4:] for line in lines if line.startswith("  - ")]
    if sorted(listed + ["report.txt"]) != sorted(p.name for p in out.iterdir()):
        return "report.txt artifacts differ from the files written"
    return ""


def digest_outputs(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_child(args: list[str], traced: bool, checked: set[str], deadline: float) -> Run:
    """One fresh CLI process; ``checked`` holds digests whose content already passed the checks."""
    out, result = ROOT / OUT_REL, WORK / "child.json"
    shutil.rmtree(out, ignore_errors=True)
    result.unlink(missing_ok=True)
    run = Run()
    cmd = [sys.executable, str(HERE / "child.py"), str(result), "1" if traced else "0", "--", *args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        run.error = "timed out"
        return run
    if proc.returncode != 0 or not result.is_file():
        run.error = f"exit {proc.returncode}: {(proc.stderr or proc.stdout).strip()[-300:]}"
        return run
    rec = json.loads(result.read_text())
    if not Path(rec["fbmsde_file"]).resolve().is_relative_to(ROOT / "src"):
        run.error = f"fbmsde imported from {rec['fbmsde_file']}, not from this checkout"
        return run
    run.setup_s = rec["config_ready"] - spawned
    run.run_s = rec["run_done"] - rec["run_start"]
    run.ref_s = (rec["ref_before"] + rec["ref_after"]) / 2
    run.rss_mb = rec["maxrss_kb"] / 1024.0
    run.trace = rec.get("trace", {})
    if not (out / "report.txt").is_file():
        run.error = "no report.txt written"
        return run
    run.digest = digest_outputs(out)
    if run.digest not in checked:
        run.error = check_outputs(args, out)
        if run.ok:
            checked.add(run.digest)
    return run


def layer_metrics(run: Run) -> dict[str, float]:
    """Per-layer metrics of one traced run; ``.s`` is self time (span minus child spans)."""
    spans, counts = run.trace["spans"], run.trace["counts"]
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s, calls = Counter(), Counter()
    for (name, start, end, _), cov in zip(spans, covered):
        self_s[name] += end - start - cov
        calls[name] += 1
    solve_calls, steps = calls["solver.solve"], counts.get("solver.steps", 0)
    return {
        "fbm.sample.s": self_s["fbm.sample"],
        "fbm.sample.calls": calls["fbm.sample"],
        "fbm.paths": counts.get("fbm.paths", 0),
        "fbm.bytes_out": counts.get("fbm.bytes_out", 0),
        "fbm.geometry.s": self_s["fbm.geometry"],
        "solver.solve.s": self_s["solver.solve"],
        "solver.solve.calls": solve_calls,
        "solver.path_steps": counts.get("solver.path_steps", 0),
        "solver.rows_per_call": counts.get("solver.rows", 0) / solve_calls if solve_calls else 0.0,
        "solver.drift_evals_per_step": counts.get("drift_evals@solver.solve", 0) / steps if steps else 0.0,
        "fraccalc.seminorm.s": self_s["fraccalc.seminorm"],
        "fraccalc.seminorm.calls": calls["fraccalc.seminorm"],
        "fraccalc.seminorm_pairs": counts.get("fraccalc.seminorm_pairs", 0),
        "verify.simulate.s": self_s["verify.simulate"],
        "verify.audit.s": self_s["verify.audit"],
        "verify.stats.s": self_s["verify.stats"],
        "malliavin.report.s": self_s["malliavin.report"],
        "malliavin.report.calls": calls["malliavin.report"],
        "cli.s": self_s["cli"],
    }


def at_ref_speed(runs: list[Run], attr: str) -> float:
    """Median over runs of a time rescaled to a host on which ``reference_s`` takes REF_S.

    On a shared host the speed of one core changes by up to 1.7x from one
    second to the next and stays low for minutes, so raw medians of one
    invocation follow the host.  Each run is divided by the reference kernel
    timed in the same process right before and after it, which cancels most
    of that.
    """
    return statistics.median(getattr(r, attr) * REF_S / r.ref_s for r in runs)


def end_to_end_metrics(runs: list[Run], n_paths: int) -> dict[str, float]:
    run_s = at_ref_speed(runs, "run_s")
    return {
        "run_s": run_s,
        "paths_per_s": n_paths / run_s,
        "setup_s": at_ref_speed(runs, "setup_s"),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }


def per_layer_metrics(traced: list[Run], untraced: list[Run], workload: Workload) -> tuple[dict, list[str]]:
    """Medians of the traced runs' layer metrics, and the problems the trace shows."""
    problems = []
    per_run = [layer_metrics(r) for r in traced]
    for r in traced:
        recorded = Counter(name for name, *_ in r.trace["spans"])
        problems += [f"span {name} recorded no call" for name in workload.spans if not recorded[name]]
    for key in EXACT_COUNTS:
        if len({m[key] for m in per_run}) > 1:
            problems.append(f"{key} differs between traced runs: {[m[key] for m in per_run]}")
    metrics = {key: statistics.median(m[key] for m in per_run) for key in per_run[0]}
    metrics["trace.overhead_s"] = at_ref_speed(traced, "run_s") - at_ref_speed(untraced, "run_s")
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "fbmsde" / "cli.py").is_file():
        print(f"error: no fbmsde sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if opts.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-c", "import fbmsde.cli"], cwd=ROOT, env=child_env())
    name, workload = opts.workload, WORKLOADS[opts.workload]
    args = cli_args(name, opts.seed % 2**64)
    print(f"env: nproc={os.cpu_count()} python={sys.version.split()[0]} workload={name} cli: fbmsde {' '.join(args)}")

    checked: set[str] = set()
    untraced: list[Run] = []
    traced: list[Run] = []
    loop_start = time.monotonic()
    while True:
        elapsed = time.monotonic() - loop_start
        if opts.trace:
            if len(traced) >= MIN_TRACED and elapsed >= opts.seconds:
                break
            batch = [(untraced, False), (traced, True)]
        else:
            if len(untraced) >= MIN_RUNS and elapsed >= opts.seconds:
                break
            batch = [(untraced, False)]
        for runs, trace in batch:
            run = run_child(args, trace, checked, deadline)
            runs.append(run)
            print(
                f"run {len(untraced) + len(traced)}{' traced' if trace else ''}: "
                + (f"run_s={run.run_s:.4f} setup_s={run.setup_s:.4f} ref_s={run.ref_s:.4f} rss_mb={run.rss_mb:.1f} "
                   f"digest={run.digest[:16]}" if run.ok else f"FAILED {run.error}")
            )
    shutil.rmtree(WORK, ignore_errors=True)

    every = untraced + traced
    good_u, good_t = [r for r in untraced if r.ok], [r for r in traced if r.ok]
    failed = len(every) - len(good_u) - len(good_t)
    digests = {r.digest for r in every if r.ok}
    problems = [] if len(digests) <= 1 else [f"outputs differ between runs: {len(digests)} digests"]
    metrics: dict[str, float] = {}
    if opts.trace and good_t and good_u:
        metrics, trace_problems = per_layer_metrics(good_t, good_u, workload)
        problems += trace_problems
        top = max((k for k in metrics if k.endswith(".s")), key=metrics.get)
        print(f"largest self time: {top} = {metrics[top]:.4f} s")
    elif not opts.trace and good_u:
        metrics = end_to_end_metrics(good_u, int(workload.options["n-paths"]))
    if metrics and set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    for digest in sorted(digests):
        print(f"digest {name} seed={opts.seed}: {digest}")
    print(f"samples: {len(good_u)} untraced, {len(good_t)} traced; {failed} failed")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = failed == 0 and not problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": len(every),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "")} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
