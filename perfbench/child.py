"""Run one fbmsde CLI experiment in this fresh process and record what it cost.

Usage: python3 child.py RESULT_JSON TRACE -- CLI_ARGS...

The experiment runs through ``fbmsde.cli.main`` exactly as the ``fbmsde``
command would.  ``cli.run_experiment`` is wrapped to stamp the moment the
config is assembled and the moment the run ends (``time.monotonic``, which is
system-wide on Linux, so the parent can subtract its own spawn stamp).  Just
before and just after the experiment it times ``reference_s``, a fixed numpy
kernel that does not touch the package, so the parent can tell how fast the
host ran at that moment.  With TRACE = 1 a ``Tracer`` also wraps the public functions of every package layer
at the binding its caller looks up, and the spans go into RESULT_JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
import resource
import sys
import time
from collections import Counter

import numpy as np

_REF_SMALL = np.arange(64.0)
_REF_FFT = np.cos(np.arange(1 << 16) * 0.01)


def reference_s() -> float:
    """Wall time of a fixed numpy kernel: many small-array ufunc calls, as in the
    per-step loops, plus mid-size FFTs, as in the circulant sampler.  It needs
    about 1 MB, and the run's peak memory is taken before its second call."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(3000):
        acc += float((_REF_SMALL * 1.0001 + 0.5).sum())
    for _ in range(20):
        acc += float(np.fft.rfft(_REF_FFT)[1].real)
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference kernel produced a non-finite value")
    return elapsed


class Tracer:
    """In-memory spans around layer calls, plus work counts taken at the same boundaries.

    A span is ``[name, start, end, parent_index]``; the run is single-threaded,
    so the open spans form a stack and a span's children are the spans opened
    while it is on top.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _enclosing(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else "none"

    def span(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][1:3] = start, time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def counted_drift(self, ctor):
        """Wrap a drift constructor so its ``f`` and ``dfdx`` calls are credited to the enclosing span.

        ``inverse_coeff`` is kept, so the closed-form step is unchanged.
        """

        def counted(fn):
            def call(*args, **kwargs):
                self.counts["drift_evals@" + self._enclosing()] += 1
                return fn(*args, **kwargs)

            return call

        @functools.wraps(ctor)
        def wrapper(*args, **kwargs):
            spec = ctor(*args, **kwargs)
            return dataclasses.replace(spec, f=counted(spec.f), dfdx=counted(spec.dfdx))

        return wrapper

    def install(self) -> None:
        """Patch every binding the package actually calls through.

        ``verify`` and ``malliavin`` bind their imports at import time, so each
        binding is wrapped where its caller looks it up; ``cli`` calls through
        module attributes.  ``paths`` holds containers only and is not wrapped.
        """
        from fbmsde import cli, fbm, fraccalc, malliavin, solver, verify

        def count_sample(args, kwargs, out):
            self.counts["fbm.paths"] += out.shape[0]
            self.counts["fbm.bytes_out"] += out.nbytes

        def count_solve(args, kwargs, out):
            rows, steps = out.shape[0], out.shape[1] - 1
            self.counts["solver.rows"] += rows
            self.counts["solver.steps"] += steps
            self.counts["solver.path_steps"] += rows * steps

        seminorm_sig = inspect.signature(fraccalc.holder_seminorm)

        def count_seminorm(args, kwargs, out):
            bound = seminorm_sig.bind(*args, **kwargs).arguments
            i, j = bound["x"].slice_indices(bound["s"], bound["t"])
            m = j - i + 1
            self.counts["fraccalc.seminorm_pairs"] += m * (m - 1) // 2

        bindings = [
            (fbm, "sample_fbm_batch", "fbm.sample", count_sample),
            (verify, "sample_fbm_batch", "fbm.sample", count_sample),
            (verify, "solve_batch", "solver.solve", count_solve),
            (malliavin, "solve_batch", "solver.solve", count_solve),
            (verify, "holder_seminorm", "fraccalc.seminorm", count_seminorm),
            (malliavin, "embed_direction", "fbm.geometry", None),
            (malliavin, "inner_product", "fbm.geometry", None),
            (malliavin, "grid_inner_product", "fbm.geometry", None),
            (verify, "simulate_paths", "verify.simulate", None),
            (verify, "check_path_bound", "verify.audit", None),
            (verify, "check_negative_moments", "verify.stats", None),
            (verify, "ks_statistic", "verify.stats", None),
            (verify, "ks_critical_value", "verify.stats", None),
            (verify, "empirical_moment_stability", "verify.stats", None),
            (malliavin, "derivative_report", "malliavin.report", None),
            (cli, "run_experiment", "cli", None),
        ]
        for module, attr, name, count in bindings:
            setattr(module, attr, self.span(name, getattr(module, attr), count))
        for attr in ("reciprocal_drift", "power_drift", "bessel_drift", "cir_drift_transform"):
            setattr(solver, attr, self.counted_drift(getattr(solver, attr)))


def main() -> int:
    result_path, trace = sys.argv[1], sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RESULT_JSON TRACE -- CLI_ARGS...")
    from fbmsde import cli

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    stamps: dict = {}
    run_experiment = cli.run_experiment

    def timed(cfg):
        stamps["config_ready"] = time.monotonic()
        stamps["ref_before"] = reference_s()
        stamps["run_start"] = time.monotonic()
        try:
            return run_experiment(cfg)
        finally:
            stamps["run_done"] = time.monotonic()
            stamps["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            stamps["ref_after"] = reference_s()

    cli.run_experiment = timed
    rc = cli.main(sys.argv[4:])
    record = {
        "rc": rc,
        **stamps,
        "fbmsde_file": cli.__file__,
    }
    if tracer is not None:
        record["trace"] = {"spans": tracer.spans, "counts": tracer.counts}
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
