"""Config parsing, report determinism, exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbmsde
from fbmsde import cli, fraccalc, malliavin, solver, verify
from fbmsde.cli import (
    Claim,
    ConfigError,
    ExperimentConfig,
    RunReport,
    _fmt,
    _write_paths_csv,
    main,
    parse_config,
    run_experiment,
)


class TestParseConfig:
    def test_minimal_document_keeps_defaults(self):
        values = parse_config("experiment = simulate\ndrift = bessel\n")
        cfg = ExperimentConfig(**values)
        assert cfg.experiment == "simulate"
        assert cfg.drift == "bessel"
        assert cfg.hurst == 0.75  # default

    def test_sections_are_grouping_sugar(self):
        text = "experiment = simulate\n[fbm]\nhurst = 0.8\n[drift]\ndrift_k = 2.0\n"
        values = parse_config(text)
        assert values["hurst"] == 0.8 and values["drift_k"] == 2.0

    def test_duplicate_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 3.*duplicate"):
            parse_config("experiment = simulate\nhurst = 0.8\nhurst = 0.9\n")

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown"):
            parse_config("experiment = simulate\nhurts = 0.8\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just words\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="n_steps"):
            parse_config("n_steps = many\n")

    def test_comments_and_blanks_ignored(self):
        values = parse_config("# header\n\nseed = 7   # trailing\n")
        assert values == {"seed": 7}

    def test_tuple_values(self):
        values = parse_config("p_orders = 1, 2, 4\n")
        assert values["p_orders"] == (1.0, 2.0, 4.0)

    @pytest.mark.parametrize("line", ["drift_k = nan", "x0 = inf", "t_eval = 0.2, -inf"])
    def test_non_finite_value_rejected_with_line(self, line):
        with pytest.raises(ConfigError, match="line 2.*finite"):
            parse_config(f"experiment = simulate\n{line}\n")


class TestValidation:
    def test_out_of_domain_hurst_names_invariant(self):
        cfg = ExperimentConfig(experiment="fbm-sample", hurst=0.4)
        with pytest.raises(ConfigError, match=r"\(1/2, 1\)"):
            cfg.validate()

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment="nope").validate()

    def test_non_integer_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            ExperimentConfig(experiment="fbm-sample", seed=1.9).validate()

    def test_beta_must_sit_below_hurst(self):
        cfg = ExperimentConfig(experiment="verify-bound", hurst=0.6, beta=0.65)
        with pytest.raises(ConfigError, match="beta"):
            cfg.validate()

    @pytest.mark.parametrize(
        "field",
        [{"x0": float("inf")}, {"drift_k": float("nan")}, {"t_eval": (0.2, float("nan"))}],
        ids=["x0=inf", "drift_k=nan", "t_eval=nan"],
    )
    def test_non_finite_value_rejected_without_the_parsers(self, tmp_path, field):
        # a config built in Python never meets the CLI float parsers
        out = tmp_path / "out"
        cfg = ExperimentConfig(
            experiment="simulate", n_paths=8, n_steps=16, output_dir=str(out), **field
        )
        with pytest.raises(ConfigError, match="finite"):
            run_experiment(cfg)
        assert not out.exists()


class TestCliProcess:
    def test_usage_error_exit_2(self, tmp_path, capsys):
        code = main(["fbm-sample", "--hurst", "0.4", "--output-dir", str(tmp_path)])
        assert code == 2
        assert "(1/2, 1)" in capsys.readouterr().err

    def test_fbm_sample_pass_exit_0(self, tmp_path, capsys):
        code = main(
            [
                "fbm-sample",
                "--n-paths", "200",
                "--n-steps", "64",
                "--wide",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = (tmp_path / "report.txt").read_text()
        assert "terminal_variance" in report
        csv = (tmp_path / "paths.csv").read_text().splitlines()
        assert csv[0].startswith("time,path_0000")
        assert len(csv) == 66  # header + 65 grid points

    def test_claim_failure_exit_1_report_still_written(self, tmp_path):
        # a drift of 100/x swamps the unit-scale noise, so the paths are nearly
        # deterministic, and on 4 steps the scheme's finite differences miss the
        # continuous kernel by about 8-11x the FD-vs-analytic tolerance on every path
        code = main(
            [
                "malliavin",
                "--n-paths", "20",
                "--n-steps", "4",
                "--drift-k", "100",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 1
        report = (tmp_path / "report.txt").read_text()
        assert "outcome: fail" in report

    def test_not_applicable_still_exit_0(self, tmp_path):
        code = main(
            [
                "neg-moments",
                "--n-paths", "200",
                "--n-steps", "128",
                "--t-eval", "0.6",
                "--p-orders", "1",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "not applicable" in (tmp_path / "report.txt").read_text()

    def test_reruns_byte_identical(self, tmp_path):
        out = tmp_path / "run"
        args = [
            "simulate",
            "--n-paths", "32",
            "--n-steps", "64",
            "--wide",
            "--output-dir", str(out),
        ]
        assert main(args) == 0
        first_report = (out / "report.txt").read_bytes()
        first_csv = (out / "paths.csv").read_bytes()
        assert main(args) == 0
        assert (out / "report.txt").read_bytes() == first_report
        assert (out / "paths.csv").read_bytes() == first_csv

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("experiment = fbm-sample\nn_paths = 64\nn_steps = 32\nseed = 5\n")
        out = tmp_path / "out"
        code = main(
            ["fbm-sample", "--config", str(cfg_file), "--seed", "9", "--wide",
             "--output-dir", str(out)]
        )
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "seed: 9" in report  # flag wins over file
        assert "n_paths: 64" in report

    def test_env_seed_is_last_resort(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEED", "321")
        out = tmp_path / "env"
        assert main(["fbm-sample", "--n-paths", "16", "--n-steps", "32", "--wide",
                     "--output-dir", str(out)]) == 0
        assert "seed: 321" in (out / "report.txt").read_text()
        out2 = tmp_path / "flag"
        assert main(["fbm-sample", "--n-paths", "16", "--n-steps", "32", "--wide",
                     "--seed", "11", "--output-dir", str(out2)]) == 0
        assert "seed: 11" in (out2 / "report.txt").read_text()

    def test_per_path_csv_files(self, tmp_path):
        assert main(["fbm-sample", "--n-paths", "3", "--n-steps", "16",
                     "--output-dir", str(tmp_path)]) == 0
        for i in range(3):
            lines = (tmp_path / f"path_{i:04d}.csv").read_text().splitlines()
            assert lines[0] == "time,value"
            assert len(lines) == 18

    def test_experiment_mismatch_between_flag_and_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("experiment = simulate\n")
        assert main(["fbm-sample", "--config", str(cfg_file)]) == 2


def _run_in(cwd: Path, monkeypatch, argv: list) -> tuple:
    """Run the CLI from a new directory ``cwd`` with output to the relative path "out"."""
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code = main([*argv, "--output-dir", "out"])
    return code, {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}


@pytest.mark.parametrize(
    "args, rows_at_64_steps",
    [
        (["simulate", "--n-paths", "13", "--n-steps", "64", "--wide"], 4),
        (["simulate", "--n-paths", "7", "--n-steps", "64"], 2),
        (["verify-bound", "--n-paths", "9", "--n-steps", "64"], 2),
        (["neg-moments", "--n-paths", "101", "--n-steps", "128"], 32),
        # 64 steps on the rescaled side, 128 (half the rows per block) on the other
        (["scaling", "--n-paths", "1001", "--n-steps", "128"], 300),
        (["cir", "--n-paths", "21", "--n-steps", "64"], 6),
        (["moments", "--n-paths", "41", "--n-steps", "64"], 10),
        # more than the 16 paths whose residual is checked, over 10 blocks
        (["simulate", "--n-paths", "37", "--n-steps", "64"], 4),
    ],
)
def test_path_blocks_do_not_change_artifacts(args, rows_at_64_steps, tmp_path, monkeypatch):
    # odd n_paths over at least 3 blocks per batch against one block: the
    # same report and CSV bytes; both runs write to the relative path "out",
    # which report.txt echoes
    sample = verify.sample_fbm_batch

    def run(name: str, first_rows: list) -> tuple:
        def counted(spec, n_paths, first_row=0):
            first_rows.append(first_row)
            return sample(spec, n_paths, first_row=first_row)

        monkeypatch.setattr(verify, "sample_fbm_batch", counted)
        return _run_in(tmp_path / name, monkeypatch, args)

    one_rows, many_rows = [], []
    one = run("one", one_rows)
    monkeypatch.setattr(verify, "_BLOCK_BYTES", 8 * 64 * rows_at_64_steps)
    many = run("many", many_rows)
    assert set(one_rows) == {0}
    blocks_per_batch = np.diff(np.flatnonzero(np.array(many_rows + [0]) == 0))
    assert len(blocks_per_batch) == len(one_rows) and blocks_per_batch.min() >= 3
    assert one[0] == 0 and one == many


def test_neg_moments_bound_takes_the_standard_error_over_pairs(tmp_path):
    # paths 2i and 2i + 1 solve driver i and its negation; each bound is
    # x0^-p plus 3 standard errors of the 50 pair means, which differ from
    # the per-path standard error of the same 100 values
    assert main(["neg-moments", "--n-paths", "100", "--n-steps", "128", "--p-orders", "1",
                 "--output-dir", str(tmp_path)]) == 0
    report = (tmp_path / "report.txt").read_text()
    spec, idx = fbmsde.FbmSpec(hurst=0.75, n_steps=128, seed=12345), [25, 51]
    columns = np.concatenate(verify.simulate_paths(
        spec, solver.reciprocal_drift(1.0), 1.0, 100, lambda d, s: s[:, idx], n_points=52, antithetic=True
    ))
    for j, i in enumerate(idx):
        inverse = 1.0 / columns[:, j]
        se_pairs = np.std(inverse.reshape(50, 2).mean(axis=1), ddof=1) / math.sqrt(50)
        se_paths = np.std(inverse, ddof=1) / math.sqrt(100)
        assert abs(se_pairs - se_paths) > 0.1 * se_paths
        block = report.split(f"inverse_moment[p=1,t={_fmt(spec.times[i])}]:\n")[1]
        assert float(block.splitlines()[1].split(": ")[1]) == pytest.approx(1.0 + 3.0 * se_pairs, rel=1e-12)


_derivative_report = malliavin.derivative_report


def _nan_norms(*args, **kwargs):
    report = _derivative_report(*args, **kwargs)
    return dataclasses.replace(report, norm_sq=np.full_like(report.norm_sq, math.nan))

# A library value turned NaN under each experiment that reduces claim values
# over paths or times; the claim it feeds must fail (Python's max and min
# would drop the NaN and pass it).
_NAN_CLAIMS = {
    "cir": (fraccalc, "young_integral", lambda *args: math.nan, "young_residual_smooth_driver"),
    "simulate": (solver, "residual_defect", lambda *args: math.nan, "integral_equation_defect"),
    "malliavin": (malliavin, "derivative_report", _nan_norms, "derivative_norm_sq_min"),
}


@pytest.mark.parametrize("experiment", list(_NAN_CLAIMS))
def test_nan_claim_value_fails_its_claim(tmp_path, monkeypatch, experiment):
    module, name, replacement, claim = _NAN_CLAIMS[experiment]
    monkeypatch.setattr(module, name, replacement)
    args = [experiment, "--n-paths", "2", "--n-steps", "256", "--output-dir", str(tmp_path)]
    assert main(args) == 1
    report = (tmp_path / "report.txt").read_text()
    assert f"  {claim}:\n    value: nan\n" in report
    assert report.split(f"  {claim}:\n", 1)[1].split("outcome: ", 1)[1].startswith("fail")


def test_nan_margin_in_a_later_block_fails(tmp_path, monkeypatch):
    # verify-bound takes the least margin over blocks; Python's min kept the
    # first block's margin over a NaN in a later one
    audit, calls = verify.check_path_bound, []

    def nan_after_first(*args):
        calls.append(audit(*args))
        return calls[-1] if len(calls) == 1 else dataclasses.replace(calls[-1], worst_margin=math.nan)

    monkeypatch.setattr(verify, "check_path_bound", nan_after_first)
    monkeypatch.setattr(verify, "_BLOCK_BYTES", 8 * 16 * 2)  # two rows a block at 16 steps
    args = ["verify-bound", "--n-paths", "4", "--n-steps", "16", "--output-dir", str(tmp_path)]
    assert main(args) == 1 and len(calls) == 2
    assert "  worst_log_margin:\n    value: nan\n" in (tmp_path / "report.txt").read_text()


def test_run_experiment_returns_report(tmp_path):
    cfg = ExperimentConfig(
        experiment="moments", n_paths=200, n_steps=64, output_dir=str(tmp_path)
    )
    report = run_experiment(cfg)
    assert report.all_ok
    assert report.wall_clock >= 0.0
    assert "report.txt" in report.artifacts


# One out-of-range value for each check in ``ExperimentConfig.validate``, then
# non-finite values, which the float parsers reject first; every one must be
# rejected before any work with exit code 2.  A key that only some experiments
# read is checked under the first of them (``_READERS``); every other key under
# ``fbm-sample``.
_REJECTED = [
    ("--hurst", "0.4"),
    ("--hurst", "0.5"),
    ("--hurst", "1.0"),
    ("--horizon", "0"),
    ("--n-steps", "1"),
    ("--n-paths", "0"),
    ("--seed", "-1"),
    ("--seed", str(2**64)),
    ("--method", "fft"),
    ("--method", "cholesky"),
    ("--drift", "cubic"),
    ("--drift-k", "0"),
    ("--time-exponent", "-1"),
    ("--singularity-exponent", "0"),
    ("--bessel-dimension", "1"),
    ("--x0", "0"),
    ("--y0", "-1"),
    ("--cir-k", "0"),
    ("--beta", "0.5"),
    ("--beta", "0.75"),
    ("--gamma", "2"),
    ("--gamma", "2.1"),  # beta 0.65 leaves no pairing order below gamma 2.167
    ("--p-orders", "-1"),
    ("--p-orders", "1,1"),  # two claims of one name
    ("--t-eval", "0"),
    ("--t-eval", "1.5"),
    ("--tau", "0"),
    ("--tau", "1.5"),
    ("--t-check", "0"),
    ("--t-check", "1.5"),
    ("--eps-list", "0.1,-0.05"),
    ("--eps-list", ","),
    ("--eps-list", "0.05,0.025,0.025"),  # a zero divisor in the Richardson step
    ("--scale-a", "0"),
    ("--scale-t", "0"),
    ("--scale-t", "1.5"),
    ("--threads", "0"),
    ("--threads", "4"),
    ("--x0", "inf"),
    ("--drift-k", "nan"),
    ("--gamma", "inf"),
    ("--t-eval", "nan"),
    ("--eps-list", "0.1,nan"),
]


# The first drift family that reads each family key (the last write wins, so
# the families are walked in reverse), and the experiments that read each key
# beyond the shared ones, under some family, from the tables.
_FAMILY = {key: f for f, keys in reversed(cli._DRIFT_KEYS.items()) for key in keys}
_READERS = {
    key: [e for e, (_, keys) in cli._RUNNERS.items() if key in keys or (key in _FAMILY and "drift" in keys)]
    for key in cli._KINDS
}


def _key(flag: str) -> str:
    return flag[2:].replace("-", "_")


@pytest.mark.parametrize("flag,value", _REJECTED, ids=[f"{f}={v}" for f, v in _REJECTED])
def test_out_of_range_value_exits_2(tmp_path, capsys, flag, value):
    experiment = (_READERS[_key(flag)] or ["fbm-sample"])[0]
    family = ["--drift", _FAMILY[_key(flag)]] if _key(flag) in _FAMILY else []
    args = [experiment, "--n-paths", "8", "--n-steps", "16", *family, flag, value]
    assert main([*args, "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "report.txt").exists()


_UNREAD = [(f, v) for f, v in _REJECTED if _READERS[_key(f)] and v not in ("inf", "nan", "0.1,nan")]


@pytest.mark.parametrize("flag,value", _UNREAD, ids=[f"{f}={v}" for f, v in _UNREAD])
def test_experiment_specific_value_ignored_elsewhere(tmp_path, flag, value):
    # the first two experiments that never read the key: its range does not bind them
    experiments = [e for e in cli.EXPERIMENTS if e not in _READERS[_key(flag)]][:2]
    for experiment in experiments:
        args = [experiment, "--n-paths", "8", "--n-steps", "16", flag, value]
        assert main([*args, "--output-dir", str(tmp_path / experiment)]) == 0


_FAMILY_UNREAD = [(f, v) for f, v in _UNREAD if _key(f) in _FAMILY]


@pytest.mark.parametrize("flag,value", _FAMILY_UNREAD, ids=[f"{f}={v}" for f, v in _FAMILY_UNREAD])
def test_drift_family_value_ignored_by_other_families(tmp_path, flag, value):
    # e.g. simulate --time-exponent -1 runs at the reciprocal drift, which never reads it
    experiment = _READERS[_key(flag)][0]
    for family, keys in cli._DRIFT_KEYS.items():
        if _key(flag) not in keys:
            args = [experiment, "--drift", family, "--n-paths", "8", "--n-steps", "16", flag, value]
            assert main([*args, "--output-dir", str(tmp_path / family)]) == 0


# A legal value other than the default for every key besides the shared ones;
# threads and method have no other legal value, so they are passed at it.
_OTHER_VALUE = {
    "method": "circulant_embedding",
    "drift": "power",
    "drift_k": "2",
    "time_exponent": "0.5",
    "singularity_exponent": "1.5",
    "bessel_dimension": "3",
    "x0": "0.5",
    "y0": "2",
    "cir_k": "0.25",
    "beta": "0.6",
    "gamma": "4",
    "p_orders": "1,3",
    "t_eval": "0.25",
    "tau": "0.25",
    "t_check": "0.5",
    "eps_list": "0.04,0.02",
    "scale_a": "4",
    "scale_t": "0.25",
    "threads": "1",
    "wide": None,  # a flag
}


# Each experiment at the default drift, then each one that reads "drift" at
# the other families (neg-moments accepts only the reciprocal drift).
_TABLE_RUNS = [(e, None) for e in cli.EXPERIMENTS] + [
    (e, family)
    for e, (_, keys) in cli._RUNNERS.items()
    if "drift" in keys and e != "neg-moments"
    for family in cli._DRIFT_KEYS
    if family != ExperimentConfig.drift
]


@pytest.mark.parametrize(
    "experiment,drift", _TABLE_RUNS, ids=[e if d is None else f"{e}-{d}" for e, d in _TABLE_RUNS]
)
def test_keys_outside_the_table_change_no_artifact(tmp_path, monkeypatch, experiment, drift):
    # every key the tables do not list for the experiment and drift moves off
    # its default; if the tables list every key the run reads, the artifacts
    # keep their bytes.  Both runs write to the relative path "out".
    assert set(_OTHER_VALUE) == set(cli._KINDS) - {"experiment", *cli._SHARED_KEYS}
    assert set(cli._RUNNERS[experiment][1]) <= set(_OTHER_VALUE)
    reads = cli._keys_read(experiment, drift or ExperimentConfig.drift)
    moved = []
    for key, value in _OTHER_VALUE.items():
        if key not in reads:
            moved += ["--" + key.replace("_", "-")] + ([] if value is None else [value])
    # scaling needs 1000 paths; on 16 steps the scheme's finite differences
    # miss the continuous kernel by more than the malliavin tolerance
    size = {"scaling": ["--n-paths", "1000"], "malliavin": ["--n-paths", "2", "--n-steps", "256"]}
    argv = [experiment, "--n-paths", "8", "--n-steps", "16", *size.get(experiment, [])]
    argv += [] if drift is None else ["--drift", drift]
    default = _run_in(tmp_path / "default", monkeypatch, argv)
    assert default[0] == 0 and _run_in(tmp_path / "moved", monkeypatch, argv + moved) == default


@pytest.mark.parametrize(
    "args, code",
    [
        (["fbm-sample", "--hurst", "0.6"], 0),  # default beta 0.65 is not below hurst
        (["simulate", "--horizon", "0.4"], 0),  # default tau, t_check, scale_t exceed it
        (["verify-bound", "--hurst", "0.6"], 2),
        (["malliavin", "--horizon", "0.4"], 2),
    ],
)
def test_defaults_bind_only_the_experiments_that_read_them(tmp_path, capsys, args, code):
    assert main([*args, "--n-paths", "8", "--n-steps", "16", "--output-dir", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith("error: ") == (code == 2)


def test_every_subcommand_accepts_every_config_flag():
    from dataclasses import fields

    assert cli.EXPERIMENTS == (
        "fbm-sample", "simulate", "verify-bound", "neg-moments",
        "scaling", "malliavin", "cir", "moments",
    )
    parser = cli._build_parser()
    keys = [f.name for f in fields(ExperimentConfig) if f.name != "experiment"]
    argv = []
    for key in keys:
        argv += ["--" + key.replace("_", "-")] + ([] if key == "wide" else ["1"])
    for name in cli.EXPERIMENTS:
        args = parser.parse_args([name, "--config", "run.cfg", *argv])
        assert args.experiment == name and args.config == "run.cfg"
        for key in keys:
            assert getattr(args, key) == (True if key == "wide" else "1"), (name, key)


# Configs that would pass validation but fail inside the library (or check
# nothing at all); each runner rejects them before any sampling, except a
# circulant embedding that rounding makes indefinite, which the sampler
# rejects before drawing.  Each entry gives the arguments and a fragment of
# the error message.
_RUNNER_REJECTED = {
    "moments-too-few-paths": (["moments", "--n-paths", "2", "--n-steps", "16"], "n_paths >= 4"),
    "malliavin-t-check-off-grid": (
        ["malliavin", "--n-paths", "2", "--n-steps", "7", "--t-check", "0.3"],
        "t_check",
    ),
    "moments-empty-p-orders": (["moments", "--p-orders", ","], "p_orders"),
    "neg-moments-empty-t-eval": (["neg-moments", "--t-eval", ","], "t_eval"),
    "neg-moments-t-eval-snaps-to-0": (
        ["neg-moments", "--t-eval", "0.2,0.001", "--n-steps", "16"],
        "dt=0.0625",
    ),
    # both snap to 0.19921875 on 256 steps: two claims of one name
    "neg-moments-t-eval-snap-to-one-time": (["neg-moments", "--t-eval", "0.2,0.2001"], "same grid time"),
    "moments-repeated-p-orders": (["moments", "--p-orders", "1,1"], "repeat"),
    "malliavin-t-check-snaps-to-0": (
        ["malliavin", "--n-paths", "2", "--n-steps", "16", "--t-check", "1e-9"],
        "dt=0.0625",
    ),
    "scaling-one-inner-step": (
        ["scaling", "--n-paths", "1000", "--n-steps", "16", "--scale-a", "16"],
        "fewer than 2",
    ),
    "fbm-sample-embedding-indefinite": (
        ["fbm-sample", "--hurst", "0.99999", "--n-steps", "65536", "--n-paths", "2"],
        "circulant embedding",
    ),
}


@pytest.mark.parametrize("name", list(_RUNNER_REJECTED))
def test_config_caused_errors_exit_2(tmp_path, capsys, name):
    argv, fragment = _RUNNER_REJECTED[name]
    out = tmp_path / "out"
    assert main([*argv, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert not out.exists()


def _per_value_csv(out_dir, times, values, wide, stem="path"):
    """The CSV writer as it was before bulk formatting: one ``_fmt`` call per value."""
    values = np.atleast_2d(values)
    names = []
    if wide:
        name = f"{stem}s.csv"
        with open(out_dir / name, "w") as fh:
            fh.write("time," + ",".join(f"{stem}_{i:04d}" for i in range(values.shape[0])) + "\n")
            for j, t in enumerate(times):
                fh.write(_fmt(float(t)) + "," + ",".join(_fmt(float(v)) for v in values[:, j]) + "\n")
        names.append(name)
    else:
        for i, row in enumerate(values):
            name = f"{stem}_{i:04d}.csv"
            with open(out_dir / name, "w") as fh:
                fh.write("time,value\n")
                for t, v in zip(times, row):
                    fh.write(f"{_fmt(float(t))},{_fmt(float(v))}\n")
            names.append(name)
    return names


@pytest.mark.parametrize("wide", [True, False], ids=["wide", "long"])
def test_bulk_csv_matches_per_value_writer(tmp_path, wide):
    times = np.linspace(0.0, 1.0, 7)
    values = np.array([
        [-0.0, 5e-324, 1e308, 0.1, 3.0, -2.0, 2.0**53],
        [1.0, -1e-300, 0.1 + 0.2, -7.0, 1.0 / 3.0, -1e308, 4.9e-324],
    ])
    (tmp_path / "bulk").mkdir()
    (tmp_path / "ref").mkdir()
    names = _write_paths_csv(tmp_path / "bulk", times, values, wide)
    assert names == _per_value_csv(tmp_path / "ref", times, values, wide)
    for name in names:
        assert (tmp_path / "bulk" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


@pytest.mark.parametrize("wide", [True, False], ids=["wide", "long"])
@pytest.mark.parametrize("offset", [-1, 0, 1, cli._CSV_SLICE + 1])
def test_sliced_csv_matches_unsliced_writer(tmp_path, wide, offset):
    # grid sizes on both sides of the first slice boundary, and past the
    # second, against the writer that formats every value on its own
    n_times = cli._CSV_SLICE + offset
    times = np.linspace(0.0, 1.0, n_times)
    values = np.random.default_rng(n_times).standard_normal((3, n_times)) * 10.0 ** np.arange(-150, 150, 100)[:, None]
    values[0, -1] = -0.0
    (tmp_path / "sliced").mkdir()
    (tmp_path / "ref").mkdir()
    names = _write_paths_csv(tmp_path / "sliced", times, values, wide, stem="x")
    assert names == _per_value_csv(tmp_path / "ref", times, values, wide, stem="x")
    for name in names:
        assert (tmp_path / "sliced" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_tally_counts_numpy_booleans():
    outcomes = [True, np.True_, False, np.False_, None]
    claims = tuple(Claim(f"c{i}", 0.0, None, "reported", p) for i, p in enumerate(outcomes))
    report = RunReport(ExperimentConfig(experiment="cir"), claims, (), 0.0)
    assert report.tally == (2, 2, 1)


def test_report_summary_matches_stdout(tmp_path, capsys):
    # the cir residual claim's outcome is a numpy boolean
    assert main(["cir", "--n-paths", "16", "--n-steps", "64", "--output-dir", str(tmp_path)]) == 0
    assert "(2 pass, 0 fail, 0 not-applicable)" in capsys.readouterr().out
    summary = (tmp_path / "report.txt").read_text().splitlines()[-1]
    assert summary == "summary: 2 pass, 0 fail, 0 not-applicable"


@pytest.mark.parametrize("y0, cir_k", [(0.25, 2.0), (4.0, 0.1), (0.01, 0.05)])
def test_cir_claims_pass_away_from_the_default_start(y0, cir_k, tmp_path):
    # start far below and above y0 = 1, with a strong and a weak pull away from 0
    args = ["cir", "--y0", str(y0), "--cir-k", str(cir_k), "--output-dir", str(tmp_path)]
    assert main(args) == 0
    report = (tmp_path / "report.txt").read_text()
    assert report.count("outcome: pass") == 2
    assert report.splitlines()[-1] == "summary: 2 pass, 0 fail, 0 not-applicable"


def test_import_loads_numpy_only():
    # numpy is the one runtime dependency, and numpy 2's lazily loaded fft and
    # random submodules must load at import, not inside the first sample.
    code = (
        "import json, sys; import fbmsde, fbmsde.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy'))))"
    )
    src = str(Path(fbmsde.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
    )
    loaded = set(json.loads(out.stdout))
    assert not {m for m in loaded if m.split(".")[0] == "scipy"}
    assert {"numpy.fft", "numpy.random"} <= loaded


def test_cir_run_does_not_load_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on numpy 2.4, about 12 ms per process; the
    # pairing integral that cir runs dedupes its nodes without it
    code = (
        "import sys; from fbmsde.cli import main; "
        "assert main(['cir', '--n-paths', '4', '--n-steps', '64', '--output-dir', sys.argv[1]]) == 0; "
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma loaded'"
    )
    src = str(Path(fbmsde.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_tracer_finds_every_binding():
    # perfbench/child.py wraps package functions by name when it traces a run;
    # a renamed or deleted one fails every traced benchmark run
    root = Path(__file__).resolve().parents[1]
    code = "import sys; sys.path.insert(0, sys.argv[1]); import child; child.Tracer().install()"
    subprocess.run(
        [sys.executable, "-c", code, str(root / "perfbench")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        check=True,
    )
