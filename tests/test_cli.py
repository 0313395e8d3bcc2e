"""Config parsing, report determinism, exit codes."""

import dataclasses
import hashlib
import json
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbmsde
from fbmsde import cli, fbm, fraccalc, malliavin, solver, verify
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
            ["fbm-sample", "--config", str(cfg_file), "--seed", "9", "--output-dir", str(out)]
        )
        assert code == 0
        report = (out / "report.txt").read_text()
        assert "seed: 9" in report  # flag wins over file
        assert "n_paths: 64" in report

    def test_env_seed_is_last_resort(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEED", "321")
        out = tmp_path / "env"
        assert main(["fbm-sample", "--n-paths", "16", "--n-steps", "32", "--output-dir", str(out)]) == 0
        assert "seed: 321" in (out / "report.txt").read_text()
        out2 = tmp_path / "flag"
        assert main(["fbm-sample", "--n-paths", "16", "--n-steps", "32", "--seed", "11",
                     "--output-dir", str(out2)]) == 0
        assert "seed: 11" in (out2 / "report.txt").read_text()

    @pytest.mark.parametrize("experiment", ["fbm-sample", "simulate"])
    def test_paths_are_one_time_major_csv(self, tmp_path, experiment):
        assert main([experiment, "--n-paths", "3", "--n-steps", "16", "--output-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["paths.csv", "report.txt"]
        lines = (tmp_path / "paths.csv").read_text().splitlines()
        assert lines[0] == "time,path_0000,path_0001,path_0002"
        assert len(lines) == 18 and all(line.count(",") == 3 for line in lines)

    def test_wide_is_no_option(self, tmp_path, capsys):
        assert main(["simulate", "--wide", "--output-dir", str(tmp_path / "flag")]) == 2
        assert "--wide" in capsys.readouterr().err
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("wide = true\n")
        assert main(["simulate", "--config", str(cfg_file), "--output-dir", str(tmp_path / "file")]) == 2
        assert "unknown key 'wide'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_flag_without_its_value_returns_2(self, tmp_path, capsys):
        # argparse's usage errors come back as main's return value, like every other usage error
        assert main(["simulate", "--output-dir", str(tmp_path / "out"), "--n-paths"]) == 2
        assert "--n-paths" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_returns_0(self, capsys):
        assert main(["simulate", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ")

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
        (["simulate", "--n-paths", "13", "--n-steps", "64"], 4),
        (["simulate", "--n-paths", "7", "--n-steps", "64"], 2),
        (["verify-bound", "--n-paths", "9", "--n-steps", "64"], 2),
        (["neg-moments", "--n-paths", "101", "--n-steps", "128"], 32),
        # 64 steps on the rescaled side, 128 (half the rows per block) on the other
        (["scaling", "--n-paths", "1001", "--n-steps", "128"], 300),
        (["cir", "--n-paths", "21", "--n-steps", "64"], 6),
        (["moments", "--n-paths", "41", "--n-steps", "64"], 10),
        # more than the 16 paths whose residual is checked, over 10 blocks
        (["simulate", "--n-paths", "37", "--n-steps", "64"], 4),
        # Newton: each block's window sweeps run over its rows only
        (["verify-bound", "--drift", "power", "--singularity-exponent", "1.5", "--n-paths", "9",
          "--n-steps", "64"], 2),
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
    columns = verify.simulate_paths(
        spec, solver.reciprocal_drift(1.0), 1.0, 100, lambda d, s: s[:, idx], n_points=52, antithetic=True
    )
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
    # one path of the second block gets a NaN margin: Python's min would keep
    # the finite margins around it, and a NaN is not a pass
    audit, calls = verify.check_path_bound, []

    def nan_in_second_block(*args):
        calls.append(audit(*args))
        if len(calls) == 2:
            calls[-1][1] = math.nan
        return calls[-1]

    monkeypatch.setattr(verify, "check_path_bound", nan_in_second_block)
    monkeypatch.setattr(verify, "_BLOCK_BYTES", 8 * 16 * 2)  # two rows a block at 16 steps
    args = ["verify-bound", "--n-paths", "6", "--n-steps", "16", "--output-dir", str(tmp_path)]
    assert main(args) == 1 and len(calls) == 3
    report = (tmp_path / "report.txt").read_text()
    for claim, value in (("worst_log_margin", "nan"), ("supnorm_bound_pass_fraction", _fmt(5 / 6))):
        assert f"  {claim}:\n    value: {value}\n" in report
        assert report.split(f"  {claim}:\n", 1)[1].split("outcome: ", 1)[1].startswith("fail")


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


# The first drift family that reads each family key beyond the shared ones
# (the last write wins, so the families are walked in reverse), and the
# experiments that read each key beyond the shared ones, under some family,
# from the tables.
_FAMILY = {
    key: f for f, (_, keys) in reversed(cli._DRIFTS.items()) for key in keys if key not in cli._SHARED_KEYS
}
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
    for family, (_, keys) in cli._DRIFTS.items():
        if _key(flag) not in keys:
            args = [experiment, "--drift", family, "--n-paths", "8", "--n-steps", "16", flag, value]
            assert main([*args, "--output-dir", str(tmp_path / family)]) == 0


def test_unknown_drift_family_is_rejected_by_drift_spec():
    # an unknown family is an error, not the last family's drift
    with pytest.raises(ConfigError, match="drift must be one of"):
        ExperimentConfig(experiment="simulate", drift="cubic").drift_spec()


def test_drift_spec_names_the_family_its_constructor_rejects():
    cfg = ExperimentConfig(experiment="simulate", drift="power", singularity_exponent=0.0)
    message = (
        r"^power drift: singularity_exponent must be positive "
        r"\(config: drift_k = 1, time_exponent = 1, singularity_exponent = 0\)$"
    )
    with pytest.raises(ConfigError, match=message):
        cfg.drift_spec()
    with pytest.raises(ConfigError, match=message):
        cfg.validate()


_FAMILY_REJECTED = [(f, v) for f, v in _REJECTED if _key(f) in _FAMILY]


@pytest.mark.parametrize("flag,value", _FAMILY_REJECTED, ids=[f"{f}={v}" for f, v in _FAMILY_REJECTED])
def test_rejected_family_key_is_named_by_its_config_key(tmp_path, capsys, flag, value):
    # --drift-k 0 names drift_k, not the constructor's argument k; a non-finite
    # value is rejected by the parser, which names the flag
    out = tmp_path / "out"
    assert main(["simulate", "--drift", _FAMILY[_key(flag)], flag, value, "--output-dir", str(out)]) == 2
    assert (flag if value == "nan" else _key(flag)) in capsys.readouterr().err
    assert not out.exists()


def test_drift_spec_calls_the_constructor_bound_on_solver_now(monkeypatch):
    # the benchmark's tracer replaces the constructors on ``solver`` after import
    calls, original = [], solver.bessel_drift

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver, "bessel_drift", counted)
    drift = ExperimentConfig(experiment="simulate", drift="bessel", bessel_dimension=3, hurst=0.7).drift_spec()
    assert calls == [(3, 0.7)] and drift.family == "bessel"


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
}


# Each experiment at the default drift, then each one that reads "drift" at
# the other families (neg-moments accepts only the reciprocal drift).
_TABLE_RUNS = [(e, None) for e in cli.EXPERIMENTS] + [
    (e, family)
    for e, (_, keys) in cli._RUNNERS.items()
    if "drift" in keys and e != "neg-moments"
    for family in cli._DRIFTS
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
            moved += ["--" + key.replace("_", "-"), value]
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
    argv = [part for key in keys for part in ("--" + key.replace("_", "-"), "1")]
    for name in cli.EXPERIMENTS:
        args = parser.parse_args([name, "--config", "run.cfg", *argv])
        assert args.experiment == name and args.config == "run.cfg"
        for key in keys:
            assert getattr(args, key) == "1", (name, key)


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


def _per_value_csv(out_dir, times, values, stem):
    """The CSV writer as it was before bulk formatting: one ``_fmt`` call per value."""
    values = np.atleast_2d(values)
    name = f"{stem}s.csv"
    with open(out_dir / name, "w") as fh:
        fh.write("time," + ",".join(f"{stem}_{i:04d}" for i in range(values.shape[0])) + "\n")
        for j, t in enumerate(times):
            fh.write(_fmt(float(t)) + "," + ",".join(_fmt(float(v)) for v in values[:, j]) + "\n")
    return [name]


# "wide" names the one layout: a line per grid time, a column per path
@pytest.mark.parametrize("stem", ["path"], ids=["wide"])
def test_bulk_csv_matches_per_value_writer(tmp_path, stem):
    times = np.linspace(0.0, 1.0, 7)
    values = np.array([
        [-0.0, 5e-324, 1e308, 0.1, 3.0, -2.0, 2.0**53],
        [1.0, -1e-300, 0.1 + 0.2, -7.0, 1.0 / 3.0, -1e308, 4.9e-324],
    ])
    (tmp_path / "bulk").mkdir()
    (tmp_path / "ref").mkdir()
    names = _write_paths_csv(tmp_path / "bulk", times, values)
    assert names == _per_value_csv(tmp_path / "ref", times, values, stem)
    for name in names:
        assert (tmp_path / "bulk" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


@pytest.mark.parametrize("stem", ["x"], ids=["wide"])
@pytest.mark.parametrize("offset", [-1, 0, 1, cli._CSV_SLICE + 1])
def test_sliced_csv_matches_unsliced_writer(tmp_path, stem, offset):
    # grid sizes on both sides of the first slice boundary, and past the
    # second, against the writer that formats every value on its own
    n_times = cli._CSV_SLICE + offset
    times = np.linspace(0.0, 1.0, n_times)
    values = np.random.default_rng(n_times).standard_normal((3, n_times)) * 10.0 ** np.arange(-150, 150, 100)[:, None]
    values[0, -1] = -0.0
    (tmp_path / "sliced").mkdir()
    (tmp_path / "ref").mkdir()
    names = _write_paths_csv(tmp_path / "sliced", times, values, stem=stem)
    assert names == _per_value_csv(tmp_path / "ref", times, values, stem)
    for name in names:
        assert (tmp_path / "sliced" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_tally_counts_numpy_booleans():
    # comparators on numpy floats give numpy booleans, which must be counted
    one, two = np.float64(1.0), np.float64(2.0)
    claims = (
        Claim("a", one, "<", two),
        Claim("b", one, "|-|<=", two, 1.0),
        Claim("c", two, "<=", one),
        Claim("d", one, "==", two),
        Claim("e", one, "not applicable", note="why"),
        Claim("f", one, "reported"),
    )
    assert all(isinstance(c.passed, np.bool_) for c in claims[:4])
    report = RunReport(ExperimentConfig(experiment="cir"), claims, (), 0.0)
    assert report.tally == (2, 2, 1)
    assert not report.all_ok


class TestClaim:
    @pytest.mark.parametrize(
        "claim, criterion, outcome, margin",
        [
            (Claim("a", 1.0, "<", 1.0), "value < bound", "fail", 0.0),
            (Claim("a", 1.0, "<=", 1.0), "value <= bound", "pass", 0.0),
            (Claim("a", 1.5, "<=", 1.0, 0.5, "why"), "value <= bound + 0.5 (why)", "pass", 0.0),
            (Claim("a", 2.0, ">", 0.0), "value > bound", "pass", 2.0),
            (Claim("a", 0.5, ">=", 1.0, 0.25), "value >= bound - 0.25", "fail", -0.25),
            (Claim("a", 1.0, "==", 1.0), "value == bound", "pass", -0.0),
            (Claim("a", 0.5, "|-|<=", 1.0, 0.25), "|value - bound| <= 0.25", "fail", -0.25),
            (Claim("a", 1.25, "|-|<=", 1.0, 0.25), "|value - bound| <= 0.25", "pass", 0.0),
            (Claim("a", 3.0, "reported", note="why"), "reported (why)", "reported", None),
            (Claim("a", math.inf, "reported"), "reported", "fail", None),
            (Claim("a", 3.0, "not applicable", 1.0, note="why"), "not applicable: why", "not applicable", None),
        ],
    )
    def test_criterion_outcome_and_margin_derive_from_the_fields(self, claim, criterion, outcome, margin):
        assert (claim.criterion, claim.outcome, claim.margin) == (criterion, outcome, margin)

    @pytest.mark.parametrize("comparator", ["<", "<=", ">", ">=", "==", "|-|<="])
    def test_nan_fails_every_comparator(self, comparator):
        claim = Claim("a", math.nan, comparator, 0.0, 1.0 if comparator == "|-|<=" else 0.0)
        assert claim.outcome == "fail" and math.isnan(claim.margin)


# Every experiment at reduced size; together their claims state every
# comparator, a reported value and a not-applicable claim.  The cheap runs
# come first, so a check that stops at the first mismatch rarely reaches cir.
_RECHECK_RUNS = {
    "simulate": ["--n-paths", "4", "--n-steps", "16"],
    "verify-bound": ["--n-paths", "4", "--n-steps", "16"],
    "fbm-sample": ["--n-paths", "100", "--n-steps", "16"],
    "neg-moments": ["--n-paths", "40", "--n-steps", "64"],
    "moments": ["--n-paths", "8", "--n-steps", "16"],
    "scaling": ["--n-paths", "1000", "--n-steps", "8", "--drift", "bessel"],
    "malliavin": ["--n-paths", "4", "--n-steps", "64"],
    "cir": ["--n-paths", "4", "--n-steps", "16"],
}

# The recheck's own reading of the printed comparators, independent of cli's.
_RECHECK_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq}
_CHECKED = re.compile(r"value (<=|<|>=|>|==) bound(?: ([+-]) (\S+))?(?: \(.*\))?")
_WITHIN = re.compile(r"\|value - bound\| <= (\S+)(?: \(.*\))?")


def _recheck(report: str) -> list[str]:
    """Each claim whose printed outcome its printed value, bound and criterion do not give; and a wrong summary."""
    lines = report.splitlines()
    claims, wrong = [], []
    for line in lines[lines.index("claims:") + 1 : lines.index("artifacts:")]:
        key, _, text = line.strip().partition(": ")
        if line.startswith("    "):
            claims[-1][key] = text
        else:
            claims.append({"name": key.rstrip(":")})
    for c in claims:
        value, criterion = float(c["value"]), c["criterion"]
        if criterion.startswith("not applicable: "):
            expected = "not applicable"
        elif criterion == "reported" or criterion.startswith("reported ("):
            expected = "reported" if math.isfinite(value) else "fail"
        elif m := _CHECKED.fullmatch(criterion):
            op, sign, slack = m.groups()
            bound = float(c["bound"]) + (0.0 if sign is None else float(sign + slack))
            expected = "pass" if _RECHECK_OPS[op](value, bound) else "fail"
        elif m := _WITHIN.fullmatch(criterion):
            expected = "pass" if abs(value - float(c["bound"])) <= float(m[1]) else "fail"
        else:
            expected = f"an unreadable criterion {criterion!r}"
        if c["outcome"] != expected:
            wrong.append(f"{c['name']}: printed {c['outcome']}, recomputed {expected}")
    outcomes = [c["outcome"] for c in claims]
    counts = (outcomes.count("pass"), outcomes.count("fail"), outcomes.count("not applicable"))
    if lines[-1] != "summary: {} pass, {} fail, {} not-applicable".format(*counts):
        wrong.append(f"summary {lines[-1]!r} for outcomes {outcomes}")
    return wrong


def _recheck_runs(tmp_path: Path, stop_at_first: bool = False) -> tuple[list[str], set[str]]:
    """The recheck's findings over ``_RECHECK_RUNS``, and every criterion form the reports state."""
    wrong, forms = [], set()
    for experiment, extra in _RECHECK_RUNS.items():
        out = tmp_path / experiment
        assert main([experiment, *extra, "--output-dir", str(out)]) in (0, 1)
        report = (out / "report.txt").read_text()
        wrong += [f"{experiment} {w}" for w in _recheck(report)]
        for line in report.splitlines():
            if line.startswith("    criterion: "):
                criterion = line.split(": ", 1)[1]
                forms.add(m[1] if (m := _CHECKED.fullmatch(criterion)) else criterion.split(" ")[0])
        if wrong and stop_at_first:
            break
    return wrong, forms


def test_every_report_rechecks_from_its_own_lines(tmp_path):
    wrong, forms = _recheck_runs(tmp_path)
    assert wrong == []
    assert forms == {"<", "<=", ">", ">=", "==", "|value", "reported", "not"}


@pytest.mark.parametrize(
    "comparator, opposite",
    [
        ("<", operator.ge),
        ("<=", operator.gt),
        (">", operator.le),
        (">=", operator.lt),
        ("==", operator.ne),
        ("|-|<=", operator.gt),
    ],
)
def test_a_flipped_comparator_fails_the_recheck(tmp_path, monkeypatch, comparator, opposite):
    monkeypatch.setitem(cli._COMPARATORS, comparator, opposite)
    wrong, _ = _recheck_runs(tmp_path, stop_at_first=True)
    assert wrong, f"flipping {comparator!r} left every report consistent"


# Every experiment that solves, and Newton runs of two that reduce along the
# time axis.
_SOLVING_RUNS = [[e, *a] for e, a in _RECHECK_RUNS.items() if e != "fbm-sample"] + [
    ["simulate", "--n-paths", "5", "--n-steps", "16", "--drift", "power", "--singularity-exponent", "0.5"],
    ["verify-bound", "--n-paths", "5", "--n-steps", "16", "--drift", "power", "--singularity-exponent", "1.5"],
]


def _run_id(args: list) -> str:
    """The experiment, then the value of each flag after the run size: ``verify-bound-power-1.5``."""
    return "-".join(args[:1] + args[6::2])


@pytest.mark.parametrize("args", _SOLVING_RUNS, ids=map(_run_id, _SOLVING_RUNS))
def test_no_artifact_depends_on_the_solution_layout(args, tmp_path, monkeypatch):
    # solve_batch returns Fortran-ordered rows; C-ordered copies of them must
    # give the same bytes, or some consumer sums in an order its layout sets
    solve, calls = solver.solve_batch, []

    def c_ordered(*solve_args):
        calls.append(solve_args)
        return np.ascontiguousarray(solve(*solve_args))

    as_returned = _run_in(tmp_path / "as-returned", monkeypatch, args)
    for module in (solver, verify, malliavin):
        monkeypatch.setattr(module, "solve_batch", c_ordered)
    assert as_returned[0] in (0, 1)
    assert _run_in(tmp_path / "c-ordered", monkeypatch, args) == as_returned and calls


# SHA-256 of report.txt and of every CSV of each recheck run and of the two
# Newton runs.  A refactor must leave these bytes alone; a change that moves
# them on purpose re-takes the digests and says so.  The fBm bits come from
# numpy's FFT, which changed in numpy 2.0, so they hold on numpy >= 2.0 only.
_ARTIFACT_RUNS = [[e, *a] for e, a in _RECHECK_RUNS.items()] + _SOLVING_RUNS[-2:]
_ARTIFACT_SHA256 = {
    "simulate": {
        "paths.csv": "daffaa7f924b4286be8b39fbcb8ac72bd875e60be0e45ba0b7db1b3fb4f7641d",
        "report.txt": "893157017e76a883af070f1c5e831acb4efee6cad5f5bf80b2a8443a43e802ce",
    },
    "verify-bound": {"report.txt": "54ee688f880ea3e2c4cf073b9c9103e23cdf6187175778ec6808ff32e272382f"},
    "fbm-sample": {
        "paths.csv": "f24b8c8f1308af12c9e295eac4d41cc969cd664b74044e43d2f7106c93c89a69",
        "report.txt": "e293de65316ab8c119aef7b8aeb45037ce1a86b0e1dab00ad7d784121e7f4a17",
    },
    "neg-moments": {"report.txt": "cc726c58b1c72133a8d4389aa40025d239cc1c7e674ccb6aa52f3bc0332c3920"},
    "moments": {"report.txt": "e6038da564fb43cf9a6a3ac0aea31ac1a7e4dbd19afe1366b9ea989a21b52596"},
    "scaling-bessel": {"report.txt": "f66f74c38a2be507990bb187c731f394e1fd197f94f32c49af4de6dbc49b0d34"},
    "malliavin": {"report.txt": "a0175d1c31dc9d48d654cffb20863c4acb6fbf2b77145d601f3c2e93773bc315"},
    "cir": {
        "cir_smooth_paths.csv": "64fc8967d27e9f4480173f5d1b4aab0482ecff18d6fb0e263f3be790a3cb4386",
        "report.txt": "e536d6bf95eda0bdd9d95317de611c3d897911a6a4ef1c049cc2d6a900661935",
    },
    "simulate-power-0.5": {
        "paths.csv": "c5509a9694622facb7393d0950459228db97cfcb35c08d04a692094960a0b7fb",
        "report.txt": "3bdbab0f2af157941cd9f7b4c99f60b2ba2e7f4af5e5b23dc918dac260116d76",
    },
    "verify-bound-power-1.5": {"report.txt": "af8f24084de85b11e10f6c836dd55460ca405cb093e14a779944c0c60cea8c19"},
}


@pytest.mark.parametrize("args", _ARTIFACT_RUNS, ids=map(_run_id, _ARTIFACT_RUNS))
def test_artifacts_are_pinned(args, tmp_path, monkeypatch):
    code, files = _run_in(tmp_path / "run", monkeypatch, args)
    assert code == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}
    assert digests == _ARTIFACT_SHA256[_run_id(args)]


def test_terminal_variance_prints_its_null_law_threshold(tmp_path):
    # the terminal value is N(0, T^2H): 3 standard errors of its sample
    # variance are 3 sqrt(2 / (n - 1)) T^2H, at the default 200 paths
    assert main(["fbm-sample", "--horizon", "2", "--output-dir", str(tmp_path)]) == 0
    report = (tmp_path / "report.txt").read_text()
    criterion = report.split("  terminal_variance:\n", 1)[1].split("criterion: ", 1)[1].split("\n", 1)[0]
    assert criterion.startswith("|value - bound| <= ")
    assert float(criterion.split()[4]) == 3.0 * math.sqrt(2.0 / 199) * 2.0 ** (2 * 0.75)


def test_terminal_variance_fails_a_driver_scaled_by_the_brownian_exponent(tmp_path, monkeypatch):
    # increments scaled by (horizon/n)**0.5 instead of **H: 16x the variance
    # at H 0.75 on the default 256 steps
    sample = fbm.sample_fbm_batch

    def mis_scaled(spec, *args, **kwargs):
        return sample(spec, *args, **kwargs) * (spec.horizon / spec.n_steps) ** (0.5 - spec.hurst)

    monkeypatch.setattr(fbm, "sample_fbm_batch", mis_scaled)
    assert main(["fbm-sample", "--output-dir", str(tmp_path)]) == 1
    report = (tmp_path / "report.txt").read_text()
    assert report.split("  terminal_variance:\n", 1)[1].split("outcome: ", 1)[1].startswith("fail")


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
