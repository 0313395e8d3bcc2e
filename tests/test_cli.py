"""Config parsing, report determinism, exit codes."""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fbmsde
from fbmsde import cli, verify
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

    def test_thread_count_does_not_change_artifacts(self, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}"
            assert main(
                [
                    "simulate",
                    "--n-paths", "32",
                    "--n-steps", "64",
                    "--threads", threads,
                    "--wide",
                    "--output-dir", str(out),
                ]
            ) == 0
            outs.append(out)
        assert filecmp.cmp(outs[0] / "paths.csv", outs[1] / "paths.csv", shallow=False)
        a = (outs[0] / "report.txt").read_text()
        b = (outs[1] / "report.txt").read_text()
        drop = lambda text: [
            ln for ln in text.splitlines() if not ln.startswith(("  threads:", "  output_dir:"))
        ]
        assert drop(a) == drop(b)

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
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        code = main([*args, "--output-dir", "out"])
        return code, {p.name: p.read_bytes() for p in sorted(Path("out").iterdir())}

    one_rows, many_rows = [], []
    one = run("one", one_rows)
    monkeypatch.setattr(verify, "_BLOCK_BYTES", 8 * 64 * rows_at_64_steps)
    many = run("many", many_rows)
    assert set(one_rows) == {0}
    blocks_per_batch = np.diff(np.flatnonzero(np.array(many_rows + [0]) == 0))
    assert len(blocks_per_batch) == len(one_rows) and blocks_per_batch.min() >= 3
    assert one[0] == 0 and one == many


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
# read is checked under one of them (``_READER``); every other key under
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
    ("--p-orders", "-1"),
    ("--t-eval", "0"),
    ("--t-eval", "1.5"),
    ("--tau", "0"),
    ("--tau", "1.5"),
    ("--t-check", "0"),
    ("--t-check", "1.5"),
    ("--eps-list", "0.1,-0.05"),
    ("--eps-list", ","),
    ("--scale-a", "0"),
    ("--scale-t", "0"),
    ("--scale-t", "1.5"),
    ("--threads", "0"),
    ("--x0", "inf"),
    ("--drift-k", "nan"),
    ("--gamma", "inf"),
    ("--t-eval", "nan"),
    ("--eps-list", "0.1,nan"),
]


_READER = {
    "--drift": "simulate",
    "--drift-k": "simulate",
    "--time-exponent": "simulate",
    "--singularity-exponent": "simulate",
    "--bessel-dimension": "simulate",
    "--x0": "simulate",
    "--y0": "cir",
    "--cir-k": "cir",
    "--p-orders": "moments",
    "--beta": "verify-bound",
    "--gamma": "verify-bound",
    "--tau": "malliavin",
    "--t-check": "malliavin",
    "--eps-list": "malliavin",
    "--scale-a": "scaling",
    "--scale-t": "scaling",
    "--t-eval": "neg-moments",
}


@pytest.mark.parametrize("flag,value", _REJECTED, ids=[f"{f}={v}" for f, v in _REJECTED])
def test_out_of_range_value_exits_2(tmp_path, capsys, flag, value):
    args = [_READER.get(flag, "fbm-sample"), "--n-paths", "8", "--n-steps", "16", flag, value]
    assert main([*args, "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "report.txt").exists()


_UNREAD = [(f, v) for f, v in _REJECTED if f in _READER and v not in ("inf", "nan", "0.1,nan")]


# a second experiment that never reads the key, besides fbm-sample
_ALSO_UNREAD_BY = {
    **dict.fromkeys(
        ["--drift", "--drift-k", "--time-exponent", "--singularity-exponent", "--bessel-dimension", "--x0"],
        "cir",
    ),
    "--y0": "simulate",
    "--cir-k": "simulate",
    "--p-orders": "cir",
}


@pytest.mark.parametrize("flag,value", _UNREAD, ids=[f"{f}={v}" for f, v in _UNREAD])
def test_experiment_specific_value_ignored_elsewhere(tmp_path, flag, value):
    # these experiments read none of these keys, so their ranges do not bind them
    experiments = ["fbm-sample"] + ([_ALSO_UNREAD_BY[flag]] if flag in _ALSO_UNREAD_BY else [])
    for experiment in experiments:
        args = [experiment, "--n-paths", "8", "--n-steps", "16", flag, value]
        assert main([*args, "--output-dir", str(tmp_path / experiment)]) == 0


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
# nothing at all); each runner rejects them before any sampling.  Each entry
# gives the arguments and a fragment of the error message.
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
}


@pytest.mark.parametrize("name", list(_RUNNER_REJECTED))
def test_config_caused_errors_exit_2(tmp_path, capsys, name):
    argv, fragment = _RUNNER_REJECTED[name]
    assert main([*argv, "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and fragment in err
    assert not (tmp_path / "report.txt").exists()


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
