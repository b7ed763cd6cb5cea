import csv
import json
import math
import os

import pytest

from torusflow.cli import main
from torusflow.diagnostics import ENSEMBLE_CSV_COLUMNS


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_outputs_and_manifest(tmp_path):
    out = tmp_path / "r"
    code = run_cli(
        "run", "--n", "2", "--dt", "1e-2", "--T", "0.05", "--paths", "1",
        "--seed", "3", "--ic", "mode:1,0", "--out", str(out),
    )
    assert code == 0
    assert (out / "run.csv").exists()
    assert (out / "state_final.csv").exists()
    m = json.loads((out / "manifest.json").read_text())
    assert m["tool"] == "torusflow"
    assert m["config"]["n"] == "2"
    assert set(m["outputs"]) == {"run.csv", "state_final.csv"}
    # what the run resolved its config to: noise, grid, mode count, libraries
    assert m["noise"] == {
        "regime": "space-independent", "beta": 4.0, "components": 1, "cw": 1.0,
        "discarded_trace": 0.0,
    }
    assert (m["m"], m["N"]) == (8, 13)
    assert m["processes"] == 1
    assert set(m["libraries"]) == {"numpy", "scipy"}


def test_manifest_replay_bit_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(
        "run", "--n", "3", "--dt", "1e-2", "--T", "0.1", "--paths", "1",
        "--seed", "11", "--out", str(a),
    ) == 0
    assert run_cli("run", "--config", str(a / "manifest.json"), "--out", str(b)) == 0
    assert (a / "run.csv").read_bytes() == (b / "run.csv").read_bytes()
    assert (a / "state_final.csv").read_bytes() == (b / "state_final.csv").read_bytes()


def test_manifest_replay_keeps_path_id(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    common = ("--n", "3", "--dt", "1e-2", "--T", "0.05", "--seed", "11")
    assert run_cli("run", *common, "--path-id", "5", "--out", str(a)) == 0
    assert json.loads((a / "manifest.json").read_text())["path_id"] == 5
    assert run_cli("run", "--config", str(a / "manifest.json"), "--out", str(b)) == 0
    assert (a / "run.csv").read_bytes() == (b / "run.csv").read_bytes()
    assert (a / "state_final.csv").read_bytes() == (b / "state_final.csv").read_bytes()
    # an explicit flag still wins over the manifest
    assert run_cli(
        "run", "--config", str(a / "manifest.json"), "--path-id", "0", "--out", str(c)
    ) == 0
    assert json.loads((c / "manifest.json").read_text())["path_id"] == 0
    assert (a / "state_final.csv").read_bytes() != (c / "state_final.csv").read_bytes()


@pytest.mark.parametrize("noise", ["space-independent", "qwiener:2"])
def test_ensemble_manifest_replay_bit_identical(tmp_path, noise):
    # the martingale probe's columns under constant noise, nan columns under
    # field noise; a replay takes every setting from the manifest alone
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(
        "ensemble", "--n", "3", "--dt", "1e-2", "--T", "0.1", "--paths", "4",
        "--seed", "11", "--noise", noise, "--scheme", "ito-em", "--out", str(a),
    ) == 0
    assert run_cli("ensemble", "--config", str(a / "manifest.json"), "--out", str(b)) == 0
    first, replay = (json.loads((d / "manifest.json").read_text()) for d in (a, b))
    assert first["config"] == replay["config"]
    assert (a / "ensemble.csv").read_bytes() == (b / "ensemble.csv").read_bytes()


def test_solver_failure_is_an_error_not_a_traceback(tmp_path, capsys):
    code = run_cli(
        "run", "--n", "8", "--dt", "2e-2", "--T", "0.2", "--noise", "qwiener:8",
        "--paths", "1", "--path-id", "3", "--out", str(tmp_path / "o"),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: midpoint iteration did not reach tolerance at step ")
    assert "residual" in err
    # the failing path is named, so it can be replayed with run --path-id
    assert "(paths 3)" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_diverging_solve_exits_2_without_ledger(tmp_path, capsys):
    # a midpoint iteration that overflows to a NaN residual is a failure,
    # not a converged step that writes NaN rows
    out = tmp_path / "o"
    code = run_cli(
        "run", "--n", "8", "--dt", "0.1", "--T", "0.1", "--noise", "qwiener:4",
        "--out", str(out),
    )
    assert code == 2
    assert not (out / "run.csv").exists()
    assert "residual nan" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "ensemble"])
def test_blown_up_state_exits_2_without_outputs(tmp_path, capsys, command):
    # Heun at dt = 0.1 blows up: the state that turned non-finite is named,
    # and nothing is written
    out = tmp_path / "o"
    code = run_cli(
        command, "--scheme", "strat-heun", "--n", "4", "--dt", "0.1", "--T", "5",
        "--paths", "8", "--seed", "1", "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: state is not finite after step ")
    assert "(paths " in err
    assert not out.exists()


def test_non_finite_initial_condition_exits_2_naming_it(tmp_path, capsys):
    # a nan start is rejected as bad input before a step, not reported as a
    # scheme whose state turned non-finite
    out = tmp_path / "o"
    code = run_cli(
        "run", "--n", "4", "--T", "0.01", "--ic", "random:nan", "--scheme", "ito-em",
        "--out", str(out),
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: initial condition 'random:nan' is not finite\n"
    assert not out.exists()


@pytest.mark.parametrize("spec", ["finite:1,0;2", "qwiener:x", "finite:a,b"])
def test_malformed_noise_spec_is_quoted(tmp_path, capsys, spec):
    code = run_cli("run", "--noise", spec, "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert f"malformed noise spec {spec!r}" in err
    assert "qwiener:<n_w>" in err


def test_ensemble_csv_header(tmp_path):
    out = tmp_path / "e"
    assert run_cli(
        "ensemble", "--n", "2", "--dt", "1e-2", "--T", "0.05", "--paths", "4",
        "--out", str(out),
    ) == 0
    with open(out / "ensemble.csv") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == ENSEMBLE_CSV_COLUMNS


def test_ensemble_manifest_records_processes(tmp_path, monkeypatch):
    # 64 paths at n=8 are two path blocks: with two CPUs a helper process
    # steps the second, and the output is the serial run's, byte for byte
    csvs = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)))
        out = tmp_path / f"cpus{cpus}"
        assert run_cli(
            "ensemble", "--n", "8", "--dt", "1e-3", "--T", "3e-3", "--paths", "64",
            "--scheme", "ito-em", "--out", str(out),
        ) == 0
        assert json.loads((out / "manifest.json").read_text())["processes"] == cpus
        csvs.append((out / "ensemble.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_ensemble_under_field_noise_writes_nan_probe_columns(tmp_path):
    # the probe is attached under constant noise only
    out = tmp_path / "q"
    assert run_cli(
        "ensemble", "--n", "2", "--dt", "1e-2", "--T", "0.05", "--paths", "4",
        "--noise", "qwiener:1", "--out", str(out),
    ) == 0
    with open(out / "ensemble.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    for row in rows:
        for col in ("mean_L2", "se_L2", "mean_H1", "se_H1", "envelope_H1"):
            assert math.isfinite(float(row[col]))
        for col in ("mean_M", "se_M", "qv_gap", "se_qv"):
            assert math.isnan(float(row[col]))


def test_run_refuses_save_every_and_replays_a_config_that_sets_it(tmp_path, capsys):
    # run.csv has every step, so run takes no --save-every (argparse exits 2
    # naming it); a config or manifest that sets save_every still replays
    with pytest.raises(SystemExit) as refused:
        run_cli("run", "--n", "2", "--save-every", "5", "--out", str(tmp_path / "x"))
    assert refused.value.code == 2
    assert "--save-every" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    cfg = tmp_path / "c.cfg"
    cfg.write_text("n = 2\ndt = 1e-2\nT = 0.05\npaths = 1\nsave_every = 5\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli("run", "--config", str(cfg), "--out", str(a)) == 0
    assert json.loads((a / "manifest.json").read_text())["config"]["save_every"] == "5"
    with open(a / "run.csv") as fh:
        assert len(list(csv.reader(fh))) == 1 + 6  # header and steps 0-5
    assert run_cli("run", "--config", str(a / "manifest.json"), "--out", str(b)) == 0
    for name in ("run.csv", "state_final.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nn = 2\npaths = 256\ndt = 1e-2\nT = 0.05\n")
    out = tmp_path / "o"
    assert run_cli(
        "run", "--config", str(cfg), "--paths", "1", "--out", str(out)
    ) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert m["config"]["paths"] == "1"      # flag wins
    assert m["config"]["n"] == "2"          # file wins over default
    assert m["config"]["scheme"] == "strat-midpoint"  # untouched default


def test_empty_config_is_all_defaults(tmp_path):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    out = tmp_path / "o"
    # defaults are valid; shrink the run so the test stays fast
    assert run_cli(
        "run", "--config", str(cfg), "--paths", "1", "--n", "2",
        "--T", "0.02", "--dt", "1e-2", "--out", str(out),
    ) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert m["config"]["beta"] == "4.0"
    assert m["config"]["noise"] == "space-independent"


def test_beta_rejected(tmp_path, capsys):
    code = run_cli("run", "--beta", "2.5", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "beta must exceed 3" in err


def test_parse_errors_carry_line_context(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 4\nmystery = 1\nnot a line\n")
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "line 3" in err


def test_validation_lists_every_violation(tmp_path, capsys):
    code = run_cli(
        "run", "--n", "0", "--dt", "-1", "--paths", "0", "--out", str(tmp_path / "o")
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "truncation" in err and "dt" in err and "paths" in err


def test_qwiener_noise_spec(tmp_path):
    out = tmp_path / "q"
    assert run_cli(
        "run", "--noise", "qwiener:1", "--n", "2", "--dt", "1e-2", "--T", "0.02",
        "--paths", "1", "--out", str(out),
    ) == 0
    m = json.loads((out / "manifest.json").read_text())
    assert m["config"]["noise"] == "qwiener:1"
    assert m["noise"]["regime"] == "qwiener"
    assert len(m["noise"]["modes"]) == m["noise"]["components"] == 9


def test_finite_noise_spec(tmp_path):
    out = tmp_path / "f"
    assert run_cli(
        "run", "--noise", "finite:1,0;0,1", "--n", "2", "--dt", "1e-2",
        "--T", "0.02", "--paths", "1", "--out", str(out),
    ) == 0


def test_tables_dump_antisymmetric(tmp_path):
    out = tmp_path / "t"
    assert run_cli("tables", "--n", "1", "--out", str(out)) == 0
    with open(out / "structure_constants.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "l", "m", "value"]
    vals = {(k, l, m): float(v) for k, l, m, v in rows[1:]}
    for (k, l, m), v in vals.items():
        assert v == -vals.get((l, k, m), 0.0)
    assert (out / "christoffel.csv").exists()


def test_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("TORUSFLOW_OUT", str(tmp_path / "envout"))
    assert run_cli(
        "run", "--n", "2", "--dt", "1e-2", "--T", "0.02", "--paths", "1"
    ) == 0
    assert (tmp_path / "envout" / "run.csv").exists()


def test_verify_single_fast_criterion(capsys):
    assert run_cli("verify", "--suite", "a5") == 0
    out = capsys.readouterr().out
    assert "A5" in out and "PASS" in out
    assert "1/1 criteria passed" in out


def test_verify_unknown_suite(capsys):
    assert run_cli("verify", "--suite", "bogus") == 2
