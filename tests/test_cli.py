"""End-to-end command line behavior: exit codes, bundles, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vacflow.cli
import vacflow.fixedpoint
import vacflow.runconfig
from vacflow.cli import main, run_pipeline

BASE = """[params]
A = 1.0
gamma = 2.0
alpha = 1.0
beta = {beta}
delta1 = 1.5
delta2 = 2.5

[grid]
dim = 1
n = 32
length = 6.283185307179586

[initial]
amplitude = {amplitude}
width = 0.8

[solver]
t_window = 0.005
cadence = 4
"""


def write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_summary(out_dir):
    with open(out_dir / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- validate ------------------------------------------------------------------


def test_validate_reports_constants_and_horizons(tmp_path, capsys):
    cfg = write(tmp_path, BASE.format(beta="0.5", amplitude="0.2"))
    assert main(["validate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "a1 = 0.125" in out
    assert "m  = 2" in out
    assert "T** =" in out
    assert "FAIL" not in out
    assert out.rstrip().endswith("ok")


def test_validate_rejects_exponent_band(tmp_path, capsys):
    text = BASE.format(beta="0.5", amplitude="0.2")
    text = text.replace("delta1 = 1.5", "delta1 = 2.0")
    text = text.replace("delta2 = 2.5", "delta2 = 3.0")
    cfg = write(tmp_path, text)
    assert main(["validate", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert "(5/2)" in captured.err
    assert "FAIL" in captured.out


def test_validate_rejects_overdense_bump(tmp_path, capsys):
    # beta = -1 caps the density at 1/3 for these exponents
    cfg = write(tmp_path, BASE.format(beta="-1.0", amplitude="0.5"))
    assert main(["validate", "--config", cfg]) == 1
    assert "density cap" in capsys.readouterr().err


def test_missing_config_exits_three(tmp_path, capsys):
    missing = str(tmp_path / "nope.ini")
    assert main(["validate", "--config", missing]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "run", "sweep",
                                     "oracle-compare"])
def test_a_missing_snapshot_exits_three_naming_the_file(tmp_path, capsys,
                                                        command):
    missing = str(tmp_path / "nowhere.snap")
    text = BASE.format(beta="0.5", amplitude="0.2").replace(
        "[initial]\n", f"[initial]\nkind = snapshot\n"
                       f"density_snapshot = {missing}\n")
    assert main([command, "--config", write(tmp_path, text),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "density_snapshot" in err and missing in err


# -- run -----------------------------------------------------------------------


def test_run_zero_data_writes_trivial_bundle(tmp_path, capsys):
    cfg = write(tmp_path, BASE.format(beta="0.5", amplitude="0.0"))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 0
    assert "run complete" in capsys.readouterr().out

    summary = read_summary(out_dir)
    assert summary["picard"]["iterations"] == 1
    assert summary["ledger"]["c0"] == 1.0
    assert summary["ledger"]["sup_u_h3"] == 0.0
    assert summary["validity"]["t_valid"] == 0.005
    assert summary["conservation"]["mass_drift"] == 0.0
    for name in ["resolved_config.ini", "ledger.csv", "continuation.csv",
                 "picard_trace.csv", "characteristics.csv", "summary.json",
                 "manifest.json"]:
        assert (out_dir / name).is_file()


def test_run_bundle_manifest_hashes_verify(tmp_path):
    cfg = write(tmp_path, BASE.format(beta="0.5", amplitude="0.2"))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir),
                 "--snapshots"]) == 0
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert "final_density.snap" in manifest["files"]
    for name, digest in manifest["files"].items():
        payload = (out_dir / name).read_bytes()
        assert hashlib.sha256(payload).hexdigest() == digest


def test_run_is_byte_identical_on_rerun(tmp_path):
    cfg = write(tmp_path, BASE.format(beta="0.5", amplitude="0.2"))
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out_dir in (first, second):
        assert main(["run", "--config", cfg, "--out", str(out_dir),
                     "--snapshots", "--seed", "7"]) == 0
    with open(first / "manifest.json", encoding="utf-8") as fh:
        names = list(json.load(fh)["files"]) + ["manifest.json"]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_run_reports_solver_failure(tmp_path, capsys):
    text = BASE.format(beta="0.5", amplitude="0.2")
    text += "picard_tol = 1e-30\nmax_iter = 1\n"
    cfg = write(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 2
    assert "solver failure" in capsys.readouterr().err
    with open(out_dir / "failure.json", encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["phase"] == "continuation level 0"
    assert "no convergence" in record["detail"]
    assert "stopped as max_iter" in record["detail"]


def test_a_lost_level_process_is_a_solver_failure(tmp_path, capsys,
                                                  monkeypatch):
    cfg = write(tmp_path, BASE.format(beta="0.5", amplitude="0.2"))
    lost_eta = vacflow.runconfig.load_config(cfg).schedule().levels()[1]
    parent = os.getpid()
    solve = vacflow.fixedpoint.picard_solve

    def exit_at_level_one(init, params, eta, *args, **kwargs):
        if eta == lost_eta and os.getpid() != parent:
            os._exit(3)
        return solve(init, params, eta, *args, **kwargs)

    monkeypatch.setattr(vacflow.fixedpoint, "picard_solve", exit_at_level_one)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out_dir)]) == 2
    assert "solver failure" in capsys.readouterr().err
    record = json.loads((out_dir / "failure.json").read_text())
    assert record["phase"] == "continuation level 1"
    assert record["detail"].endswith(
        "level 1 ended without a result (exit code 3)")


def test_forked_diagnostics_equal_in_process_diagnostics(tmp_path,
                                                          monkeypatch):
    cfg = vacflow.runconfig.load_config(
        write(tmp_path, BASE.format(beta="0.5", amplitude="0.2")))
    ran = tmp_path / "ran"
    ran.mkdir()

    def logged(fn):
        def wrapper(*args, **kwargs):
            (ran / fn.__name__).write_text(str(os.getpid()))
            return fn(*args, **kwargs)
        return wrapper

    for name in ("ledger", "nonlinear_residual"):
        monkeypatch.setattr(vacflow.cli, name, logged(getattr(vacflow.cli, name)))
    forked, serial = tmp_path / "forked", tmp_path / "serial"
    run_pipeline(cfg, str(forked), 7, True)
    pids = {path.name: int(path.read_text()) for path in ran.iterdir()}
    assert set(pids) == {"ledger", "nonlinear_residual"}
    assert os.getpid() not in pids.values()
    assert pids["ledger"] != pids["nonlinear_residual"]

    monkeypatch.delattr(os, "fork")
    run_pipeline(cfg, str(serial), 7, True)
    assert {int(path.read_text()) for path in ran.iterdir()} == {os.getpid()}
    names = sorted(os.listdir(forked))
    assert names == sorted(os.listdir(serial)) and "manifest.json" in names
    for name in names:
        assert (forked / name).read_bytes() == (serial / name).read_bytes()


def test_a_lost_diagnostics_process_is_a_solver_failure(tmp_path, capsys,
                                                        monkeypatch):
    parent = os.getpid()

    def exits(*args, **kwargs):
        assert os.getpid() != parent
        os._exit(3)

    monkeypatch.setattr(vacflow.cli, "nonlinear_residual", exits)
    text = BASE.format(beta="0.5", amplitude="0.2")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, text),
                 "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solver failure") and err.count("\n") == 1
    record = json.loads((out_dir / "failure.json").read_text())
    assert record == {"phase": "diagnostics", "time": None,
                      "detail": "residual ended without a result (exit code 3)"}

    text += "\n[sweep]\namplitude_scales = 1\n"
    sweep_dir = tmp_path / "sw"
    assert main(["sweep", "--config", write(tmp_path, text, "sweep.ini"),
                 "--out", str(sweep_dir)]) == 0
    rows = (sweep_dir / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].split(",")[2] == "failed"
    assert "exit code 3" in rows[1]


def test_a_lost_manifest_child_is_a_solver_failure(tmp_path, capsys,
                                                  monkeypatch):
    parent = os.getpid()

    def exits(path):
        assert os.getpid() != parent
        os._exit(3)

    monkeypatch.setattr(vacflow.cli, "_sha256", exits)
    cfg = write(tmp_path, BASE.format(beta="0.5", amplitude="0.2"))
    lost = "manifest ended without a result (exit code 3)"
    out_dir = tmp_path / "out"
    with pytest.raises(vacflow.fixedpoint.LostChild) as err:
        run_pipeline(vacflow.runconfig.load_config(cfg), str(out_dir), 7, False)
    assert str(err.value) == lost
    record = json.loads((out_dir / "failure.json").read_text())
    assert record == {"phase": "manifest", "time": None, "detail": lost}
    assert not (out_dir / "manifest.json").exists()

    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solver failure") and lost in err


def test_nonfinite_transport_stage_is_a_solver_failure(tmp_path, capsys,
                                                       monkeypatch):
    monkeypatch.setattr("vacflow.linearized._transport_rhs",
                        lambda grid, *args: np.full(grid.spectral_shape, np.nan))
    text = BASE.format(beta="0.5", amplitude="0.2")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", write(tmp_path, text),
                 "--out", str(out_dir)]) == 2
    assert "solution lost finiteness" in capsys.readouterr().err
    with open(out_dir / "failure.json", encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["phase"] == "continuation level 0"

    text += "\n[sweep]\namplitude_scales = 1\n"
    sweep_dir = tmp_path / "sw"
    assert main(["sweep", "--config", write(tmp_path, text, "sweep.ini"),
                 "--out", str(sweep_dir)]) == 0
    rows = (sweep_dir / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[1].split(",")[2] == "failed"


@pytest.mark.parametrize("command", ["validate", "run", "mms",
                                     "oracle-compare"])
def test_a_violated_constraint_is_reported_as_one(tmp_path, capsys, command):
    text = BASE.format(beta="0.5", amplitude="0.2")
    cfg = write(tmp_path, text.replace("delta1 = 1.5", "delta1 = 0.5"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: parameter constraint violated: delta1 > 1")


def test_run_rejects_bad_constants(tmp_path, capsys):
    text = BASE.format(beta="0.5", amplitude="0.2")
    for old, new, message in (
            ("alpha = 1.0", "alpha = 0.0", "constraint"),
            # a bump wider than a quarter of the box
            ("width = 0.8", "width = 2.0", "initial data")):
        cfg = write(tmp_path, text.replace(old, new))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_a_picard_tol_that_is_not_positive_and_finite_is_rejected(
        tmp_path, capsys, value):
    text = BASE.format(beta="0.5", amplitude="0.2") + f"picard_tol = {value}\n"
    cfg = write(tmp_path, text)
    with pytest.raises(vacflow.runconfig.ConfigError, match="picard_tol"):
        vacflow.runconfig.load_config(cfg)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "picard_tol must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_calib_C_that_is_not_finite_is_rejected(tmp_path, capsys, command,
                                                   value):
    text = BASE.format(beta="0.5", amplitude="0.2").replace(
        "beta = 0.5", f"beta = 0.5\ncalib_C = {value}")
    cfg = write(tmp_path, text)
    with pytest.raises(vacflow.runconfig.ConfigError, match="calib_C"):
        vacflow.runconfig.load_config(cfg)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "calib_C must be >= 1 and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_a_sweep_scale_that_is_not_finite_is_rejected(tmp_path, capsys,
                                                      command):
    # refused with the config, before any row runs or gets a directory
    text = (BASE.format(beta="0.5", amplitude="0.2")
            + "\n[sweep]\namplitude_scales = 1, inf\n")
    cfg = write(tmp_path, text)
    with pytest.raises(vacflow.runconfig.ConfigError, match="amplitude_scales"):
        vacflow.runconfig.load_config(cfg)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert ("amplitude_scales entries must be positive and finite"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_center_that_is_not_finite_is_rejected(tmp_path, capsys, command):
    text = BASE.format(beta="0.5", amplitude="0.2").replace(
        "width = 0.8", "width = 0.8\ncenter = nan")
    cfg = write(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "center must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("edits, message", [
    ({"delta1 = 1.5": "delta1 = 2.0", "delta2 = 2.5": "delta2 = 3.0"},
     "parameter constraint violated"),
    ({"beta = 0.5": "beta = -1.0", "amplitude = 0.2": "amplitude = 0.5"},
     "initial data violates the density cap"),
], ids=["parameters", "density-cap"])
def test_a_refused_run_creates_no_output_directory(tmp_path, capsys, edits,
                                                   message):
    text = BASE.format(beta="0.5", amplitude="0.2")
    for old, new in edits.items():
        text = text.replace(old, new)
    out_dir = tmp_path / "o" / "nested"
    assert main(["run", "--config", write(tmp_path, text),
                 "--out", str(out_dir)]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", ["run", "validate"])
def test_a_t_window_that_is_not_positive_and_finite_is_rejected(
        tmp_path, capsys, command, value):
    text = BASE.format(beta="0.5", amplitude="0.2").replace(
        "t_window = 0.005", f"t_window = {value}")
    cfg = write(tmp_path, text)
    with pytest.raises(vacflow.runconfig.ConfigError, match="t_window"):
        vacflow.runconfig.load_config(cfg)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "t_window must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "validate"])
def test_the_density_is_built_and_the_constants_validated_once(
        tmp_path, monkeypatch, command):
    calls = {"bump_density": 0, "validate_params": 0}

    def counted(name):
        fn = getattr(vacflow.runconfig, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(vacflow.runconfig, name, wrapper)

    for name in calls:
        counted(name)
    cfg = write(tmp_path, BASE.format(beta="0.5", amplitude="0.2"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == {"bump_density": 1, "validate_params": 1}


@pytest.mark.parametrize("argv", [
    ["validate", "--workers", "2"],
    ["run", "--workers", "2"],
    ["oracle-compare", "--workers", "2"],
    ["sweep", "--workers", "2"],
    ["validate", "--snapshots"],
    ["oracle-compare", "--snapshots"],
], ids=" ".join)
def test_a_flag_only_another_subcommand_reads_is_a_usage_error(
        tmp_path, capsys, argv):
    cfg = write(tmp_path, BASE.format(beta="0.5", amplitude="0.2"))
    with pytest.raises(SystemExit) as err:
        main(argv[:1] + ["--config", cfg, "--out", str(tmp_path)] + argv[1:])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- sweep ---------------------------------------------------------------------


def test_sweep_flags_rejected_rows(tmp_path, capsys):
    text = BASE.format(beta="-1.0", amplitude="0.2")
    text += "\n[sweep]\namplitude_scales = 1, 2\n"
    cfg = write(tmp_path, text)
    out_dir = tmp_path / "sw"
    assert main(["sweep", "--config", cfg, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "1 rejected" in out
    assert "warning: 1 row(s) rejected" in out

    rows = (out_dir / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[1].split(",")[2] == "ok"
    assert rows[2].split(",")[2] == "rejected"
    assert "density cap" in rows[2]
    assert (out_dir / "row_00_scale_1" / "summary.json").is_file()
    assert not (out_dir / "row_01_scale_2").exists()


def test_a_sweep_row_that_cannot_write_its_bundle_fails_and_the_sweep_goes_on(
        tmp_path, capsys):
    text = BASE.format(beta="0.5", amplitude="0.2")
    text += "\n[sweep]\namplitude_scales = 1, 0.5\n"
    out_dir = tmp_path / "sw"
    out_dir.mkdir()
    (out_dir / "row_00_scale_1").write_text("a file where the row's bundle goes")
    assert main(["sweep", "--config", write(tmp_path, text),
                 "--out", str(out_dir)]) == 0
    assert "0 rejected, 1 failed" in capsys.readouterr().out
    rows = (out_dir / "sweep.csv").read_text().splitlines()
    assert [row.split(",")[2] for row in rows[1:]] == ["failed", "ok"]
    assert "cannot write bundle: " in rows[1]
    assert (out_dir / "row_01_scale_0.5" / "summary.json").is_file()


def test_a_sweep_table_that_cannot_be_written_exits_three(tmp_path, capsys):
    # beta = -1 caps the density below this bump, so the row is refused fast
    text = BASE.format(beta="-1.0", amplitude="0.5")
    out_dir = tmp_path / "sw"
    (out_dir / "sweep.csv").mkdir(parents=True)
    assert main(["sweep", "--config", write(tmp_path, text),
                 "--out", str(out_dir)]) == 3
    assert "error: cannot write sweep table: " in capsys.readouterr().err


def test_sweep_honours_snapshots_in_the_config(tmp_path):
    text = BASE.format(beta="0.5", amplitude="0.2")
    text += "\n[output]\nsnapshots = true\n\n[sweep]\namplitude_scales = 1\n"
    out_dir = tmp_path / "sw"
    assert main(["sweep", "--config", write(tmp_path, text),
                 "--out", str(out_dir)]) == 0
    row_dir = out_dir / "row_00_scale_1"
    manifest = json.loads((row_dir / "manifest.json").read_text())
    for name in ("final_density.snap", "final_velocity.snap"):
        assert (row_dir / name).is_file()
        assert name in manifest["files"]


# -- oracle-compare ------------------------------------------------------------


POSITIVE = """[params]
A = 1.0
gamma = 2.0
alpha = 1.0
beta = 0.5
delta1 = 1.5
delta2 = 2.5

[grid]
dim = 1
n = 64
length = 6.283185307179586

[initial]
amplitude = 0.2
width = 0.8
background = 1.0

[solver]
t_window = 0.005
cadence = 8
picard_tol = 1e-12
"""


def test_oracle_compare_within_gate(tmp_path, capsys):
    cfg = write(tmp_path, POSITIVE)
    assert main(["oracle-compare", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "sup distance" in out
    assert out.rstrip().endswith("ok")


@pytest.mark.parametrize("target, nan_out", [
    # the oracle's own RK4
    ("vacflow.oracle.primitive_rates",
     lambda grid, params, rho, mom, u: (np.full_like(rho, np.nan),
                                        np.full_like(mom, np.nan))),
    # the Picard solve inside cross_compare
    ("vacflow.linearized._transport_rhs",
     lambda grid, *args: np.full(grid.spectral_shape, np.nan)),
])
def test_oracle_compare_nonfinite_state_is_a_solver_failure(
        tmp_path, capsys, monkeypatch, target, nan_out):
    monkeypatch.setattr(target, nan_out)
    cfg = write(tmp_path, POSITIVE)
    assert main(["oracle-compare", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "solver failure" in err
    assert "solution lost finiteness" in err


def test_oracle_compare_lost_solver_is_a_solver_failure(tmp_path, capsys,
                                                       monkeypatch):
    parent = os.getpid()

    def exits(*args, **kwargs):
        assert os.getpid() != parent
        os._exit(3)

    monkeypatch.setattr("vacflow.oracle.picard_solve", exits)
    assert main(["oracle-compare", "--config", write(tmp_path, POSITIVE)]) == 2
    assert "solver failure" in capsys.readouterr().err


def test_oracle_compare_refuses_data_above_the_density_cap(tmp_path, capsys):
    # beta = -0.5 caps the density at 2/3; the bump rises to about 1.2
    text = POSITIVE.replace("beta = 0.5", "beta = -0.5")
    text = text.replace("amplitude = 0.2", "amplitude = 1.0")
    text = text.replace("background = 1.0", "background = 0.2")
    assert main(["oracle-compare", "--config", write(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert "initial data violates the density cap" in err
    assert err.count("\n") == 1


def test_oracle_compare_refuses_vacuum(tmp_path, capsys):
    cfg = write(tmp_path, POSITIVE.replace("background = 1.0\n", ""))
    assert main(["oracle-compare", "--config", cfg]) == 1
    assert "min rho" in capsys.readouterr().err


# -- mms -----------------------------------------------------------------------


def test_mms_targets_pass_with_defaults(capsys):
    assert main(["mms"]) == 0
    out = capsys.readouterr().out
    assert "all mms targets met" in out
    assert "observed orders" in out


def test_mms_rejects_bad_config(tmp_path, capsys):
    text = BASE.format(beta="0.5", amplitude="0.2")
    cfg = write(tmp_path, text.replace("alpha = 1.0", "alpha = 0.0"))
    assert main(["mms", "--config", cfg]) == 1
    assert "constraint" in capsys.readouterr().err


def test_mms_outside_the_coefficient_regime_is_a_solver_failure(tmp_path,
                                                                capsys):
    # beta = -0.5 takes alpha + beta vphi^(2m) below alpha/2 on the
    # manufactured fields at once
    cfg = write(tmp_path, BASE.format(beta="-0.5", amplitude="0.2"))
    assert main(["mms", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "solver failure: ellipticity regime exit" in err
    assert "Traceback" not in err


# -- benchmark harness ---------------------------------------------------------


def test_perfbench_selftests_pass():
    # perfbench/run.py refuses to measure when one of them fails, and they
    # look vacflow names up by module (vacflow.linearized.advect among them)
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("command, workload", [
    ("run", "run-1d"),
    ("oracle-compare", "oracle-3d"),
])
def test_perfbench_trace_mode_runs_the_workloads(tmp_path, command, workload):
    # trace mode wraps every layer, in the forked solves too, and its hooks
    # read what the steppers and the solves return: a changed return layout
    # fails the traced run
    root = Path(__file__).resolve().parents[1]
    record_path = tmp_path / "record.json"
    argv = [sys.executable, "perfbench/child.py", "trace", str(record_path),
            "--", command, "--config", f"perfbench/configs/{workload}.ini",
            "--seed", "101"]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(record_path.read_text())
    assert record["exit_code"] == 0


@pytest.mark.parametrize("command, workload", [
    ("run", "run-1d"),
    ("oracle-compare", "oracle-3d"),
])
@pytest.mark.parametrize("mode", ["probe", "time"])
def test_perfbench_stamps_setup_in_the_parent(tmp_path, command, workload,
                                              mode):
    # the benchmark's setup_s is the clock at the first call into the
    # fixedpoint layer; that call must happen in the process it stamps, not
    # in a child that solves one of the independent jobs
    root = Path(__file__).resolve().parents[1]
    record_path = tmp_path / "record.json"
    argv = [sys.executable, "perfbench/child.py", mode, str(record_path), "--",
            command, "--config", f"perfbench/configs/{workload}.ini",
            "--seed", "101"]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(record_path.read_text())
    assert record["exit_code"] == 0
    assert "setup_clock" in record
