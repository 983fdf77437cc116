import subprocess
import sys
from pathlib import Path

import pytest

from fecapsim.cli import _DISPLAY_UNITS
from fecapsim.params import PARAM_FIELDS, DeviceParams
from fecapsim.scenario import DEVICE_KEYS
from fecapsim.units import UNITS, from_si


def run_cli(*args):
    cmd = [sys.executable, "-m", "fecapsim", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "fecap-sim" in cp.stdout


def test_defaults_prints_tables():
    cp = run_cli("defaults")
    assert cp.returncode == 0
    assert "P_s" in cp.stdout
    assert "27 uC/cm2" in cp.stdout
    assert "85C" in cp.stdout
    # Every device field once, in field order, in its quantity's display unit.
    device = cp.stdout.split("\n\n")[0].splitlines()[1:]
    assert [line.split()[0] for line in device] == list(PARAM_FIELDS)
    for line in device:
        name, _, value, unit = line.split()
        quantity = DEVICE_KEYS[name]
        assert unit == _DISPLAY_UNITS[quantity] and unit in UNITS[quantity]
        assert value == f"{from_si(getattr(DeviceParams(), name), unit):.6g}"


def test_unknown_command_exit_1():
    cp = run_cli("frobnicate")
    assert cp.returncode == 1
    assert "error" in cp.stderr.lower()


def test_iv_run(tmp_path):
    cp = run_cli("iv", "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "iv.csv").exists()
    assert (tmp_path / "run_manifest.txt").exists()
    manifest = (tmp_path / "run_manifest.txt").read_text()
    assert "kind = iv" in manifest
    # Only mc reads a seed, so only its manifest records one.
    assert "seed:" not in manifest


def test_hysteresis_run_with_scenario(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text(
        "[scenario]\nkind = hysteresis\n"
        "[drive]\namplitude = 3 V\nfrequency = 1 kHz\ncycles = 2\n"
        "[solver]\ndt = 5 us\n"
    )
    cp = run_cli("hysteresis", "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    for name in ("hysteresis_loop.csv", "hysteresis_summary.csv",
                 "hysteresis_displacement.csv", "hysteresis_timeseries.csv"):
        assert (tmp_path / name).exists()


def test_parse_error_exit_1(tmp_path):
    scen = tmp_path / "bad.cfg"
    scen.write_text("[device]\nt_fe = -1 nm\n")
    cp = run_cli("iv", "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 1
    assert "t_fe" in cp.stderr


def assert_clean_usage_error(cp):
    assert cp.returncode == 1
    assert any(line.startswith("error:") for line in cp.stderr.splitlines())
    assert "Traceback" not in cp.stderr


def test_negative_dt_override_exit_1(tmp_path):
    cp = run_cli("hysteresis", "--dt", "-1", "--out", str(tmp_path))
    assert_clean_usage_error(cp)
    assert "dt" in cp.stderr


def test_nonfinite_dt_override_exit_1(tmp_path):
    for value in ("nan", "inf"):
        cp = run_cli("hysteresis", "--dt", value, "--out", str(tmp_path))
        assert_clean_usage_error(cp)
        assert "dt" in cp.stderr
    assert not (tmp_path / "hysteresis_loop.csv").exists()

def test_iv_dt_override_exit_1(tmp_path):
    cp = run_cli("iv", "--dt", "1e-6", "--out", str(tmp_path))
    assert_clean_usage_error(cp)
    assert "--dt: kind iv integrates no transient" in cp.stderr
    assert not (tmp_path / "iv.csv").exists()


def test_zero_workers_exit_1(tmp_path):
    cp = run_cli("mc", "--workers", "0", "--out", str(tmp_path))
    assert_clean_usage_error(cp)
    assert "--workers" in cp.stderr


def test_bench_zero_size_exit_1(tmp_path):
    scen = tmp_path / "scen.cfg"
    for text in ("[drive]\nchunk = 4\nsizes = 4, 0\n",
                 "[drive]\nsizes = 4\nchunk = 0\n",
                 "[drive]\nchunk = 4\nsizes = 4, 2.5\n"):
        scen.write_text(text)
        cp = run_cli("bench", "--scenario", str(scen), "--out", str(tmp_path))
        assert_clean_usage_error(cp)
        assert "line 3" in cp.stderr


@pytest.mark.parametrize("kind, drive", [
    ("hysteresis", "amplitude = nan V"),
    ("hysteresis", "frequency = inf Hz"),
    ("hysteresis", "frequency = 0 Hz"),
    ("hysteresis", "frequency = -1 kHz"),
    ("hysteresis", "cycles = 1"),
    ("program", "pulses = 0"),
    ("program", "width = -1 us"),
    ("transient", "times = 0, 1e-6, 0.5e-6 s\nvalues = 0, 1, 0 V"),
    ("transient", "values = 0, nan"),
    ("transient", "mode = dc"),
    ("kinetics", "widths = us"),
    ("bench", "t_total = 5 us\nwidth = 10 us"),
    # Keys a Monte-Carlo trial does not read.
    ("mc", "discharge = false\n[mc]\nscenario = program\ntrials = 2"),
    ("mc", "preset = 3 V\n[mc]\nscenario = kinetics\ntrials = 2"),
    ("mc", "amplitudes = 1.5, 3.0\n[mc]\nscenario = kinetics\ntrials = 2"),
])
def test_bad_drive_value_exit_1(tmp_path, kind, drive):
    scen = tmp_path / "scen.cfg"
    scen.write_text(f"[drive]\n{drive}\n")
    cp = run_cli(kind, "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 1
    assert cp.stderr.startswith("error: line 2: ")
    assert "Traceback" not in cp.stderr
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("mc", [
    "trials = 0",
    "t_int_sigma = -0.1 nm",
    "P_s_mean = -5 uC/cm2",
    "N_depl_mean = 0 cm-3",
    "d_e_mean = -1 nm",
    "seed = -1",
])
def test_bad_mc_value_exit_1(tmp_path, mc):
    scen = tmp_path / "scen.cfg"
    scen.write_text(f"[mc]\n{mc}\n")
    cp = run_cli("mc", "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 1
    assert cp.stderr.startswith("error: line 2: ")
    assert "Traceback" not in cp.stderr


def test_mc_solver_key_other_than_dt_exit_1(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text("[solver]\nmax_newton_iters = 1\nmax_step_halvings = 0\n"
                    "[mc]\nscenario = kinetics\ntrials = 2\n")
    cp = run_cli("mc", "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 1
    assert cp.stderr.startswith("error: line 2: ")
    assert not (tmp_path / "mc_trials.csv").exists()


@pytest.mark.parametrize("kind, solver", [
    ("iv", "max_newton_iters = 3"),
    ("kinetics", "record_every = 5"),
    ("bench", "record_every = 5"),
])
def test_solver_key_the_run_does_not_read_exit_1(tmp_path, kind, solver):
    scen = tmp_path / "scen.cfg"
    scen.write_text(f"[solver]\n{solver}\n[drive]\n"
                    + ("widths = 1 us\n" if kind == "kinetics" else "")
                    + ("sizes = 4\nchunk = 4\n" if kind == "bench" else ""))
    cp = run_cli(kind, "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 1
    assert cp.stderr.startswith("error: line 2: unknown key")
    assert not list(tmp_path.glob("*.csv"))


def test_mc_section_outside_mc_exit_1(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text("[mc]\ntrials = 5\n")
    cp = run_cli("hysteresis", "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 1
    assert cp.stderr.startswith(
        "error: line 2: unknown key 'trials' in [mc] for kind 'hysteresis'")
    assert not list(tmp_path.glob("*.csv"))


def test_negative_seed_override_exit_1(tmp_path):
    cp = run_cli("mc", "--seed", "-5", "--out", str(tmp_path))
    assert_clean_usage_error(cp)
    assert "--seed" in cp.stderr


def test_kind_mismatch_exit_1(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text("[scenario]\nkind = hysteresis\n")
    cp = run_cli("iv", "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 1


def test_solver_failure_exit_2(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text(
        "[scenario]\nkind = transient\n"
        "[drive]\nmode = voltage\ntimes = 0, 1 us\nvalues = 0, 3 V\n"
        "[solver]\ndt = 1 us\nnewton_tol_v = 1e-15 mV\nmax_newton_iters = 2\n"
        "max_step_halvings = 0\n"
    )
    cp = run_cli("transient", "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 2
    assert "solver failure" in cp.stderr


def test_io_failure_exit_3(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cp = run_cli("iv", "--out", str(blocker / "sub"))
    assert cp.returncode == 3


def test_mc_run(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text(
        "[scenario]\nkind = mc\n"
        "[mc]\nscenario = hysteresis\ntrials = 3\nseed = 5\n"
        "[drive]\namplitude = 3 V\nfrequency = 1 kHz\ncycles = 2\n"
        "[solver]\ndt = 5 us\n"
    )
    cp = run_cli("mc", "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    for name in ("mc_trials.csv", "mc_aggregate.csv", "mc_histogram.csv"):
        assert (tmp_path / name).exists()


def test_mc_workers_write_the_same_csv(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text(
        "[mc]\nscenario = hysteresis\ntrials = 12\nseed = 5\n"
        "[drive]\namplitude = 3 V\nfrequency = 1 kHz\ncycles = 2\n"
        "[solver]\ndt = 5 us\n"
    )
    names = ("mc_trials.csv", "mc_aggregate.csv", "mc_histogram.csv")
    written = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        cp = run_cli("mc", "--scenario", str(scen), "--out", str(out),
                     "--workers", workers)
        assert cp.returncode == 0, cp.stderr
        written.append([(out / name).read_bytes() for name in names])
    assert written[0] == written[1]


def test_bench_workers_match_but_wall_time(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text("[device]\narea = 25 um2\n[drive]\nsizes = 5, 40\nchunk = 16\n")
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / workers
        cp = run_cli("bench", "--scenario", str(scen), "--out", str(out),
                     "--workers", workers)
        assert cp.returncode == 0, cp.stderr
        lines = (out / "bench.csv").read_text().splitlines()
        header = lines[0].split(",")
        wall = header.index("wall_s")
        tables.append([[v for j, v in enumerate(line.split(",")) if j != wall]
                       for line in lines])
    assert tables[0] == tables[1]
    assert len(tables[0]) == 3


def test_seed_override_changes_manifest(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text("[mc]\nscenario = kinetics\ntrials = 2\n[drive]\nwidths = 1 us\n")
    cp = run_cli("mc", "--scenario", str(scen), "--out", str(tmp_path), "--seed", "424242")
    assert cp.returncode == 0, cp.stderr
    assert "seed: 424242" in (tmp_path / "run_manifest.txt").read_text()


@pytest.mark.parametrize("args", [
    ("hysteresis", "--seed", "7"),
    ("iv", "--workers", "2"),
    ("bench", "--seed", "7"),
])
def test_flag_the_subcommand_does_not_read_exit_1(tmp_path, args):
    cp = run_cli(*args, "--out", str(tmp_path))
    assert_clean_usage_error(cp)
    assert args[1] in cp.stderr
    assert not list(tmp_path.iterdir())


def test_bench_tiny(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text("[drive]\nsizes = 4\nchunk = 4\n")
    cp = run_cli("bench", "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "bench.csv").exists()
    assert "size" in cp.stdout


def test_program_run(tmp_path):
    scen = tmp_path / "scen.cfg"
    scen.write_text(
        "[device]\narea = 25 um2\n"
        "[drive]\ncurrent = 250 nA\nwidth = 10 us\npulses = 2\n"
        "[solver]\ndt = 0.5 us\n"
    )
    cp = run_cli("program", "--scenario", str(scen), "--out", str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    assert (tmp_path / "program.csv").exists()
