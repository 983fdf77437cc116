import subprocess
import sys
from pathlib import Path


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
    assert "seed:" in manifest


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

def test_zero_workers_exit_1(tmp_path):
    cp = run_cli("mc", "--workers", "0", "--out", str(tmp_path))
    assert_clean_usage_error(cp)
    assert "--workers" in cp.stderr


def test_bench_zero_size_exit_1(tmp_path):
    scen = tmp_path / "scen.cfg"
    for text in ("[drive]\nchunk = 4\nsizes = 4, 0\n",
                 "[drive]\nsizes = 4\nchunk = 0\n"):
        scen.write_text(text)
        cp = run_cli("bench", "--scenario", str(scen), "--out", str(tmp_path))
        assert_clean_usage_error(cp)
        assert "line 3" in cp.stderr


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


def test_seed_override_changes_manifest(tmp_path):
    cp = run_cli("iv", "--out", str(tmp_path), "--seed", "424242")
    assert cp.returncode == 0
    assert "seed: 424242" in (tmp_path / "run_manifest.txt").read_text()


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
