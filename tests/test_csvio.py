import numpy as np
import pytest

import fecapsim as fc
from fecapsim import csvio
from fecapsim.montecarlo import McDistribution, ScenarioSpec
from fecapsim.solver import SolveStats, TimeSeries
from fecapsim.waveform import hold


def make_timeseries(n=5, seed=0):
    rng = np.random.default_rng(seed)
    cols = {name: rng.uniform(-1, 1, n)
            for name in ("v_appl", "i", "p", "pol", "v_fe", "v_int",
                         "phi_depl", "j_pf", "j_fn", "j_pol",
                         "loop_residual", "kcl_residual")}
    return TimeSeries(t=np.linspace(0, 1e-3, n), **cols)


def test_timeseries_header_contract(tmp_path):
    path = tmp_path / "ts.csv"
    csvio.timeseries_csv(make_timeseries(), path)
    first = path.read_text().splitlines()[0]
    assert first == "t_s,V_appl_V,I_A,p,P_uC_cm2,V_fe_V,V_int_V,phi_depl_V,J_pf_A_cm2,J_fn_A_cm2"


def test_empty_timeseries_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    csvio.timeseries_csv(make_timeseries(0), path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1


def test_round_trip_relative_error(tmp_path):
    # 9 significant decimal digits quantize at <= 5e-9 relative (leading
    # digit 1); that is the attainable round-trip bound for this format
    ts = make_timeseries(50, seed=3)
    path = tmp_path / "ts.csv"
    csvio.timeseries_csv(ts, path)
    header, data = csvio.read_csv(path)
    assert data.shape == (50, 10)
    # paper units back to SI, column by column
    to_si = [("t", 1.0), ("v_appl", 1.0), ("i", 1.0), ("p", 1.0), ("pol", 1e-2),
             ("v_fe", 1.0), ("v_int", 1.0), ("phi_depl", 1.0), ("j_pf", 1e4),
             ("j_fn", 1e4)]
    for j, (name, scale) in enumerate(to_si):
        np.testing.assert_allclose(data[:, j] * scale, getattr(ts, name), rtol=5e-9,
                                   err_msg=header[j])


def test_real_run_round_trip(tmp_path):
    p = fc.DeviceParams()
    ts = fc.run_transient(p, hold(1.0, 1e-5), fc.SolverConfig(dt=1e-6))
    path = tmp_path / "run.csv"
    csvio.timeseries_csv(ts, path)
    _, data = csvio.read_csv(path)
    np.testing.assert_allclose(data[:, 3], ts.p, rtol=5e-9, atol=1e-300)


def test_hysteresis_files(tmp_path):
    p = fc.DeviceParams()
    res = fc.hysteresis(p, 3.0, 1e3, 2, cfg=fc.SolverConfig(dt=4e-6))
    csvio.hysteresis_loop_csv(res, tmp_path / "loop.csv")
    csvio.hysteresis_summary_csv(res, tmp_path / "summary.csv")
    csvio.displacement_csv(res, tmp_path / "disp.csv")
    header, data = csvio.read_csv(tmp_path / "summary.csv")
    assert header == ["pr_pos_uC_cm2", "pr_neg_uC_cm2", "vc_pos_V", "vc_neg_V",
                      "closure_rms"]
    assert data[0, 0] == pytest.approx(res.pr_pos * 1e2, rel=1e-9)
    _, loop = csvio.read_csv(tmp_path / "loop.csv")
    assert loop.shape[1] == 2


def test_kinetics_csv(tmp_path):
    pts = [fc.KineticsPoint(1.0, 1e-6, 0.1), fc.KineticsPoint(2.0, 1e-5, 0.3)]
    csvio.kinetics_csv(pts, tmp_path / "k.csv")
    header, data = csvio.read_csv(tmp_path / "k.csv")
    assert header == ["amplitude_V", "width_s", "delta_p_uC_cm2"]
    assert data[1, 2] == pytest.approx(30.0)


def test_mc_csvs(tmp_path):
    p = fc.DeviceParams()
    spec = ScenarioSpec("hysteresis", n_cycles=2, dt=4e-6)
    res = fc.run_mc(spec, p, McDistribution.table_21c(), 3, seed=1)
    csvio.mc_trials_csv(res, tmp_path / "trials.csv")
    csvio.mc_aggregate_csv(res, tmp_path / "agg.csv")
    csvio.mc_histogram_csv(res, tmp_path / "hist.csv")
    header, data = csvio.read_csv(tmp_path / "trials.csv")
    assert data.shape[0] == 3
    assert header[0] == "trial" and header[1] == "failed"
    with open(tmp_path / "agg.csv") as fh:
        agg_lines = fh.read().splitlines()
    assert agg_lines[0] == "output,mean,std"
    assert any(ln.startswith("pr_pos,") for ln in agg_lines)


def test_bench_csv(tmp_path):
    p = fc.DeviceParams().replace(area=25e-12)
    rep = fc.run_array_bench(p, [4], chunk=4)
    csvio.bench_csv(rep, tmp_path / "bench.csv")
    header, data = csvio.read_csv(tmp_path / "bench.csv")
    assert header == ["size", "wall_s", "steps", "newton_iters", "failures"]
    assert data[0, 0] == 4


def test_deterministic_output(tmp_path):
    ts = make_timeseries(20, seed=9)
    csvio.timeseries_csv(ts, tmp_path / "a.csv")
    csvio.timeseries_csv(ts, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
