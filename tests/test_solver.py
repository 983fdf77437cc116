import numpy as np
import pytest

import fecapsim as fc
from fecapsim.arraybench import bench_waveform
from fecapsim.params import ParamsBatch
from fecapsim.solver import SolveStats, run_transient_batch
from fecapsim.waveform import CURRENT, from_segments, hold, rect_pulse, triangle


@pytest.fixture
def params():
    return fc.DeviceParams()


def test_zero_drive_equilibrium_stays_zero():
    # symmetric device preset to p = 0.5: nothing moves
    p = fc.DeviceParams(E_off=0.0)
    cfg = fc.SolverConfig(dt=1e-6, p_init=0.5)
    ts = fc.run_transient(p, hold(0.0, 1e-4), cfg)
    assert np.abs(ts.v_fe).max() < 1e-12
    assert np.abs(ts.v_int).max() < 1e-12
    assert np.abs(ts.i).max() < 1e-15
    assert np.all(ts.p == 0.5)


def test_initial_state_satisfies_loop(params):
    cfg = fc.SolverConfig(dt=1e-6, p_init=0.0)
    ts = fc.run_transient(params, hold(0.0, 1e-5), cfg)
    assert abs(ts.loop_residual[0]) < 1e-9
    # preset-down polarization leaves a positive depolarizing field on the
    # ferroelectric at zero bias
    assert ts.v_fe[0] > 0.1
    assert ts.v_int[0] == 0.0


def test_pure_capacitive_series_identity():
    # negligible polarization and leakage: series capacitor charge equality
    p = fc.DeviceParams(P_s=1e-30, N_fe=1e-6, mu_fe=1e-12, phi_b_int=3.0,
                        E_off=0.0)
    cfg = fc.SolverConfig(dt=1e-6, p_init=0.5)
    wf = from_segments("voltage", [(1e-4, 1.0)])
    ts = fc.run_transient(p, wf, cfg)
    c_fe = fc.c_layer(p.eps_fe, p.t_fe)
    c_int = fc.c_layer(p.eps_int, p.t_int)
    dv_fe = ts.v_fe[-1] - ts.v_fe[0]
    dv_int = ts.v_int[-1] - ts.v_int[0]
    assert dv_fe > 0 and dv_int > 0
    assert c_fe * dv_fe == pytest.approx(c_int * dv_int, rel=1e-6)


def test_constant_bias_reaches_steady_state(params):
    # 2 V held: fast switching regime, p relaxes to the steady state of the
    # final self-consistent field
    cfg = fc.SolverConfig(dt=1e-6, p_init=0.0)
    wf = from_segments("voltage", [(1e-6, 2.0), (2e-3, 2.0)])
    ts = fc.run_transient(params, wf, cfg)
    e_fe_final = ts.v_fe[-1] / params.t_fe
    p_ss = float(fc.p_steady_state(e_fe_final, params))
    assert abs(ts.p[-1] - p_ss) < 1e-6


def test_dt_continuity(params):
    state = fc.DeviceState(p=0.2, v_fe=0.1, v_int=0.05)
    # loop-consistent drive: continuity holds for a continuous drive signal
    v0 = state.v_fe + state.v_int + float(
        fc.phi_depl(state.p, state.v_fe, params, state.v_fe / params.t_fe))
    out = fc.solve_timestep(state, 1e-15, v0, params)
    assert abs(out.v_fe - state.v_fe) < 1e-6
    assert abs(out.v_int - state.v_int) < 1e-6
    assert abs(out.p - state.p) < 1e-9
    assert out.t == pytest.approx(1e-15)


def test_solve_timestep_ramp_iterations(params):
    # 3 V / 0.25 ms ramp sampled at 1 us: converges in a few iterations
    state = fc.DeviceState(p=0.0, v_fe=0.35, v_int=0.0)
    cfg = fc.SolverConfig(dt=1e-6)
    out = fc.solve_timestep(state, 1e-6, 0.012, params, cfg)
    assert 0.0 <= out.p <= 1.0
    # golden: the full hysteresis run averages ~2 Newton iterations/step
    ts = fc.run_transient(params, triangle(3.0, 1e3, 1), cfg)
    assert ts.stats.newton_iters <= 4 * ts.stats.steps


def test_residual_evals_counted_on_bench_pulse():
    # one count per batched step-residual call inside the root-finder
    p25 = fc.DeviceParams(area=25e-12)
    wf = bench_waveform(250e-9, 10e-6, 30e-6, 10e-9)
    ts = run_transient_batch(ParamsBatch.from_params(p25, 4), wf,
                             fc.SolverConfig(dt=2e-7))
    stats = ts.stats
    assert stats.steps <= stats.residual_evals <= 4 * stats.steps
    merged = SolveStats()
    merged.merge(stats)
    merged.merge(stats)
    assert merged.residual_evals == 2 * stats.residual_evals

def test_step_residual_zero_at_equilibrium():
    p = fc.DeviceParams(E_off=0.0)
    st = fc.DeviceState(p=0.5, v_fe=0.0, v_int=0.0)
    r_loop, r_kcl = fc.step_residual(st, st, 1e-6, 0.0, p)
    assert r_loop == 0.0
    assert r_kcl == 0.0


def test_step_residual_current_mode(params):
    st = fc.DeviceState(p=0.0, v_fe=0.3, v_int=0.0)
    r = fc.step_residual(st, st, 1e-6, 1e-9, params, mode=CURRENT,
                         v_appl_trial=0.3)
    assert len(r) == 3


def test_residuals_below_tolerance_everywhere(params):
    cfg = fc.SolverConfig(dt=2e-6)
    ts = fc.run_transient(params, triangle(3.0, 1e3, 2), cfg)
    tol_i = 1e-12 * params.area / 25e-12
    assert np.abs(ts.loop_residual).max() < cfg.newton_tol_v
    assert np.abs(ts.kcl_residual).max() < tol_i


def test_determinism_bit_identical(params):
    cfg = fc.SolverConfig(dt=2e-6)
    wf = triangle(3.0, 1e3, 2)
    a = fc.run_transient(params, wf, cfg)
    b = fc.run_transient(params, wf, cfg)
    for name in ("t", "v_appl", "i", "p", "pol", "v_fe", "v_int"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_batch_matches_single_bitwise():
    # every device of a heterogeneous batch reproduces its lone run bit for
    # bit, under voltage and under current drive
    rng = np.random.default_rng(21)
    base = fc.DeviceParams(area=25e-12)
    devices = [fc.sample_params(base, fc.McDistribution.table_21c(), rng)
               for _ in range(6)]
    drives = [(triangle(3.0, 1e3, 2), fc.SolverConfig(dt=2e-6)),
              (bench_waveform(250e-9, 10e-6, 30e-6, 10e-9), fc.SolverConfig(dt=2e-7))]
    for wf, cfg in drives:
        batch = run_transient_batch(ParamsBatch.from_list(devices), wf, cfg)
        for k, dev in enumerate(devices):
            single = fc.run_transient(dev, wf, cfg)
            for name in ("p", "pol", "v_fe", "v_int", "v_appl", "i"):
                assert np.array_equal(getattr(batch, name)[:, k],
                                      getattr(single, name)), (wf.mode, k, name)


def test_step_failure_carries_time_and_residuals(params):
    cfg = fc.SolverConfig(dt=1e-6, newton_tol_v=1e-18, max_newton_iters=2,
                          max_step_halvings=0)
    with pytest.raises(fc.StepFailureError) as exc:
        fc.run_transient(params, triangle(3.0, 1e3, 2), cfg)
    assert exc.value.t > 0
    assert np.isfinite(exc.value.loop_residual)
    assert exc.value.device_indices == (0,)


def test_step_halving_rescues_hard_steps(params):
    # brutally coarse base step over the switching edge still converges by
    # local halving
    cfg = fc.SolverConfig(dt=5e-5, max_newton_iters=6)
    ts = fc.run_transient(params, triangle(3.0, 1e3, 2), cfg)
    assert ts.stats.halvings >= 0
    assert 0.0 <= ts.p.min() and ts.p.max() <= 1.0


def test_record_decimation(params):
    cfg = fc.SolverConfig(dt=1e-6, record_every=7)
    ts = fc.run_transient(params, hold(0.5, 1e-4), cfg)
    # rows: t=0, every 7th of 100 steps, and the final step
    assert len(ts) == 1 + len([k for k in range(1, 101) if k % 7 == 0 or k == 100])
    assert ts.t[0] == 0.0
    assert ts.t[-1] == pytest.approx(1e-4)


def test_current_mode_tracks_drive(params):
    cfg = fc.SolverConfig(dt=1e-7)
    wf = rect_pulse(100e-9, 1e-5, mode=CURRENT, edge=1e-8)
    ts = fc.run_transient(params, wf, cfg)
    flat = (ts.t > 1e-6) & (ts.t < 9e-6)
    tol_i = 1e-12 * params.area / 25e-12
    assert np.abs(ts.i[flat] - 100e-9).max() < tol_i
    # charging a capacitor stack: terminal voltage rises
    assert ts.v_appl[-1] > 0.02


def test_charge_integration(params):
    cfg = fc.SolverConfig(dt=1e-7)
    wf = rect_pulse(100e-9, 1e-5, mode=CURRENT, edge=1e-8)
    ts = fc.run_transient(params, wf, cfg)
    q = ts.charge()
    want = 100e-9 * 1e-5  # flat-top charge; edges contribute half each
    assert q[-1] == pytest.approx(want + 100e-9 * 1e-8, rel=2e-2)


def test_polarization_current_consistency(params):
    cfg = fc.SolverConfig(dt=1e-6)
    ts = fc.run_transient(params, triangle(3.0, 1e3, 2), cfg)
    dp_dt = np.diff(ts.p) / np.diff(ts.t)
    j_pol_fd = 2.0 * params.P_s * dp_dt
    peak = np.abs(ts.j_pol).max()
    rms = np.sqrt(np.mean((j_pol_fd - ts.j_pol[1:]) ** 2))
    assert rms < 1e-3 * peak


def test_charge_conservation_closed_cycle(params):
    cfg = fc.SolverConfig(dt=1e-6)
    ts = fc.run_transient(params, triangle(3.0, 1e3, 3), cfg)
    period = 1e-3
    m = (ts.t >= 2 * period - 1e-9) & (ts.t <= 3 * period + 1e-9)
    t, i = ts.t[m], ts.i[m]
    q_cycle = np.trapezoid(i, t)
    leak = np.trapezoid(params.area * np.abs(ts.j_fn[m]), t)
    assert abs(q_cycle) < 0.01 * (2 * params.P_s * params.area) + leak


def test_cycle_closure_steady_cycling(params):
    cfg = fc.SolverConfig(dt=1e-6)
    res = fc.hysteresis(params, 3.0, 1e3, n_cycles=4, cfg=cfg)
    assert res.closure_rms < 0.005


def test_waveform_batch_mismatch_rejected(params):
    wf = triangle(np.array([1.0, 2.0, 3.0]), 1e3, 1)
    with pytest.raises(ValueError):
        run_transient_batch(ParamsBatch.from_params(params, 2), wf)


def test_converged_step_matches_bisection_oracle(params):
    # independent route to the 2-unknown implicit step at V_appl = 3 V:
    # eliminate V_int exactly through the loop equation, then bisect the
    # KCL mismatch in V_fe; compare against the Newton solution
    from fecapsim.physics import (c_layer, j_fn, j_pf, p_step, phi_depl,
                                  transition_rates)

    prev = fc.DeviceState(p=0.0, v_fe=0.35, v_int=0.0)
    dt, v_appl = 1e-6, 3.0
    c_fe = fc.c_layer(params.eps_fe, params.t_fe)
    c_int = fc.c_layer(params.eps_int, params.t_int)

    def p_next_of(v_fe):
        rates = transition_rates(v_fe / params.t_fe, params)
        return float(p_step(prev.p, rates, dt))

    def v_int_of(v_fe):
        p_n = p_next_of(v_fe)
        return v_appl - v_fe - float(phi_depl(p_n, v_fe, params,
                                              v_fe / params.t_fe))

    def kcl(v_fe):
        p_n = p_next_of(v_fe)
        v_int = v_int_of(v_fe)
        j_fe = (c_fe * (v_fe - prev.v_fe) / dt
                + 2 * params.P_s * (p_n - prev.p) / dt
                + float(j_pf(v_fe / params.t_fe, params)))
        j_int = (c_int * (v_int - prev.v_int) / dt
                 + float(j_fn(v_int / params.t_int, params)))
        return j_fe - j_int

    lo, hi = 0.0, 3.0
    assert kcl(lo) * kcl(hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kcl(mid) * kcl(lo) <= 0:
            hi = mid
        else:
            lo = mid
    v_fe_oracle = 0.5 * (lo + hi)
    v_int_oracle = v_int_of(v_fe_oracle)

    out = fc.solve_timestep(prev, dt, v_appl, params)
    assert out.v_fe == pytest.approx(v_fe_oracle, abs=1e-9)
    assert out.v_int == pytest.approx(v_int_oracle, abs=1e-9)
    assert out.p == pytest.approx(p_next_of(v_fe_oracle), abs=1e-9)
    # residuals of the accepted step sit inside the advertised tolerances
    r = fc.step_residual(out, prev, dt, v_appl, params)
    assert abs(r[0]) < 1e-9
    assert abs(r[1]) < 1e-12 * params.area / 25e-12


def test_converged_current_step_matches_bisection_oracle(params):
    # independent route to the 3-unknown implicit step under current drive:
    # for a trial V_appl, solve the voltage-driven step by bisecting its KCL
    # mismatch in V_fe (V_int from the loop); then bisect V_appl until the
    # terminal current equals the drive
    from fecapsim.physics import j_fn, j_pf, p_step, phi_depl, transition_rates

    prev = fc.DeviceState(p=0.0, v_fe=0.35, v_int=0.0)
    dt, current = 1e-6, 2e-5
    c_fe = fc.c_layer(params.eps_fe, params.t_fe)
    c_int = fc.c_layer(params.eps_int, params.t_int)

    def split(v_fe, v_appl):
        e_fe = v_fe / params.t_fe
        p_n = float(p_step(prev.p, transition_rates(e_fe, params), dt))
        v_int = v_appl - v_fe - float(phi_depl(p_n, v_fe, params, e_fe))
        j_int = (c_int * (v_int - prev.v_int) / dt
                 + float(j_fn(v_int / params.t_int, params)))
        j_fe = (c_fe * (v_fe - prev.v_fe) / dt
                + 2 * params.P_s * (p_n - prev.p) / dt
                + float(j_pf(e_fe, params)))
        return p_n, v_int, j_fe - j_int, params.area * j_int

    def bisect(g, lo, hi):
        assert g(lo) < 0 < g(hi)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def v_fe_at(v_appl):
        return bisect(lambda v: split(v, v_appl)[2], -10.0, 10.0)

    v_appl = bisect(lambda va: split(v_fe_at(va), va)[3] - current, -10.0, 10.0)
    v_fe = v_fe_at(v_appl)
    p_n, v_int, _, _ = split(v_fe, v_appl)

    cfg = fc.SolverConfig(dt=dt, max_step_halvings=0)
    out = fc.solve_timestep(prev, dt, current, params, cfg, mode=CURRENT)
    assert out.v_fe == pytest.approx(v_fe, abs=1e-9)
    assert out.v_int == pytest.approx(v_int, abs=1e-9)
    assert out.p == pytest.approx(p_n, abs=1e-9)
    r = fc.step_residual(out, prev, dt, current, params, mode=CURRENT,
                         v_appl_trial=v_appl)
    tol_i = 1e-12 * params.area / 25e-12
    assert abs(r[0]) < cfg.newton_tol_v
    assert abs(r[1]) < tol_i
    assert abs(r[2]) < tol_i
