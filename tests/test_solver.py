from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fecapsim as fc
from fecapsim import analyses
from fecapsim.arraybench import bench_waveform
from fecapsim.params import ParamsBatch
from fecapsim.solver import SolveStats, batch_final_state, run_transient_batch
from fecapsim.waveform import CURRENT, VOLTAGE, from_segments, hold, rect_pulse, triangle


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
    # the predicted start leaves about one Newton update per step on a
    # 1 us-sampled loop; starting from the previous state takes about 2.4
    ts = fc.run_transient(params, triangle(3.0, 1e3, 1), cfg)
    assert ts.stats.newton_iters <= 1.6 * ts.stats.steps


def test_residual_evals_counted_on_bench_pulse():
    # one count per batched step-residual call inside the root-finder; the
    # predicted start keeps it near 2.25 per step, starting from the
    # previous state takes about 3.1
    p25 = fc.DeviceParams(area=25e-12)
    wf = bench_waveform(250e-9, 10e-6, 30e-6, 10e-9)
    ts = run_transient_batch(ParamsBatch.from_params(p25, 4), wf,
                             fc.SolverConfig(dt=2e-7))
    stats = ts.stats
    assert stats.steps <= stats.residual_evals <= 2.6 * stats.steps
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
    # bit, under voltage and under current drive; the last two drives halve
    # different devices at different steps in the batch and alone
    rng = np.random.default_rng(21)
    base = fc.DeviceParams(area=25e-12)
    devices = [fc.sample_params(base, fc.McDistribution.table_21c(), rng)
               for _ in range(6)]
    pulse = bench_waveform(250e-9, 10e-6, 30e-6, 10e-9)
    drives = [(triangle(3.0, 1e3, 2), fc.SolverConfig(dt=2e-6), False),
              (pulse, fc.SolverConfig(dt=2e-7), False),
              (triangle(3.0, 1e3, 2), fc.SolverConfig(dt=5e-5, max_newton_iters=6), True),
              (pulse, fc.SolverConfig(dt=2e-6, max_newton_iters=3), True)]
    for wf, cfg, halves in drives:
        batch = run_transient_batch(ParamsBatch.from_list(devices), wf, cfg)
        assert batch.stats.halvings > 0 or not halves, cfg
        for k, dev in enumerate(devices):
            single = fc.run_transient(dev, wf, cfg)
            for name in ("p", "pol", "v_fe", "v_int", "v_appl", "i"):
                assert np.array_equal(getattr(batch, name)[:, k],
                                      getattr(single, name)), (wf.mode, k, name)


def test_drive_table_matches_value_at_bitwise(params):
    # a run interpolates its drive for every step in one call; under voltage
    # drive the recorded V_appl is that drive, and each step's value must be
    # Waveform.value_at at the step's end, t0 + dt, bit for bit - also on a
    # halved step, whose second half ends on the step's own table value
    amps = np.array([1.0, 0.5, -0.7])
    smooth = {
        "1-D": from_segments(VOLTAGE, [(1e-6, 1.0), (1e-6, 0.0)]),
        "one column": from_segments(VOLTAGE, [(1e-6, [1.0]), (1e-6, [0.0])]),
        "per device": from_segments(VOLTAGE, [(1e-6, amps), (1e-6, 0.0 * amps)]),
    }
    halving = {
        "1-D": triangle(3.0, 1e3, 1),
        "one column": triangle([3.0], 1e3, 1),
        "per device": triangle(np.array([3.0, 2.5, -3.0]), 1e3, 1),
    }
    runs = [(smooth, fc.SolverConfig(dt=1e-7), False),
            (halving, fc.SolverConfig(dt=5e-5, max_newton_iters=6), True)]
    got = {}
    for drives, cfg, halves in runs:
        for name, wf in drives.items():
            ts = run_transient_batch(ParamsBatch.from_params(params, amps.size), wf, cfg)
            grid = wf.time_grid(cfg.dt)
            want = [np.broadcast_to(wf.value_at(t0 + (t1 - t0)), amps.shape)
                    for t0, t1 in zip(grid[:-1], grid[1:])]
            assert (ts.stats.halvings > 0) == halves, name
            assert ts.v_appl[1:].tobytes() == np.array(want).tobytes(), name
            got[name, halves] = ts
    # 1-D values and a single column interpolate with one formula, so the
    # same drive in either form gives the same runs, bit for bit
    for halves in (False, True):
        for col, a in got["1-D", halves].columns().items():
            assert a.tobytes() == getattr(got["one column", halves], col).tobytes(), col


def test_value_at_called_once_per_run(params, monkeypatch):
    # one drive table per run: the t = 0 split, every base step and every
    # halved step read it, so a run interpolates its waveform exactly once
    calls = []
    value_at = fc.Waveform.value_at

    def counted(self, t, *args, **kwargs):
        calls.append(np.size(t))
        return value_at(self, t, *args, **kwargs)

    monkeypatch.setattr(fc.Waveform, "value_at", counted)
    pb = ParamsBatch.from_params(params, 2)
    fresh = run_transient_batch(pb, triangle(1.0, 1e3, 1), fc.SolverConfig(dt=1e-5))
    assert fresh.stats.halvings == 0 and len(calls) == 1
    halved = run_transient_batch(pb, triangle(np.array([3.0, -3.0]), 1e3, 1),
                                 fc.SolverConfig(dt=5e-5, max_newton_iters=6))
    assert halved.stats.halvings > 0 and len(calls) == 2
    continued = run_transient_batch(pb, hold(0.0, 1e-5).shifted(1e-3),
                                    fc.SolverConfig(dt=1e-6),
                                    init=batch_final_state(fresh))
    assert len(continued) == 11 and len(calls) == 3
    # each call covers the first instant and every step's end
    assert calls == [len(ts) for ts in (fresh, halved, continued)]


# Five sampled devices under a per-device triangle that halves many steps.
_PERM_AMPS = np.array([3.0, 2.5, -3.0, 2.0, 3.5])
_PERM_CFG = fc.SolverConfig(dt=5e-5, max_newton_iters=6)


@cache
def _perm_devices():
    rng = np.random.default_rng(21)
    return tuple(fc.sample_params(fc.DeviceParams(area=25e-12),
                                  fc.McDistribution.table_21c(), rng) for _ in range(5))


def _perm_run(order):
    devices = _perm_devices()
    return run_transient_batch(ParamsBatch.from_list([devices[j] for j in order]),
                               triangle(_PERM_AMPS[list(order)], 1e3, 2), _PERM_CFG)


@cache
def _perm_base():
    return _perm_run(range(5))


@settings(max_examples=10, deadline=None)
@given(order=st.permutations(range(5)))
def test_device_permutation_permutes_columns_bitwise(order):
    # each device advances on its own, and a halved step takes its drive from
    # the run's table sliced to the failing devices; so permuting the devices
    # (with their drive columns) permutes every recorded column, bit for bit
    base = _perm_base()
    assert base.stats.halvings > 0
    ts = _perm_run(order)
    assert ts.stats == base.stats
    assert ts.t.tobytes() == base.t.tobytes()
    for name, a in base.columns().items():
        if name != "t":
            assert getattr(ts, name).tobytes() == a[:, list(order)].tobytes(), name


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
    assert ts.stats.halvings > 0
    assert 0.0 <= ts.p.min() and ts.p.max() <= 1.0


def test_prediction_restarts_at_breakpoints(params, monkeypatch):
    # the kinetics grid's pulses turn sharply at their edges; a prediction
    # carried across a breakpoint starts far from the root and forces
    # halvings there
    stats = SolveStats()

    def counted(*args, **kwargs):
        ts = run_transient_batch(*args, **kwargs)
        stats.merge(ts.stats)
        return ts

    monkeypatch.setattr(analyses, "run_transient_batch", counted)
    fc.switching_kinetics(params, (1.0, 1.5, 2.0, 2.5, 3.0),
                          (1e-7, 4.6416e-7, 2.1544e-6, 1e-5, 4.6416e-5,
                           2.1544e-4, 1e-3), cfg=fc.SolverConfig(dt=4e-6))
    assert stats.steps > 0
    assert stats.halvings == 0


def test_continued_run_history_skips_the_jump(monkeypatch):
    # the 0 V clamp after a current pulse jumps the drive at the start of a
    # continued run; a prediction through the pre-jump state starts steps 2
    # and 3 of the discharge far from their root
    from fecapsim import solver

    runs = []
    real_step = solver._solve_step
    real_batch = analyses.run_transient_batch

    def step(*args, **kwargs):
        out = real_step(*args, **kwargs)
        runs[-1].append(out[3])
        return out

    def batch(*args, **kwargs):
        runs.append([])
        return real_batch(*args, **kwargs)

    monkeypatch.setattr(solver, "_solve_step", step)
    monkeypatch.setattr(analyses, "run_transient_batch", batch)
    fc.current_program(fc.DeviceParams(area=25e-12), 250e-9, 10e-6, 1,
                       edge=10e-9, cfg=fc.SolverConfig(dt=4e-7))
    assert len(runs) >= 2
    for evals in runs:
        assert max(evals[1:]) <= 6, evals


@pytest.mark.parametrize("every", [1, 5, 7, 100, 10**9])
def test_record_decimation(params, every):
    cfg = fc.SolverConfig(dt=1e-6, record_every=every)
    wf = hold(0.5, 1e-4)
    ts = fc.run_transient(params, wf, cfg)
    # rows: t=0, every `every`-th of 100 steps, and the final step
    kept = [0] + [k for k in range(1, 101) if k % every == 0 or k == 100]
    assert len(ts) == len(kept)
    assert ts.t[0] == 0.0
    assert ts.t[-1] == pytest.approx(1e-4)
    assert np.array_equal(ts.t, wf.time_grid(cfg.dt)[kept])
    # the kept rows are those of the undecimated run
    full = fc.run_transient(params, wf, replace(cfg, record_every=1))
    for name, col in ts.columns().items():
        assert np.array_equal(col, getattr(full, name)[kept]), name


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


def test_batch_charge_matches_devices():
    # a batch integrates each device's column on its own
    pb = ParamsBatch.from_list([fc.DeviceParams(area=a) for a in (10e-12, 25e-12, 60e-12)])
    ts = run_transient_batch(pb, bench_waveform(250e-9, 10e-6, 30e-6, 10e-9),
                             fc.SolverConfig(dt=2e-7))
    q = ts.charge()
    assert q.shape == ts.i.shape
    for k in range(pb.n):
        assert np.array_equal(q[:, k], ts.device(k).charge()), k


def test_single_column_drive_broadcasts():
    # a 2-D drive with one column drives every device of a batch alike; it
    # interpolates as a per-device drive does, so each device reproduces its
    # lone run under the same drive bit for bit, and the 1-D drive to rounding
    pb = ParamsBatch.from_params(fc.DeviceParams(), 3)
    cfg = fc.SolverConfig(dt=3e-8)
    column = from_segments(VOLTAGE, [(1e-6, np.array([1.0])), (1e-6, np.array([0.0]))])
    flat = from_segments(VOLTAGE, [(1e-6, 1.0), (1e-6, 0.0)])
    batch = run_transient_batch(pb, column, cfg)
    lone = fc.run_transient(fc.DeviceParams(), column, cfg)
    shared = run_transient_batch(pb, flat, cfg)
    for name, col in batch.columns().items():
        if name == "t":
            assert np.array_equal(col, lone.t)
            continue
        for k in range(pb.n):
            assert np.array_equal(col[:, k], getattr(lone, name)), (name, k)
    np.testing.assert_allclose(batch.v_appl, shared.v_appl, rtol=0, atol=1e-15)
    for name in ("p", "v_fe", "v_int"):
        np.testing.assert_allclose(getattr(batch, name), getattr(shared, name),
                                   rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("limits", [
    {"max_newton_iters": 2.5},
    {"max_newton_iters": 20.0},
    {"max_step_halvings": 1.5},
    {"record_every": 2.5},
])
def test_non_integer_limits_rejected(limits):
    # A fractional iteration budget is never reached exactly, so the Newton
    # loop would not stop; the config is only built here, never run.
    name = next(iter(limits))
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        fc.SolverConfig(dt=1e-6, newton_tol_v=1e-300, newton_tol_i=1e-300, **limits)
    fc.SolverConfig(dt=1e-6, **{name: np.int64(3)})
