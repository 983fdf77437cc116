"""The solver's fused step residual against the public physics functions.

The step evaluates every constitutive formula through the per-batch
constants of ``Coeffs``; composed stage by stage from the public functions
at the same inputs, each of its outputs must agree to rounding. The row a
solved step records is ``_row(area, v_fe, v_app, *residual(...))`` of its
own solution, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fecapsim as fc
from fecapsim.params import ParamsBatch
from fecapsim.physics import Coeffs
from fecapsim.solver import (SolverConfig, _make_residual, _row, _rows, _solve_step, _State,
                             _tol_i)
from fecapsim.waveform import CURRENT, VOLTAGE

from strategies import devices

REL = 1e-12
# Floor on p: the decay factor exp(-(k_down+k_up)*dt) amplifies the rounding
# of the rate exponent, which matters only where p itself is negligible.
P_FLOOR = 1e-15

volts = st.floats(-5.0, 5.0)


def close(got, want, scale, floor=0.0):
    return abs(got - want) <= REL * scale + floor


@settings(max_examples=300, deadline=None)
@given(params=devices(), p_prev=st.floats(0.0, 1.0), v_fe_prev=volts,
       v_int_prev=volts, v_fe=volts, v_other=volts,
       log_dt=st.floats(-9.0, -5.0), int_given=st.booleans())
def test_fused_step_matches_public_physics(params, p_prev, v_fe_prev, v_int_prev,
                                           v_fe, v_other, log_dt, int_given):
    dt = 10.0 ** log_dt
    prev = _State(np.array([p_prev]), np.array([v_fe_prev]),
                  np.array([v_int_prev]), np.array([0.0]))
    k = Coeffs.of(ParamsBatch.from_params(params, 1))
    residual, _ = _make_residual(k, prev, dt)
    v_fe_trial, trial = np.array([v_fe]), np.array([v_other])
    v_int, v_app = (trial, None) if int_given else (None, trial)
    aux = _row(k.area, v_fe_trial, v_app, *residual(v_fe_trial, v_int, v_app))
    got = {name: float(getattr(aux, name)[0]) for name in aux._fields}

    e_fe = v_fe / params.t_fe
    p_n = float(fc.p_step(p_prev, fc.transition_rates(e_fe, params), dt))
    assert 0.0 <= got["p"] <= 1.0
    assert close(got["p"], p_n, abs(p_n), P_FLOOR)

    # Downstream stages take the step's own p_n and V_int, so that each
    # formula is compared on identical inputs.
    phi = float(fc.phi_depl(got["p"], v_fe, params, e_fe))
    assert close(got["phi_depl"], phi, abs(phi))
    v_int, v_app = got["v_int"], got["v_appl"]
    loop_terms = (v_app, v_fe, v_int, got["phi_depl"])
    if int_given:
        assert v_int == v_other
        assert close(v_app, v_fe + v_int + got["phi_depl"], sum(map(abs, loop_terms)))
    else:
        assert v_app == v_other
        assert close(v_int, v_app - v_fe - got["phi_depl"], sum(map(abs, loop_terms)))
    assert close(got["loop_residual"], v_app - v_fe - v_int - got["phi_depl"],
                 sum(map(abs, loop_terms)))

    jpf = float(fc.j_pf(e_fe, params))
    jfn = float(fc.j_fn(v_int / params.t_int, params))
    assert close(got["j_pf"], jpf, abs(jpf))
    assert close(got["j_fn"], jfn, abs(jfn))
    pol_dt = 2.0 * params.P_s / dt
    j_pol = pol_dt * (got["p"] - p_prev)
    assert close(got["j_pol"], j_pol, pol_dt * (got["p"] + p_prev))

    c_fe = float(fc.c_layer(params.eps_fe, params.t_fe))
    c_int = float(fc.c_layer(params.eps_int, params.t_int))
    j_fe = (c_fe * (v_fe - v_fe_prev) / dt, got["j_pol"], got["j_pf"])
    j_int = (c_int * (v_int - v_int_prev) / dt, got["j_fn"])
    i_scale = params.area * sum(map(abs, j_fe + j_int))
    assert close(got["i"], params.area * sum(j_int), i_scale)
    assert close(got["kcl_residual"], params.area * (sum(j_fe) - sum(j_int)), i_scale)


@settings(max_examples=200, deadline=None)
@given(params=devices(), p_prev=st.floats(0.0, 1.0), v_fe_prev=volts,
       v_int_prev=st.floats(-1.0, 1.0), drive=st.floats(-1.0, 1.0),
       log_dt=st.floats(-9.0, -5.0), current=st.booleans())
def test_solved_row_is_at_of_its_solution(params, p_prev, v_fe_prev, v_int_prev,
                                          drive, log_dt, current):
    # the hot path evaluates the residual on the two trial rows and builds
    # the row once from the converged point; the residual and _row,
    # evaluated per device at that point, must give every field of that row
    # bit for bit
    dt = np.array(10.0 ** log_dt)
    k = Coeffs.of(ParamsBatch.from_params(params, 1))
    prev = _State(np.array([p_prev]), np.array([v_fe_prev]), np.array([v_int_prev]),
                  np.array([0.0]))
    cfg = SolverConfig()
    drive = drive * 1e-6 * params.area / 25e-12 if current else 3.0 * drive
    row, _, _, _ = _solve_step(k._make(map(_rows, k)), prev, dt, np.full((2, 1), drive),
                               CURRENT if current else VOLTAGE, cfg,
                               _tol_i(cfg.newton_tol_i, k.area))
    residual, _ = _make_residual(k, prev, dt)
    v_int, v_app = (row.v_int, None) if current else (None, np.array([drive]))
    want = _row(k.area, row.v_fe, v_app, *residual(row.v_fe, v_int, v_app))
    for name in row._fields:
        assert getattr(row, name).tobytes() == getattr(want, name).tobytes(), name
