"""The solver's fused step residual against the public physics functions.

The step evaluates every constitutive formula through the per-batch
constants of ``Coeffs``; composed stage by stage from the public functions
at the same inputs, each of its outputs must agree to rounding.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fecapsim as fc
from fecapsim.params import ParamsBatch
from fecapsim.physics import Coeffs
from fecapsim.solver import _make_step, _State

REL = 1e-12
# Floor on p: the decay factor exp(-(k_down+k_up)*dt) amplifies the rounding
# of the rate exponent, which matters only where p itself is negligible.
P_FLOOR = 1e-15

_TABLES = (fc.McDistribution.table_21c(), fc.McDistribution.table_85c())


@st.composite
def devices(draw):
    """The calibrated device, or one anywhere inside a variability table."""
    base = fc.DeviceParams()
    table = draw(st.sampled_from((None,) + _TABLES))
    if table is None:
        return base
    values = {"temperature": table.temperature}
    for e in table.entries:
        x = draw(st.floats(e.lower, e.upper))
        if e.name == "N_depl":
            values["N_depl_dn"] = values["N_depl_up"] = x
        else:
            values[e.name] = x
    return replace(base, **values)


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
    at, _ = _make_step(Coeffs.of(ParamsBatch.from_params(params, 1)), prev, dt)
    trial = np.array([v_other])
    aux = at(np.array([v_fe]), *((trial, None) if int_given else (None, trial)))
    got = {name: float(getattr(aux, name)[0]) for name in aux._fields}

    e_fe = v_fe / params.t_fe
    p_n = float(fc.p_step(p_prev, fc.transition_rates(e_fe, params), dt))
    assert 0.0 <= got["p_n"] <= 1.0
    assert close(got["p_n"], p_n, abs(p_n), P_FLOOR)

    # Downstream stages take the step's own p_n and V_int, so that each
    # formula is compared on identical inputs.
    phi = float(fc.phi_depl(got["p_n"], v_fe, params, e_fe))
    assert close(got["phi"], phi, abs(phi))
    v_int, v_app = got["v_int"], got["v_app"]
    loop_terms = (v_app, v_fe, v_int, got["phi"])
    if int_given:
        assert v_int == v_other
        assert close(v_app, v_fe + v_int + got["phi"], sum(map(abs, loop_terms)))
    else:
        assert v_app == v_other
        assert close(v_int, v_app - v_fe - got["phi"], sum(map(abs, loop_terms)))
    assert close(got["r_loop"], v_app - v_fe - v_int - got["phi"],
                 sum(map(abs, loop_terms)))

    jpf = float(fc.j_pf(e_fe, params))
    jfn = float(fc.j_fn(v_int / params.t_int, params))
    assert close(got["j_pf"], jpf, abs(jpf))
    assert close(got["j_fn"], jfn, abs(jfn))
    pol_dt = 2.0 * params.P_s / dt
    j_pol = pol_dt * (got["p_n"] - p_prev)
    assert close(got["j_pol"], j_pol, pol_dt * (got["p_n"] + p_prev))

    c_fe = float(fc.c_layer(params.eps_fe, params.t_fe))
    c_int = float(fc.c_layer(params.eps_int, params.t_int))
    j_fe = (c_fe * (v_fe - v_fe_prev) / dt, got["j_pol"], got["j_pf"])
    j_int = (c_int * (v_int - v_int_prev) / dt, got["j_fn"])
    i_scale = params.area * sum(map(abs, j_fe + j_int))
    assert close(got["i_term"], params.area * sum(j_int), i_scale)
    assert close(got["r_kcl"], params.area * (sum(j_fe) - sum(j_int)), i_scale)
