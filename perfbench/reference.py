"""Independent references the benchmark checks fecapsim's outputs against.

None of these shares code with ``fecapsim.solver``, ``fecapsim.quasistatic``
or ``fecapsim.montecarlo``. They use only the constitutive equations in
``fecapsim.physics``, which the test suite checks against mpmath, and
SciPy's integrators and root-finders.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from fecapsim import physics
from fecapsim.constants import EPS_0, Q_E

# Relative and absolute tolerances of the Radau reference.
RADAU_RTOL = 1e-10
RADAU_ATOL = 1e-13


def _layer_caps(params):
    c_fe = EPS_0 * params.eps_fe / params.t_fe
    c_int = EPS_0 * params.eps_int / params.t_int
    return c_fe, c_int


def initial_v_fe(params, p0: float) -> float:
    """V_fe with V_int = 0 that closes the loop at 0 V: V_fe + phi_depl = 0."""

    def g(v):
        return v + float(physics.phi_depl(p0, v, params, v / params.t_fe))

    return brentq(g, -25.0, 25.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def current_drive(params, times, currents):
    """Integrate the device under a piecewise-linear terminal current.

    Under current drive the circuit is an explicit ODE in (p, V_fe, V_int):
    the interface branch carries I/A, and so does the ferroelectric branch
    (displacement, switching and Poole-Frenkel currents). Radau integrates
    each breakpoint interval separately so no drive corner falls inside a
    step. Starts, as the solver does by default, from p = 0, V_int = 0 and
    the V_fe that closes the loop at 0 V.
    Returns the state (p, V_fe, V_int) at every breakpoint, shape (k, 3).
    """
    times = np.asarray(times, dtype=float)
    currents = np.asarray(currents, dtype=float)
    c_fe, c_int = _layer_caps(params)
    area = params.area

    def rhs(t, y, t0, t1, i0, i1):
        p, v_fe, v_int = y
        j = (i0 + (i1 - i0) * (t - t0) / (t1 - t0)) / area
        e_fe = v_fe / params.t_fe
        k_down, k_up = physics.transition_rates(e_fe, params)
        dp = k_down * (1.0 - p) - k_up * p
        dv_int = (j - physics.j_fn(v_int / params.t_int, params)) / c_int
        dv_fe = (j - physics.j_pf(e_fe, params) - 2.0 * params.P_s * dp) / c_fe
        return [dp, dv_fe, dv_int]

    y = np.array([0.0, initial_v_fe(params, 0.0), 0.0])
    out = [y]
    for k in range(times.size - 1):
        args = (times[k], times[k + 1], currents[k], currents[k + 1])
        sol = solve_ivp(rhs, (times[k], times[k + 1]), y, method="Radau",
                        args=args, rtol=RADAU_RTOL, atol=RADAU_ATOL)
        if not sol.success:
            raise RuntimeError(f"Radau failed on [{times[k]}, {times[k+1]}]: "
                               f"{sol.message}")
        y = sol.y[:, -1]
        out.append(y)
    return np.array(out)


def redraw_samples(dist, seed: int, n: int) -> dict:
    """Trial parameters redrawn from the seed, one RNG stream per trial.

    seed -> ``SeedSequence.spawn(n)`` -> one PCG64 generator per trial ->
    per parameter a normal draw, redrawn while outside [lower, upper] (up
    to 100 draws) and then clamped. Entries with sigma = 0 take their mean
    and consume no draws. Returns {name: array of n values}.
    """
    out = {e.name: np.empty(n) for e in dist.entries}
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(n)):
        rng = np.random.Generator(np.random.PCG64(child))
        for e in dist.entries:
            if e.sigma == 0.0:
                out[e.name][i] = e.mean
                continue
            for _ in range(100):
                x = rng.normal(e.mean, e.sigma)
                if e.lower <= x <= e.upper:
                    break
            out[e.name][i] = min(max(x, e.lower), e.upper)
    return out


def drawn_device(base, dist, samples: dict, i: int):
    """DeviceParams of trial *i* from redrawn *samples*."""
    fields = {}
    for name, values in samples.items():
        if name == "N_depl":
            fields["N_depl_dn"] = fields["N_depl_up"] = values[i]
        else:
            fields[name] = values[i]
    if dist.temperature is not None:
        fields["temperature"] = dist.temperature
    return base.replace(**fields)


# Bound on the solver's polarization error against ``current_drive`` on a
# current pulse, as measured in test_reference.py. Two parts: the single
# backward-Euler step across a current edge deposits I*edge/2 of charge
# too much (rising edge) or too little (falling edge), and the rest falls
# at first order in dt with this slope, C/m^2 per second of step.
POL_ERR_PER_DT = 250.0


def pol_error_bound(current: float, edge: float, area: float, dt: float) -> float:
    """Solver polarization error bound (C/m^2) at base step *dt*."""
    return current * edge / (2.0 * area) + POL_ERR_PER_DT * dt


def dc_current(params, bias: float) -> float:
    """Terminal DC current at *bias* by root-finding the series balance.

    At DC the polarization sits at its steady state for the ferroelectric
    field, the voltage loop gives V_int from V_fe, and the Poole-Frenkel
    current through the ferroelectric must equal the Fowler-Nordheim
    current through the interface. A 601-point scan must find exactly one
    sign change of that mismatch in V_fe; ``brentq`` then solves it.
    """

    def v_int_of(v_fe):
        e_fe = v_fe / params.t_fe
        p = physics.p_steady_state(e_fe, params)
        return bias - v_fe - physics.phi_depl(p, v_fe, params, e_fe)

    def mismatch(v_fe):
        return (physics.j_pf(v_fe / params.t_fe, params)
                - physics.j_fn(v_int_of(v_fe) / params.t_int, params))

    grid = np.linspace(min(0.0, bias) - 3.0, max(0.0, bias) + 3.0, 601)
    f = mismatch(grid)
    zeros = np.flatnonzero(f == 0.0)
    changes = np.flatnonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0.0)
    if zeros.size + changes.size != 1:
        raise RuntimeError(f"{zeros.size + changes.size} current-balance roots "
                           f"at {bias} V")
    if zeros.size:
        v_fe = grid[zeros[0]]
    else:
        i = changes[0]
        v_fe = brentq(lambda v: float(mismatch(v)), grid[i], grid[i + 1],
                      xtol=1e-15, rtol=4 * np.finfo(float).eps)
    return float(params.area * physics.j_fn(v_int_of(v_fe) / params.t_int, params))


def depletion_slope(params, p, v_fe):
    """d(phi_depl)/d(V_fe) at frozen polarization state *p*, analytic.

    phi = Q / C_depl with Q = P_s(2p-1) + C_fe V_fe and
    C_depl = p k_dn/|a E + Q_fix| + (1-p) k_up/|a E - Q_fix|, a = eps0 eps_fe,
    E = V_fe / t_fe; a floored denominator contributes no slope.
    """
    p = np.asarray(p, dtype=float)
    v_fe = np.asarray(v_fe, dtype=float)
    c_fe, _ = _layer_caps(params)
    a = EPS_0 * params.eps_fe
    e_fe = v_fe / params.t_fe
    k_dn = EPS_0 * params.eps_depl * Q_E * params.N_depl_dn
    k_up = EPS_0 * params.eps_depl * Q_E * params.N_depl_up
    c_depl = 0.0
    dc_depl = 0.0
    for weight, k, s in ((p, k_dn, a * e_fe + params.Q_fix_depl),
                         (1.0 - p, k_up, a * e_fe - params.Q_fix_depl)):
        d = np.maximum(np.abs(s), physics.DENOM_MIN)
        dd = np.where(np.abs(s) > physics.DENOM_MIN, np.sign(s) * a / params.t_fe, 0.0)
        c_depl = c_depl + weight * k / d
        dc_depl = dc_depl - weight * k * dd / d ** 2
    q = params.P_s * (2.0 * p - 1.0) + c_fe * v_fe
    return c_fe / c_depl - q * dc_depl / c_depl ** 2


def frozen_p_capacitance(params, p, v_fe):
    """Small-signal capacitance (F) of the stack with p frozen.

    Charge continuity C_fe dV_fe = C_int dV_int and the voltage loop give
    three capacitors in series: C_fe, C_int and the depletion element's
    differential capacitance C_fe / (d phi / d V_fe).
    """
    c_fe, c_int = _layer_caps(params)
    c_d = c_fe / depletion_slope(params, p, v_fe)
    return params.area / (1.0 / c_fe + 1.0 / c_int + 1.0 / c_d)
