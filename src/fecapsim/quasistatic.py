"""Quasi-static analyses built on the transient solver.

- DC sweep: every capacitor current is zero and the polarization state sits
  at its steady-state value for the resulting field, so each bias point
  reduces to balancing the two leakage mechanisms in series.
- Small-signal C-V: a slow bias sweep (which moves the polarization state)
  probed at each recorded operating point by a central voltage difference
  with the polarization frozen, so the probe never switches domains.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .params import DeviceParams
# The solves below evaluate these formulas through Coeffs; the public functions
# stay bound here because perfbench/tracing.py wraps the physics calls at these names.
from .physics import Coeffs, c_layer, j_fn, j_pf, p_steady_state, phi_depl  # noqa: F401
from .solver import SolverConfig, _root, run_transient
from .waveform import Waveform

# Tolerance (V) on the Newton correction of the DC and C-V solves, and on
# the loop residual of the C-V probe; iteration budget of both.
_TOL_V = 1e-12
_MAX_ITERS = 50


class DcConvergenceError(RuntimeError):
    """The static series system could not be solved at a bias point."""

    def __init__(self, bias: float, detail: str = ""):
        self.bias = bias
        super().__init__(f"DC solve failed at V = {bias:.6g} V{detail}")


def _dc_vint(v_fe, bias, k: Coeffs):
    """Interface voltage eliminated through the voltage loop."""
    p = k.p_steady(v_fe * k.inv_t_fe)
    return bias - v_fe - k.phi(p, k.c_fe * v_fe)


def _dc_mismatch(v_fe, bias, k: Coeffs):
    """Series-current mismatch j_pf(E_fe) - j_fn(E_int) along the loop."""
    v_int = _dc_vint(v_fe, bias, k)
    return k.j_pf(v_fe * k.inv_t_fe) - k.j_fn(v_int * k.inv_t_int)


def _solve_bias(bias: float, k: Coeffs, guess_v_fe: float,
                tol_i: float) -> tuple[float, float]:
    """Solve one DC bias point; returns (v_fe, v_int).

    The loop equation is eliminated analytically, leaving a scalar
    current-balance root-find in V_fe, started from the continuation guess.
    """

    def mismatch(v_fe):
        return k.area * _dc_mismatch(v_fe, bias, k), ()

    v_fe, r_cur, conv, _, _ = _root(mismatch, np.array([guess_v_fe]), tol_i,
                                    _TOL_V, _MAX_ITERS)
    if not conv[0]:
        raise DcConvergenceError(bias, f" (|KCL| = {abs(r_cur[0]):.3e} A)")
    v_fe = float(v_fe[0])
    return v_fe, float(_dc_vint(v_fe, bias, k))


def dc_sweep(params: DeviceParams, v_start: float, v_stop: float,
             n_points: int, newton_tol_i: Optional[float] = None):
    """Static I-V sweep; returns a list of (bias V, terminal current A).

    At each bias the polarization is held at its steady state for the
    resulting ferroelectric field and the Poole-Frenkel and Fowler-Nordheim
    currents are balanced in series; the terminal current is the interface
    leakage times the device area. Sweeps by continuation from the previous
    bias point.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    tol_i = (newton_tol_i if newton_tol_i is not None
             else 1e-12 * params.area / 25e-12)
    k = Coeffs.of(params)
    biases = np.linspace(v_start, v_stop, n_points)
    out = []
    guess = 0.0
    for bias in biases:
        v_fe, v_int = _solve_bias(float(bias), k, guess, tol_i)
        guess = v_fe
        current = float(k.area * k.j_fn(v_int * k.inv_t_int))
        out.append((float(bias), current))
    return out


def small_signal_cv(params: DeviceParams, bias_waveform: Waveform,
                    delta_v: float = 10e-3,
                    cfg: Optional[SolverConfig] = None):
    """Small-signal capacitance along a bias sweep.

    Runs the bias waveform as a transient (the sweep itself moves the
    polarization), then at every recorded operating point solves the
    internal split at bias +/- delta_v with p frozen and differentiates the
    interface-electrode charge: C = area * dQ/dV. Returns a list of
    (bias V, capacitance F) in recording order.
    """
    if delta_v <= 0.0:
        raise ValueError("delta_v must be > 0")
    ts = run_transient(params, bias_waveform, cfg)
    k = Coeffs.of(params)
    ratio = k.c_fe / k.c_int

    def v_int_of(v_fe):
        # Charge continuity with p frozen: C_fe dV_fe = C_int dV_int.
        return ts.v_int + ratio * (v_fe - ts.v_fe)

    q = {}
    for sign in (+1.0, -1.0):
        bias = ts.v_appl + sign * delta_v

        def loop(v_fe):
            return bias - v_fe - v_int_of(v_fe) - k.phi(ts.p, k.c_fe * v_fe), ()

        v_fe, _, conv, _, _ = _root(loop, ts.v_fe, _TOL_V, _TOL_V, _MAX_ITERS)
        if not conv.all():
            bad = int(np.flatnonzero(~conv)[0])
            raise DcConvergenceError(float(ts.v_appl[bad]),
                                     " (C-V probe did not converge)")
        q[sign] = k.c_int * v_int_of(v_fe)
    c = k.area * (q[+1.0] - q[-1.0]) / (2.0 * delta_v)
    return [(float(v), float(ci)) for v, ci in zip(ts.v_appl, c)]
