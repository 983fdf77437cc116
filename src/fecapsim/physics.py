"""Constitutive equations of the FeCap compact model.

Every function is a pure map from state/field values and device parameters
to a physical quantity, SI units in and out. All functions broadcast over
numpy arrays, so a ``ParamsBatch`` and per-device state arrays evaluate the
whole batch in one call; scalars work the same way.

Each formula is written once, as a private helper over the parameter-only
constants it needs. The public functions derive those constants from the
parameters on every call; :class:`Coeffs` derives all of them once for a
device or a batch, and its methods are what the solver's implicit step and
the quasi-static solves evaluate.

Numerical guards used throughout:
- exponentials are evaluated as ``exp(clip(arg, -700, 700))`` so extreme
  fields clamp to rates/currents beyond any resolvable timescale instead of
  overflowing (for the transition rates the prefactor is folded into the
  exponent before clamping, which keeps the result finite);
- the per-direction depletion-capacitance denominator is floored in
  magnitude at ``DENOM_MIN`` to avoid the singularity where the field term
  cancels the fixed charge.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .constants import EPS_0, H_PLANCK, K_B, M_0, Q_E

# Exponent clamp for all guarded exponentials.
EXP_CLAMP = 700.0
# Magnitude floor of the depletion-capacitance denominator, C/m^2
# (about 1% of the calibrated fixed charge).
DENOM_MIN = 1e-4


class TransitionRates(NamedTuple):
    """Polarization switching rates, 1/s.

    ``k_down`` is the rate driving the up-state probability toward 1 and
    ``k_up`` the rate out of the up state; the down/up subscripts follow the
    rate-equation convention dp/dt = k_down*(1-p) - k_up*p.
    """

    k_down: np.ndarray
    k_up: np.ndarray


def _clamp(x, lo, hi):
    return np.minimum(np.maximum(x, lo), hi)


def _guarded_exp(x):
    return np.exp(_clamp(x, -EXP_CLAMP, EXP_CLAMP))


def _check_field(e_fe):
    if not np.isfinite(e_fe).all():
        raise ValueError("transition_rates: non-finite field")


def _rate_consts(params):
    """Rate offset log(k_B T/h) - W_b/(k_B T) and slope q*d_e/(k_B T), m/V.

    The slope times (E_fe - E_off) is the field-induced barrier modulation
    W_e = q*(E_fe - E_off)*d_e in units of k_B T.
    """
    kt = K_B * params.temperature
    return np.log(kt / H_PLANCK) - params.W_b / kt, Q_E * params.d_e / kt


def _rates(x, offset):
    """(k_down, k_up) at reduced field energy x = W_e/(k_B T)."""
    return _guarded_exp(offset + x), _guarded_exp(offset - x)


def _p_eq(x):
    return 1.0 / (1.0 + _guarded_exp(-2.0 * x))


def _relax(p, p_eq, s, dt):
    return _clamp(p_eq + (p - p_eq) * np.exp(-s * dt), 0.0, 1.0)


def _depl_numerators(params):
    return (EPS_0 * params.eps_depl * Q_E * params.N_depl_dn,
            EPS_0 * params.eps_depl * Q_E * params.N_depl_up)


def _depl_branches(field_term, q_fix, k_dn, k_up):
    """(C_down, C_up) from the displacement charge eps0*eps_fe*E_fe, C/m^2."""
    return (k_dn / np.maximum(np.abs(field_term + q_fix), DENOM_MIN),
            k_up / np.maximum(np.abs(field_term - q_fix), DENOM_MIN))


def _blend(p, c_dn, c_up):
    return p * c_dn + (1.0 - p) * c_up


def _phi(q_pol, cv_fe, c_depl):
    return (q_pol + cv_fe) / c_depl


def _fn_consts(params):
    """Fowler-Nordheim prefactor, A/V^2, and exponent constant, V/m."""
    return (Q_E * Q_E / (8.0 * np.pi * H_PLANCK * params.phi_b_int),
            8.0 * np.pi * np.sqrt(2.0 * M_0 * params.m_eff_int)
            * (Q_E * params.phi_b_int) ** 1.5 / (3.0 * H_PLANCK * Q_E))


def _j_fn(e, pre, b):
    # sign(e)*|e|*|e| == e*|e| exactly.
    e_abs = np.abs(e)
    return pre * e * e_abs * _guarded_exp(-b / np.maximum(e_abs, 1e-280))


def _pf_consts(params):
    """Poole-Frenkel prefactor, barrier and barrier-lowering slope.

    q*mu*N_fe in A/V, q*phi_tr/(k_B T), and q/(k_B T)*sqrt(q/(pi*eps0*eps_fe))
    per sqrt(V/m).
    """
    kt = K_B * params.temperature
    return (Q_E * params.mu_fe * params.N_fe, Q_E * params.phi_tr_fe / kt,
            Q_E / kt * np.sqrt(Q_E / (np.pi * EPS_0 * params.eps_fe)))


def _j_pf(e, pre, barrier, lowering):
    # sign(e)*|e| == e exactly.
    return pre * e * _guarded_exp(lowering * np.sqrt(np.abs(e)) - barrier)


def transition_rates(e_fe, params) -> TransitionRates:
    """Switching attempt rates at ferroelectric field *e_fe* (V/m).

    k_down/up = (k_B T / h) * exp((-W_b +/- W_e) / (k_B T)), with the
    prefactor folded into the clamped exponent so both rates stay finite.
    """
    e_fe = np.asarray(e_fe, dtype=np.float64)
    _check_field(e_fe)
    offset, slope = _rate_consts(params)
    return TransitionRates(*_rates(slope * (e_fe - params.E_off), offset))


def p_steady_state(e_fe, params):
    """Equilibrium up-state probability at a fixed field.

    Fixed point of the rate equation: k_down/(k_down+k_up), evaluated in
    log-space as a logistic of 2*W_e/(k_B T) so it never overflows.
    """
    return _p_eq(_rate_consts(params)[1] * (np.asarray(e_fe) - params.E_off))


def p_step(p, rates: TransitionRates, dt):
    """Advance the up-state probability by *dt* with frozen rates.

    Exact solution of dp/dt = k_down*(1-p) - k_up*p for constant rates:
    p_eq + (p - p_eq) * exp(-(k_down+k_up)*dt), clipped to [0, 1] against
    round-off.
    """
    if np.any(np.asarray(dt) < 0):
        raise ValueError("p_step: dt must be >= 0")
    k_down, k_up = rates
    s = k_down + k_up
    p = np.asarray(p, dtype=np.float64)
    p_eq = np.where(s > 0.0, k_down / np.where(s > 0.0, s, 1.0), p)
    return _relax(p, p_eq, s, dt)


def polarization(p, params):
    """Device polarization P = P_s * (2p - 1), C/m^2."""
    return params.P_s * (2.0 * np.asarray(p) - 1.0)


def c_layer(eps_r, t):
    """Parallel-plate capacitance per area of a dielectric layer, F/m^2."""
    eps_r = np.asarray(eps_r, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    if np.any(t <= 0.0) or np.any(eps_r <= 0.0):
        raise ValueError("c_layer: eps_r and t must be > 0")
    return EPS_0 * eps_r / t


def c_depl_branches(e_fe, params):
    """Per-direction depletion capacitances (C_down, C_up), F/m^2.

    Polysilicon-depletion-style expression with both permittivities read as
    absolute: eps0*eps_depl*q*N / |eps0*eps_fe*E_fe +/- Q_fix|, "+" on the
    down branch. The denominator magnitude is floored at DENOM_MIN.
    """
    field_term = EPS_0 * params.eps_fe * np.asarray(e_fe, dtype=np.float64)
    return _depl_branches(field_term, params.Q_fix_depl, *_depl_numerators(params))


def c_depl(p, e_fe, params):
    """Depletion capacitance per area, blended over polarization state.

    C = p * C_down + (1-p) * C_up.
    """
    return _blend(np.asarray(p), *c_depl_branches(e_fe, params))


def phi_depl(p, v_fe, params, e_fe_for_cdepl):
    """Depolarization potential across the depletion element, volts.

    (2*P_s*p - P_s + C_fe*V_fe) / C_depl with all quantities per unit area;
    C_depl is evaluated at (p, *e_fe_for_cdepl*).
    """
    cv_fe = c_layer(params.eps_fe, params.t_fe) * np.asarray(v_fe)
    return _phi(polarization(p, params), cv_fe, c_depl(p, e_fe_for_cdepl, params))


def j_fn(e_int, params):
    """Fowler-Nordheim tunneling current density through the interface, A/m^2.

    Evaluated on the field magnitude and returned with the sign of *e_int*;
    exactly zero at zero field.
    """
    return _j_fn(np.asarray(e_int, dtype=np.float64), *_fn_consts(params))


def j_pf(e_leak, params):
    """Poole-Frenkel conduction current density in the ferroelectric, A/m^2.

    q*mu*N_fe*E * exp(-q*(phi_tr - sqrt(q*E/(pi*eps0*eps_fe))) / (k_B T)),
    evaluated on |E| and signed by *e_leak*; exactly zero at zero field.
    """
    return _j_pf(np.asarray(e_leak, dtype=np.float64), *_pf_consts(params))


class Coeffs(NamedTuple):
    """Parameter-only constants of one device or of a batch.

    :meth:`of` builds them once from a ``DeviceParams`` (scalars) or a
    ``ParamsBatch`` (arrays of shape (n,)); the methods evaluate the same
    formulas as the public functions without re-deriving any constant.
    Fields named like a ``DeviceParams`` attribute hold that parameter.
    """

    area: np.ndarray
    P_s: np.ndarray
    E_off: np.ndarray
    Q_fix_depl: np.ndarray
    c_fe: np.ndarray        # ferroelectric layer capacitance, F/m^2
    c_int: np.ndarray       # interface layer capacitance, F/m^2
    inv_t_fe: np.ndarray    # 1/t_fe, 1/m
    inv_t_int: np.ndarray   # 1/t_int, 1/m
    rate_offset: np.ndarray
    rate_slope: np.ndarray
    pf_pre: np.ndarray
    pf_barrier: np.ndarray
    pf_lowering: np.ndarray
    fn_pre: np.ndarray
    fn_b: np.ndarray
    depl_dn: np.ndarray     # depletion numerators eps0*eps_depl*q*N, per branch
    depl_up: np.ndarray

    @classmethod
    def of(cls, params) -> "Coeffs":
        return cls(
            params.area, params.P_s, params.E_off, params.Q_fix_depl,
            c_layer(params.eps_fe, params.t_fe), c_layer(params.eps_int, params.t_int),
            1.0 / params.t_fe, 1.0 / params.t_int,
            *_rate_consts(params), *_pf_consts(params), *_fn_consts(params),
            *_depl_numerators(params),
        )

    def slice(self, idx) -> "Coeffs":
        """Constants of the devices selected by an index array."""
        return self._make(a[idx] for a in self)

    def p_next(self, p, e_fe, dt):
        """Up-state probability after *dt* from *p* at field *e_fe*.

        ``p_step`` over ``transition_rates``: both clamped rates are
        positive, so their sum is too.
        """
        _check_field(e_fe)
        k_down, k_up = _rates(self.rate_slope * (e_fe - self.E_off), self.rate_offset)
        s = k_down + k_up
        return _relax(p, k_down / s, s, dt)

    def p_steady(self, e_fe):
        """``p_steady_state`` at field *e_fe*."""
        return _p_eq(self.rate_slope * (e_fe - self.E_off))

    def phi(self, p, cv_fe):
        """``phi_depl`` at state *p* and ferroelectric charge *cv_fe* = C_fe*V_fe.

        C_depl is taken at the ferroelectric's own field, whose displacement
        charge eps0*eps_fe*E_fe is C_fe*V_fe.
        """
        c = _blend(p, *_depl_branches(cv_fe, self.Q_fix_depl, self.depl_dn, self.depl_up))
        return _phi(polarization(p, self), cv_fe, c)

    def j_pf(self, e_fe):
        """``j_pf`` at field *e_fe*."""
        return _j_pf(e_fe, self.pf_pre, self.pf_barrier, self.pf_lowering)

    def j_fn(self, e_int):
        """``j_fn`` at field *e_int*."""
        return _j_fn(e_int, self.fn_pre, self.fn_b)
