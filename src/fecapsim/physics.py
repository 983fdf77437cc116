"""Constitutive equations of the FeCap compact model.

Every function is a pure map from state/field values and device parameters
to a physical quantity, SI units in and out. All functions broadcast over
numpy arrays, so a ``ParamsBatch`` and per-device state arrays evaluate the
whole batch in one call; scalars work the same way.

Each formula, and each constant that depends on the parameters only, is
written once, on :class:`Coeffs`: :meth:`Coeffs.of` derives the constants of
a device or a batch, and the methods evaluate the formulas over them. The
solver's implicit step and the quasi-static solves build ``Coeffs`` once per
run; the public functions cast and validate their arguments, build it on
every call and return the method's result, so they evaluate the same code.

Numerical guards used throughout:
- exponentials are evaluated as ``exp(clip(arg, -700, 700))`` so extreme
  fields clamp to rates/currents beyond any resolvable timescale instead of
  overflowing (for the transition rates the prefactor is folded into the
  exponent before clamping, which keeps the result finite); the
  Fowler-Nordheim exponent is never positive, so it is clipped from below
  only;
- the per-direction depletion-capacitance denominator is floored in
  magnitude at ``DENOM_MIN`` to avoid the singularity where the field term
  cancels the fixed charge.

The methods the solver's step evaluates on every Newton iterate
(``p_next``, ``phi``, ``j_pf``, ``j_fn``) call no helper functions beyond
the formulas they build on (``rates``, ``c_depl``, ``polarization``) and
build no named tuples.

Operand shapes: the solver evaluates the :class:`Coeffs` methods on arrays
shaped like its trial points, with every field repeated to that shape, and
the constants below are 0-d float64 arrays. At the batch widths the solver
runs (1 to a few hundred devices) a ufunc's fixed dispatch cost outweighs
its arithmetic, and a call that broadcasts operands of different shapes
costs about twice one on operands of the same shape; a Python float operand
also costs more than a 0-d array. The values, and so the results, are the
same either way.
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

_EXP_HI = np.array(EXP_CLAMP)
_EXP_LO = np.array(-EXP_CLAMP)
_DENOM_MIN = np.array(DENOM_MIN)
# Floor of |E| under the Fowler-Nordheim exponent, V/m.
_FIELD_MIN = np.array(1e-280)
_ZERO = np.array(0.0)
_ONE = np.array(1.0)
_TWO = np.array(2.0)
_NEG_TWO = np.array(-2.0)
# ndarray.all without its Python-level wrapper.
_all = np.logical_and.reduce


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
    return np.exp(_clamp(x, _EXP_LO, _EXP_HI))


def transition_rates(e_fe, params) -> TransitionRates:
    """Switching attempt rates at ferroelectric field *e_fe* (V/m).

    k_down/up = (k_B T / h) * exp((-W_b +/- W_e) / (k_B T)), with the
    prefactor folded into the clamped exponent so both rates stay finite.
    """
    return TransitionRates(*Coeffs.of(params).rates(np.asarray(e_fe, dtype=np.float64)))


def p_steady_state(e_fe, params):
    """Equilibrium up-state probability at a fixed field.

    Fixed point of the rate equation: k_down/(k_down+k_up), evaluated in
    log-space as a logistic of 2*W_e/(k_B T) so it never overflows.
    """
    return Coeffs.of(params).p_steady(np.asarray(e_fe))


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
    return _clamp(p_eq + (p - p_eq) * np.exp(-s * dt), _ZERO, _ONE)


def polarization(p, params, out=None):
    """Device polarization P = P_s * (2p - 1), C/m^2.

    Built in place, in *out* when given, so a large p costs no temporaries
    beyond the result.
    """
    pol = np.multiply(p, _TWO, out=out)
    pol -= _ONE
    pol *= params.P_s
    return pol


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
    q_disp = EPS_0 * params.eps_fe * np.asarray(e_fe, dtype=np.float64)
    k = Coeffs.of(params)
    return k.c_depl(_ONE, q_disp), k.c_depl(_ZERO, q_disp)


def c_depl(p, e_fe, params):
    """Depletion capacitance per area, blended over polarization state.

    C = p * C_down + (1-p) * C_up.
    """
    return Coeffs.of(params).c_depl(
        np.asarray(p), EPS_0 * params.eps_fe * np.asarray(e_fe, dtype=np.float64))


def phi_depl(p, v_fe, params, e_fe_for_cdepl):
    """Depolarization potential across the depletion element, volts.

    (2*P_s*p - P_s + C_fe*V_fe) / C_depl with all quantities per unit area;
    C_depl is evaluated at (p, *e_fe_for_cdepl*).
    """
    k = Coeffs.of(params)
    return k.phi(np.asarray(p), k.c_fe * np.asarray(v_fe),
                 EPS_0 * params.eps_fe * np.asarray(e_fe_for_cdepl, dtype=np.float64))


def j_fn(e_int, params):
    """Fowler-Nordheim tunneling current density through the interface, A/m^2.

    Evaluated on the field magnitude and returned with the sign of *e_int*;
    exactly zero at zero field.
    """
    return Coeffs.of(params).j_fn(np.asarray(e_int, dtype=np.float64))


def j_pf(e_leak, params):
    """Poole-Frenkel conduction current density in the ferroelectric, A/m^2.

    q*mu*N_fe*E * exp(-q*(phi_tr - sqrt(q*E/(pi*eps0*eps_fe))) / (k_B T)),
    evaluated on |E| and signed by *e_leak*; exactly zero at zero field.
    """
    return Coeffs.of(params).j_pf(np.asarray(e_leak, dtype=np.float64))


class Coeffs(NamedTuple):
    """Parameter-only constants of one device or of a batch, and the model's
    formulas over them.

    :meth:`of` builds them once from a ``DeviceParams`` (scalars) or a
    ``ParamsBatch`` (arrays of shape (n,)). Fields named like a
    ``DeviceParams`` attribute hold that parameter. The solver repeats each
    (n,) field over its trial rows, (rows, n), so that the methods see
    operands of one shape; the device axis stays last.
    """

    area: np.ndarray
    P_s: np.ndarray
    E_off: np.ndarray
    Q_fix_depl: np.ndarray
    c_fe: np.ndarray        # ferroelectric layer capacitance, F/m^2
    c_int: np.ndarray       # interface layer capacitance, F/m^2
    inv_t_fe: np.ndarray    # 1/t_fe, 1/m
    inv_t_int: np.ndarray   # 1/t_int, 1/m
    rate_offset: np.ndarray  # log(k_B T/h) - W_b/(k_B T)
    rate_slope: np.ndarray   # q*d_e/(k_B T), m/V
    pf_pre: np.ndarray       # q*mu*N_fe, A/V
    pf_barrier: np.ndarray   # q*phi_tr/(k_B T)
    pf_lowering: np.ndarray  # q/(k_B T)*sqrt(q/(pi*eps0*eps_fe)), per sqrt(V/m)
    fn_pre: np.ndarray       # Fowler-Nordheim prefactor, A/V^2
    fn_neg_b: np.ndarray     # Fowler-Nordheim exponent constant, negated, V/m
    depl_dn: np.ndarray     # depletion numerators eps0*eps_depl*q*N, per branch
    depl_up: np.ndarray

    @classmethod
    def of(cls, params) -> "Coeffs":
        kt = K_B * params.temperature
        return cls(
            params.area, params.P_s, params.E_off, params.Q_fix_depl,
            c_layer(params.eps_fe, params.t_fe), c_layer(params.eps_int, params.t_int),
            1.0 / params.t_fe, 1.0 / params.t_int,
            np.log(kt / H_PLANCK) - params.W_b / kt, Q_E * params.d_e / kt,
            Q_E * params.mu_fe * params.N_fe, Q_E * params.phi_tr_fe / kt,
            Q_E / kt * np.sqrt(Q_E / (np.pi * EPS_0 * params.eps_fe)),
            Q_E * Q_E / (8.0 * np.pi * H_PLANCK * params.phi_b_int),
            -8.0 * np.pi * np.sqrt(2.0 * M_0 * params.m_eff_int)
            * (Q_E * params.phi_b_int) ** 1.5 / (3.0 * H_PLANCK * Q_E),
            EPS_0 * params.eps_depl * Q_E * params.N_depl_dn,
            EPS_0 * params.eps_depl * Q_E * params.N_depl_up,
        )

    def slice(self, idx) -> "Coeffs":
        """Constants of the devices selected by an index array along the
        last (device) axis."""
        return self._make(a[..., idx] for a in self)

    def rates(self, e_fe):
        """``transition_rates`` at field *e_fe*, as a (k_down, k_up) pair.

        The slope times (E_fe - E_off) is the field-induced barrier
        modulation W_e = q*(E_fe - E_off)*d_e in units of k_B T.
        """
        if not _all(np.isfinite(e_fe), axis=None):
            raise ValueError("transition_rates: non-finite field")
        x = self.rate_slope * (e_fe - self.E_off)
        return (np.exp(np.minimum(np.maximum(self.rate_offset + x, _EXP_LO), _EXP_HI)),
                np.exp(np.minimum(np.maximum(self.rate_offset - x, _EXP_LO), _EXP_HI)))

    def p_next(self, p, e_fe, dt):
        """Up-state probability after *dt* from *p* at field *e_fe*.

        ``p_step`` over ``transition_rates``: both clamped rates are
        positive, so their sum is too.
        """
        k_down, k_up = self.rates(e_fe)
        s = k_down + k_up
        p_eq = k_down / s
        return np.minimum(np.maximum(p_eq + (p - p_eq) * np.exp(-s * dt), _ZERO), _ONE)

    def p_steady(self, e_fe):
        """``p_steady_state`` at field *e_fe*."""
        x = self.rate_slope * (e_fe - self.E_off)
        return _ONE / (_ONE + _guarded_exp(_NEG_TWO * x))

    def c_depl(self, p, q_disp):
        """``c_depl`` at state *p* and displacement charge *q_disp* =
        eps0*eps_fe*E_fe, C/m^2; p = 1 and p = 0 give the two branches of
        ``c_depl_branches`` exactly."""
        return (p * (self.depl_dn / np.maximum(np.abs(q_disp + self.Q_fix_depl), _DENOM_MIN))
                + (_ONE - p) * (self.depl_up
                                / np.maximum(np.abs(q_disp - self.Q_fix_depl), _DENOM_MIN)))

    def phi(self, p, cv_fe, q_disp=None):
        """``phi_depl`` at state *p* and ferroelectric charge *cv_fe* = C_fe*V_fe.

        C_depl is taken at displacement charge *q_disp*; by default at the
        ferroelectric's own field, whose displacement charge eps0*eps_fe*E_fe
        is C_fe*V_fe.
        """
        c = self.c_depl(p, cv_fe if q_disp is None else q_disp)
        return (polarization(p, self) + cv_fe) / c

    def j_pf(self, e_fe):
        """``j_pf`` at field *e_fe*."""
        # sign(e)*|e| == e exactly.
        return self.pf_pre * e_fe * np.exp(np.minimum(np.maximum(
            self.pf_lowering * np.sqrt(np.abs(e_fe)) - self.pf_barrier, _EXP_LO), _EXP_HI))

    def j_fn(self, e_int):
        """``j_fn`` at field *e_int*."""
        # sign(e)*|e|*|e| == e*|e| exactly. fn_b > 0, so the exponent is
        # never positive and only the lower clamp can bind.
        e_abs = np.abs(e_int)
        return self.fn_pre * e_int * e_abs * np.exp(np.maximum(
            self.fn_neg_b / np.maximum(e_abs, _FIELD_MIN), _EXP_LO))
