"""Implicit transient solver for the FeCap equivalent circuit.

Topology (hard-wired): ferroelectric branch (layer capacitance, polarization
displacement source, Poole-Frenkel leakage) in series with the interface
branch (layer capacitance, Fowler-Nordheim leakage) in series with the
depletion element, whose potential is an algebraic function of the state.

Each time step solves for the internal split (V_fe, V_int) - plus the
terminal voltage V_appl under current drive - such that the voltage loop
closes and the two branch currents match. The polarization state is
advanced semi-implicitly: the exact exponential solution of the rate
equation over the step, with rates frozen at the trial end-of-step field.

Every implicit solve reduces exactly to one scalar equation per device:
- voltage drive: the loop gives V_int from V_fe, leaving the KCL mismatch
  as an equation in V_fe;
- current drive: the interface branch alone fixes V_int (its current must
  equal the drive); V_fe then makes the ferroelectric branch carry the same
  current, and V_appl follows from the loop;
- the t = 0 split: V_fe + phi_depl(p0, V_fe) = V_appl(0) with V_int = 0.
All of them go through :func:`_root`, a bracketed Newton iteration whose
slope comes from a forward-difference probe evaluated in the same call.
The step's residual is one fused pass over :class:`~fecapsim.physics.Coeffs`,
the parameter-only constants, built once per batch. Each device iterates on
its own and stops once converged, so its result never depends on the rest
of the batch. A base step's Newton start is predicted per device, as in
SPICE, from the accepted states since the current breakpoint began; a step
that does not converge is halved for the failing devices only.

Operand shapes: a step is bound by numpy's fixed cost per call, and a ufunc
that broadcasts operands of different shapes costs about twice one on
operands of the same shape (see :mod:`~fecapsim.physics`). So every ufunc of
the step's hot loop takes same-shape or 0-d operands: a run repeats its
``Coeffs`` over the two trial rows of :func:`_root` (iterate and probe),
each step repeats over them its drive value and the three state fields the
residual reads (p, V_fe, V_int), and the scalar constants are 0-d arrays.
The work per Newton iterate is kept to what the iterate needs: the residual
(:func:`_make_residual`) returns the KCL mismatch and the branch quantities
of the record row, and :func:`_row` forms V_appl or V_int, the terminal
current and the loop residual once per accepted step. Per run, not per
step or root-find, a run interpolates the drive in one vectorized call (the
table that the t = 0 split, every step and every half reads), fixes each
device's KCL tolerance (:func:`_tol_i`, which the DC sweep uses too) and
silences numpy's divide/invalid warnings (:data:`_QUIET`).

A converged step yields one row of the record, a :class:`_StepAux` whose
fields are derived from the :class:`TimeSeries` columns; its first four are
the next step's state. Every row goes through :func:`_row`: each accepted
step's, the t = 0 row's and :func:`step_residual`'s. ``TimeSeries`` is the
one column list, for one device or a batch: the record row, recording,
:meth:`TimeSeries.device`, the joining of phases and the CSV all follow
its fields.

Everything is vectorized over a device axis: a batch of n independent
devices advances in one pass, and a single device is just n = 1.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from .params import DeviceParams, ParamsBatch
from .physics import _ONE, _TWO, _ZERO, Coeffs, _all, _clamp
# The step evaluates these formulas through Coeffs; the public functions stay
# bound here because perfbench/tracing.py wraps the physics calls at these names.
from .physics import (  # noqa: F401
    c_layer,
    j_fn,
    j_pf,
    p_step,
    phi_depl,
    polarization,
    transition_rates,
)
from .waveform import CURRENT, VOLTAGE, Waveform

# Default KCL tolerance, A, at the reference area, m^2; it scales with area.
_TOL_I_REF = np.array(1e-12)
_TOL_I_REF_AREA = np.array(25e-12)
# Largest Newton update per iteration, volts.
_MAX_NEWTON_STEP = np.array(50.0)
_MIN_NEWTON_STEP = np.array(-50.0)
# Relative forward-difference offset of the slope probe.
_FD_RELATIVE = np.array(1e-7)
_HALF = np.array(0.5)
_NAN = np.array(np.nan)
_THREE = np.array(3.0)
# Floating-point error state of every run that calls _root: a flat or
# non-finite Newton slope is expected and handled there.
_QUIET = np.errstate(divide="ignore", invalid="ignore")
# Tolerance (V) and iteration budget of the t = 0 split.
_SPLIT_TOL_V = 1e-12
_SPLIT_MAX_ITERS = 100


@dataclass
class SolverConfig:
    """Integration and Newton-iteration settings.

    A step is accepted for a device when each of its scalar solves ends at
    a point whose Newton correction is at most ``newton_tol_v`` (volts: on
    V_fe, and on V_int under current drive) and whose current mismatch is
    at most ``newton_tol_i`` (amperes: the internal-node KCL residual, and
    under current drive the terminal-current residual). The voltage loop
    holds by construction. ``newton_tol_i = None`` scales the default
    1e-12 A tolerance by device area / 25 um^2 at solve time.

    Each base step's Newton iteration starts from a per-device prediction
    extrapolated from the accepted states of the current breakpoint
    interval, and restarts from the previous state at every breakpoint; the
    tolerances above, not the start, decide when a step is accepted.
    """

    dt: float = 1e-7
    newton_tol_v: float = 1e-9
    newton_tol_i: Optional[float] = None
    max_newton_iters: int = 20
    max_step_halvings: int = 12
    p_init: float = 0.0
    record_every: int = 1

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be finite and > 0, got {self.dt}")
        if not (np.isfinite(self.newton_tol_v) and self.newton_tol_v > 0.0):
            raise ValueError(f"newton_tol_v must be finite and > 0, got {self.newton_tol_v}")
        if self.newton_tol_i is not None and not (np.isfinite(self.newton_tol_i)
                                                  and self.newton_tol_i > 0.0):
            raise ValueError(f"newton_tol_i must be finite and > 0, got {self.newton_tol_i}")
        if not 0.0 <= self.p_init <= 1.0:
            raise ValueError("p_init must be in [0, 1]")
        for name in ("max_newton_iters", "max_step_halvings", "record_every"):
            value = getattr(self, name)
            # A fractional iteration budget is never met exactly, so the
            # Newton loop would not stop.
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_newton_iters < 1 or self.max_step_halvings < 0:
            raise ValueError("iteration limits out of range")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


@dataclass(frozen=True)
class DeviceState:
    """Dynamic state of one device at time ``t``."""

    p: float
    v_fe: float
    v_int: float
    t: float = 0.0


class StepFailureError(RuntimeError):
    """Newton failed to converge after all step halvings.

    ``stats`` holds the solver work of the failed run up to the failure.
    """

    def __init__(self, t: float, dt: float, loop_residual: float, kcl_residual: float,
                 device_indices=(), stats: Optional["SolveStats"] = None):
        self.t = float(t)
        self.dt = float(dt)
        self.loop_residual = float(loop_residual)
        self.kcl_residual = float(kcl_residual)
        self.device_indices = tuple(int(i) for i in device_indices)
        self.stats = stats if stats is not None else SolveStats()
        msg = (f"step to t={t:.6e} s failed at dt={dt:.3e} s "
               f"(|loop|={loop_residual:.3e} V, |KCL|={kcl_residual:.3e} A")
        if self.device_indices:
            msg += f", devices {self.device_indices[:8]}"
        super().__init__(msg + ")")

    def __reduce__(self):
        # Rebuilt from the fields, so the error survives a worker process.
        return (type(self), (self.t, self.dt, self.loop_residual, self.kcl_residual,
                             self.device_indices, self.stats))


@dataclass
class SolveStats:
    """Aggregate work counters for one transient run.

    ``residual_evals`` counts batched evaluations of the full step residual
    (each at the iterates and their slope probes); the interface-only
    V_int solve under current drive is not counted.
    """

    steps: int = 0
    newton_iters: int = 0
    halvings: int = 0
    residual_evals: int = 0

    def merge(self, other: "SolveStats"):
        self.steps += other.steps
        self.newton_iters += other.newton_iters
        self.halvings += other.halvings
        self.residual_evals += other.residual_evals


class _State(NamedTuple):
    p: np.ndarray
    v_fe: np.ndarray
    v_int: np.ndarray
    v_appl: np.ndarray


def _rows(a):
    """Per-device array *a*, (n,), repeated over the two trial rows of
    :func:`_root`: shape (2, n)."""
    return np.array((a, a))


def _scatter(full, idx, sub):
    """Copy of the per-device arrays *full* with entries *idx* taken from *sub*."""
    out = [a.copy() for a in full]
    for a, s in zip(out, sub):
        a[idx] = s
    return full._make(out)


def _csv(header: str, scale: Optional[float] = None):
    """A contractual column: its CSV header and output scale (None: as is)."""
    return field(metadata={"csv": (header, scale)})


@dataclass
class TimeSeries:
    """Recorded transient (SI units) of one device or of a device batch.

    Each column holds one value per recorded row: shape (rows,) for one
    device and (rows, n) for a batch of n, whose ``t`` stays (rows,). These
    fields are the one column list: the solver records, phases join and the
    CSV writes them in this order, each under the header and output scale in
    its metadata (C/m^2 -> uC/cm^2, A/m^2 -> A/cm^2). ``j_pol``,
    ``loop_residual`` and ``kcl_residual`` are solver diagnostics without a
    CSV column.
    """

    t: np.ndarray = _csv("t_s")
    v_appl: np.ndarray = _csv("V_appl_V")
    i: np.ndarray = _csv("I_A")
    p: np.ndarray = _csv("p")
    pol: np.ndarray = _csv("P_uC_cm2", 1e2)
    v_fe: np.ndarray = _csv("V_fe_V")
    v_int: np.ndarray = _csv("V_int_V")
    phi_depl: np.ndarray = _csv("phi_depl_V")
    j_pf: np.ndarray = _csv("J_pf_A_cm2", 1e-4)
    j_fn: np.ndarray = _csv("J_fn_A_cm2", 1e-4)
    j_pol: np.ndarray = None
    loop_residual: np.ndarray = None
    kcl_residual: np.ndarray = None
    stats: SolveStats = field(default_factory=SolveStats)

    def __len__(self):
        return self.t.size

    def columns(self) -> dict:
        """Every column by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "stats"}

    def device(self, i: int) -> "TimeSeries":
        """Device *i* of a batch record."""
        cols = {name: a[:, i] for name, a in self.columns().items() if name != "t"}
        return TimeSeries(t=self.t.copy(), stats=self.stats, **cols)

    def charge(self) -> np.ndarray:
        """Cumulative terminal charge by trapezoidal integration along the
        rows, coulombs; shaped like ``i``."""
        if self.t.size < 2:
            return np.zeros_like(self.i)
        dq = (0.5 * (self.i[1:] + self.i[:-1]).T * np.diff(self.t)).T
        return np.concatenate([np.zeros_like(self.i[:1]), np.cumsum(dq, axis=0)])


_StepAux = NamedTuple("_StepAux", [(name, np.ndarray) for name in _State._fields + tuple(
    f.name for f in fields(TimeSeries)
    if f.name not in _State._fields + ("t", "pol", "stats"))])
_StepAux.__doc__ = """Per-device record row of a converged (or trial) step.

Its fields are the :class:`TimeSeries` columns but ``t`` and ``pol``, which
the run adds: first the step's end state (:class:`_State`'s four fields,
the next step's start), then the others in column order.
"""


def _root(fun, x0: np.ndarray, tol_f, tol_x, max_iters: int):
    """Safeguarded Newton on one scalar equation f(x) = 0 per device.

    ``fun`` takes trial points of shape (2, n), the iterates and a
    forward-difference probe above them, and returns (f, aux): f and each
    array of the tuple aux shaped like the trials. A device converges once
    |f| <= tol_f and its Newton correction |f/f'| <= tol_x, and is frozen
    from then on. Each device keeps a sign bracket of the points it has
    seen; a Newton step that leaves the bracket bisects it instead. One
    point gives at most one side, so the bracket is built from the second
    iteration on, when it can first hold both. Every array here is (n,)
    and every constant 0-d, so rules select with ``np.copyto(..., where=)``
    rather than by boolean indexing. *x0* is never written to; the result
    may be *x0* itself.

    A flat or non-finite slope divides by zero: callers run under
    :data:`_QUIET`, once per run rather than once per root-find.

    Returns (x, f, converged mask, iterations, aux at x).
    """
    x = np.asarray(x0, dtype=np.float64)
    tol_f, tol_x = np.asarray(tol_f), np.asarray(tol_x)
    iters = 0
    while True:
        h = _FD_RELATIVE * np.maximum(np.abs(x), _ONE)
        f2, aux = fun(np.array((x, x + h)))
        f = f2[0]
        dx = f * h / (f - f2[1])
        np.copyto(dx, _ZERO, where=~np.isfinite(dx))
        conv = (np.abs(f) <= tol_f) & (np.abs(dx) <= tol_x)
        if iters == max_iters or _all(conv):
            return x, f, conv, iters, [a[0] for a in aux]
        x_new = x + _clamp(dx, _MIN_NEWTON_STEP, _MAX_NEWTON_STEP)
        if iters == 0:
            start = x, f
        else:
            if iters == 1:
                x_neg = np.where(start[1] < _ZERO, start[0], _NAN)
                x_pos = np.where(start[1] > _ZERO, start[0], _NAN)
            np.copyto(x_neg, x, where=f < _ZERO)
            np.copyto(x_pos, x, where=f > _ZERO)
            # Strictly inside the bracket the product is negative; it is NaN,
            # so no bisection, until both sides of the root are known.
            np.copyto(x_new, _HALF * (x_neg + x_pos),
                      where=(x_new - x_neg) * (x_new - x_pos) >= _ZERO)
        np.copyto(x_new, x, where=conv)
        x = x_new
        iters += 1


def _make_residual(k: Coeffs, prev: _State, dt: float):
    """The implicit step from *prev*; returns (residual, interface).

    ``residual`` is the one formula path of the step. It takes V_fe and
    either V_int (V_appl then follows from the loop) or V_appl (V_int
    follows from the loop), or both (as :func:`step_residual` does, which
    leaves the loop open); *iface*, the (j_fn, interface current density)
    pair that ``interface`` gives at a trial V_int, stands in for the
    interface branch when V_int is fixed. It returns the internal-node KCL
    mismatch, A, and the tuple (p, v_int, phi_depl, j_pf, j_fn, j_int,
    j_pol); ``_row(area, v_fe, v_app, *residual(...))`` makes that a record
    row. Any array may carry a leading trial axis in front of the device
    axis; the solver gives the trials, *prev* and the fields of *k* one
    shape, (2, n). Only ``p``, ``v_fe`` and ``v_int`` of *prev* are read.
    """
    inv_dt = _ONE / dt
    c_fe_dt = k.c_fe * inv_dt
    c_int_dt = k.c_int * inv_dt
    pol_dt = _TWO * k.P_s * inv_dt

    def interface(v_int):
        jfn = k.j_fn(v_int * k.inv_t_int)
        return jfn, c_int_dt * (v_int - prev.v_int) + jfn

    def residual(v_fe, v_int=None, v_app=None, iface=None):
        e_fe = v_fe * k.inv_t_fe
        p_n = k.p_next(prev.p, e_fe, dt)
        cv_fe = k.c_fe * v_fe
        phi = k.phi(p_n, cv_fe)
        if v_int is None:
            v_int = v_app - v_fe - phi
        jpf = k.j_pf(e_fe)
        jfn, j_int = interface(v_int) if iface is None else iface
        j_pol = pol_dt * (p_n - prev.p)
        j_fe = c_fe_dt * (v_fe - prev.v_fe) + j_pol + jpf
        return k.area * (j_fe - j_int), (p_n, v_int, phi, jpf, jfn, j_int, j_pol)

    return residual, interface


def _row(area, v_fe, v_app, kcl, aux) -> _StepAux:
    """Record row of a step solved at *v_fe*, from the (*kcl*, *aux*) that
    :func:`_make_residual`'s ``residual`` returned there; *v_app* is None
    when the loop gives it. Every record row is built here: each accepted
    step's, the t = 0 row's and :func:`step_residual`'s, so the terminal
    current and the loop residual have one formula."""
    p_n, v_int, phi, jpf, jfn, j_int, j_pol = aux
    if v_app is None:
        v_app = v_fe + v_int + phi
    return _StepAux(p_n, v_fe, v_int, v_app, area * j_int, phi, jpf, jfn, j_pol,
                    v_app - v_fe - v_int - phi, kcl)


def _tol_i(newton_tol_i: Optional[float], area) -> np.ndarray:
    """Per-device KCL tolerance, A, of the transient and the DC solves:
    *newton_tol_i*, or by default 1e-12 A scaled by device area / 25 um^2."""
    if newton_tol_i is not None:
        return np.full_like(area, newton_tol_i)
    return _TOL_I_REF * area / _TOL_I_REF_AREA


def _solve_step(k: Coeffs, st: _State, dt: float, drive_end: np.ndarray,
                mode: str, cfg: SolverConfig, tol_i: np.ndarray, guess=None):
    """One implicit step as scalar root-finds.

    Returns (row, conv, Newton iterations, residual evaluations).
    Under current drive V_int is solved first, from the interface branch
    alone carrying the drive current; V_fe then balances the internal-node
    KCL in both modes. The root-finds start from *guess*, a (V_fe, V_int)
    pair, or from the previous state when it is None. *k* and *drive_end*
    are repeated over the trial rows, shape (2, n); *st* and the KCL
    tolerance *tol_i* are per device.
    """
    v_fe0, v_int0 = (st.v_fe, st.v_int) if guess is None else guess
    residual, interface = _make_residual(
        k, _State(_rows(st.p), _rows(st.v_fe), _rows(st.v_int), None), dt)
    v_int, v_app, iface = None, drive_end, None
    conv, iters = True, 0
    if mode == CURRENT:
        def terminal(v):
            jfn, j_int = interface(v)
            return k.area * j_int - drive_end, (jfn, j_int)

        v_int, _, conv, iters, iface = _root(terminal, v_int0, tol_i,
                                             cfg.newton_tol_v, cfg.max_newton_iters)
        v_int, iface, v_app = _rows(v_int), tuple(map(_rows, iface)), None

    v_fe, kcl, conv_fe, iters_fe, aux = _root(
        lambda v: residual(v, v_int, v_app, iface), v_fe0, tol_i, cfg.newton_tol_v,
        cfg.max_newton_iters)
    row = _row(k.area[0], v_fe, None if v_app is None else v_app[0], kcl, aux)
    return row, conv & conv_fe, iters + iters_fe, iters_fe + 1


def _initial_state(k: Coeffs, v_app0: np.ndarray, p_init, t0: float) -> _State:
    """Internal split consistent with the drive at t = 0.

    Convention: the interface capacitor starts discharged (V_int = 0) and
    V_fe absorbs the depolarization potential of the preset polarization,
    i.e. V_fe solves V_fe + phi_depl(p0, V_fe) = V_appl(0).
    """
    n = v_app0.shape[0]
    p0 = np.broadcast_to(np.asarray(p_init, dtype=np.float64), (n,)).copy()

    def loop(v):
        return v + k.phi(p0, k.c_fe * v) - v_app0, ()

    v_fe0, r, conv, _, _ = _root(loop, v_app0, _SPLIT_TOL_V, _SPLIT_TOL_V,
                                 _SPLIT_MAX_ITERS)
    if not conv.all():
        bad = np.flatnonzero(~conv)
        raise StepFailureError(t=t0, dt=0.0,
                               loop_residual=float(np.max(np.abs(r[bad]))),
                               kcl_residual=0.0, device_indices=bad)
    return _State(p0, v_fe0, np.zeros(n), v_app0.astype(np.float64).copy())


def _advance(k: Coeffs, st: _State, t0: float, dt, drive_start: np.ndarray,
             drive_end: np.ndarray, mode: str, cfg: SolverConfig, tol_i: np.ndarray,
             depth: int, stats: SolveStats, cols: np.ndarray, guess=None):
    """Advance every device by exactly *dt*, halving locally on failure.

    Returns the converged step's :class:`_StepAux`. *k* and the drive at t0
    and t0 + dt, *drive_start* and *drive_end*, are repeated over the trial
    rows, shape (2, n); *tol_i* is per device. *guess* is the predicted
    start of the step's root-finds (see :func:`_predict`); the halves of a
    failed step start from their previous state and meet at the mean drive
    of its ends, as no step crosses a breakpoint.
    """
    aux, conv, iters, evals = _solve_step(k, st, dt, drive_end, mode, cfg, tol_i, guess)
    stats.steps += 1
    stats.newton_iters += iters
    stats.residual_evals += evals
    if conv.all():
        return aux

    bad = np.flatnonzero(~conv)
    if depth <= 0:
        kcl = np.abs(aux.kcl_residual[bad])
        if mode == CURRENT:
            kcl = np.maximum(kcl, np.abs(aux.i[bad] - drive_end[0, bad]))
        raise StepFailureError(
            t=t0 + dt, dt=dt,
            loop_residual=float(np.max(np.abs(aux.loop_residual[bad]))),
            kcl_residual=float(np.max(kcl)),
            device_indices=cols[bad],
            stats=stats,
        )

    stats.halvings += 1
    sub_k = k.slice(bad)
    sub_st = _State(*(a[bad] for a in st))
    sub_tol, sub_cols = tol_i[bad], cols[bad]
    start, end = drive_start[:, bad], drive_end[:, bad]
    mid = _HALF * (start + end)
    half = 0.5 * dt
    aux_a = _advance(sub_k, sub_st, t0, half, start, mid, mode, cfg, sub_tol,
                     depth - 1, stats, sub_cols)
    aux_b = _advance(sub_k, _State(*aux_a[:4]), t0 + half, half, mid, end, mode, cfg,
                     sub_tol, depth - 1, stats, sub_cols)
    return _scatter(aux, bad, aux_b)


def _predict(hist):
    """Predicted (V_fe, V_int) at the next grid point, or None for no history.

    *hist* holds the accepted base-grid states since the current breakpoint
    interval began, newest last. The grid is uniform inside an interval, so
    the polynomial through two or three of them extrapolates with the exact
    weights (2, -1) and (3, -3, 1).
    """
    if len(hist) == 1:
        return None
    if len(hist) == 2:
        b, a = hist
        return a.v_fe + (a.v_fe - b.v_fe), a.v_int + (a.v_int - b.v_int)
    c, b, a = hist
    return _THREE * (a.v_fe - b.v_fe) + c.v_fe, _THREE * (a.v_int - b.v_int) + c.v_int


@_QUIET
def run_transient_batch(pb: ParamsBatch, wf: Waveform,
                        cfg: Optional[SolverConfig] = None,
                        init: Optional[_State] = None) -> TimeSeries:
    """Integrate a batch of independent devices over one drive waveform.

    Returns a :class:`TimeSeries` whose columns are shaped (rows, n). The
    drive is shared by every device (1-D values, or a single column) or
    gives each device its own column.

    The base time grid subdivides every waveform breakpoint interval by the
    configured dt; failed steps are halved locally (per device) up to
    ``max_step_halvings`` levels. Each base step's root-finds start from a
    per-device prediction extrapolated from the accepted states of the
    current breakpoint interval; the prediction restarts at every
    breakpoint, where the drive's slope may change.

    One call interpolates the drive at the first instant and at every base
    step's end, t0 + dt, into a (steps + 1, n) table, repeating a shared
    drive over the devices; the drive is linear inside a step.

    Rows are recorded on the base grid: the first instant, every
    ``record_every``-th step and the last instant. A step's row is its
    converged :class:`_StepAux`, whose fields carry the column names, plus
    ``t`` and ``pol``; the next step starts from that row's state. The
    first row holds the initial split with no polarization current and no
    KCL residual, built by the same :func:`_row`.

    ``init`` continues from a known state (e.g. the previous drive phase);
    without it the internal voltages are solved self-consistently from the
    drive value at the first instant with p = ``cfg.p_init``. The drive may
    jump at the start of a continued run, so its prediction history begins
    after the first step rather than at ``init``.
    """
    cfg = cfg or SolverConfig()
    if wf.values.ndim == 2 and wf.values.shape[1] not in (1, pb.n):
        raise ValueError("waveform device axis does not match batch size")
    grid = wf.time_grid(cfg.dt)
    n = pb.n
    k = Coeffs.of(pb)
    dts = np.diff(grid)
    drive = wf.value_at(np.concatenate([grid[:1], grid[:-1] + dts]))
    drive = np.broadcast_to(drive.reshape(grid.size, -1), (grid.size, n))

    if init is not None:
        st = _State(*(np.asarray(a, dtype=np.float64).copy() for a in init))
    else:
        v_app0 = drive[0] if wf.mode == VOLTAGE else np.zeros(n)
        st = _initial_state(k, v_app0, cfg.p_init, grid[0])

    n_steps, every = grid.size - 1, cfg.record_every
    # Step i lands in row ceil(i / every).
    n_rows = 1 + -(-n_steps // every)
    out = {name: np.empty((n_rows, n)) for name in _StepAux._fields + ("pol",)}
    out["t"] = np.empty(n_rows)
    stats = SolveStats()

    def record(row, t, aux):
        out["t"][row] = t
        for name, a in zip(aux._fields, aux):
            out[name][row] = a

    # The initial split carries no capacitive current: the terminal current
    # is the interface leakage, and the KCL residual is not measured.
    j_fn, zero = k.j_fn(st.v_int * k.inv_t_int), np.zeros(n)
    record(0, grid[0], _row(k.area, st.v_fe, st.v_appl, zero, (
        st.p, st.v_int, k.phi(st.p, k.c_fe * st.v_fe), k.j_pf(st.v_fe * k.inv_t_fe),
        j_fn, j_fn, zero)))

    k_trials = k._make(map(_rows, k))
    tol_i, cols = _tol_i(cfg.newton_tol_i, k.area), np.arange(n)
    # Breakpoint interval of each base step.
    seg = np.searchsorted(wf.times, 0.5 * (grid[:-1] + grid[1:])).tolist()
    drive_end = _rows(drive[0])
    for i in range(1, n_steps + 1):
        if i == 1 or seg[i - 1] != seg[i - 2]:
            hist = []
        hist = hist[-2:] + [st]
        drive_start, drive_end = drive_end, _rows(drive[i])
        # dts[i - 1, ...] is a 0-d view: the step's dt as an array operand.
        aux = _advance(k_trials, st, grid[i - 1], dts[i - 1, ...], drive_start, drive_end,
                       wf.mode, cfg, tol_i, cfg.max_step_halvings, stats, cols,
                       _predict(hist))
        st = _State(*aux[:4])
        if i == 1 and init is not None:
            # The drive may jump at t0 (a clamp after a current pulse), so
            # a continued run's history starts after its first step.
            hist = []
        if i % every == 0 or i == n_steps:
            record(-(-i // every), grid[i], aux)

    polarization(out["p"], pb, out=out["pol"])
    return TimeSeries(stats=stats, **out)


def batch_final_state(ts: TimeSeries) -> _State:
    """State at the last recorded row, for continuing into a next phase."""
    return _State(*(getattr(ts, name)[-1].copy() for name in _State._fields))


def run_transient(params: DeviceParams, wf: Waveform,
                  cfg: Optional[SolverConfig] = None) -> TimeSeries:
    """Single-device transient; see :func:`run_transient_batch`."""
    pb = ParamsBatch.from_params(params, 1)
    batch = run_transient_batch(pb, wf, cfg)
    return batch.device(0)


@_QUIET
def solve_timestep(state: DeviceState, dt: float, drive_value: float,
                   params: DeviceParams, cfg: Optional[SolverConfig] = None,
                   mode: str = VOLTAGE) -> DeviceState:
    """Advance one device by *dt* under a constant drive value.

    Scalar Newton root-finds on the implicit step; on non-convergence the step is
    halved and retried, up to ``max_step_halvings`` levels deep. Raises
    :class:`StepFailureError` if the budget is exhausted.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    cfg = cfg or SolverConfig()
    k = Coeffs.of(ParamsBatch.from_params(params, 1))
    st = _State(*(np.array([x], dtype=np.float64) for x in (
        state.p, state.v_fe, state.v_int, drive_value if mode == VOLTAGE else 0.0)))
    drive = np.full((2, 1), drive_value)
    new = _advance(k._make(map(_rows, k)), st, state.t, dt, drive, drive, mode, cfg,
                   _tol_i(cfg.newton_tol_i, k.area), cfg.max_step_halvings,
                   SolveStats(), np.arange(1))
    return DeviceState(p=float(new.p[0]), v_fe=float(new.v_fe[0]),
                       v_int=float(new.v_int[0]), t=state.t + dt)


def step_residual(state_next: DeviceState, state_prev: DeviceState, dt: float,
                  drive_value: float, params: DeviceParams,
                  mode: str = VOLTAGE, v_appl_trial: float = 0.0):
    """Residuals of a trial step, in the solver's own discretization.

    Returns (loop residual V, KCL residual A) under voltage drive, plus the
    terminal-current residual (A) under current drive, where *v_appl_trial*
    supplies the trial terminal voltage. The trial p inside ``state_next``
    is ignored; p is always advanced from ``state_prev`` by the exponential
    update at the trial field, exactly as the solver does.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    k = Coeffs.of(ParamsBatch.from_params(params, 1))
    prev = _State(*(np.array([x], dtype=np.float64)
                    for x in (state_prev.p, state_prev.v_fe, state_prev.v_int, 0.0)))
    residual, _ = _make_residual(k, prev, dt)
    v_fe, v_int = np.array([state_next.v_fe]), np.array([state_next.v_int])
    v_app = np.array([drive_value if mode == VOLTAGE else v_appl_trial], dtype=np.float64)
    aux = _row(k.area, v_fe, v_app, *residual(v_fe, v_int, v_app))
    r = (aux.loop_residual, aux.kcl_residual)
    if mode == CURRENT:
        r += (aux.i - drive_value,)
    return tuple(float(v[0]) for v in r)
