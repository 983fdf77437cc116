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
the parameter-only constants, which are built once per batch.
Each device iterates on its own and stops once converged, so its result
never depends on the rest of the batch. When a step does not converge the
failing devices halve it and solve the two halves recursively.

Everything is vectorized over a device axis: a batch of n independent
devices advances in one pass, and a single device is just n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .params import DeviceParams, ParamsBatch
# The step evaluates these formulas through Coeffs; the public functions stay
# bound here because perfbench/tracing.py wraps the physics calls at these names.
from .physics import (  # noqa: F401
    Coeffs,
    c_layer,
    j_fn,
    j_pf,
    p_step,
    phi_depl,
    polarization,
    transition_rates,
)
from .waveform import CURRENT, VOLTAGE, Waveform

# Reference area for the default KCL tolerance scaling.
_TOL_I_REF_AREA = 25e-12  # m^2
# Largest Newton update per iteration, volts.
_MAX_NEWTON_STEP = 50.0
# Relative forward-difference offset of the slope probe.
_FD_RELATIVE = 1e-7
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
    """Newton failed to converge after all step halvings."""

    def __init__(self, t: float, dt: float, loop_residual: float, kcl_residual: float,
                 device_indices=()):
        self.t = t
        self.dt = dt
        self.loop_residual = loop_residual
        self.kcl_residual = kcl_residual
        self.device_indices = tuple(int(i) for i in device_indices)
        msg = (f"step to t={t:.6e} s failed at dt={dt:.3e} s "
               f"(|loop|={loop_residual:.3e} V, |KCL|={kcl_residual:.3e} A")
        if self.device_indices:
            msg += f", devices {self.device_indices[:8]}"
        super().__init__(msg + ")")

    def __reduce__(self):
        # Rebuilt from the fields, so the error survives a worker process.
        return (type(self), (self.t, self.dt, self.loop_residual, self.kcl_residual,
                             self.device_indices))


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
    v_app: np.ndarray


class _StepAux(NamedTuple):
    """Per-device quantities of a converged (or trial) step."""

    p_n: np.ndarray
    v_int: np.ndarray
    v_app: np.ndarray
    phi: np.ndarray
    j_pf: np.ndarray
    j_fn: np.ndarray
    j_pol: np.ndarray
    i_term: np.ndarray
    r_loop: np.ndarray
    r_kcl: np.ndarray


def _scatter(full, idx, sub):
    """Copy of the per-device arrays *full* with entries *idx* taken from *sub*."""
    out = [a.copy() for a in full]
    for a, s in zip(out, sub):
        a[idx] = s
    return full._make(out)


_TS_COLUMNS = ("t", "v_appl", "i", "p", "pol", "v_fe", "v_int",
               "phi_depl", "j_pf", "j_fn")
_TS_EXTRAS = ("j_pol", "loop_residual", "kcl_residual")


@dataclass
class TimeSeries:
    """Recorded transient of one device (SI units).

    ``j_pol``, ``loop_residual`` and ``kcl_residual`` are solver diagnostics
    carried alongside the contractual columns.
    """

    t: np.ndarray
    v_appl: np.ndarray
    i: np.ndarray
    p: np.ndarray
    pol: np.ndarray
    v_fe: np.ndarray
    v_int: np.ndarray
    phi_depl: np.ndarray
    j_pf: np.ndarray
    j_fn: np.ndarray
    j_pol: np.ndarray = None
    loop_residual: np.ndarray = None
    kcl_residual: np.ndarray = None
    stats: SolveStats = field(default_factory=SolveStats)

    def __len__(self):
        return self.t.size

    def charge(self) -> np.ndarray:
        """Cumulative terminal charge by trapezoidal integration, coulombs."""
        if self.t.size < 2:
            return np.zeros_like(self.t)
        dq = 0.5 * (self.i[1:] + self.i[:-1]) * np.diff(self.t)
        return np.concatenate([[0.0], np.cumsum(dq)])


@dataclass
class TimeSeriesBatch:
    """Recorded transient of a device batch; column arrays are (rows, n)."""

    t: np.ndarray
    v_appl: np.ndarray
    i: np.ndarray
    p: np.ndarray
    pol: np.ndarray
    v_fe: np.ndarray
    v_int: np.ndarray
    phi_depl: np.ndarray
    j_pf: np.ndarray
    j_fn: np.ndarray
    j_pol: np.ndarray
    loop_residual: np.ndarray
    kcl_residual: np.ndarray
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def n_devices(self) -> int:
        return self.p.shape[1]

    def device(self, i: int) -> TimeSeries:
        cols = {name: getattr(self, name)[:, i] for name in _TS_COLUMNS + _TS_EXTRAS
                if name != "t"}
        return TimeSeries(t=self.t.copy(), stats=self.stats, **cols)


def _root(fun, x0: np.ndarray, tol_f, tol_x, max_iters: int):
    """Safeguarded Newton on one scalar equation f(x) = 0 per device.

    ``fun`` takes trial points of shape (2, n), the iterates and a
    forward-difference probe above them, and returns (f, aux): f of the same
    shape and a tuple of arrays shaped like it, or shaped (n,) when constant
    over the trials. A device converges once |f| <= tol_f and its Newton
    correction |f/f'| <= tol_x, and is frozen from then on. Each device keeps a sign bracket of the points it has
    seen; a Newton step that leaves the bracket bisects it instead.

    Returns (x, f, converged mask, iterations, aux at x).
    """
    x = np.array(x0, dtype=np.float64)
    x_neg = np.full_like(x, np.nan)
    x_pos = np.full_like(x, np.nan)
    iters = 0
    while True:
        h = _FD_RELATIVE * np.maximum(np.abs(x), 1.0)
        f2, aux = fun(np.array((x, x + h)))
        f = f2[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = f * h / (f2[0] - f2[1])
        dx = np.where(np.isfinite(dx), dx, 0.0)
        conv = (np.abs(f) <= tol_f) & (np.abs(dx) <= tol_x)
        if iters == max_iters or conv.all():
            return x, f, conv, iters, tuple(a[0] if a.ndim == 2 else a for a in aux)
        iters += 1
        x_neg = np.where(f < 0.0, x, x_neg)
        x_pos = np.where(f > 0.0, x, x_pos)
        x_new = x + np.minimum(np.maximum(dx, -_MAX_NEWTON_STEP), _MAX_NEWTON_STEP)
        lo, hi = np.minimum(x_neg, x_pos), np.maximum(x_neg, x_pos)
        # lo <= hi only once both sides of the root are known.
        bisect = (lo <= hi) & ~((lo < x_new) & (x_new < hi))
        x_new = np.where(bisect, 0.5 * (x_neg + x_pos), x_new)
        x = np.where(conv, x, x_new)


def _make_step(k: Coeffs, prev: _State, dt: float):
    """Branch quantities of the implicit step from *prev*; returns (at, interface).

    ``at`` takes V_fe and V_int (V_appl then follows from the loop), V_fe
    and V_appl (V_int follows from the loop), or all three (the loop
    residual is whatever the trial leaves). ``interface`` gives (j_fn,
    interface branch current density) at a trial V_int; ``at`` takes that
    pair as *iface* when V_int is fixed. Trial arrays may carry a leading
    axis in front of the device axis.
    """
    inv_dt = 1.0 / dt
    c_fe_dt = k.c_fe * inv_dt
    c_int_dt = k.c_int * inv_dt
    pol_dt = 2.0 * k.P_s * inv_dt

    def interface(v_int):
        jfn = k.j_fn(v_int * k.inv_t_int)
        return jfn, c_int_dt * (v_int - prev.v_int) + jfn

    def at(v_fe, v_int=None, v_app=None, iface=None) -> _StepAux:
        e_fe = v_fe * k.inv_t_fe
        p_n = k.p_next(prev.p, e_fe, dt)
        cv_fe = k.c_fe * v_fe
        phi = k.phi(p_n, cv_fe)
        if v_int is None:
            v_int = v_app - v_fe - phi
        if v_app is None:
            v_app = v_fe + v_int + phi
        jpf = k.j_pf(e_fe)
        jfn, j_int = interface(v_int) if iface is None else iface
        j_pol = pol_dt * (p_n - prev.p)
        j_fe = c_fe_dt * (v_fe - prev.v_fe) + j_pol + jpf
        r_loop = v_app - v_fe - v_int - phi
        return _StepAux(p_n, v_int, v_app, phi, jpf, jfn, j_pol, k.area * j_int,
                        r_loop, k.area * (j_fe - j_int))

    return at, interface


def _solve_step(k: Coeffs, st: _State, dt: float, drive_end: np.ndarray,
                mode: str, cfg: SolverConfig):
    """One implicit step as scalar root-finds.

    Returns (state, aux, conv, Newton iterations, residual evaluations).
    Under current drive V_int is solved first, from the interface branch
    alone carrying the drive current; V_fe then balances the internal-node
    KCL in both modes.
    """
    tol_i = (cfg.newton_tol_i if cfg.newton_tol_i is not None
             else 1e-12 * k.area / _TOL_I_REF_AREA)
    at, interface = _make_step(k, st, dt)
    v_int, v_app, iface = None, drive_end, None
    conv, iters = True, 0
    if mode == CURRENT:
        def terminal(v):
            jfn, j_int = interface(v)
            return k.area * j_int - drive_end, (jfn, j_int)

        v_int, _, conv, iters, iface = _root(terminal, st.v_int, tol_i,
                                             cfg.newton_tol_v, cfg.max_newton_iters)
        v_app = None

    def kcl(v_fe):
        aux = at(v_fe, v_int, v_app, iface)
        return aux.r_kcl, aux

    v_fe, _, conv_fe, iters_fe, aux = _root(kcl, st.v_fe, tol_i, cfg.newton_tol_v,
                                            cfg.max_newton_iters)
    aux = _StepAux(*aux)
    st_new = _State(aux.p_n, v_fe, aux.v_int, aux.v_app)
    return st_new, aux, conv & conv_fe, iters + iters_fe, iters_fe + 1


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


def _advance(k: Coeffs, st: _State, t0: float, dt: float, drive_at,
             mode: str, cfg: SolverConfig, depth: int, stats: SolveStats,
             cols: np.ndarray):
    """Advance every device by exactly *dt*, halving locally on failure."""
    drive_end = np.broadcast_to(np.asarray(drive_at(t0 + dt, cols), dtype=np.float64),
                                cols.shape)
    st_new, aux, conv, iters, evals = _solve_step(k, st, dt, drive_end, mode, cfg)
    stats.steps += 1
    stats.newton_iters += iters
    stats.residual_evals += evals
    if conv.all():
        return st_new, aux

    bad = np.flatnonzero(~conv)
    if depth <= 0:
        kcl = np.abs(aux.r_kcl[bad])
        if mode == CURRENT:
            kcl = np.maximum(kcl, np.abs(aux.i_term[bad] - drive_end[bad]))
        raise StepFailureError(
            t=t0 + dt, dt=dt,
            loop_residual=float(np.max(np.abs(aux.r_loop[bad]))),
            kcl_residual=float(np.max(kcl)),
            device_indices=cols[bad],
        )

    stats.halvings += 1
    sub_k = k.slice(bad)
    sub_st = _State(*(a[bad] for a in st))
    sub_cols = cols[bad]
    half = 0.5 * dt
    st_a, _ = _advance(sub_k, sub_st, t0, half, drive_at, mode, cfg,
                       depth - 1, stats, sub_cols)
    st_b, aux_b = _advance(sub_k, st_a, t0 + half, half, drive_at, mode, cfg,
                           depth - 1, stats, sub_cols)
    return _scatter(st_new, bad, st_b), _scatter(aux, bad, aux_b)


def _record_row(out: dict, row: int, t: float, st: _State, aux: _StepAux):
    out["t"][row] = t
    out["v_appl"][row] = st.v_app
    out["i"][row] = aux.i_term
    out["p"][row] = st.p
    out["v_fe"][row] = st.v_fe
    out["v_int"][row] = st.v_int
    out["phi_depl"][row] = aux.phi
    out["j_pf"][row] = aux.j_pf
    out["j_fn"][row] = aux.j_fn
    out["j_pol"][row] = aux.j_pol
    out["loop_residual"][row] = aux.r_loop
    out["kcl_residual"][row] = aux.r_kcl


def run_transient_batch(pb: ParamsBatch, wf: Waveform,
                        cfg: Optional[SolverConfig] = None,
                        init: Optional[_State] = None) -> TimeSeriesBatch:
    """Integrate a batch of independent devices over one drive waveform.

    The base time grid subdivides every waveform breakpoint interval by the
    configured dt; failed steps are halved locally (per device) up to
    ``max_step_halvings`` levels. Rows are recorded on the base grid every
    ``record_every`` steps, always including the first and last instants.

    ``init`` continues from a known state (e.g. the previous drive phase);
    without it the internal voltages are solved self-consistently from the
    drive value at the first instant with p = ``cfg.p_init``.
    """
    cfg = cfg or SolverConfig()
    if wf.values.ndim == 2 and wf.values.shape[1] not in (1, pb.n):
        raise ValueError("waveform device axis does not match batch size")
    grid = wf.time_grid(cfg.dt)
    n = pb.n
    cols_all = np.arange(n)
    k = Coeffs.of(pb)

    def drive_at(t, cols):
        v = wf.value_at(t, cols if wf.values.ndim == 2 else None)
        return np.broadcast_to(np.asarray(v, dtype=np.float64), (len(cols),))

    if init is not None:
        st = _State(*(np.asarray(a, dtype=np.float64).copy() for a in init))
    else:
        v_drive0 = drive_at(grid[0], cols_all)
        v_app0 = v_drive0 if wf.mode == VOLTAGE else np.zeros(n)
        st = _initial_state(k, v_app0, cfg.p_init, grid[0])

    n_steps = grid.size - 1
    rec_idx = [0] + [i for i in range(1, n_steps + 1)
                     if i % cfg.record_every == 0 or i == n_steps]
    rec_set = set(rec_idx)
    n_rows = len(rec_idx)
    out = {name: np.empty((n_rows, n)) for name in _TS_COLUMNS + _TS_EXTRAS}
    out["t"] = np.empty(n_rows)
    stats = SolveStats()

    phi0 = k.phi(st.p, k.c_fe * st.v_fe)
    j_fn0 = k.j_fn(st.v_int * k.inv_t_int)
    aux0 = _StepAux(
        p_n=st.p, v_int=st.v_int, v_app=st.v_app, phi=phi0,
        j_pf=k.j_pf(st.v_fe * k.inv_t_fe), j_fn=j_fn0, j_pol=np.zeros(n),
        i_term=k.area * j_fn0,
        r_loop=st.v_app - st.v_fe - st.v_int - phi0,
        r_kcl=np.zeros(n),
    )
    _record_row(out, 0, grid[0], st, aux0)

    row = 1
    for i in range(1, n_steps + 1):
        t0, t1 = grid[i - 1], grid[i]
        st, aux = _advance(k, st, t0, t1 - t0, drive_at, wf.mode, cfg,
                           cfg.max_step_halvings, stats, cols_all)
        if i in rec_set:
            _record_row(out, row, t1, st, aux)
            row += 1

    out["pol"] = polarization(out["p"], pb)
    return TimeSeriesBatch(stats=stats, **out)


def batch_final_state(ts: TimeSeriesBatch) -> _State:
    """State at the last recorded row, for continuing into a next phase."""
    return _State(ts.p[-1].copy(), ts.v_fe[-1].copy(), ts.v_int[-1].copy(),
                  ts.v_appl[-1].copy())


def run_transient(params: DeviceParams, wf: Waveform,
                  cfg: Optional[SolverConfig] = None) -> TimeSeries:
    """Single-device transient; see :func:`run_transient_batch`."""
    pb = ParamsBatch.from_params(params, 1)
    batch = run_transient_batch(pb, wf, cfg)
    return batch.device(0)


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
    st = _State(
        p=np.array([state.p], dtype=np.float64),
        v_fe=np.array([state.v_fe], dtype=np.float64),
        v_int=np.array([state.v_int], dtype=np.float64),
        v_app=np.array([drive_value if mode == VOLTAGE else 0.0]),
    )
    stats = SolveStats()

    def drive_at(t, cols):
        return np.full(len(cols), drive_value)

    new, _aux = _advance(k, st, state.t, dt, drive_at, mode, cfg,
                         cfg.max_step_halvings, stats, np.arange(1))
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
    prev = _State(
        p=np.array([state_prev.p], dtype=np.float64),
        v_fe=np.array([state_prev.v_fe], dtype=np.float64),
        v_int=np.array([state_prev.v_int], dtype=np.float64),
        v_app=np.array([0.0]),
    )
    at, _ = _make_step(k, prev, dt)
    v_app = drive_value if mode == VOLTAGE else v_appl_trial
    aux = at(np.array([state_next.v_fe]), np.array([state_next.v_int]),
             np.array([v_app], dtype=np.float64))
    r = (aux.r_loop, aux.r_kcl)
    if mode == CURRENT:
        r += (aux.i_term - drive_value,)
    return tuple(float(v[0]) for v in r)
