"""Measurement-style scenarios: hysteresis, kinetics, current programming.

These orchestrate the transient solver into the standard FeCap experiments
and extract the figures of merit (remanent polarization, coercive voltage,
switched polarization per pulse). Scenario functions accept either one
parameter set or a batch; batches share the drive time base so the whole
set integrates in one vectorized pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .params import DeviceParams, N_DEPL_PRISTINE, ParamsBatch
from .physics import polarization
from .solver import (
    SolveStats,
    SolverConfig,
    TimeSeries,
    batch_final_state,
    run_transient_batch,
)
from .waveform import CURRENT, DEFAULT_EDGE, VOLTAGE, from_segments, triangle

# Preset convention for switching-kinetics measurements.
PRESET_VOLTAGE = -3.0
PRESET_WIDTH = 1e-3
PRESET_SETTLE = 1e-6
# Default base steps: per drive period of a hysteresis sweep, and the step
# of switching-kinetics and current-programming runs (s).
HYSTERESIS_STEPS_PER_PERIOD = 1000
KINETICS_DT = 1e-6
PROGRAM_DT = 2e-7


def hysteresis_dt(frequency: float) -> float:
    """Default base step of a hysteresis or C-V sweep at *frequency*, s."""
    return 1.0 / (frequency * HYSTERESIS_STEPS_PER_PERIOD)


@dataclass
class HysteresisResult:
    """Final-cycle loop of one device plus extracted metrics (SI units).

    ``vc_pos``/``vc_neg`` are NaN for minor loops whose polarization never
    crosses zero. ``closure_rms`` is the RMS difference between the last two
    cycles' polarization traces, relative to the last cycle's P range.
    """

    loop_v: np.ndarray
    loop_p: np.ndarray
    pr_pos: float
    pr_neg: float
    vc_pos: float
    vc_neg: float
    displacement_v: np.ndarray
    displacement_i: np.ndarray
    closure_rms: float
    timeseries: TimeSeries


@dataclass(frozen=True)
class KineticsPoint:
    """Switched polarization for one (amplitude, width) programming pulse."""

    amplitude: float
    width: float
    delta_p: float


@dataclass
class ProgramTrace:
    """Polarization after each pulse of a current-programming sequence."""

    pulse_current: float
    pulse_width: float
    n_pulses: int
    discharge_between: bool
    polarization_after: np.ndarray
    timeseries: TimeSeries


def zero_crossings(x: np.ndarray, y: np.ndarray):
    """Linear-interpolated values of *y* where *x* crosses zero.

    Returns a list of (y_at_crossing, ascending). A sample landing exactly
    on zero counts once, directed by the following sample.
    """
    x, y = np.asarray(x), np.asarray(y)
    a, b = x[:-1], x[1:]
    on_zero = a == 0.0
    hit = np.flatnonzero((on_zero & (b != 0.0)) | (a * b < 0.0))
    a, b, y0, y1, on_zero = a[hit], b[hit], y[hit], y[hit + 1], on_zero[hit]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = a / (a - b)
        value = np.where(on_zero, y0, y0 + w * (y1 - y0))
    ascending = np.where(on_zero, b > 0.0, b > a)
    return list(zip(value, ascending))


def extract_loop_metrics(v: np.ndarray, p: np.ndarray):
    """(pr_pos, pr_neg, vc_pos, vc_neg) from one closed (V, P) cycle.

    Remanent polarizations are P at the V = 0 crossings (descending branch
    gives pr_pos); coercive voltages are V at the P = 0 crossings. Missing
    crossings yield NaN.
    """
    at_v0, at_p0 = zero_crossings(v, p), zero_crossings(p, v)
    pr_desc = [pv for pv, asc in at_v0 if not asc]
    pr_asc = [pv for pv, asc in at_v0 if asc]
    vc_asc = [vv for vv, asc in at_p0 if asc]
    vc_desc = [vv for vv, asc in at_p0 if not asc]
    pr_pos = max(pr_desc) if pr_desc else math.nan
    pr_neg = min(pr_asc) if pr_asc else math.nan
    vc_pos = max(vc_asc) if vc_asc else math.nan
    vc_neg = min(vc_desc) if vc_desc else math.nan
    return pr_pos, pr_neg, vc_pos, vc_neg


def _cycle_mask(t: np.ndarray, period: float, cycle: int, slack: float):
    return (t >= cycle * period - slack) & (t <= (cycle + 1) * period + slack)


def _extract_hysteresis(ts: TimeSeries, frequency: float, n_cycles: int,
                        dt: float) -> HysteresisResult:
    period = 1.0 / frequency
    slack = 0.25 * dt
    last = n_cycles - 1
    m_last = _cycle_mask(ts.t, period, last, slack)
    m_prev = _cycle_mask(ts.t, period, last - 1, slack)
    loop_v = ts.v_appl[m_last]
    loop_p = ts.pol[m_last]
    pr_pos, pr_neg, vc_pos, vc_neg = extract_loop_metrics(loop_v, loop_p)
    p_prev = np.interp(ts.t[m_last] - period, ts.t[m_prev], ts.pol[m_prev])
    p_range = float(loop_p.max() - loop_p.min())
    closure = float(np.sqrt(np.mean((loop_p - p_prev) ** 2)))
    closure_rms = closure / p_range if p_range > 0.0 else 0.0
    return HysteresisResult(
        loop_v=loop_v, loop_p=loop_p,
        pr_pos=pr_pos, pr_neg=pr_neg, vc_pos=vc_pos, vc_neg=vc_neg,
        displacement_v=loop_v, displacement_i=ts.i[m_last],
        closure_rms=closure_rms, timeseries=ts,
    )


def hysteresis_batch(pb: ParamsBatch, amplitude, frequency: float,
                     n_cycles: int = 3,
                     cfg: Optional[SolverConfig] = None):
    """Triangular-sweep hysteresis for a device batch; one result per device."""
    if n_cycles < 2:
        raise ValueError("n_cycles must be >= 2 (first cycle is the preset)")
    if cfg is None:
        cfg = SolverConfig(dt=hysteresis_dt(frequency))
    wf = triangle(amplitude, frequency, n_cycles, mode=VOLTAGE)
    ts = run_transient_batch(pb, wf, cfg)
    return [_extract_hysteresis(ts.device(i), frequency, n_cycles, cfg.dt)
            for i in range(pb.n)]


def hysteresis(params: DeviceParams, amplitude: float, frequency: float,
               n_cycles: int = 3,
               cfg: Optional[SolverConfig] = None) -> HysteresisResult:
    """P-V loop at the given drive; metrics from the final cycle."""
    pb = ParamsBatch.from_params(params, 1)
    return hysteresis_batch(pb, amplitude, frequency, n_cycles, cfg)[0]


def switching_kinetics_batch(pb: ParamsBatch, amplitude, widths: Sequence[float],
                             preset_v: float = PRESET_VOLTAGE,
                             preset_width: float = PRESET_WIDTH,
                             settle: float = PRESET_SETTLE,
                             edge: float = DEFAULT_EDGE,
                             cfg: Optional[SolverConfig] = None) -> np.ndarray:
    """Switched polarization (C/m^2) per device per pulse width.

    Preset to negative saturation, discharge to 0 V, then one programming
    pulse; the preset phase is shared across widths via state continuation.
    Returns an array of shape (n_devices, n_widths). Only each run's final
    state is read, so every run records its first and last rows only,
    whatever ``cfg.record_every`` says.
    """
    cfg = replace(cfg or SolverConfig(dt=KINETICS_DT), record_every=10**9)
    amplitude = np.broadcast_to(np.asarray(amplitude, dtype=np.float64), (pb.n,))
    wf_preset = from_segments(VOLTAGE, [
        (edge, preset_v), (preset_width, preset_v), (edge, 0.0), (settle, 0.0),
    ])
    preset_cfg = replace(cfg, dt=min(preset_width / 500.0, cfg.dt))
    ts0 = run_transient_batch(pb, wf_preset, preset_cfg)
    st0 = batch_final_state(ts0)
    p_before = st0.p
    t0 = wf_preset.t_end

    delta = np.empty((pb.n, len(widths)))
    for j, width in enumerate(widths):
        wcfg = replace(cfg, dt=min(max(width / 32.0, 2e-9), cfg.dt))
        wf = from_segments(VOLTAGE, [
            (edge, amplitude), (width, amplitude), (edge, 0.0 * amplitude),
        ], t0=t0)
        ts = run_transient_batch(pb, wf, wcfg, init=st0)
        delta[:, j] = 2.0 * pb.P_s * (ts.p[-1] - p_before)
    return np.clip(delta, 0.0, 2.0 * pb.P_s[:, None])


def switching_kinetics(params: DeviceParams, amplitudes: Sequence[float],
                       widths: Sequence[float],
                       preset_v: float = PRESET_VOLTAGE,
                       preset_width: float = PRESET_WIDTH,
                       settle: float = PRESET_SETTLE,
                       edge: float = DEFAULT_EDGE,
                       cfg: Optional[SolverConfig] = None):
    """Switching-kinetics map; one KineticsPoint per (amplitude, width).

    All amplitudes share the drive time base and integrate as one batch per
    width. Points are returned amplitude-major in the given order.
    """
    pb = ParamsBatch.from_params(params, len(amplitudes))
    delta = switching_kinetics_batch(
        pb, np.asarray(amplitudes, dtype=np.float64), widths,
        preset_v, preset_width, settle, edge, cfg)
    return [KineticsPoint(float(a), float(w), float(delta[i, j]))
            for i, a in enumerate(amplitudes) for j, w in enumerate(widths)]


def _concat_batches(parts):
    """Join phase records, each timed from its own start, end to end.

    Each phase starts where the previous one ended; the repeated joint rows
    are dropped.
    """
    arrays = {name: np.concatenate([a] + [getattr(part, name)[1:] for part in parts[1:]])
              for name, a in parts[0].columns().items() if name != "t"}
    times = [parts[0].t]
    for part in parts[1:]:
        times.append(times[-1][-1] + part.t[1:])
    stats = SolveStats()
    for part in parts:
        stats.merge(part.stats)
    return TimeSeries(t=np.concatenate(times), stats=stats, **arrays)


def current_program_batch(pb: ParamsBatch, pulse_current: float,
                          pulse_width: float, n_pulses: int,
                          discharge_between: bool = True,
                          edge: float = DEFAULT_EDGE,
                          gap: float = 30e-6,
                          max_discharge: float = 30e-6,
                          cfg: Optional[SolverConfig] = None,
                          runs: Optional[list] = None) -> np.ndarray:
    """Current-pulse programming; returns P after each pulse, (n_pulses, n).

    Each pulse is driven in current mode. With ``discharge_between`` every
    pulse is followed by a 0 V clamp of fixed length ``max_discharge``, the
    clocked reset phase of a programming circuit; otherwise pulses are
    separated by a zero-current hold of ``gap``. Every phase is one run of
    the whole batch, so a StepFailureError names devices by their index in
    *pb*. If *runs* is a list, each phase's TimeSeries is appended to it in
    the order run, recorded as ``cfg.record_every`` says; without it only
    each run's final state is read, so every run records its first and last
    rows only.
    """
    if n_pulses < 1:
        raise ValueError("n_pulses must be >= 1")
    cfg = cfg or SolverConfig(dt=PROGRAM_DT)
    if runs is None:
        cfg = replace(cfg, record_every=10**9)
    pulse = from_segments(CURRENT, [
        (edge, pulse_current), (pulse_width, pulse_current), (edge, 0.0),
    ])
    if discharge_between:
        between = from_segments(VOLTAGE, [(max_discharge, 0.0)])
    else:
        between = from_segments(CURRENT, [(gap, 0.0)])

    def run(state, wf):
        ts = run_transient_batch(pb, wf, cfg, init=state)
        if runs is not None:
            runs.append(ts)
        return batch_final_state(ts)

    pol_after = np.empty((n_pulses, pb.n))
    state = None
    for k in range(n_pulses):
        state = run(state, pulse)
        if discharge_between or k < n_pulses - 1:
            state = run(state, between)
        pol_after[k] = polarization(state.p, pb)
    return pol_after


def current_program(params: DeviceParams, pulse_current: float,
                    pulse_width: float, n_pulses: int,
                    discharge_between: bool = True,
                    edge: float = DEFAULT_EDGE,
                    gap: float = 30e-6,
                    max_discharge: float = 30e-6,
                    cfg: Optional[SolverConfig] = None) -> ProgramTrace:
    """Single-device current programming; see :func:`current_program_batch`."""
    pb = ParamsBatch.from_params(params, 1)
    runs = []
    pol_after = current_program_batch(
        pb, pulse_current, pulse_width, n_pulses, discharge_between,
        edge, gap, max_discharge, cfg, runs)
    ts = _concat_batches(runs)
    return ProgramTrace(
        pulse_current=pulse_current, pulse_width=pulse_width,
        n_pulses=n_pulses, discharge_between=discharge_between,
        polarization_after=pol_after[:, 0], timeseries=ts.device(0))


def pristine_scenario(params: DeviceParams,
                      amplitudes: Sequence[float] = (1.5, 2.0, 2.5, 3.0),
                      frequency: float = 1e3, n_cycles: int = 3,
                      n_depl: float = N_DEPL_PRISTINE,
                      cfg: Optional[SolverConfig] = None):
    """Hysteresis set with the depletion density dropped to a pristine value.

    Models the not-yet-woken device purely through the reduced carrier
    density at the electrode interface. Returns {amplitude: HysteresisResult}.
    """
    pristine = params.with_n_depl(n_depl)
    return {float(a): hysteresis(pristine, float(a), frequency, n_cycles, cfg)
            for a in amplitudes}
