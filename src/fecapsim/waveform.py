"""Piecewise-linear drive waveforms (voltage- or current-mode).

A waveform is a strictly increasing breakpoint time vector plus values,
interpolated linearly and held constant outside the breakpoint range.
Values may be a 1-D vector (same drive for every device) or a 2-D array of
shape (n_breakpoints, n_devices) so a batch of devices can each see their
own amplitude on a shared time base.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VOLTAGE = "voltage"
CURRENT = "current"

# Default rise/fall time for rectangular pulses; fast against every modeled
# timescale but finite so the solver never sees a discontinuous drive.
DEFAULT_EDGE = 10e-9


@dataclass(frozen=True)
class Waveform:
    """Piecewise-linear drive. ``mode`` is ``voltage`` or ``current``."""

    mode: str
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=np.float64)
        values = np.asarray(self.values, dtype=np.float64)
        if times.ndim != 1 or times.size < 1:
            raise ValueError("waveform needs at least one breakpoint")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("breakpoint times must be strictly increasing")
        if values.shape[0] != times.size:
            raise ValueError("values must have one row per breakpoint")
        if values.ndim not in (1, 2):
            raise ValueError("values must be 1-D or 2-D")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            raise ValueError("waveform breakpoints must be finite")
        if self.mode not in (VOLTAGE, CURRENT):
            raise ValueError(f"unknown drive mode '{self.mode}'")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def t_start(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def value_at(self, t):
        """Drive value at time *t* (scalar or array), end values held.

        For 2-D values, returns shape (n_devices,) for scalar *t* and
        (len(t), n_devices) for a 1-D *t*. Both shapes interpolate with one
        formula, ``np.interp``'s: v_j at a breakpoint t_j, and
        slope_j * (t - t_j) + v_j inside the interval (t_j, t_j+1); so a
        drive given as 1-D values and as a single column gives the same bits.
        """
        vals, times = self.values, self.times
        # A zero slope past the last breakpoint holds the end value.
        slopes = np.concatenate([(np.diff(vals, axis=0).T / np.diff(times)).T,
                                 np.zeros_like(vals[:1])])
        t = np.clip(t, times[0], times[-1])
        j = np.searchsorted(times, t, side="right") - 1
        dt = t - times[j]
        if vals.ndim == 2:
            dt = np.expand_dims(dt, -1)
        return np.where(dt == 0.0, vals[j], slopes[j] * dt + vals[j])[()]

    def time_grid(self, dt: float) -> np.ndarray:
        """Step-boundary times covering the waveform at base step *dt*.

        Every breakpoint lands exactly on a boundary; each breakpoint
        interval is subdivided uniformly into ceil(length/dt) steps so PWL
        corners are never smeared across a step.
        """
        if dt <= 0.0:
            raise ValueError("dt must be > 0")
        if self.times.size == 1:
            return self.times.copy()
        pieces = [np.array([self.times[0]])]
        for t0, t1 in zip(self.times[:-1], self.times[1:]):
            n = max(1, int(np.ceil((t1 - t0) / dt - 1e-9)))
            pieces.append(t0 + (t1 - t0) * np.arange(1, n + 1) / n)
        return np.concatenate(pieces)

    def shifted(self, offset: float) -> "Waveform":
        return Waveform(self.mode, self.times + offset, self.values)


def from_segments(mode: str, segments, start=0.0, t0: float = 0.0) -> Waveform:
    """Build a waveform from (duration, end_value) segments.

    The drive ramps linearly from the previous value to ``end_value`` over
    ``duration``. ``end_value`` entries may be arrays to give each device in
    a batch its own level.
    """
    values = [np.asarray(start, dtype=np.float64)]
    times = [t0]
    t = t0
    for duration, end_value in segments:
        if duration <= 0.0:
            raise ValueError("segment durations must be > 0")
        t += duration
        times.append(t)
        values.append(np.asarray(end_value, dtype=np.float64))
    shapes = {v.shape for v in values}
    if len(shapes) > 1:
        values = [np.broadcast_to(v, np.broadcast_shapes(*shapes)).copy() for v in values]
    return Waveform(mode, np.array(times), np.stack(values))


def triangle(amplitude, frequency: float, n_cycles: int, mode: str = VOLTAGE) -> Waveform:
    """Symmetric triangle wave 0 -> +A -> -A -> 0 per cycle."""
    if frequency <= 0.0 or n_cycles < 1:
        raise ValueError("frequency must be > 0 and n_cycles >= 1")
    period = 1.0 / frequency
    q = period / 4.0
    segments = []
    for _ in range(n_cycles):
        amp = np.asarray(amplitude, dtype=np.float64)
        segments += [(q, amp), (2 * q, -amp), (q, 0.0 * amp)]
    return from_segments(mode, segments)


def rect_pulse(amplitude, width: float, mode: str = VOLTAGE,
               edge: float = DEFAULT_EDGE, base=0.0, delay: float = 0.0) -> Waveform:
    """Single rectangular pulse with linear edges; *width* is the flat top."""
    segments = []
    if delay > 0.0:
        segments.append((delay, base))
    amp = np.asarray(amplitude, dtype=np.float64)
    segments += [(edge, amp), (width, amp), (edge, base + 0.0 * amp)]
    return from_segments(mode, segments, start=base)


def pulse_train(amplitude, width: float, period: float, count: int,
                mode: str = CURRENT, edge: float = DEFAULT_EDGE) -> Waveform:
    """Train of *count* rectangular pulses, one per *period*.

    Each pulse occupies [0, 2*edge + width] of its period; the remainder of
    the period holds the baseline (zero).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    gap = period - (width + 2 * edge)
    if gap <= 0.0:
        raise ValueError("period must exceed pulse width plus edges")
    amp = np.asarray(amplitude, dtype=np.float64)
    zero = 0.0 * amp
    segments = []
    for _ in range(count):
        segments += [(edge, amp), (width, amp), (edge, zero), (gap, zero)]
    return from_segments(mode, segments)


def hold(value, duration: float, mode: str = VOLTAGE) -> Waveform:
    """Constant drive for *duration*."""
    val = np.asarray(value, dtype=np.float64)
    return from_segments(mode, [(duration, val)], start=val)
