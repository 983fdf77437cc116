"""Device-to-device variability: parameter sampling and Monte-Carlo runs.

Parameters vary as independent truncated Gaussians. Every trial draws from
its own RNG stream spawned from the master seed by counter-based splitting.
Trials integrate in vectorized batches of up to ``DEFAULT_CHUNK`` devices,
narrower when a trial's time-series record is long. A device's result
never depends on the rest of its batch (each program phase is timed from
its own start), so results are bit-identical for a given (seed, n_trials,
scenario) no matter how trials are chunked or how many workers execute
them, and a batch rerun without the trials that failed to converge gives
the others the same bits. The array bench draws and runs its cells through
the same chunk runner.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .analyses import (
    current_program_batch,
    hysteresis_batch,
    hysteresis_dt,
    switching_kinetics_batch,
)
from .params import DEFAULT_CHUNK, PARAM_FIELDS, DeviceParams, ParamsBatch, check_fields
from .solver import SolveStats, SolverConfig, StepFailureError
from .waveform import triangle

# Gaussian draws attempted before clamping to the truncation bounds.
_MAX_REJECTS = 100
# Peak bytes per trial and recorded row while a batch runs and its outputs
# are extracted: 12 float64 record columns plus the extraction's temporaries
# (119 B measured on a hysteresis batch).
_ROW_BYTES = 120
# Record memory one batch may hold; a trial that records more rows runs in
# a narrower batch. Up to 4369 rows (two 1 kHz cycles at dt = 2 us record
# 1001) a batch stays DEFAULT_CHUNK wide, and up to 17476 rows it stays at
# least 64 wide.
_RECORD_BUDGET = 128 * 2**20


class McError(RuntimeError):
    """Monte-Carlo run failed (e.g. too many non-converging trials)."""


@dataclass(frozen=True)
class ParamDist:
    """Truncated Gaussian for one parameter (SI units).

    ``name`` is a DeviceParams field, or ``N_depl`` to set both depletion
    branches together. ``sigma = 0`` pins the parameter to ``mean``.
    """

    name: str
    mean: float
    sigma: float
    lower: float
    upper: float

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if not self.lower <= self.mean <= self.upper:
            raise ValueError(f"{self.name}: mean outside [lower, upper]")


@dataclass(frozen=True)
class McDistribution:
    """Set of parameter distributions plus the ambient temperature they fit."""

    entries: tuple
    temperature: Optional[float] = None

    @classmethod
    def table_21c(cls) -> "McDistribution":
        return cls(entries=(
            ParamDist("t_int", 1.5e-9, 0.22e-9, max(1.5e-9 - 4 * 0.22e-9, 0.1e-9),
                      1.5e-9 + 4 * 0.22e-9),
            ParamDist("P_s", 0.27, 0.027, max(0.27 - 4 * 0.027, 0.01),
                      0.27 + 4 * 0.027),
            ParamDist("N_depl", 1.05e28, 2.65e27, max(1.05e28 - 4 * 2.65e27, 1e26),
                      1.05e28 + 4 * 2.65e27),
            ParamDist("Q_fix_depl", 0.098, 0.0, 0.098, 0.098),
            ParamDist("d_e", 7.5e-9, 0.0, 7.5e-9, 7.5e-9),
        ), temperature=294.15)

    @classmethod
    def table_85c(cls) -> "McDistribution":
        base = cls.table_21c()
        entries = []
        for e in base.entries:
            if e.name == "Q_fix_depl":
                entries.append(ParamDist("Q_fix_depl", 0.27, 0.0, 0.27, 0.27))
            elif e.name == "d_e":
                entries.append(ParamDist("d_e", 4.5e-9, 0.0, 4.5e-9, 4.5e-9))
            else:
                entries.append(e)
        return cls(entries=tuple(entries), temperature=358.15)


def _truncated_normal(e: ParamDist, rng: np.random.Generator) -> float:
    """One draw of entry *e*: Gaussian draws outside [lower, upper] are
    rejected and redrawn up to 100 times, then clamped; sigma = 0 gives the
    mean without consuming the RNG."""
    if e.sigma == 0.0:
        return e.mean
    for _ in range(_MAX_REJECTS):
        x = rng.normal(e.mean, e.sigma)
        if e.lower <= x <= e.upper:
            break
    return min(max(x, e.lower), e.upper)


def _field_values(dist: McDistribution, draws) -> dict:
    """DeviceParams field -> value of one draw per distribution entry, in
    entry order (scalars or per-device columns): ``N_depl`` sets both
    depletion densities, and the table's temperature applies last."""
    values = {}
    for e, x in zip(dist.entries, draws):
        if e.name == "N_depl":
            values["N_depl_dn"] = values["N_depl_up"] = x
        else:
            values[e.name] = x
    if dist.temperature is not None:
        values["temperature"] = dist.temperature
    return values


def sample_params(base: DeviceParams, dist: McDistribution,
                  rng: np.random.Generator) -> DeviceParams:
    """One parameter draw: independent truncated Gaussians over *base*.

    Out-of-bounds draws are rejected and redrawn up to 100 times, then
    clamped; sigma = 0 entries take their mean without consuming the RNG.
    """
    return replace(base, **_field_values(dist, [_truncated_normal(e, rng)
                                                for e in dist.entries]))


def _draw_batch(base: DeviceParams, dist: McDistribution, rngs) -> ParamsBatch:
    """One :func:`sample_params` draw per generator in *rngs*, as one batch.

    Each generator makes the same draws in the same order as
    ``sample_params``, so device i equals ``sample_params(base, dist,
    rngs[i])``; the drawn columns are checked once, with the error
    ``DeviceParams`` gives.
    """
    draws = np.array([[_truncated_normal(e, rng) for e in dist.entries] for rng in rngs],
                     dtype=np.float64).reshape(len(rngs), len(dist.entries))
    values = _field_values(dist, draws.T.copy())
    check_fields(values)
    return ParamsBatch(len(rngs), **{name: values.get(name, getattr(base, name))
                                     for name in PARAM_FIELDS})


def _trial_rngs(seed: int, start: int, stop: int):
    """Generators of trials [start, stop).

    Trial i gets child i of ``SeedSequence(seed).spawn``, built from its
    spawn key so that a chunk never spawns the children before it.
    """
    keys = (np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(start, stop))
    return [np.random.Generator(np.random.PCG64(k)) for k in keys]


@dataclass(frozen=True)
class ScenarioSpec:
    """What to run per trial and which outputs to collect.

    kinds: ``hysteresis`` (outputs pr_pos/pr_neg/vc_pos/vc_neg, histogram of
    pr_pos), ``kinetics`` (delta_p per width at one amplitude), ``program``
    (polarization after each current pulse).
    """

    kind: str
    amplitude: float = 3.0
    frequency: float = 1e3
    n_cycles: int = 3
    widths: tuple = ()
    pulse_current: float = 250e-9
    pulse_width: float = 10e-6
    n_pulses: int = 25
    dt: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("hysteresis", "kinetics", "program"):
            raise ValueError(f"unknown scenario kind '{self.kind}'")

    def solver_config(self) -> Optional[SolverConfig]:
        if self.dt is None:
            return None
        return SolverConfig(dt=self.dt)


def _outputs_for_batch(spec: ScenarioSpec, pb: ParamsBatch) -> dict:
    if spec.kind == "hysteresis":
        results = hysteresis_batch(pb, spec.amplitude, spec.frequency,
                                   spec.n_cycles, spec.solver_config())
        return {
            "pr_pos": np.array([r.pr_pos for r in results]),
            "pr_neg": np.array([r.pr_neg for r in results]),
            "vc_pos": np.array([r.vc_pos for r in results]),
            "vc_neg": np.array([r.vc_neg for r in results]),
        }
    if spec.kind == "kinetics":
        delta = switching_kinetics_batch(pb, spec.amplitude, spec.widths,
                                         cfg=spec.solver_config())
        return {"delta_p": delta}
    pol_after = current_program_batch(
        pb, spec.pulse_current, spec.pulse_width, spec.n_pulses,
        cfg=spec.solver_config())
    return {"pol_after": pol_after.T}


def _record_rows(spec: ScenarioSpec) -> int:
    """Rows of the longest time-series record one trial of *spec* holds; a
    kinetics or program batch records only each run's first and last rows."""
    if spec.kind != "hysteresis":
        return 2
    dt = spec.dt if spec.dt is not None else hysteresis_dt(spec.frequency)
    return triangle(spec.amplitude, spec.frequency, spec.n_cycles).time_grid(dt).size


def _batch_width(spec: ScenarioSpec) -> int:
    """DEFAULT_CHUNK, or fewer trials if their records would pass the budget."""
    return min(DEFAULT_CHUNK,
               max(1, _RECORD_BUDGET // (_ROW_BYTES * _record_rows(spec))))


def _run_chunk(run: Callable, base: DeviceParams, mc: Optional[tuple],
               start: int, stop: int):
    """``run`` devices [start, stop) as one batch, setting failing ones aside.

    The batch is drawn from ``mc = (McDistribution, seed)``, or is *base*
    replicated when *mc* is None. After a StepFailureError, ``run`` is
    called again without the devices the error names: devices are
    independent, so the others keep their bits, and k failing devices cost
    at most 1 + k runs. An error that names no device fails every device
    left. Returns (the last run's result or None, the local indices of the
    devices it covers, the drawn value of each distribution entry, the
    merged :class:`SolveStats` of the runs that raised).
    """
    if mc is None:
        pb, drawn = ParamsBatch.from_params(base, stop - start), {}
    else:
        dist, seed = mc
        pb = _draw_batch(base, dist, _trial_rngs(seed, start, stop))
        drawn = {e.name: getattr(pb, "N_depl_dn" if e.name == "N_depl" else e.name)
                 for e in dist.entries}
    live, batch, failed = np.arange(pb.n), pb, SolveStats()
    while True:
        try:
            return run(batch), live, drawn, failed
        except StepFailureError as err:
            failed.merge(err.stats)
            live = np.delete(live, err.device_indices) if err.device_indices else live[:0]
        if live.size == 0:
            return None, live, drawn, failed
        batch = pb.slice(live)


@contextmanager
def _pool(workers: int):
    """A process pool of *workers*, or None to run in this process."""
    if workers <= 1:
        yield None
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield pool


def _map_chunks(pool, run: Callable, base: DeviceParams, mc: Optional[tuple],
                bounds: list):
    """Iterator over :func:`_run_chunk` of each [start, stop) in *bounds*, in order."""
    starts, stops = zip(*bounds)
    return (map if pool is None else pool.map)(partial(_run_chunk, run, base, mc),
                                              starts, stops)


@dataclass
class McResult:
    """Per-trial outputs plus aggregates of a Monte-Carlo run.

    ``outputs`` holds every trial (NaN rows for failed trials) so the
    aggregates can be recomputed; ``samples`` holds the drawn parameter
    values per trial (SI). ``histogram`` is (counts, bin_edges) of pr_pos
    with Freedman-Diaconis bins, present for hysteresis scenarios.
    """

    seed: int
    n_trials: int
    spec: ScenarioSpec
    outputs: dict = field(default_factory=dict)
    mean: dict = field(default_factory=dict)
    std: dict = field(default_factory=dict)
    histogram: Optional[tuple] = None
    samples: dict = field(default_factory=dict)
    failed_trials: tuple = ()


def run_mc(spec: ScenarioSpec, base: DeviceParams, dist: McDistribution,
           n_trials: int, seed: int, workers: int = 1,
           progress: Optional[Callable[[int, int], None]] = None) -> McResult:
    """Monte-Carlo scenario sweep over sampled devices.

    Trials execute as balanced, contiguous, vectorized batches of at most
    DEFAULT_CHUNK trials, fewer when a trial's record is long enough that a
    batch would hold more than 128 MiB of it; when ``workers`` > 1 there are
    at least ``min(workers, n_trials)`` batches, distributed over processes.
    ``progress(stop, n_trials)`` is called after each batch, in order.
    Trials that fail to converge are left out of their batch's rerun,
    excluded from the aggregates and reported; more than 10% failures is
    an error.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    bounds = _chunk_bounds(n_trials, _batch_width(spec), workers)
    outputs = {}
    samples = {e.name: np.empty(n_trials) for e in dist.entries}
    ok = np.zeros(n_trials, dtype=bool)
    with _pool(workers) as pool:
        chunks = _map_chunks(pool, partial(_outputs_for_batch, spec), base,
                             (dist, seed), bounds)
        for (a, b), (got, live, drawn, _) in zip(bounds, chunks):
            for k, v in (got or {}).items():
                if k not in outputs:
                    outputs[k] = np.full((n_trials,) + v.shape[1:], np.nan)
                outputs[k][a + live] = v
            for k in samples:
                samples[k][a:b] = drawn[k]
            ok[a + live] = True
            if progress is not None:
                progress(b, n_trials)

    failed = np.flatnonzero(~ok)
    if failed.size > 0.1 * n_trials:
        raise McError(f"{failed.size}/{n_trials} trials failed to converge")

    mean = {k: np.mean(v[ok], axis=0) for k, v in outputs.items()}
    std = {k: np.std(v[ok], axis=0) for k, v in outputs.items()}
    histogram = None
    if spec.kind == "hysteresis":
        pr = outputs["pr_pos"][ok]
        counts, edges = np.histogram(pr, bins="fd")
        histogram = (counts, edges)
    return McResult(seed=seed, n_trials=n_trials, spec=spec, outputs=outputs,
                    mean=mean, std=std, histogram=histogram, samples=samples,
                    failed_trials=tuple(int(i) for i in failed))


def _chunk_bounds(n: int, width: int, min_chunks: int = 1):
    """Balanced, contiguous [start, stop) ranges of at most *width* items.

    There are at least ``min(min_chunks, n)`` ranges, so that each of that
    many worker processes gets one.
    """
    m = max(-(-n // width), min(min_chunks, n))
    edges = [i * n // m for i in range(m + 1)]
    return list(zip(edges[:-1], edges[1:]))
