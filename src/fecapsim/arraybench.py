"""Array-scale throughput benchmark.

Runs N electrically independent FeCap instances through a short
current-programming transient and reports wall-clock time per array size.
Devices advance in vectorized chunks; the drive is replicated per cell (no
shared bit-line network), so the benchmark measures the model's convergence
and integration cost at array scale, nothing else.
"""

from __future__ import annotations

import os
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .montecarlo import McDistribution, _trial_rngs, sample_params
from .params import DeviceParams, ParamsBatch
from .solver import SolveStats, SolverConfig, StepFailureError, run_transient_batch
from .waveform import CURRENT, DEFAULT_EDGE, Waveform, from_segments

# Devices per vectorized chunk: large enough to amortize numpy dispatch,
# small enough that per-device cost stays flat from ~100 devices up.
DEFAULT_CHUNK = 256


@dataclass
class BenchReport:
    """Wall time and solver work per array size.

    ``steps`` is the accepted step count of the first device chunk (the
    per-device integration path; identical parameters make it identical for
    every chunk and every size); ``newton_iters`` is the total Newton
    iteration count across the whole array.
    """

    sizes: list = field(default_factory=list)
    wall_s: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    newton_iters: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    final_pol_device0: list = field(default_factory=list)
    dt: float = 0.0
    chunk: int = DEFAULT_CHUNK
    workers: int = 1
    machine: str = ""

    def rows(self):
        return list(zip(self.sizes, self.wall_s, self.steps,
                        self.newton_iters, self.failures))


def bench_waveform(pulse_current: float = 250e-9, pulse_width: float = 10e-6,
                   t_total: float = 30e-6, edge: float = DEFAULT_EDGE) -> Waveform:
    """Single current pulse followed by a zero-current tail, *t_total* long."""
    tail = t_total - pulse_width - 2 * edge
    if tail <= 0.0:
        raise ValueError("t_total must exceed the pulse span")
    return from_segments(CURRENT, [
        (edge, pulse_current), (pulse_width, pulse_current),
        (edge, 0.0), (tail, 0.0),
    ])


def _chunk_sizes(n: int, chunk: int):
    return [min(chunk, n - s) for s in range(0, n, chunk)]


def _run_chunk(params: DeviceParams, size: int, wf: Waveform, cfg: SolverConfig,
               mc: Optional[tuple], mc_offset: int):
    """Integrate one chunk; returns (stats, final polarization of device 0)."""
    if mc is None:
        pb = ParamsBatch.from_params(params, size)
    else:
        dist, seed = mc
        rngs = _trial_rngs(seed, mc_offset, mc_offset + size)
        pb = ParamsBatch.from_list([sample_params(params, dist, r) for r in rngs])
    ts = run_transient_batch(pb, wf, cfg)
    return ts.stats, float(ts.pol[-1, 0])


def _chunk_outcome(fn, *args):
    """Result of ``fn(*args)``, or the StepFailureError it raised."""
    try:
        return fn(*args)
    except StepFailureError as err:
        return err


def run_array_bench(params: DeviceParams, sizes: Sequence[int],
                    wf: Optional[Waveform] = None,
                    cfg: Optional[SolverConfig] = None,
                    chunk: int = DEFAULT_CHUNK, workers: int = 1,
                    mc: Optional[tuple] = None) -> BenchReport:
    """Time the programming transient across array sizes.

    Every device sees the same drive; parameters are identical unless *mc*
    supplies (McDistribution, seed) for per-cell sampling. Wall time wraps
    the integration only (chunk parameter setup is excluded for identical
    parameters and included for sampled ones, where drawing is part of the
    array instantiation). A chunk that fails to converge counts the devices
    its StepFailureError names as failures; the other chunks still run.
    """
    wf = wf or bench_waveform()
    cfg = cfg or SolverConfig(dt=2e-7, record_every=10**9)
    report = BenchReport(
        dt=cfg.dt, chunk=chunk, workers=workers,
        machine=(f"{platform.platform()} | python {platform.python_version()}"
                 f" | numpy {np.__version__} | cpus {os.cpu_count()}"),
    )
    for n in sizes:
        if n < 1:
            raise ValueError("array sizes must be >= 1")
        csizes = _chunk_sizes(n, chunk)
        offsets = np.cumsum([0] + csizes[:-1])
        args = [(params, c, wf, cfg, mc, int(off))
                for c, off in zip(csizes, offsets)]
        t0 = time.perf_counter()
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_run_chunk, *a) for a in args]
                results = [_chunk_outcome(f.result) for f in futures]
        else:
            results = [_chunk_outcome(_run_chunk, *a) for a in args]
        stats = SolveStats()
        failures = 0
        for r in results:
            if isinstance(r, StepFailureError):
                failures += len(r.device_indices)
            else:
                stats.merge(r[0])
        first = results[0]
        ok = not isinstance(first, StepFailureError)
        steps_first = first[0].steps if ok else 0
        pol0 = first[1] if ok else np.nan
        wall = time.perf_counter() - t0
        report.sizes.append(int(n))
        report.wall_s.append(wall)
        report.steps.append(steps_first)
        report.newton_iters.append(stats.newton_iters)
        report.failures.append(failures)
        report.final_pol_device0.append(pol0)
    return report
