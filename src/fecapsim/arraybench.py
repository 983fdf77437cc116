"""Array-scale throughput benchmark.

Runs N electrically independent FeCap instances through a short
current-programming transient and reports wall-clock time per array size.
Devices advance in vectorized chunks through the Monte-Carlo chunk runner,
which sets aside each cell that fails to converge; the drive is replicated
per cell (no shared bit-line network), so the benchmark measures the
model's convergence and integration cost at array scale, nothing else.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .analyses import PROGRAM_DT
from .montecarlo import _chunk_bounds, _map_chunks, _pool
# The bench draws through montecarlo; this binding stays for tracers that
# look up this module's names.
from .montecarlo import sample_params  # noqa: F401
from .params import DEFAULT_CHUNK, DeviceParams, ParamsBatch
from .solver import SolveStats, SolverConfig, run_transient_batch
from .waveform import CURRENT, DEFAULT_EDGE, Waveform, from_segments


@dataclass
class BenchReport:
    """Wall time and solver work per array size.

    ``steps`` is the accepted step count of the first device chunk (the
    per-device integration path; identical parameters make it identical for
    every chunk and every size); ``newton_iters`` is the total Newton
    iteration count across the whole array, the runs that raised included.
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


def _final_pol(wf: Waveform, cfg: SolverConfig, pb: ParamsBatch):
    """Solver work and final polarization of every device of *pb*."""
    ts = run_transient_batch(pb, wf, cfg)
    return ts.stats, ts.pol[-1]


def run_array_bench(params: DeviceParams, sizes: Sequence[int],
                    wf: Optional[Waveform] = None,
                    cfg: Optional[SolverConfig] = None,
                    chunk: int = DEFAULT_CHUNK, workers: int = 1,
                    mc: Optional[tuple] = None) -> BenchReport:
    """Time the programming transient across array sizes.

    Every device sees the same drive; parameters are identical unless *mc*
    supplies (McDistribution, seed) for per-cell sampling. Wall time covers
    building each chunk's parameters (replicated, or drawn: drawing is part
    of the array instantiation) and the integration. A cell that fails to
    converge counts as a failure and its chunk reruns without it, so
    ``failures`` is the exact number of failing cells. With ``workers > 1``
    one process pool serves every size. Only each chunk's final row is
    read, so every chunk records its first and last rows only, whatever
    ``cfg.record_every`` says.
    """
    import platform

    if any(n < 1 for n in sizes):
        raise ValueError("array sizes must be >= 1")
    wf = wf or bench_waveform()
    cfg = replace(cfg or SolverConfig(dt=PROGRAM_DT), record_every=10**9)
    report = BenchReport(
        dt=cfg.dt, chunk=chunk, workers=workers,
        machine=(f"{platform.platform()} | python {platform.python_version()}"
                 f" | numpy {np.__version__} | cpus {os.cpu_count()}"),
    )
    run = partial(_final_pol, wf, cfg)
    with _pool(workers) as pool:
        for n in sizes:
            t0 = time.perf_counter()
            chunks = list(_map_chunks(pool, run, params, mc, _chunk_bounds(n, chunk)))
            stats = SolveStats()
            covered = 0
            for got, live, _, failed in chunks:
                if got is not None:
                    stats.merge(got[0])
                stats.merge(failed)
                covered += live.size
            first, live0, _, _ = chunks[0]
            ok = first is not None and live0[0] == 0
            wall = time.perf_counter() - t0
            report.sizes.append(int(n))
            report.wall_s.append(wall)
            report.steps.append(first[0].steps if first is not None else 0)
            report.newton_iters.append(stats.newton_iters)
            report.failures.append(int(n) - covered)
            report.final_pol_device0.append(float(first[1][0]) if ok else np.nan)
    return report
