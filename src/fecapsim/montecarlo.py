"""Device-to-device variability: parameter sampling and Monte-Carlo runs.

Parameters vary as independent truncated Gaussians. Every trial draws from
its own RNG stream spawned from the master seed by counter-based splitting,
so results are bit-identical for a given (seed, n_trials, scenario) no
matter how trials are chunked or how many workers execute them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .analyses import (
    current_program_batch,
    hysteresis_batch,
    switching_kinetics_batch,
)
from .params import DeviceParams, ParamsBatch
from .solver import SolverConfig, StepFailureError

# Trials per vectorized batch; fixed so chunking never depends on workers.
_TRIAL_CHUNK = 64
# Gaussian draws attempted before clamping to the truncation bounds.
_MAX_REJECTS = 100


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


def sample_params(base: DeviceParams, dist: McDistribution,
                  rng: np.random.Generator) -> DeviceParams:
    """One parameter draw: independent truncated Gaussians over *base*.

    Out-of-bounds draws are rejected and redrawn up to 100 times, then
    clamped; sigma = 0 entries take their mean without consuming the RNG.
    """
    drawn = {}
    for e in dist.entries:
        if e.sigma == 0.0:
            drawn[e.name] = e.mean
            continue
        x = e.lower - 1.0
        for _ in range(_MAX_REJECTS):
            x = rng.normal(e.mean, e.sigma)
            if e.lower <= x <= e.upper:
                break
        drawn[e.name] = min(max(x, e.lower), e.upper)
    # One construction: DeviceParams validates every field on each copy.
    values = {}
    for name, x in drawn.items():
        if name == "N_depl":
            values["N_depl_dn"] = values["N_depl_up"] = x
        else:
            values[name] = x
    if dist.temperature is not None:
        values["temperature"] = dist.temperature
    return replace(base, **values)


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
    pol_after, _ts = current_program_batch(
        pb, spec.pulse_current, spec.pulse_width, spec.n_pulses,
        cfg=spec.solver_config())
    return {"pol_after": pol_after.T}


def _output_shapes(spec: ScenarioSpec) -> dict:
    if spec.kind == "hysteresis":
        return {k: () for k in ("pr_pos", "pr_neg", "vc_pos", "vc_neg")}
    if spec.kind == "kinetics":
        return {"delta_p": (len(spec.widths),)}
    return {"pol_after": (spec.n_pulses,)}


def _run_chunk(spec: ScenarioSpec, base: DeviceParams, dist: McDistribution,
               seed: int, start: int, stop: int):
    """Run trials [start, stop); returns (outputs, failed local indices, samples)."""
    rngs = _trial_rngs(seed, start, stop)
    trials = [sample_params(base, dist, rng) for rng in rngs]
    samples = {e.name: np.array([_dist_value(p, e.name) for p in trials])
               for e in dist.entries}
    shapes = _output_shapes(spec)
    m = stop - start
    outputs = {k: np.full((m,) + s, np.nan) for k, s in shapes.items()}
    failed = []
    try:
        got = _outputs_for_batch(spec, ParamsBatch.from_list(trials))
        for k in outputs:
            outputs[k][...] = got[k]
    except StepFailureError:
        # Isolate the non-converging trials without biasing the others:
        # rerun one by one and keep whatever converges.
        for i, trial in enumerate(trials):
            try:
                got = _outputs_for_batch(spec, ParamsBatch.from_list([trial]))
                for k in outputs:
                    outputs[k][i] = got[k][0]
            except StepFailureError:
                failed.append(i)
    return outputs, failed, samples


def _dist_value(params: DeviceParams, name: str) -> float:
    return params.N_depl_dn if name == "N_depl" else getattr(params, name)


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

    Trials execute in fixed chunks of 64 (vectorized); ``workers`` > 1
    distributes whole chunks over processes. Failed trials are excluded
    from the aggregates and reported; more than 10% failures is an error.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    bounds = [(s, min(s + _TRIAL_CHUNK, n_trials))
              for s in range(0, n_trials, _TRIAL_CHUNK)]
    args = [(spec, base, dist, seed, a, b) for a, b in bounds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk_star, args))
    else:
        parts = []
        for i, a in enumerate(args):
            parts.append(_run_chunk_star(a))
            if progress is not None:
                progress(bounds[i][1], n_trials)

    shapes = _output_shapes(spec)
    outputs = {k: np.full((n_trials,) + s, np.nan) for k, s in shapes.items()}
    samples = {e.name: np.empty(n_trials) for e in dist.entries}
    failed = []
    for (a, b), (out_c, failed_c, samples_c) in zip(bounds, parts):
        for k in outputs:
            outputs[k][a:b] = out_c[k]
        for k in samples:
            samples[k][a:b] = samples_c[k]
        failed.extend(a + i for i in failed_c)

    if len(failed) > 0.1 * n_trials:
        raise McError(f"{len(failed)}/{n_trials} trials failed to converge")

    ok = np.ones(n_trials, dtype=bool)
    ok[failed] = False
    mean = {k: np.mean(v[ok], axis=0) for k, v in outputs.items()}
    std = {k: np.std(v[ok], axis=0) for k, v in outputs.items()}
    histogram = None
    if spec.kind == "hysteresis":
        pr = outputs["pr_pos"][ok]
        counts, edges = np.histogram(pr, bins="fd")
        histogram = (counts, edges)
    return McResult(seed=seed, n_trials=n_trials, spec=spec, outputs=outputs,
                    mean=mean, std=std, histogram=histogram, samples=samples,
                    failed_trials=tuple(failed))


def _run_chunk_star(args):
    return _run_chunk(*args)
