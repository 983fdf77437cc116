"""Command-line interface: one subcommand per analysis.

Usage: ``fecap-sim <subcommand> [--scenario FILE] [--out DIR] [--dt SECONDS]``,
plus ``--seed N`` for ``mc`` and ``--workers N`` for ``mc`` and ``bench``, the
only subcommands that read them. Results are CSV files plus a run manifest
with the fully resolved configuration. Exit codes: 0 success, 1 usage or
configuration error, 2 solver convergence failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, csvio
from .analyses import current_program, hysteresis, switching_kinetics
from .arraybench import bench_waveform, run_array_bench
from .montecarlo import McDistribution, McError, ScenarioSpec, run_mc
from .params import DeviceParams
from .quasistatic import DcConvergenceError, dc_sweep, small_signal_cv
from .scenario import (DEVICE_KEYS, MC_DRIVE_FIELDS, Scenario, ScenarioError,
                       emit_scenario, parse_scenario)
from .solver import SolverConfig, StepFailureError, run_transient
from .units import from_si
from .waveform import Waveform, triangle

_SUBCOMMANDS = ("hysteresis", "kinetics", "cv", "iv", "program", "transient",
                "mc", "bench", "defaults")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fecap-sim",
                     description="FeCap compact-model simulator")
    parser.add_argument("--version", action="version",
                        version=f"fecap-sim {__version__}")
    # What the subcommands without --seed or --workers run with.
    parser.set_defaults(seed=None, workers=1)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} analysis")
        if name == "defaults":
            continue
        p.add_argument("--scenario", type=str, default=None,
                       help="scenario configuration file")
        p.add_argument("--out", type=str, default=None,
                       help="output directory (default: scenario [output] or '.')")
        p.add_argument("--dt", type=float, default=None,
                       help="base time step override, seconds")
        if name == "mc":
            p.add_argument("--seed", type=int, default=None,
                           help="Monte-Carlo seed override")
        if name in ("mc", "bench"):
            p.add_argument("--workers", type=int, default=1,
                           help="worker processes")
    return parser


def _load_scenario(args, kind: str) -> Scenario:
    text = ""
    if args.scenario is not None:
        text = Path(args.scenario).read_text()
    scen = parse_scenario(text, kind=kind)
    if args.dt is not None:
        if "dt" not in scen.solver:
            raise _UsageError(f"--dt: kind {kind} integrates no transient")
        scen.solver["dt"] = float(args.dt)
        try:
            SolverConfig(**scen.solver)
        except ValueError as err:
            raise _UsageError(f"--dt: {err}") from None
    if args.seed is not None:
        scen.mc = replace(scen.mc, seed=int(args.seed))
    return scen


def _out_dir(args, scen: Scenario) -> Path:
    out = Path(args.out if args.out is not None else (scen.out_dir or "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, scen: Scenario, argv) -> None:
    text = (
        f"fecap-sim {__version__}\n"
        f"python {sys.version.split()[0]} | numpy {np.__version__}\n"
        f"command: fecap-sim {' '.join(argv)}\n"
        + (f"seed: {scen.mc.seed}\n" if scen.kind == "mc" else "")
        + "--- resolved scenario ---\n"
        f"{emit_scenario(scen)}"
    )
    (out / "run_manifest.txt").write_text(text)


def _emit(path: Path, writer, *payload) -> None:
    writer(*payload, path)
    print(f"wrote {path}")


def _run_hysteresis(scen: Scenario, out: Path) -> None:
    d = scen.drive
    res = hysteresis(scen.device, d["amplitude"], d["frequency"], d["cycles"],
                     scen.solver_config())
    _emit(out / "hysteresis_loop.csv", csvio.hysteresis_loop_csv, res)
    _emit(out / "hysteresis_summary.csv", csvio.hysteresis_summary_csv, res)
    _emit(out / "hysteresis_displacement.csv", csvio.displacement_csv, res)
    _emit(out / "hysteresis_timeseries.csv", csvio.timeseries_csv, res.timeseries)


def _run_kinetics(scen: Scenario, out: Path) -> None:
    d = scen.drive
    points = switching_kinetics(scen.device, d["amplitudes"], d["widths"],
                                d["preset"], d["preset_width"], d["settle"],
                                d["edge"], scen.solver_config())
    _emit(out / "kinetics.csv", csvio.kinetics_csv, points)


def _run_cv(scen: Scenario, out: Path) -> None:
    d = scen.drive
    cfg = scen.solver_config()
    points = small_signal_cv(scen.device,
                             triangle(d["amplitude"], d["frequency"], d["cycles"]),
                             d["delta_v"], cfg)
    _emit(out / "cv.csv", csvio.cv_csv, points)


def _run_iv(scen: Scenario, out: Path) -> None:
    d = scen.drive
    points = dc_sweep(scen.device, d["v_start"], d["v_stop"], d["points"],
                      scen.solver.get("newton_tol_i"))
    _emit(out / "iv.csv", csvio.iv_csv, points)


def _run_program(scen: Scenario, out: Path) -> None:
    d = scen.drive
    trace = current_program(scen.device, d["current"], d["width"], d["pulses"],
                            d["discharge"], d["edge"], d["gap"],
                            max_discharge=d["max_discharge"],
                            cfg=scen.solver_config())
    _emit(out / "program.csv", csvio.program_csv, trace)
    _emit(out / "program_timeseries.csv", csvio.timeseries_csv, trace.timeseries)


def _run_transient(scen: Scenario, out: Path) -> None:
    d = scen.drive
    wf = Waveform(d["mode"], np.array(d["times"]), np.array(d["values"]))
    ts = run_transient(scen.device, wf, scen.solver_config())
    _emit(out / "transient.csv", csvio.timeseries_csv, ts)


def _mc_spec(scen: Scenario) -> ScenarioSpec:
    sub = scen.mc.scenario
    return ScenarioSpec(sub, dt=scen.solver["dt"], **{
        field: scen.drive[key] for key, field in MC_DRIVE_FIELDS[sub].items()})


def _run_mc(scen: Scenario, out: Path, workers: int) -> None:
    result = run_mc(_mc_spec(scen), scen.device, scen.mc.distribution(),
                    scen.mc.trials, scen.mc.seed, workers=workers)
    _emit(out / "mc_trials.csv", csvio.mc_trials_csv, result)
    _emit(out / "mc_aggregate.csv", csvio.mc_aggregate_csv, result)
    _emit(out / "mc_histogram.csv", csvio.mc_histogram_csv, result)
    if result.failed_trials:
        print(f"excluded {len(result.failed_trials)} failed trials: "
              f"{result.failed_trials}")


def _run_bench(scen: Scenario, out: Path, workers: int) -> None:
    d = scen.drive
    wf = bench_waveform(d["current"], d["width"], d["t_total"], d["edge"])
    report = run_array_bench(scen.device, d["sizes"], wf, scen.solver_config(),
                             chunk=d["chunk"], workers=workers)
    _emit(out / "bench.csv", csvio.bench_csv, report)
    print(f"machine: {report.machine}")
    print(f"{'size':>8} {'wall_s':>10} {'steps':>10} {'iters':>10} {'fail':>5}")
    for size, wall, steps, iters, fails in report.rows():
        print(f"{size:>8d} {wall:>10.3f} {steps:>10d} {iters:>10d} {fails:>5d}")


# The unit `defaults` prints each device quantity in.
_DISPLAY_UNITS = {
    "area": "um2", "length": "nm", "none": "1", "energy": "eV", "field": "MV/cm",
    "charge_density": "uC/cm2", "density": "cm-3", "voltage": "V",
    "mobility": "m2/Vs", "temperature": "C",
}


def _print_defaults() -> None:
    p = DeviceParams()
    print("# device defaults (woken-up device)")
    # DEVICE_KEYS are the fields in order, plus N_depl, which sets two.
    for name, quantity in DEVICE_KEYS.items():
        if name != "N_depl":
            unit = _DISPLAY_UNITS[quantity]
            print(f"{name:12s} = {from_si(getattr(p, name), unit):.6g} {unit}")
    print("\n# variability tables (mean / sigma)")
    for label, dist in (("21C", McDistribution.table_21c()),
                        ("85C", McDistribution.table_85c())):
        print(f"[{label}]")
        for e in dist.entries:
            print(f"{e.name:12s} mu = {e.mean:.6g}  sigma = {e.sigma:.6g}  (SI)")


_RUNNERS = {
    "hysteresis": _run_hysteresis,
    "kinetics": _run_kinetics,
    "cv": _run_cv,
    "iv": _run_iv,
    "program": _run_program,
    "transient": _run_transient,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if args.command == "defaults":
        _print_defaults()
        return 0

    try:
        if args.workers < 1:
            raise _UsageError("--workers must be >= 1")
        if args.seed is not None and args.seed < 0:
            raise _UsageError("--seed must be >= 0")
        scen = _load_scenario(args, args.command)
        out = _out_dir(args, scen)
        _write_manifest(out, scen, argv)
        if args.command in _RUNNERS:
            _RUNNERS[args.command](scen, out)
        elif args.command == "mc":
            _run_mc(scen, out, args.workers)
        elif args.command == "bench":
            _run_bench(scen, out, args.workers)
    except (ScenarioError, _UsageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (StepFailureError, DcConvergenceError, McError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"I/O error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
