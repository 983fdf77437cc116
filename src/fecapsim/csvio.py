"""Deterministic CSV emission for every result type.

Column order and header names are fixed contracts. Values are written with
9 significant digits, locale-independent, ``\\n`` line endings. Output uses
the field's customary units (uC/cm2 for polarization, A/cm2 for current
densities); everything else stays SI.
"""

from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

import numpy as np

from .analyses import HysteresisResult, KineticsPoint, ProgramTrace
from .arraybench import BenchReport
from .montecarlo import McResult
from .solver import TimeSeries

# (field name, CSV header, output scale) of each TimeSeries column written.
_TS_CSV = [(f.name, *f.metadata["csv"]) for f in fields(TimeSeries) if "csv" in f.metadata]
TIMESERIES_HEADER = tuple(header for _, header, _ in _TS_CSV)

# C/m^2 -> uC/cm^2
_P_OUT = 1e2


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.9g}"


def write_rows(path, header, rows) -> None:
    """Write one CSV file; *rows* is an iterable of value sequences."""
    path = Path(path)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path):
    """Read back a numeric CSV written here; returns (header, 2-D array)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    if data.size == 0:
        data = np.empty((0, len(header)))
    return header, data


def timeseries_csv(ts: TimeSeries, path) -> None:
    cols = [getattr(ts, name) if scale is None else getattr(ts, name) * scale
            for name, _, scale in _TS_CSV]
    write_rows(path, TIMESERIES_HEADER, zip(*cols))


def hysteresis_loop_csv(res: HysteresisResult, path) -> None:
    write_rows(path, ("V_V", "P_uC_cm2"),
               zip(res.loop_v, res.loop_p * _P_OUT))


def hysteresis_summary_csv(res: HysteresisResult, path) -> None:
    write_rows(path,
               ("pr_pos_uC_cm2", "pr_neg_uC_cm2", "vc_pos_V", "vc_neg_V",
                "closure_rms"),
               [(res.pr_pos * _P_OUT, res.pr_neg * _P_OUT, res.vc_pos,
                 res.vc_neg, res.closure_rms)])


def displacement_csv(res: HysteresisResult, path) -> None:
    write_rows(path, ("V_V", "I_A"),
               zip(res.displacement_v, res.displacement_i))


def kinetics_csv(points, path) -> None:
    write_rows(path, ("amplitude_V", "width_s", "delta_p_uC_cm2"),
               ((pt.amplitude, pt.width, pt.delta_p * _P_OUT)
                for pt in points))


def iv_csv(points, path) -> None:
    write_rows(path, ("V_V", "I_A"), points)


def cv_csv(points, path) -> None:
    write_rows(path, ("V_V", "C_F"), points)


def program_csv(trace: ProgramTrace, path) -> None:
    write_rows(path, ("pulse", "P_uC_cm2"),
               ((k + 1, p * _P_OUT)
                for k, p in enumerate(trace.polarization_after)))


def _mc_output_columns(result: McResult):
    cols = []
    for name in sorted(result.outputs):
        arr = result.outputs[name]
        if arr.ndim == 1:
            cols.append((name, arr))
        else:
            for j in range(arr.shape[1]):
                cols.append((f"{name}_{j}", arr[:, j]))
    return cols


def mc_trials_csv(result: McResult, path) -> None:
    cols = _mc_output_columns(result)
    header = ["trial", "failed"] + [name for name, _ in cols] \
        + [f"sample_{k}" for k in sorted(result.samples)]
    failed = set(result.failed_trials)
    rows = []
    for i in range(result.n_trials):
        row = [i, 1.0 if i in failed else 0.0]
        row += [arr[i] for _, arr in cols]
        row += [result.samples[k][i] for k in sorted(result.samples)]
        rows.append(row)
    write_rows(path, header, rows)


def mc_aggregate_csv(result: McResult, path) -> None:
    cols = []
    for name in sorted(result.mean):
        mean = np.atleast_1d(result.mean[name])
        std = np.atleast_1d(result.std[name])
        for j in range(mean.size):
            label = name if mean.size == 1 else f"{name}_{j}"
            cols.append((label, mean[j], std[j]))
    write_rows(path, ("output", "mean", "std"),
               ((label, m, s) for label, m, s in cols))


def mc_histogram_csv(result: McResult, path) -> None:
    if result.histogram is None:
        write_rows(path, ("bin_lo", "bin_hi", "count"), [])
        return
    counts, edges = result.histogram
    write_rows(path, ("bin_lo", "bin_hi", "count"),
               zip(edges[:-1], edges[1:], counts))


def bench_csv(report: BenchReport, path) -> None:
    write_rows(path, ("size", "wall_s", "steps", "newton_iters", "failures"),
               report.rows())
