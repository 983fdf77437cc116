"""Per-layer spans recorded from outside fecapsim.

A layer is a fecapsim module. ``Tracer.install`` replaces the public
functions at each layer boundary with wrappers, at the bindings the calling
module actually uses (``fecapsim.analyses.run_transient_batch``,
``fecapsim.solver.transition_rates``, ...), and ``uninstall`` puts the
originals back. A wrapper appends one span (parent, layer, name, start,
end) to an in-memory list; ``write`` saves the list once, at the end. A
span's self time is its duration minus that of its direct child spans.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter, defaultdict

import fecapsim
from fecapsim import (analyses, arraybench, csvio, montecarlo, params,
                      quasistatic, solver, waveform)

_PHYSICS_FROM_SOLVER = ("c_layer", "j_fn", "j_pf", "p_step", "phi_depl",
                        "polarization", "transition_rates")
_PHYSICS_FROM_QUASISTATIC = ("c_layer", "j_fn", "j_pf", "p_steady_state",
                             "phi_depl")
_CSV_WRITERS = ("hysteresis_loop_csv", "hysteresis_summary_csv",
                "displacement_csv", "timeseries_csv", "cv_csv", "iv_csv",
                "kinetics_csv", "program_csv")


def _bindings():
    """(owner, attribute, layer, span name) of every wrapped binding."""
    out = [(m, "run_transient_batch", "solver", "run_transient_batch")
           for m in (analyses, arraybench, solver)]
    out.append((quasistatic, "run_transient", "solver", "run_transient"))
    out += [(solver, f, "physics", f) for f in _PHYSICS_FROM_SOLVER]
    out += [(quasistatic, f, "physics", f) for f in _PHYSICS_FROM_QUASISTATIC]
    out += [(waveform.Waveform, f, "waveform", f) for f in ("value_at", "time_grid")]
    out += [(params.ParamsBatch, f, "params", f)
            for f in ("__init__", "from_params", "from_list", "slice")]
    out += [(fecapsim, "run_mc", "montecarlo", "run_mc"),
            (montecarlo, "sample_params", "montecarlo", "sample_params"),
            (arraybench, "sample_params", "montecarlo", "sample_params"),
            (fecapsim, "run_array_bench", "arraybench", "run_array_bench")]
    out += [(fecapsim, "hysteresis", "analyses", "hysteresis"),
            (fecapsim, "switching_kinetics", "analyses", "kinetics"),
            (fecapsim, "current_program", "analyses", "program"),
            (montecarlo, "hysteresis_batch", "analyses", "hysteresis"),
            (montecarlo, "switching_kinetics_batch", "analyses", "kinetics"),
            (montecarlo, "current_program_batch", "analyses", "program")]
    out += [(fecapsim, "small_signal_cv", "quasistatic", "cv"),
            (fecapsim, "dc_sweep", "quasistatic", "iv")]
    out += [(csvio, f, "csvio", f) for f in _CSV_WRITERS]
    return out


class Tracer:
    """Spans and counters of the traced rounds of one run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = [-1]
        self._saved = []

    def _wrap(self, fn, layer, name, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (parent, layer, name, t0, t1)
            if hook is not None:
                hook(args, out)
            return out

        return traced

    def _solve_stats(self, args, ts):
        self.counts["solver.steps"] += ts.stats.steps
        self.counts["solver.newton_iters"] += ts.stats.newton_iters
        self.counts["solver.halvings"] += ts.stats.halvings

    def _csv_bytes(self, args, _out):
        self.counts["csvio.bytes"] += os.path.getsize(args[-1])

    def install(self):
        for owner, attr, layer, name in _bindings():
            raw = owner.__dict__[attr]
            hook = None
            if name == "run_transient_batch":
                hook = self._solve_stats
            elif layer == "csvio":
                hook = self._csv_bytes
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, layer, name, hook))
            else:
                new = self._wrap(raw, layer, name, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def metrics(self, rounds: int) -> dict:
        """Per-layer figures per traced round, as {name: (value, unit)}."""
        child = [0.0] * len(self.spans)
        for parent, _layer, _name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        layer_calls = Counter()
        calls = Counter()
        incl = defaultdict(float)
        for i, (parent, layer, name, t0, t1) in enumerate(self.spans):
            self_s[layer] += t1 - t0 - child[i]
            layer_calls[layer] += 1
            calls[name] += 1
            # Inclusive time of a named call, not counted again when nested.
            if parent < 0 or self.spans[parent][2] != name:
                incl[name] += t1 - t0
        steps = self.counts["solver.steps"]
        evals = calls["transition_rates"]
        total = {
            "solver.calls": (calls["run_transient_batch"], "count"),
            "solver.steps": (steps, "count"),
            "solver.newton_iters": (self.counts["solver.newton_iters"], "count"),
            "solver.halvings": (self.counts["solver.halvings"], "count"),
            "solver.residual_evals": (evals, "count"),
            "solver.self_s": (self_s["solver"], "s"),
            "physics.calls": (layer_calls["physics"], "count"),
            "physics.self_s": (self_s["physics"], "s"),
            "waveform.calls": (layer_calls["waveform"], "count"),
            "waveform.self_s": (self_s["waveform"], "s"),
            "params.self_s": (self_s["params"], "s"),
            "montecarlo.samples": (calls["sample_params"], "count"),
            "montecarlo.sample_s": (incl["sample_params"], "s"),
            "montecarlo.self_s": (self_s["montecarlo"] - incl["sample_params"], "s"),
            "arraybench.self_s": (self_s["arraybench"], "s"),
            "analyses.self_s": (self_s["analyses"], "s"),
            "analyses.hysteresis_s": (incl["hysteresis"], "s"),
            "analyses.kinetics_s": (incl["kinetics"], "s"),
            "analyses.program_s": (incl["program"], "s"),
            "quasistatic.cv_s": (incl["cv"], "s"),
            "quasistatic.iv_s": (incl["iv"], "s"),
            "quasistatic.self_s": (self_s["quasistatic"], "s"),
            "csvio.self_s": (self_s["csvio"], "s"),
            "csvio.bytes": (self.counts["csvio.bytes"], "B"),
        }
        out = {k: (v / rounds, unit) for k, (v, unit) in total.items()}
        out["solver.residual_evals_per_step"] = (evals / steps if steps else 0.0,
                                                 "evals/step")
        return out

    def write(self, path) -> None:
        """Save every span as CSV, times in seconds from the first span."""
        t_ref = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("span,parent,layer,name,start_s,end_s\n")
            for i, (parent, layer, name, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{layer},{name},{t0 - t_ref:.9f},"
                         f"{t1 - t_ref:.9f}\n")
