"""The benchmark's three workloads: inputs, timed calls and output checks.

Each workload builds its inputs from the seed, runs one round of timed
calls through fecapsim's public API with ``workers = 1``, and checks a
round's outputs against the independent references in ``reference.py`` or
against properties the outputs must have. Public functions are looked up
on their module at call time (``fc.run_mc``, ``csvio.cv_csv``), so that the
traced run can wrap them from outside. The checks import ``reference``,
and with it scipy, only after the timed rounds.
"""

from __future__ import annotations

import numpy as np

import fecapsim as fc
from fecapsim import csvio
from fecapsim.arraybench import bench_waveform
from fecapsim.waveform import triangle

# Rising/falling edge of every current pulse, s.
EDGE = 10e-9
# Default KCL tolerance of the solver, A per 25 um^2 of device area.
TOL_I_PER_25UM2 = 1e-12
# In-batch and lone runs of one MC trial converge along different Newton
# paths; the loop tolerance is 1e-9 V, so allow far less than any figure
# of merit can move.
RERUN_TOL_V = 1e-6
RERUN_TOL_REL_P = 1e-6


class CheckError(AssertionError):
    """An output failed its check."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


class Array:
    """The paper's array case: sampled 25 um^2 cells, one current pulse.

    Each cell's parameters are drawn from the 21 degC table with the run's
    seed; the cells see one 250 nA, 10 us pulse in a 30 us window, and only
    the final row is recorded.
    """

    cells = 1000

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.base = fc.DeviceParams(area=25e-12)
        self.dist = fc.McDistribution.table_21c()
        self.current = 250e-9
        self.wf = bench_waveform(self.current, 10e-6, 30e-6, EDGE)
        self.cfg = fc.SolverConfig(dt=2e-7, record_every=10**9)
        self.ops = self.cells

    def run(self):
        return fc.run_array_bench(self.base, [self.cells], self.wf, self.cfg,
                                  workers=1, mc=(self.dist, self.seed))

    def failed(self, report) -> int:
        return int(sum(report.failures))

    def digest(self, report):
        return (report.final_pol_device0[0], report.steps[0],
                report.newton_iters[0])

    def check(self, report):
        import reference as ref

        require(report.failures == [0], f"array failures {report.failures}")
        # Child 0 of spawn(n) is the same for every n.
        dev = ref.drawn_device(self.base, self.dist,
                               ref.redraw_samples(self.dist, self.seed, 1), 0)
        y = ref.current_drive(dev, self.wf.times, self.wf.values)
        want = dev.P_s * (2.0 * y[-1, 0] - 1.0)
        got = report.final_pol_device0[0]
        tol = 2.0 * ref.pol_error_bound(self.current, EDGE, dev.area, self.cfg.dt)
        require(abs(got - want) <= tol,
                f"cell 0: P {got:.9g} vs Radau {want:.9g} C/m^2, tol {tol:.2e}")
        require(abs(got) <= dev.P_s, f"cell 0: |P| {abs(got):.4g} > P_s")
        return [f"cell 0 final P {got:.6g} C/m^2, Radau {want:.6g}, "
                f"|diff| {abs(got - want):.2e} <= {tol:.2e}; |P| <= P_s"]


class MonteCarlo:
    """Criterion-9 Monte Carlo: hysteresis, 21 degC table, 2 cycles, 2 us."""

    trials = 100

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.base = fc.DeviceParams()
        self.dist = fc.McDistribution.table_21c()
        self.spec = fc.ScenarioSpec("hysteresis", amplitude=3.0, frequency=1e3,
                                    n_cycles=2, dt=2e-6)
        self.ops = self.trials

    def run(self):
        return fc.run_mc(self.spec, self.base, self.dist, self.trials,
                         self.seed, workers=1)

    def failed(self, res) -> int:
        return len(res.failed_trials)

    def digest(self, res):
        return b"".join(res.outputs[k].tobytes() for k in sorted(res.outputs))

    def check(self, res):
        import reference as ref

        n = self.trials
        require(not res.failed_trials, f"failed trials {res.failed_trials}")
        redraw = ref.redraw_samples(self.dist, self.seed, n)
        for e in self.dist.entries:
            require(np.array_equal(res.samples[e.name], redraw[e.name]),
                    f"samples of {e.name} differ from the redraw")
            if e.sigma > 0.0:
                dev = abs(redraw[e.name].mean() - e.mean)
                require(dev < 4.0 * e.sigma / np.sqrt(n),
                        f"mean of {e.name} off by {dev / e.sigma:.2f} sigma")

        out = res.outputs
        p_s = redraw["P_s"]
        require(np.all(out["pr_pos"] > 0.0) and np.all(out["pr_neg"] < 0.0),
                "pr_pos > 0 > pr_neg fails")
        require(np.all(out["pr_pos"] <= p_s) and np.all(-out["pr_neg"] <= p_s),
                "|pr| > P_s")
        require(np.all(out["vc_pos"] > 0.0) and np.all(out["vc_neg"] < 0.0),
                "vc_pos > 0 > vc_neg fails")

        worst = 0.0
        for i in (0, n - 1):
            dev = ref.drawn_device(self.base, self.dist, redraw, i)
            alone = fc.hysteresis(dev, self.spec.amplitude, self.spec.frequency,
                                  self.spec.n_cycles, self.spec.solver_config())
            for key, tol in (("pr_pos", RERUN_TOL_REL_P * dev.P_s),
                             ("pr_neg", RERUN_TOL_REL_P * dev.P_s),
                             ("vc_pos", RERUN_TOL_V), ("vc_neg", RERUN_TOL_V)):
                diff = abs(getattr(alone, key) - out[key][i])
                require(diff <= tol, f"trial {i} {key}: lone run differs by {diff:.3e}")
                worst = max(worst, diff / tol)
        return [f"samples equal the redraw; means within 4 sigma/sqrt({n})",
                f"loop signs and |pr| <= P_s hold for all {n} trials",
                f"trials 0 and {n - 1} rerun alone: worst diff {worst:.2e} of tolerance"]


class Characterize:
    """The single-device calibration suite on the calibrated device.

    Hysteresis, small-signal C-V, the I-V sweep, the 5x7 kinetics grid and
    the 25-pulse current-programming train, each written with the csvio
    writers of its ``fecap-sim`` subcommand. The suite is a fixed protocol
    on one device, so its inputs do not depend on the seed.
    """

    amplitudes = (1.0, 1.5, 2.0, 2.5, 3.0)
    widths = (1e-7, 4.6416e-7, 2.1544e-6, 1e-5, 4.6416e-5, 2.1544e-4, 1e-3)

    def __init__(self, seed: int, out_dir):
        self.dev = fc.DeviceParams()
        self.out = out_dir / "characterize"
        self.out.mkdir(parents=True, exist_ok=True)
        self.hyst_cfg = fc.SolverConfig(dt=4e-6)
        self.cv_wave = triangle(3.0, 1e3, 2)
        self.cv_cfg = fc.SolverConfig(dt=4e-6)
        self.kin_cfg = fc.SolverConfig(dt=4e-6)
        self.prog_dev = self.dev.replace(area=25e-12)
        self.prog_current = 250e-9
        self.prog_cfg = fc.SolverConfig(dt=4e-7)
        self.ops = 5

    def run(self):
        out = self.out
        hyst = fc.hysteresis(self.dev, 3.0, 1e3, 2, self.hyst_cfg)
        csvio.hysteresis_loop_csv(hyst, out / "hysteresis_loop.csv")
        csvio.hysteresis_summary_csv(hyst, out / "hysteresis_summary.csv")
        csvio.displacement_csv(hyst, out / "hysteresis_displacement.csv")
        csvio.timeseries_csv(hyst.timeseries, out / "hysteresis_timeseries.csv")
        cv = fc.small_signal_cv(self.dev, self.cv_wave, 10e-3, self.cv_cfg)
        csvio.cv_csv(cv, out / "cv.csv")
        iv = fc.dc_sweep(self.dev, 0.0, 3.0, 61)
        csvio.iv_csv(iv, out / "iv.csv")
        kin = fc.switching_kinetics(self.dev, self.amplitudes, self.widths,
                                    cfg=self.kin_cfg)
        csvio.kinetics_csv(kin, out / "kinetics.csv")
        prog = fc.current_program(self.prog_dev, self.prog_current, 10e-6, 25,
                                  edge=EDGE, cfg=self.prog_cfg)
        csvio.program_csv(prog, out / "program.csv")
        csvio.timeseries_csv(prog.timeseries, out / "program_timeseries.csv")
        return {"hysteresis": hyst, "cv": cv, "iv": iv, "kinetics": kin,
                "program": prog}

    def failed(self, res) -> int:
        return 0

    def digest(self, res):
        parts = [res["hysteresis"].timeseries.pol, np.array(res["cv"]),
                 np.array(res["iv"]), np.array([k.delta_p for k in res["kinetics"]]),
                 res["program"].polarization_after]
        return b"".join(np.asarray(a, dtype=float).tobytes() for a in parts)

    def check(self, res):
        return [self._check_hysteresis(res["hysteresis"]),
                self._check_cv(res["cv"]),
                self._check_iv(res["iv"]),
                self._check_kinetics(res["kinetics"]),
                self._check_program(res["program"]),
                self._check_files(res)]

    def _check_hysteresis(self, h):
        p_s = self.dev.P_s
        ts = h.timeseries
        require(h.pr_pos >= 0.8 * p_s and -h.pr_neg >= 0.8 * p_s,
                f"loop not saturating: Pr {h.pr_pos:.4g} / {h.pr_neg:.4g}")
        require(h.loop_p.max() >= 0.95 * p_s and h.loop_p.min() <= -0.95 * p_s,
                "loop does not reach +/-0.95 P_s")
        require(ts.p.min() >= 0.0 and ts.p.max() <= 1.0, "p outside [0, 1]")
        tol_i = TOL_I_PER_25UM2 * self.dev.area / 25e-12
        loop = np.abs(ts.loop_residual).max()
        kcl = np.abs(ts.kcl_residual).max()
        require(loop <= self.hyst_cfg.newton_tol_v, f"loop residual {loop:.2e} V")
        require(kcl <= tol_i, f"KCL residual {kcl:.2e} A")
        return (f"hysteresis: Pr {h.pr_pos * 1e2:+.2f}/{h.pr_neg * 1e2:+.2f} uC/cm2, "
                f"p in [0, 1], residuals {loop:.1e} V / {kcl:.1e} A")

    def _check_cv(self, cv):
        import reference as ref

        v = np.array([x[0] for x in cv])
        c = np.array([x[1] for x in cv])
        half = v.size // 2
        v2, c2 = v[half:], c[half:]
        peaks = _peaks(c2, 0.02 * (c2.max() - c2.min()))
        require(len(peaks) == 2, f"{len(peaks)} C-V peaks on the last cycle")
        require(sorted(np.sign(v2[i]) for i in peaks) == [-1.0, 1.0],
                "C-V peaks not at opposite bias")
        ts = fc.run_transient(self.dev, self.cv_wave, self.cv_cfg)
        require(np.array_equal(ts.v_appl, v), "C-V bias points differ from the sweep")
        want = ref.frozen_p_capacitance(self.dev, ts.p, ts.v_fe)
        err = np.abs(c / want - 1.0).max()
        require(err < 1e-3, f"C-V vs series formula: rel err {err:.2e}")
        return (f"C-V: peaks at {v2[peaks[0]]:+.2f} / {v2[peaks[1]]:+.2f} V; "
                f"series formula rel err {err:.1e}")

    def _check_iv(self, iv):
        import reference as ref

        mags = np.array([abs(i) for _, i in iv])
        require(np.all(np.diff(mags) > 0.0), "|I| not strictly increasing")
        want = np.array([ref.dc_current(self.dev, v) for v, _ in iv])
        err = np.abs(np.array([i for _, i in iv]) / want - 1.0).max()
        require(err < 1e-6, f"I-V vs brentq: rel err {err:.2e}")
        return f"I-V: |I| increasing to {mags[-1]:.3e} A; brentq rel err {err:.1e}"

    def _check_kinetics(self, kin):
        p_s = self.dev.P_s
        delta = np.array([k.delta_p for k in kin]).reshape(len(self.amplitudes),
                                                           len(self.widths))
        slack = 1e-6 * 2.0 * p_s
        require(np.all(np.diff(delta, axis=0) >= -slack), "not monotone in amplitude")
        require(np.all(np.diff(delta, axis=1) >= -slack), "not monotone in width")
        require(np.all(delta >= 0.0) and np.all(delta <= 2.0 * p_s),
                "delta_p outside [0, 2 P_s]")
        return "kinetics: 5x7 grid monotone in amplitude and width, 0 <= dp <= 2 P_s"

    def _check_program(self, prog):
        import reference as ref

        dev = self.prog_dev
        width = prog.pulse_width
        times = np.array([0.0, EDGE, EDGE + width, 2 * EDGE + width])
        currents = np.array([0.0, self.prog_current, self.prog_current, 0.0])
        y = ref.current_drive(dev, times, currents)
        want = dev.P_s * (2.0 * y[-1, 0] - 1.0)
        ts = prog.timeseries
        row = np.flatnonzero(np.isclose(ts.t, times[-1], rtol=0.0, atol=1e-12))
        require(row.size == 1, "no row at the end of the first pulse")
        got = ts.pol[row[0]]
        tol = 2.0 * ref.pol_error_bound(self.prog_current, EDGE, dev.area,
                                        self.prog_cfg.dt)
        require(abs(got - want) <= tol,
                f"first pulse: P {got:.9g} vs Radau {want:.9g}, tol {tol:.2e}")
        inside = np.abs(prog.polarization_after) < 0.9 * dev.P_s
        require(_longest_run(inside) >= 3, "fewer than 3 consecutive partial pulses")
        return (f"program: first pulse |P - Radau| {abs(got - want):.2e} <= "
                f"{tol:.2e} C/m^2; {int(inside.sum())} of 25 pulses inside 0.9 P_s")

    def _check_files(self, res):
        h = res["hysteresis"]
        rows = {"hysteresis_loop.csv": h.loop_v.size,
                "hysteresis_summary.csv": 1,
                "hysteresis_displacement.csv": h.loop_v.size,
                "hysteresis_timeseries.csv": len(h.timeseries),
                "cv.csv": len(res["cv"]), "iv.csv": len(res["iv"]),
                "kinetics.csv": len(res["kinetics"]),
                "program.csv": res["program"].n_pulses,
                "program_timeseries.csv": len(res["program"].timeseries)}
        for name, n in rows.items():
            with open(self.out / name) as fh:
                got = sum(1 for _ in fh) - 1
            require(got == n, f"{name}: {got} rows, expected {n}")
        return f"csv: {len(rows)} files with one row per result"


def _peaks(y, prominence):
    """Indices of local maxima standing *prominence* above both sides."""
    idx = []
    for i in range(1, len(y) - 1):
        if y[i] > y[i - 1] and y[i] >= y[i + 1]:
            if y[i] - max(y[:i].min(), y[i + 1:].min()) > prominence:
                idx.append(i)
    return idx


def _longest_run(mask) -> int:
    best = run = 0
    for m in mask:
        run = run + 1 if m else 0
        best = max(best, run)
    return best


WORKLOADS = {"array": Array, "mc": MonteCarlo, "characterize": Characterize}
