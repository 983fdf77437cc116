import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fecapsim as fc
from fecapsim import analyses, montecarlo
from fecapsim.analyses import current_program_batch, extract_loop_metrics, zero_crossings


@pytest.fixture(scope="module")
def params():
    return fc.DeviceParams()


@pytest.fixture(scope="module")
def saturating_loop(params):
    return fc.hysteresis(params, 3.0, 1e3, n_cycles=3)


def make_parallelogram(offset=0.1):
    """Closed PWL loop with exactly known crossings.

    Ascending branch P = clamp(V - 0.5, -1, 1), descending
    P = clamp(V + 0.5, -1, 1): pr = +/-0.5, vc = +/-0.5. Samples are offset
    so every crossing lands between samples.
    """
    v_up = np.arange(-2.0 + offset, 2.0, 0.25)
    v_dn = np.arange(2.0 - offset, -2.0, -0.25)
    v = np.concatenate([v_up, v_dn, [v_up[0]]])
    p = np.empty_like(v)
    rising = np.arange(v.size) < v_up.size
    p[rising] = np.clip(v[rising] - 0.5, -1.0, 1.0)
    p[~rising] = np.clip(v[~rising] + 0.5, -1.0, 1.0)
    return v, p


class TestLoopExtraction:
    def test_parallelogram_exact(self):
        v, p = make_parallelogram()
        pr_pos, pr_neg, vc_pos, vc_neg = extract_loop_metrics(v, p)
        assert abs(pr_pos - 0.5) < 1e-12
        assert abs(pr_neg + 0.5) < 1e-12
        assert abs(vc_pos - 0.5) < 1e-12
        assert abs(vc_neg + 0.5) < 1e-12

    def test_exact_zero_sample_counted_once(self):
        v = np.array([-1.0, 0.0, 1.0, 0.0, -1.0])
        y = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
        crossings = zero_crossings(v, y)
        assert crossings == [(20.0, True), (40.0, False)]

    def test_no_crossing_gives_nan(self):
        v = np.array([0.5, 1.0, 0.5])
        p = np.array([1.0, 1.0, 1.0])
        pr_pos, pr_neg, vc_pos, vc_neg = extract_loop_metrics(v, p)
        assert np.isnan(pr_pos) and np.isnan(vc_pos)


def loop_zero_crossings(x, y):
    """Reference: the sample-by-sample loop zero_crossings replaced."""
    out = []
    for i in range(len(x) - 1):
        a, b = x[i], x[i + 1]
        if a == 0.0:
            if b != 0.0:
                out.append((y[i], b > 0.0))
        elif a * b < 0.0:
            w = a / (a - b)
            out.append((y[i] + w * (y[i + 1] - y[i]), b > a))
    return out


# Exact zeros and repeated values are drawn often, so on-zero samples,
# zero runs and flat steps are all covered.
_samples = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)),
                     st.floats(-1e3, 1e3, allow_subnormal=False))


@settings(max_examples=500, deadline=None)
@given(xy=st.integers(0, 40).flatmap(
    lambda n: st.tuples(st.lists(_samples, min_size=n, max_size=n),
                        st.lists(_samples, min_size=n, max_size=n))))
def test_zero_crossings_match_loop(xy):
    x, y = (np.array(c, dtype=np.float64) for c in xy)
    got = zero_crossings(x, y)
    want = loop_zero_crossings(x, y)
    assert len(got) == len(want)
    for (gv, ga), (wv, wa) in zip(got, want):
        assert np.float64(gv).tobytes() == np.float64(wv).tobytes()
        assert bool(ga) == bool(wa)


class TestHysteresis:
    def test_saturating_loop(self, params, saturating_loop):
        res = saturating_loop
        assert res.pr_pos >= 0.8 * params.P_s
        assert res.pr_neg <= -0.8 * params.P_s
        assert res.closure_rms < 0.005
        assert res.pr_pos >= res.pr_neg
        assert res.vc_pos > res.vc_neg

    def test_asymmetric_coercive_voltages(self, saturating_loop):
        # internal bias field shifts the loop: vc_pos != -vc_neg
        assert abs(saturating_loop.vc_pos + saturating_loop.vc_neg) > 1e-3

    def test_minor_loop_reduced_remanence(self, params, saturating_loop):
        minor = fc.hysteresis(params, 1.0, 1e3, n_cycles=3)
        assert abs(minor.pr_pos) < 0.5 * saturating_loop.pr_pos

    def test_no_ferroelectricity_no_remanence(self, params):
        tiny = params.replace(P_s=1e-12)
        res = fc.hysteresis(tiny, 3.0, 1e3, n_cycles=2,
                            cfg=fc.SolverConfig(dt=2e-6))
        assert abs(res.pr_pos) < 1e-10
        assert abs(res.pr_neg) < 1e-10

    def test_cycle_count_validated(self, params):
        with pytest.raises(ValueError):
            fc.hysteresis(params, 3.0, 1e3, n_cycles=1)

    def test_loop_area_positive(self, saturating_loop):
        area = -np.trapezoid(saturating_loop.loop_p, saturating_loop.loop_v)
        assert area > 0


class TestSwitchingKinetics:
    def test_tiny_width_small_delta(self, params):
        # at 1 V the switching time is seconds, so a 1 ns pulse moves nothing
        pts = fc.switching_kinetics(params, [1.0], [1e-9],
                                    cfg=fc.SolverConfig(dt=1e-6))
        assert pts[0].delta_p < 0.02 * 2 * params.P_s

    def test_zero_amplitude_negligible(self, params):
        pts = fc.switching_kinetics(params, [0.0], [1e-5],
                                    cfg=fc.SolverConfig(dt=1e-6))
        assert pts[0].delta_p < 0.01 * 2 * params.P_s

    def test_monotone_small_grid(self, params):
        amps = [1.5, 2.0, 3.0]
        widths = [1e-6, 1e-5, 1e-4]
        pts = fc.switching_kinetics(params, amps, widths)
        delta = np.array([p.delta_p for p in pts]).reshape(len(amps), len(widths))
        assert np.all(np.diff(delta, axis=0) >= -1e-6)
        assert np.all(np.diff(delta, axis=1) >= -1e-6)
        assert delta[-1, -1] > 0.5 * 2 * params.P_s

    def test_bounds(self, params):
        pts = fc.switching_kinetics(params, [3.0], [1e-4])
        assert 0.0 <= pts[0].delta_p <= 2 * params.P_s

    @pytest.mark.parametrize("width", [0.0, -1e-3])
    def test_nonpositive_preset_width_rejected(self, params, width):
        with pytest.raises(ValueError, match="segment durations must be > 0"):
            fc.switching_kinetics(params, [3.0], [1e-6], preset_width=width)


def _sampled_batch(base, n):
    dist = montecarlo.McDistribution.table_21c()
    return fc.ParamsBatch.from_list(montecarlo.sample_params(base, dist, r)
                                    for r in montecarlo._trial_rngs(9, 0, n))


class TestCurrentProgram:
    def test_zero_current_constant(self, params):
        p25 = params.replace(area=25e-12)
        trace = fc.current_program(p25, 0.0, 1e-5, 3,
                                   cfg=fc.SolverConfig(dt=5e-7))
        assert np.ptp(trace.polarization_after) < 1e-4 * params.P_s

    def test_partial_switching(self, params):
        p25 = params.replace(area=25e-12)
        trace = fc.current_program(p25, 250e-9, 1e-5, 8)
        pol = trace.polarization_after
        inside = np.abs(pol) < 0.9 * params.P_s
        assert np.sum(inside) >= 3
        assert np.all(np.diff(pol) > 0)  # positive pulses switch upward
        assert np.all(np.abs(pol) <= params.P_s)

    def test_single_pulse_differs_from_train(self, params):
        p25 = params.replace(area=25e-12)
        train = fc.current_program(p25, 250e-9, 1e-5, 10)
        single = fc.current_program(p25, 25e-9, 1e-3, 1,
                                    cfg=fc.SolverConfig(dt=2e-6))
        assert abs(train.polarization_after[-1]
                   - single.polarization_after[-1]) > 1e-3 * params.P_s

    def test_clamp_failure_names_device_in_batch(self, params, monkeypatch):
        # every phase runs the whole batch, so a failure in a clamp reaches
        # the caller naming the devices by their index in the batch
        pb = _sampled_batch(params.replace(area=25e-12), 4)
        real = analyses.run_transient_batch
        widths = []

        def spy(sub, wf, cfg=None, init=None):
            widths.append(sub.n)
            if wf.mode == "voltage" and len(widths) == 4:
                raise fc.StepFailureError(1e-6, 1e-7, 1.0, 1.0, (1, 3))
            return real(sub, wf, cfg, init=init)

        monkeypatch.setattr(analyses, "run_transient_batch", spy)
        with pytest.raises(fc.StepFailureError) as info:
            current_program_batch(pb, 250e-9, 1e-5, 2)
        assert info.value.device_indices == (1, 3)
        assert widths == [pb.n] * 4

    def test_clamps_last_max_discharge(self, params):
        # each 0 V clamp is one run of fixed length, whatever the current
        base = params.replace(area=25e-12)
        pb = _sampled_batch(base, 3)
        cfg = fc.SolverConfig(dt=4e-7)
        edge, width, clamp, n = 1e-8, 1e-5, 12e-6, 3
        runs = []
        current_program_batch(pb, 250e-9, width, n, edge=edge, max_discharge=clamp,
                              cfg=cfg, runs=runs)
        assert len(runs) == 2 * n
        assert all(ts.t[-1] == clamp for ts in runs[1::2])
        trace = fc.current_program(base, 250e-9, width, n, edge=edge,
                                   max_discharge=clamp, cfg=cfg)
        assert trace.timeseries.t[-1] == pytest.approx(n * (2 * edge + width + clamp),
                                                       rel=1e-12)

    def test_no_discharge_gap_mode(self, params):
        p25 = params.replace(area=25e-12)
        trace = fc.current_program(p25, 250e-9, 1e-5, 2, discharge_between=False,
                                   gap=2e-5, cfg=fc.SolverConfig(dt=5e-7))
        assert trace.polarization_after.shape == (2,)


    def test_timeseries_joins_its_phases(self, params):
        # the trace is every pulse and clamp record end to end: each phase is
        # timed from its own start and its first row repeats the previous
        # phase's last, so that row is dropped and its times are shifted
        p25 = params.replace(area=25e-12)
        cfg = fc.SolverConfig(dt=4e-7)
        trace = fc.current_program(p25, 250e-9, 1e-5, 3, cfg=cfg)
        runs = []
        current_program_batch(fc.ParamsBatch.from_params(p25, 1), 250e-9, 1e-5, 3,
                              cfg=cfg, runs=runs)
        parts = [ts.device(0) for ts in runs]
        assert len(parts) == 2 * 3
        ts = trace.timeseries
        assert len(ts) == sum(map(len, parts)) - (len(parts) - 1)
        row, t_end = 0, 0.0
        for k, part in enumerate(parts):
            assert part.t[0] == 0.0
            skip = min(k, 1)
            rows = slice(row, row + len(part) - skip)
            for name, col in part.columns().items():
                want = t_end + col[skip:] if name == "t" and k else col[skip:]
                assert np.array_equal(getattr(ts, name)[rows], want), (k, name)
            row, t_end = rows.stop, ts.t[rows.stop - 1]
        assert row == len(ts)
        assert ts.stats.steps == sum(part.stats.steps for part in parts)


class TestPristine:
    def test_pristine_below_woken(self, params, saturating_loop):
        res = fc.pristine_scenario(params, amplitudes=(3.0,),
                                   cfg=fc.SolverConfig(dt=2e-6))
        assert res[3.0].pr_pos < saturating_loop.pr_pos

    def test_equal_density_identical(self, params):
        same = fc.pristine_scenario(params, amplitudes=(3.0,),
                                    n_depl=params.N_depl_dn,
                                    cfg=fc.SolverConfig(dt=2e-6))
        direct = fc.hysteresis(params, 3.0, 1e3, 3, cfg=fc.SolverConfig(dt=2e-6))
        assert np.array_equal(res_loop := same[3.0].loop_p, direct.loop_p)

    def test_monotone_in_density(self, params):
        cfg = fc.SolverConfig(dt=2e-6)
        prs = []
        for n in (5e27, 7e27, 1.0e28, 1.4e28):
            res = fc.pristine_scenario(params, amplitudes=(3.0,), n_depl=n,
                                       cfg=cfg)
            prs.append(res[3.0].pr_pos)
        assert all(b >= a - 1e-4 for a, b in zip(prs, prs[1:]))
