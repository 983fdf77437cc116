import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import fecapsim as fc
from fecapsim import analyses, montecarlo
from fecapsim.montecarlo import McDistribution, ParamDist, ScenarioSpec
from fecapsim.params import PARAM_FIELDS, ParamsBatch
from fecapsim.solver import StepFailureError


@pytest.fixture
def base():
    return fc.DeviceParams()


def all_sigma_zero(dist: McDistribution) -> McDistribution:
    entries = tuple(ParamDist(e.name, e.mean, 0.0, e.mean, e.mean)
                    for e in dist.entries)
    return McDistribution(entries=entries, temperature=dist.temperature)


def test_sigma_zero_returns_means(base):
    dist = all_sigma_zero(McDistribution.table_21c())
    rng = np.random.default_rng(0)
    out = fc.sample_params(base, dist, rng)
    assert out.t_int == 1.5e-9
    assert out.P_s == 0.27
    assert out.N_depl_dn == out.N_depl_up == 1.05e28
    assert out.Q_fix_depl == 0.098
    assert out.d_e == 7.5e-9
    assert out.temperature == 294.15
    # untouched fields copied from base
    assert out.t_fe == base.t_fe
    assert out.area == base.area


def test_table_85c_substitutions(base):
    dist = McDistribution.table_85c()
    rng = np.random.default_rng(0)
    out = fc.sample_params(base, dist, rng)
    assert out.Q_fix_depl == 0.27
    assert out.d_e == 4.5e-9
    assert out.temperature == 358.15


def test_sample_mean_clt(base):
    dist = McDistribution.table_21c()
    rng = np.random.default_rng(42)
    n = 10_000
    draws = np.array([fc.sample_params(base, dist, rng).t_int for _ in range(n)])
    assert abs(draws.mean() - 1.5e-9) < 4 * 0.22e-9 / np.sqrt(n)


def test_bounds_enforced(base):
    # huge sigma: draws always clamped into [lower, upper], never <= 0
    entries = (ParamDist("t_int", 1.5e-9, 5e-9, 0.1e-9, 20e-9),)
    dist = McDistribution(entries=entries)
    rng = np.random.default_rng(1)
    draws = np.array([fc.sample_params(base, dist, rng).t_int
                      for _ in range(500)])
    assert draws.min() >= 0.1e-9
    assert draws.max() <= 20e-9


def chained_sample(base, dist, rng):
    """Reference draw: one DeviceParams copy per entry, as sampling was first written."""
    values = {}
    for e in dist.entries:
        if e.sigma == 0.0:
            values[e.name] = e.mean
            continue
        x = e.lower - 1.0
        for _ in range(montecarlo._MAX_REJECTS):
            x = rng.normal(e.mean, e.sigma)
            if e.lower <= x <= e.upper:
                break
        values[e.name] = min(max(x, e.lower), e.upper)
    out = base
    for name, value in values.items():
        if name == "N_depl":
            out = out.with_n_depl(value)
        else:
            out = out.replace(**{name: value})
    if dist.temperature is not None:
        out = out.replace(temperature=dist.temperature)
    return out


def test_sample_matches_chained_construction(base):
    # a tight table forces rejections, so the redraw loop is covered too
    tight = McDistribution(entries=(
        ParamDist("t_int", 1.5e-9, 0.5e-9, 1.4e-9, 1.6e-9),
        ParamDist("N_depl", 1.05e28, 2.65e27, 1e26, 2e28),
        ParamDist("Q_fix_depl", 0.098, 0.0, 0.098, 0.098),
    ))
    for dist in (McDistribution.table_21c(), McDistribution.table_85c(), tight):
        for seed in range(500):
            got = montecarlo.sample_params(base, dist, np.random.default_rng(seed))
            want = chained_sample(base, dist, np.random.default_rng(seed))
            assert got == want, (dist, seed)

def test_batch_draw_matches_sample_params(base):
    # one pass over the generators draws what sample_params draws, cell by
    # cell; the needle table's bounds almost never take a draw, so its t_int
    # goes through all the redraws and is then clamped
    lower, upper = 1.5e-9 - 1e-13, 1.5e-9 + 1e-13
    needle = McDistribution(entries=(
        ParamDist("t_int", 1.5e-9, 1e-9, lower, upper),
        ParamDist("N_depl", 1.05e28, 2.65e27, 1e26, 2e28),
        ParamDist("Q_fix_depl", 0.098, 0.0, 0.098, 0.098),
    ), temperature=300.0)
    for dist in (McDistribution.table_21c(), McDistribution.table_85c(), needle):
        for seed in (0, 1, 17, 2024):
            got = montecarlo._draw_batch(base, dist, montecarlo._trial_rngs(seed, 3, 40))
            want = ParamsBatch.from_list(montecarlo.sample_params(base, dist, rng)
                                         for rng in montecarlo._trial_rngs(seed, 3, 40))
            assert got.n == want.n == 37
            for name in PARAM_FIELDS:
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), \
                    (dist, seed, name)
            if dist is needle:
                assert np.isin(got.t_int, (lower, upper)).any()


def test_batch_draw_rejects_what_device_params_rejects(base):
    # a pinned invalid value, and draws of which some are invalid: the batch
    # raises the error the first invalid cell's DeviceParams raises
    for entry in (ParamDist("P_s", 0.0, 0.0, 0.0, 0.0),
                  ParamDist("t_int", 1e-10, 1e-9, -5e-9, 5e-9)):
        dist = McDistribution(entries=(entry,))
        with pytest.raises(ValueError) as want:
            for rng in montecarlo._trial_rngs(5, 0, 16):
                montecarlo.sample_params(base, dist, rng)
        with pytest.raises(ValueError) as got:
            montecarlo._draw_batch(base, dist, montecarlo._trial_rngs(5, 0, 16))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"DeviceParams.{entry.name} must be finite and > 0")


def test_invalid_distribution():
    with pytest.raises(ValueError):
        ParamDist("t_int", 1.0, -0.1, 0.5, 1.5)
    with pytest.raises(ValueError):
        ParamDist("t_int", 2.0, 0.1, 0.5, 1.5)  # mean outside bounds


@pytest.fixture(scope="module")
def quick_spec():
    return ScenarioSpec("hysteresis", amplitude=3.0, frequency=1e3,
                        n_cycles=2, dt=4e-6)


def test_run_mc_reproducible(base, quick_spec):
    dist = McDistribution.table_21c()
    a = fc.run_mc(quick_spec, base, dist, 6, seed=2024)
    b = fc.run_mc(quick_spec, base, dist, 6, seed=2024)
    for k in a.outputs:
        assert np.array_equal(a.outputs[k], b.outputs[k])
    for k in a.samples:
        assert np.array_equal(a.samples[k], b.samples[k])


def test_trial_streams_match_full_spawn():
    # a chunk builds only its own trial streams, equal to a full spawn's
    children = np.random.SeedSequence(99).spawn(150)
    want = [np.random.Generator(np.random.PCG64(c)).random(3) for c in children[128:]]
    got = [g.random(3) for g in montecarlo._trial_rngs(99, 128, 150)]
    assert np.array_equal(want, got)


def test_run_mc_workers_match_serial(base, quick_spec):
    dist = McDistribution.table_21c()
    a = fc.run_mc(quick_spec, base, dist, 6, seed=7, workers=1)
    b = fc.run_mc(quick_spec, base, dist, 6, seed=7, workers=2)
    for k in a.outputs:
        assert np.array_equal(a.outputs[k], b.outputs[k])


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_after_each_batch(base, quick_spec, monkeypatch, workers):
    monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", 2)
    calls = []
    fc.run_mc(quick_spec, base, McDistribution.table_21c(), 6, seed=7,
              workers=workers, progress=lambda done, n: calls.append((done, n)))
    assert calls == [(2, 6), (4, 6), (6, 6)]


def test_single_trial_aggregates(base, quick_spec):
    dist = all_sigma_zero(McDistribution.table_21c())
    res = fc.run_mc(quick_spec, base, dist, 1, seed=5)
    assert res.mean["pr_pos"] == res.outputs["pr_pos"][0]
    assert res.std["pr_pos"] == 0.0


def test_sigma_zero_trials_identical(base, quick_spec):
    dist = all_sigma_zero(McDistribution.table_21c())
    res = fc.run_mc(quick_spec, base, dist, 3, seed=5)
    assert np.ptp(res.outputs["pr_pos"]) == 0.0


def test_aggregates_recomputable(base, quick_spec):
    dist = McDistribution.table_21c()
    res = fc.run_mc(quick_spec, base, dist, 5, seed=11)
    pr = res.outputs["pr_pos"]
    assert res.mean["pr_pos"] == pytest.approx(pr.mean(), rel=1e-12)
    assert res.std["pr_pos"] == pytest.approx(pr.std(), rel=1e-12)
    assert res.histogram is not None
    counts, edges = res.histogram
    assert counts.sum() == 5


def test_failed_trials_excluded(base, quick_spec, monkeypatch):
    real = montecarlo._outputs_for_batch
    marker = {}

    threshold = 1.6153e-9  # exactly one of the 12 seed-3 draws exceeds this

    def flaky(spec, pb):
        bad = np.flatnonzero(pb.t_int > threshold)
        if bad.size:
            raise StepFailureError(1e-6, 1e-7, 1.0, 1.0, bad)
        return real(spec, pb)

    monkeypatch.setattr(montecarlo, "_outputs_for_batch", flaky)
    dist = McDistribution.table_21c()
    res = fc.run_mc(quick_spec, base, dist, 12, seed=3)
    t_int = res.samples["t_int"]
    expect_failed = tuple(int(i) for i in np.flatnonzero(t_int > threshold))
    assert res.failed_trials == expect_failed
    assert len(expect_failed) >= 1
    assert np.all(np.isnan(res.outputs["pr_pos"][list(expect_failed)]))
    ok = [i for i in range(12) if i not in expect_failed]
    assert np.all(np.isfinite(res.outputs["pr_pos"][ok]))


def test_failed_chunk_rerun_by_halves(base, quick_spec, monkeypatch):
    # a stand-in for the scenario, so that a whole 200-trial chunk costs
    # nothing: each trial's output is its own t_int, which also checks that
    # every survivor lands in its own row. Each failing run names one
    # failing device, the first, as a solver step that fails on it alone.
    calls = []
    threshold = 2.0e-9

    def fake(spec, pb):
        calls.append(pb.n)
        bad = np.flatnonzero(pb.t_int > threshold)
        if bad.size:
            raise StepFailureError(1e-6, 1e-7, 1.0, 1.0, bad[:1])
        return {k: pb.t_int.copy() for k in ("pr_pos", "pr_neg", "vc_pos", "vc_neg")}

    monkeypatch.setattr(montecarlo, "_outputs_for_batch", fake)
    n = 200
    res = fc.run_mc(quick_spec, base, McDistribution.table_21c(), n, seed=3)
    t_int = res.samples["t_int"]
    bad = np.flatnonzero(t_int > threshold)
    assert 1 <= bad.size <= 0.1 * n
    assert res.failed_trials == tuple(int(i) for i in bad)
    ok = np.ones(n, dtype=bool)
    ok[bad] = False
    assert np.array_equal(res.outputs["pr_pos"][ok], t_int[ok])
    assert np.all(np.isnan(res.outputs["pr_pos"][bad]))
    # the whole chunk first, and never more runs than bisecting would take
    assert calls[0] == n
    assert len(calls) <= 1 + 2 * bad.size * int(np.ceil(np.log2(n)))
    # one rerun per failing trial, each without the trials set aside before
    assert len(calls) == 1 + bad.size


def test_chunk_bounds_balanced_contiguous():
    for n in (1, 2, 3, 7, 64, 100, 255, 256, 257, 600, 1000):
        for width in (1, 7, 64, 256):
            for workers in (1, 2, 3, 8):
                bounds = montecarlo._chunk_bounds(n, width, workers)
                sizes = [b - a for a, b in bounds]
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                assert all(b0[1] == b1[0] for b0, b1 in zip(bounds, bounds[1:]))
                assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
                assert max(sizes) <= width
                assert len(bounds) == max(-(-n // width), min(workers, n))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["hysteresis", "program"])
def test_run_mc_bitwise_across_chunk_widths(quick_spec, monkeypatch, kind, workers):
    # each device of a program batch must get the bits of its lone run
    # (width 1), whatever the batch it runs in
    if kind == "hysteresis":
        spec, base, n = quick_spec, fc.DeviceParams(), 9
    else:
        spec, base, n = ScenarioSpec("program", n_pulses=2), fc.DeviceParams(area=25e-12), 70
    dist = McDistribution.table_21c()
    clamp_widths = []
    real = analyses.run_transient_batch

    def spy(pb, wf, cfg=None, init=None):
        if kind == "program" and wf.mode == "voltage":
            clamp_widths.append(pb.n)
        return real(pb, wf, cfg, init=init)

    monkeypatch.setattr(analyses, "run_transient_batch", spy)
    runs = []
    for width in (montecarlo.DEFAULT_CHUNK, 7, 1):
        monkeypatch.setattr(montecarlo, "DEFAULT_CHUNK", width)
        runs.append(fc.run_mc(spec, base, dist, n, seed=31, workers=workers))
        if kind == "program" and width > n and workers == 1:
            # one batch of all n, and every clamp ran on the whole batch
            assert clamp_widths == [n] * spec.n_pulses
    first = runs[0]
    assert first.failed_trials == ()
    for res in runs[1:]:
        for k in first.outputs:
            assert first.outputs[k].tobytes() == res.outputs[k].tobytes(), k
        for k in first.samples:
            assert first.samples[k].tobytes() == res.samples[k].tobytes(), k


@pytest.mark.parametrize("spec", [
    ScenarioSpec("hysteresis", frequency=1e3, n_cycles=2, dt=2e-6),
    ScenarioSpec("hysteresis", frequency=1e4, n_cycles=3),
    ScenarioSpec("kinetics", amplitude=2.0, widths=(1e-7, 1e-5)),
    ScenarioSpec("program", n_pulses=1),
], ids=["hyst-dt", "hyst-default", "kinetics", "program"])
def test_record_rows_match_the_runs(base, spec, monkeypatch):
    rows = []
    real = analyses.run_transient_batch

    def spy(pb, wf, cfg=None, init=None):
        ts = real(pb, wf, cfg, init=init)
        rows.append(ts.t.size)
        return ts

    monkeypatch.setattr(analyses, "run_transient_batch", spy)
    montecarlo._outputs_for_batch(spec, ParamsBatch.from_params(base, 1))
    assert montecarlo._record_rows(spec) == max(rows)
    if spec.kind != "hysteresis":
        assert max(rows) == 2


def test_batch_width_capped_by_record_budget():
    short = ScenarioSpec("hysteresis", frequency=1e3, n_cycles=2, dt=2e-6)
    assert montecarlo._record_rows(short) == 1001
    assert montecarlo._batch_width(short) == montecarlo.DEFAULT_CHUNK
    for n_cycles in (10, 30, 2000):
        spec = replace(short, n_cycles=n_cycles)
        width = montecarlo._batch_width(spec)
        rows = montecarlo._record_rows(spec)
        assert width >= 1
        assert width == 1 or width * rows * montecarlo._ROW_BYTES <= montecarlo._RECORD_BUDGET
        assert (width + 1) * rows * montecarlo._ROW_BYTES > montecarlo._RECORD_BUDGET


def test_import_starts_no_pool_machinery():
    code = ("import sys, fecapsim; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_too_many_failures_error(base, quick_spec, monkeypatch):
    def always_fail(spec, pb):
        raise StepFailureError(1e-6, 1e-7, 1.0, 1.0, (0,))

    monkeypatch.setattr(montecarlo, "_outputs_for_batch", always_fail)
    with pytest.raises(fc.McError):
        fc.run_mc(quick_spec, base, McDistribution.table_21c(), 4, seed=3)


def test_trial_count_validated(base, quick_spec):
    with pytest.raises(ValueError):
        fc.run_mc(quick_spec, base, McDistribution.table_21c(), 0, seed=1)


def test_histogram_degenerate_data(base, quick_spec):
    dist = all_sigma_zero(McDistribution.table_21c())
    res = fc.run_mc(quick_spec, base, dist, 3, seed=5)
    counts, edges = res.histogram
    assert counts.sum() == 3


def test_temperature_effects_on_switching(base):
    # Eq-1 thermal acceleration: hotter device alone switches more at a
    # fixed sub-coercive pulse
    widths = [1e-6]
    cold = fc.switching_kinetics(base.replace(temperature=294.15), [1.5], widths)
    hot = fc.switching_kinetics(base.replace(temperature=358.15), [1.5], widths)
    assert hot[0].delta_p > cold[0].delta_p

    # full variability sets: the 85C substitutions (smaller d_e, larger
    # Q_fix) dominate the thermal acceleration at 1.5 V / 1 us
    spec = ScenarioSpec("kinetics", amplitude=1.5, widths=(1e-6,), dt=1e-6)
    r21 = fc.run_mc(spec, base, McDistribution.table_21c(), 20, seed=777)
    r85 = fc.run_mc(spec, base, McDistribution.table_85c(), 20, seed=777)
    assert r85.mean["delta_p"][0] < r21.mean["delta_p"][0]
