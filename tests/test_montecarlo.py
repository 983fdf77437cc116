import numpy as np
import pytest

import fecapsim as fc
from fecapsim import montecarlo
from fecapsim.montecarlo import McDistribution, ParamDist, ScenarioSpec
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
        if np.any(pb.t_int > threshold):
            raise StepFailureError(1e-6, 1e-7, 1.0, 1.0, (0,))
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
