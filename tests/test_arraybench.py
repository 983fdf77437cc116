import pickle

import numpy as np
import pytest

import fecapsim as fc
from fecapsim import arraybench, montecarlo
from fecapsim.arraybench import bench_waveform, run_array_bench
from fecapsim.montecarlo import McDistribution
from fecapsim.params import ParamsBatch
from fecapsim.solver import StepFailureError, run_transient_batch


@pytest.fixture(scope="module")
def p25():
    return fc.DeviceParams().replace(area=25e-12)


def test_waveform_span_check():
    with pytest.raises(ValueError):
        bench_waveform(t_total=5e-6, pulse_width=1e-5)


def test_small_sizes_complete(p25):
    rep = run_array_bench(p25, [4, 10], chunk=4)
    assert rep.sizes == [4, 10]
    assert all(w > 0 for w in rep.wall_s)
    assert rep.failures == [0, 0]
    # same waveform -> same per-device step count at every size
    assert rep.steps[0] == rep.steps[1]
    assert all(i > 0 for i in rep.newton_iters)
    assert rep.machine


def test_device0_identical_across_sizes(p25):
    rep = run_array_bench(p25, [3, 8, 17], chunk=8)
    assert rep.final_pol_device0[0] == rep.final_pol_device0[1]
    assert rep.final_pol_device0[1] == rep.final_pol_device0[2]


def test_device0_trace_identical_across_batch_widths(p25):
    # the invariant behind chunked batching: identical inputs give
    # bit-identical traces regardless of how many devices share the batch
    wf = bench_waveform()
    cfg = fc.SolverConfig(dt=2e-7)
    traces = []
    for n in (1, 5, 64):
        ts = run_transient_batch(ParamsBatch.from_params(p25, n), wf, cfg)
        traces.append(ts.p[:, 0])
    assert np.array_equal(traces[0], traces[1])
    assert np.array_equal(traces[1], traces[2])


def test_mc_sampled_bench(p25):
    rep = run_array_bench(p25, [6], chunk=4,
                          mc=(McDistribution.table_21c(), 77))
    assert rep.failures == [0]
    rep2 = run_array_bench(p25, [6], chunk=4,
                           mc=(McDistribution.table_21c(), 77))
    assert rep.final_pol_device0[0] == rep2.final_pol_device0[0]


def test_size_validated(p25):
    with pytest.raises(ValueError):
        run_array_bench(p25, [0])


def test_failures_counted_in_every_chunk(p25):
    # each of the three chunks (200 + 200 + 200) fails on its own; the count
    # covers all of them, serially and from worker processes
    cfg = fc.SolverConfig(dt=2e-7, record_every=10**9, max_newton_iters=1,
                          max_step_halvings=0, newton_tol_v=1e-15)
    for workers in (1, 2):
        rep = run_array_bench(p25, [600], cfg=cfg, workers=workers)
        assert rep.failures == [600], workers
        assert np.isnan(rep.final_pol_device0[0])


def test_every_failing_cell_counted(p25):
    # the cells fail at different steps, so each failing run names only
    # some of them; every one must still be counted
    cfg = fc.SolverConfig(dt=2e-7, record_every=10**9, max_newton_iters=2,
                          max_step_halvings=0)
    dist, seed = McDistribution.table_21c(), 5
    rep = run_array_bench(p25, [64], cfg=cfg, chunk=32, mc=(dist, seed))
    assert rep.failures == [64]
    for i, rng in enumerate(montecarlo._trial_rngs(seed, 0, 64)):
        alone = ParamsBatch.from_params(montecarlo.sample_params(p25, dist, rng))
        with pytest.raises(StepFailureError):
            run_transient_batch(alone, bench_waveform(), cfg)


def test_work_of_failed_runs_counted(p25, monkeypatch):
    # newton_iters sums the work of every batch run, the ones that raised
    # included; a StepFailureError carries its run's work, also pickled
    cfg = fc.SolverConfig(dt=2e-7, record_every=10**9, max_newton_iters=2,
                          max_step_halvings=0)
    spent = []

    def counted(pb, wf, cfg):
        try:
            ts = run_transient_batch(pb, wf, cfg)
        except StepFailureError as err:
            spent.append(err.stats.newton_iters)
            again = pickle.loads(pickle.dumps(err))
            assert again.stats == err.stats and again.device_indices == err.device_indices
            raise
        spent.append(ts.stats.newton_iters)
        return ts

    monkeypatch.setattr(arraybench, "run_transient_batch", counted)
    rep = run_array_bench(p25, [64], cfg=cfg, chunk=32,
                          mc=(McDistribution.table_21c(), 5))
    assert rep.failures == [64]
    assert len(spent) > 2 and sum(spent) > 0
    assert rep.newton_iters == [sum(spent)]


def test_one_pool_serves_every_size(p25, monkeypatch):
    import concurrent.futures

    built = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    mc = (McDistribution.table_21c(), 5)
    pooled = run_array_bench(p25, [3, 5], chunk=2, workers=2, mc=mc)
    assert len(built) == 1
    serial = run_array_bench(p25, [3, 5], chunk=2, workers=1, mc=mc)
    for name in ("sizes", "steps", "newton_iters", "failures", "final_pol_device0"):
        assert getattr(pooled, name) == getattr(serial, name), name
