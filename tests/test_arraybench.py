import numpy as np
import pytest

import fecapsim as fc
from fecapsim.arraybench import bench_waveform, run_array_bench
from fecapsim.montecarlo import McDistribution
from fecapsim.params import ParamsBatch
from fecapsim.solver import run_transient_batch


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
    # each of the three chunks (256 + 256 + 88) fails on its own; the count
    # covers all of them, serially and from worker processes
    cfg = fc.SolverConfig(dt=2e-7, record_every=10**9, max_newton_iters=1,
                          max_step_halvings=0, newton_tol_v=1e-15)
    for workers in (1, 2):
        rep = run_array_bench(p25, [600], cfg=cfg, workers=workers)
        assert rep.failures == [600], workers
        assert np.isnan(rep.final_pol_device0[0])
