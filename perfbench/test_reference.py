"""Tests of the benchmark's independent references.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import numpy as np
import pytest

import fecapsim as fc
from fecapsim.arraybench import bench_waveform

import reference as ref

EDGE = 10e-9
CURRENT = 250e-9


@pytest.fixture(scope="module")
def bench_cell():
    dev = fc.DeviceParams(area=25e-12)
    wf = bench_waveform(CURRENT, 10e-6, 30e-6, EDGE)
    return dev, wf, ref.current_drive(dev, wf.times, wf.values)


def test_current_drive_bounds_solver_error_at_first_order(bench_cell):
    dev, wf, y = bench_cell
    want = dev.P_s * (2.0 * y[:, 0] - 1.0)
    final_err = []
    for dt in (4e-7, 2e-7, 1e-7):
        ts = fc.run_transient(dev, wf, fc.SolverConfig(dt=dt))
        rows = [int(np.argmin(np.abs(ts.t - t))) for t in wf.times]
        err = np.abs(ts.pol[rows] - want)
        assert err.max() <= ref.pol_error_bound(CURRENT, EDGE, dev.area, dt)
        final_err.append(err[-1])
    ratios = np.array(final_err[:-1]) / np.array(final_err[1:])
    assert np.all((ratios > 1.7) & (ratios < 2.3)), ratios


def test_current_drive_conserves_interface_charge(bench_cell):
    dev, wf, y = bench_cell
    # Leakage is negligible over 30 us, so V_int carries the pulse charge.
    charge = CURRENT * (10e-6 + EDGE)
    c_int = fc.c_layer(dev.eps_int, dev.t_int)
    assert y[-1, 2] == pytest.approx(charge / (dev.area * c_int), rel=1e-4)


@pytest.mark.parametrize("seed", [0, 7, 20240909])
def test_redraw_equals_sampling_of_each_child(seed):
    base = fc.DeviceParams()
    dist = fc.McDistribution.table_21c()
    samples = ref.redraw_samples(dist, seed, 5)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(5)):
        rng = np.random.Generator(np.random.PCG64(child))
        assert ref.drawn_device(base, dist, samples, i) == fc.sample_params(base, dist, rng)


def test_redraw_follows_the_table():
    dist = fc.McDistribution.table_21c()
    n = 2000
    samples = ref.redraw_samples(dist, 5, n)
    for e in dist.entries:
        x = samples[e.name]
        assert np.all((x >= e.lower) & (x <= e.upper))
        if e.sigma == 0.0:
            assert np.all(x == e.mean)
        else:
            assert abs(x.mean() - e.mean) < 4.0 * e.sigma / np.sqrt(n)
            assert x.std() == pytest.approx(e.sigma, rel=0.1)


def test_dc_current_is_odd_for_the_symmetric_stack():
    sym = fc.DeviceParams(E_off=0.0, Q_fix_depl=0.0)
    assert ref.dc_current(sym, 0.0) == 0.0
    for v in (0.5, 1.5, 3.0):
        assert ref.dc_current(sym, -v) == pytest.approx(-ref.dc_current(sym, v),
                                                        rel=1e-9)


def test_dc_current_agrees_with_dc_sweep():
    dev = fc.DeviceParams()
    for bias, current in fc.dc_sweep(dev, 0.0, 3.0, 7):
        assert ref.dc_current(dev, bias) == pytest.approx(current, rel=1e-6)


@pytest.mark.parametrize("p, v_fe", [(0.2, -1.0), (0.5, 0.3), (0.9, 2.5)])
def test_depletion_slope_matches_finite_difference(p, v_fe):
    dev = fc.DeviceParams()
    h = 1e-6

    def phi(v):
        return float(fc.phi_depl(p, v, dev, v / dev.t_fe))

    fd = (phi(v_fe + h) - phi(v_fe - h)) / (2 * h)
    assert float(ref.depletion_slope(dev, p, v_fe)) == pytest.approx(fd, rel=1e-6)


def test_series_limit_is_three_capacitors():
    cap_only = fc.DeviceParams(P_s=1e-12, E_off=0.0)
    c_fe = fc.c_layer(cap_only.eps_fe, cap_only.t_fe)
    c_int = fc.c_layer(cap_only.eps_int, cap_only.t_int)
    c_dep = fc.c_depl(0.5, 0.0, cap_only)
    want = cap_only.area / (1 / c_fe + 1 / c_int + 1 / c_dep)
    assert float(ref.frozen_p_capacitance(cap_only, 0.5, 0.0)) == pytest.approx(
        want, rel=1e-12)
    cfg = fc.SolverConfig(dt=5e-6, p_init=0.5)
    pts = fc.small_signal_cv(cap_only, fc.triangle(0.05, 1e3, 1), 5e-3, cfg)
    assert pts[0][1] == pytest.approx(want, rel=1e-3)
