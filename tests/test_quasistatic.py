import mpmath as mp
import numpy as np
import pytest

import fecapsim as fc
from fecapsim.constants import Q_E
from fecapsim.montecarlo import _field_values
from fecapsim.physics import DENOM_MIN
from fecapsim.waveform import triangle

import oracle_utils as oracle


@pytest.fixture
def params():
    return fc.DeviceParams()


def count_peaks(y, prominence):
    """Local maxima with at least *prominence* above the deeper side valley."""
    idx = []
    for i in range(1, len(y) - 1):
        if y[i] > y[i - 1] and y[i] >= y[i + 1]:
            left = y[:i].min()
            right = y[i + 1:].min()
            if y[i] - max(left, right) > prominence:
                idx.append(i)
    return idx


class TestDcSweep:
    def test_zero_bias_zero_current_symmetric_device(self):
        p = fc.DeviceParams(E_off=0.0)
        iv = fc.dc_sweep(p, 0.0, 1.0, 3)
        assert iv[0] == (0.0, 0.0)

    def test_odd_symmetry(self):
        p = fc.DeviceParams(E_off=0.0, Q_fix_depl=0.0)
        fwd = fc.dc_sweep(p, 0.0, 3.0, 13)
        rev = fc.dc_sweep(p, 0.0, -3.0, 13)
        for (v1, i1), (v2, i2) in zip(fwd, rev):
            assert v1 == -v2
            assert i1 == pytest.approx(-i2, rel=1e-9, abs=1e-30)

    def test_monotone_magnitude_table_params(self, params):
        iv = fc.dc_sweep(params, 0.0, 3.0, 31)
        mags = [abs(i) for _, i in iv]
        assert all(b > a for a, b in zip(mags, mags[1:]))

    def test_table_zero_bias_current_is_small(self, params):
        # E_off shifts the internal equilibrium, so I(0) is not exactly zero
        # for the calibrated device; it stays far below the sweep scale.
        iv = fc.dc_sweep(params, 0.0, 3.0, 31)
        assert abs(iv[0][1]) < 5e-3 * abs(iv[-1][1])

    def test_npoints_validated(self, params):
        with pytest.raises(ValueError):
            fc.dc_sweep(params, 0.0, 1.0, 1)


class TestSmallSignalCv:
    def test_series_capacitance_limit(self):
        # negligible polarization, symmetric stack probed around 0 bias:
        # analytic three-capacitor series combination
        p = fc.DeviceParams(P_s=1e-12, E_off=0.0)
        cfg = fc.SolverConfig(dt=5e-6, p_init=0.5)
        pts = fc.small_signal_cv(p, triangle(0.05, 1e3, 1), 5e-3, cfg)
        c_fe = fc.c_layer(p.eps_fe, p.t_fe)
        c_int = fc.c_layer(p.eps_int, p.t_int)
        c_dep = fc.c_depl(0.5, 0.0, p)
        want = p.area / (1.0 / c_fe + 1.0 / c_int + 1.0 / c_dep)
        assert pts[0][1] == pytest.approx(want, rel=1e-3)

    def test_butterfly_two_peaks(self, params):
        cfg = fc.SolverConfig(dt=1e-6, record_every=5)
        pts = fc.small_signal_cv(params, triangle(3.0, 1e3, 2), 10e-3, cfg)
        v = np.array([x[0] for x in pts])
        c = np.array([x[1] for x in pts])
        last = v.size // 2
        v2, c2 = v[last:], c[last:]
        peaks = count_peaks(c2, 0.02 * (c2.max() - c2.min()))
        assert len(peaks) == 2
        assert sorted(np.sign(v2[i]) for i in peaks) == [-1.0, 1.0]

    def test_symmetric_device_symmetric_trace(self):
        p = fc.DeviceParams(E_off=0.0, Q_fix_depl=0.0)
        cfg = fc.SolverConfig(dt=2e-6, record_every=5, p_init=0.0)
        pts = fc.small_signal_cv(p, triangle(3.0, 1e3, 2), 10e-3, cfg)
        v = np.array([x[0] for x in pts])
        c = np.array([x[1] for x in pts])
        last = v.size // 2
        v2, c2 = v[last:], c[last:]
        # (V, branch) reversal: the up-sweep (-3 -> +3, split across the
        # cycle boundary) must mirror the down-sweep (+3 -> -3) for a
        # symmetric stack under steady cycling
        q = (len(v2) - 1) // 4
        up_v = np.concatenate([v2[3 * q:4 * q + 1], v2[1:q + 1]])
        up_c = np.concatenate([c2[3 * q:4 * q + 1], c2[1:q + 1]])
        down_v = v2[q:3 * q + 1]
        down_c = c2[q:3 * q + 1]
        assert np.allclose(up_v, -down_v, atol=1e-9)
        assert np.abs(up_c - down_c).max() < 0.01 * c2.max()

    def test_delta_v_validated(self, params):
        with pytest.raises(ValueError):
            fc.small_signal_cv(params, triangle(1.0, 1e3, 1), 0.0)


def test_dc_failure_carries_bias(params):
    # unreachable tolerance: the bias value travels with the error
    with pytest.raises(fc.DcConvergenceError) as exc:
        fc.dc_sweep(params, 0.0, 3.0, 4, newton_tol_i=1e-40)
    assert hasattr(exc.value, "bias")
    assert exc.value.bias == pytest.approx(0.0)


def _table_means(dist):
    return fc.DeviceParams().replace(**_field_values(dist, [e.mean for e in dist.entries]))


def oracle_dc_current(d, bias):
    """Terminal DC current at *bias* from the mpmath closed forms alone.

    p sits at its steady state for E_fe, the loop gives V_int, and V_fe is
    bisected until the Poole-Frenkel and Fowler-Nordheim currents match;
    a scan must find exactly one sign change of their difference. Returns
    the current and the two depletion denominators at the solution.
    """
    def split(v_fe):
        e_fe = v_fe / mp.mpf(d.t_fe)
        p = oracle.p_steady(e_fe, d.temperature, d.W_b, d.d_e, d.E_off)
        phi = oracle.phi_depl(p, v_fe, e_fe, d.eps_fe, d.eps_depl, d.N_depl_dn,
                              d.N_depl_up, d.Q_fix_depl, d.P_s, d.t_fe)
        j_int = oracle.j_fn((bias - v_fe - phi) / mp.mpf(d.t_int), d.phi_b_int,
                            d.m_eff_int)
        j_fe = oracle.j_pf(e_fe, d.temperature, d.mu_fe, d.N_fe, d.phi_tr_fe, d.eps_fe)
        return j_fe - j_int, j_int, oracle.EPS0 * d.eps_fe * e_fe

    grid = [mp.mpf(min(0.0, bias) - 3.0) + k * mp.mpf(6.0 + abs(bias)) / 60
            for k in range(61)]
    f = [split(v)[0] for v in grid]
    changes = [k for k in range(60) if f[k] * f[k + 1] <= 0]
    assert len(changes) == 1, changes
    lo, hi = grid[changes[0]], grid[changes[0] + 1]
    f_hi = f[changes[0] + 1]
    for _ in range(64):
        mid = (lo + hi) / 2
        f_mid = split(mid)[0]
        if f_mid * f_hi <= 0:
            lo = mid
        else:
            hi, f_hi = mid, f_mid
    _, j_int, q_disp = split((lo + hi) / 2)
    return (float(d.area * j_int),
            [abs(q_disp + d.Q_fix_depl), abs(q_disp - d.Q_fix_depl)])


@pytest.mark.parametrize("device", [
    fc.DeviceParams(),
    _table_means(fc.McDistribution.table_85c()),
    # Above W_b of about 18.5 eV both switching rates sit at the exponent
    # clamp; the steady state is still the logistic, so I(0 V) is nonzero.
    fc.DeviceParams(W_b=20.0 * Q_E),
], ids=["calibrated", "85C-means", "W_b-20eV"])
def test_dc_sweep_matches_mpmath_balance(device):
    for bias, current in fc.dc_sweep(device, -3.0, 3.0, 13):
        want, denominators = oracle_dc_current(device, bias)
        # The oracle's depletion capacitance has no floor: it is the model
        # only where the floor does not bind.
        assert min(denominators) > DENOM_MIN
        assert current == pytest.approx(want, rel=1e-6), bias
