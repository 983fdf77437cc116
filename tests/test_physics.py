import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fecapsim as fc
from fecapsim.constants import EPS_0, K_B, Q_E
from fecapsim.params import ParamsBatch
from fecapsim.physics import DENOM_MIN

import oracle_utils as oracle
from strategies import TABLES, devices


@pytest.fixture
def params():
    return fc.DeviceParams()


def rel_err(got, want):
    return abs(got - want) / abs(want)


class TestTransitionRates:
    def test_symmetric_at_offset_field(self, params):
        r = fc.transition_rates(params.E_off, params)
        assert r.k_down == r.k_up

    def test_reference_point_300k(self, params):
        # W_e = 0, T = 300 K, W_b = 1.05 eV -> ~1.4e-5 1/s
        p = params.replace(temperature=300.0)
        r = fc.transition_rates(p.E_off, p)
        want = float(oracle.rates(p.E_off, 300.0, p.W_b, p.d_e, p.E_off)[0])
        assert rel_err(float(r.k_down), want) < 5e-7
        assert 1.3e-5 < r.k_down < 1.5e-5

    def test_field_ordering(self, params):
        hi = fc.transition_rates(params.E_off + 1e7, params)
        lo = fc.transition_rates(params.E_off - 1e7, params)
        assert hi.k_down > hi.k_up
        assert lo.k_down < lo.k_up

    def test_monotone_in_field(self, params):
        fields = np.linspace(-3e8, 3e8, 41)
        r = fc.transition_rates(fields, params)
        assert np.all(np.diff(r.k_down) > 0)
        assert np.all(np.diff(r.k_up) < 0)

    def test_monotone_in_temperature(self, params):
        # For W_b > |W_e| both rates grow with T.
        for t_pair in zip(np.linspace(250, 395, 10), np.linspace(255, 400, 10)):
            lo = fc.transition_rates(0.0, params.replace(temperature=t_pair[0]))
            hi = fc.transition_rates(0.0, params.replace(temperature=t_pair[1]))
            assert hi.k_down > lo.k_down
            assert hi.k_up > lo.k_up

    def test_finite_for_extreme_fields(self, params):
        r = fc.transition_rates(np.array([-1e12, 0.0, 1e12]), params)
        assert np.all(np.isfinite(r.k_down))
        assert np.all(np.isfinite(r.k_up))
        assert np.all(r.k_down >= 0) and np.all(r.k_up >= 0)

    def test_nonfinite_field_rejected(self, params):
        with pytest.raises(ValueError):
            fc.transition_rates(np.nan, params)
        with pytest.raises(ValueError):
            fc.transition_rates(np.inf, params)


class TestPSteadyState:
    def test_half_at_offset(self, params):
        assert fc.p_steady_state(params.E_off, params) == 0.5

    def test_ten_kbt(self, params):
        # W_e = +10 k_B T -> 1/(1+e^-20)
        kt = K_B * params.temperature
        e_fe = params.E_off + 10.0 * kt / (Q_E * params.d_e)
        got = float(fc.p_steady_state(e_fe, params))
        want = 1.0 / (1.0 + np.exp(-20.0))
        assert rel_err(got, want) < 1e-12

    def test_limits(self, params):
        # clamped logistic: indistinguishable from the 0/1 limits
        assert fc.p_steady_state(-1e12, params) < 1e-300
        assert fc.p_steady_state(1e12, params) == 1.0

    def test_bounded(self, params):
        grid = np.linspace(-1e9, 1e9, 101)
        p = fc.p_steady_state(grid, params)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.all(np.diff(p) >= 0.0)


class TestPStep:
    def test_zero_dt_identity(self):
        r = fc.TransitionRates(np.float64(3.0), np.float64(7.0))
        assert fc.p_step(0.3, r, 0.0) == 0.3

    def test_fixed_point(self):
        r = fc.TransitionRates(np.float64(2.0), np.float64(6.0))
        p_eq = 2.0 / 8.0
        assert abs(fc.p_step(p_eq, r, 1.7) - p_eq) < 1e-15

    def test_analytic_case(self):
        # p0=0, k_down=k_up=1, dt=1 -> 0.5(1 - e^-2)
        r = fc.TransitionRates(np.float64(1.0), np.float64(1.0))
        want = float(oracle.p_step(0.0, 1.0, 1.0, 1.0))
        assert abs(float(fc.p_step(0.0, r, 1.0)) - want) < 1e-15
        assert abs(want - 0.432332) < 1e-6

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            fc.p_step(0.5, fc.TransitionRates(np.float64(1.0), np.float64(1.0)), -1.0)

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p0 = rng.uniform(0, 1)
            kd, ku = 10 ** rng.uniform(-3, 9, 2)
            dt = 10 ** rng.uniform(-9, 0)
            p1 = fc.p_step(p0, fc.TransitionRates(kd, ku), dt)
            assert 0.0 <= p1 <= 1.0

    def test_semigroup(self):
        # two half steps == one full step (exact solution, frozen rates)
        rng = np.random.default_rng(11)
        for _ in range(50):
            p0 = rng.uniform(0, 1)
            kd, ku = 10 ** rng.uniform(-2, 4, 2)
            dt = 10 ** rng.uniform(-6, -1)
            r = fc.TransitionRates(kd, ku)
            two = fc.p_step(fc.p_step(p0, r, dt), r, dt)
            one = fc.p_step(p0, r, 2 * dt)
            assert abs(float(two) - float(one)) < 1e-12

    def test_against_rk4(self):
        rng = np.random.default_rng(3)
        n = 20
        p0 = rng.uniform(0, 1, n)
        kd = 10 ** rng.uniform(-2, 5, n)
        ku = 10 ** rng.uniform(-2, 5, n)
        dt = np.minimum(10 ** rng.uniform(-6, -1, n), 20.0 / (kd + ku))
        brute = oracle.rk4_p(p0, kd, ku, dt.max(), 10000)  # same dt for vector form
        # vectorized per-case check with individual dt
        for i in range(n):
            got = float(fc.p_step(p0[i], fc.TransitionRates(kd[i], ku[i]), dt[i]))
            ref = float(oracle.rk4_p(p0[i], kd[i], ku[i], dt[i], 10000))
            assert abs(got - ref) < 1e-9


class TestPolarization:
    def test_examples(self, params):
        assert fc.polarization(0.5, params) == 0.0
        assert fc.polarization(1.0, params) == pytest.approx(0.27, abs=0)
        assert fc.polarization(0.0, params) == pytest.approx(-0.27, abs=0)

    def test_bounded(self, params):
        p = np.linspace(0, 1, 11)
        assert np.all(np.abs(fc.polarization(p, params)) <= params.P_s)


class TestCLayer:
    def test_table_values(self, params):
        want_fe = float(oracle.c_layer(70, 9.8e-9))
        want_int = float(oracle.c_layer(90, 1e-9))
        assert rel_err(float(fc.c_layer(70.0, 9.8e-9)), want_fe) < 1e-12
        assert rel_err(float(fc.c_layer(90.0, 1e-9)), want_int) < 1e-12
        # paper-unit sanity: 6.32 and 79.7 uF/cm^2
        assert abs(want_fe * 1e2 - 6.324) < 5e-3
        assert abs(want_int * 1e2 - 79.7) < 0.05

    def test_identity_scaling(self):
        assert fc.c_layer(1.0, EPS_0) == pytest.approx(1.0, rel=1e-15)

    def test_invalid(self):
        with pytest.raises(ValueError):
            fc.c_layer(70.0, 0.0)
        with pytest.raises(ValueError):
            fc.c_layer(-1.0, 1e-9)


class TestCDepl:
    def test_endpoints(self, params):
        c_dn, c_up = fc.c_depl_branches(2e7, params)
        assert fc.c_depl(1.0, 2e7, params) == c_dn
        assert fc.c_depl(0.0, 2e7, params) == c_up

    def test_zero_field_value(self, params):
        want = float(oracle.c_depl_branch(0.0, 70, 3.6, 1.4e28, 0.0945, +1))
        got = float(fc.c_depl(1.0, 0.0, params))
        assert rel_err(got, want) < 1e-12
        assert abs(got * 1e2 - 75.66) < 0.05  # uF/cm^2 scale

    def test_linearity_in_density(self, params):
        doubled = params.with_n_depl(2.8e28)
        for e in (0.0, 5e7, -5e7):
            assert fc.c_depl(0.3, e, doubled) == pytest.approx(
                2.0 * fc.c_depl(0.3, e, params), rel=1e-14)

    def test_denominator_floor(self, params):
        # field term cancels Q_fix on the down branch -> floored, finite
        e_star = -params.Q_fix_depl / (EPS_0 * params.eps_fe)
        c_dn, _ = fc.c_depl_branches(e_star, params)
        k_dn = EPS_0 * params.eps_depl * Q_E * params.N_depl_dn
        assert np.isfinite(c_dn)
        assert c_dn == pytest.approx(k_dn / DENOM_MIN, rel=1e-12)


class TestPhiDepl:
    def test_zero_charge(self, params):
        assert fc.phi_depl(0.5, 0.0, params, 0.0) == 0.0

    def test_table_value(self, params):
        want = float(oracle.phi_depl(1.0, 0.0, 0.0, 70, 3.6, 1.4e28, 1.4e28,
                                     0.0945, 0.27, 9.8e-9))
        got = float(fc.phi_depl(1.0, 0.0, params, 0.0))
        assert rel_err(got, want) < 1e-12
        assert abs(got - 0.357) < 1e-3

    def test_increasing_in_p_at_fixed_cdepl(self, params):
        # symmetric branches (Q_fix = 0, equal N) make C_depl p-independent,
        # isolating the 2*P_s*p numerator slope
        sym = params.replace(Q_fix_depl=0.0)
        p_grid = np.linspace(0, 1, 21)
        phi = fc.phi_depl(p_grid, 0.3, sym, 5e7)
        assert np.all(np.diff(phi) > 0)


class TestLeakage:
    @settings(max_examples=300, deadline=None)
    @given(params=devices(), e=st.floats(0.0, 1e12))
    @example(params=fc.DeviceParams(), e=0.0)
    @example(params=fc.DeviceParams(), e=1e7)
    @example(params=fc.DeviceParams(), e=1e8)
    @example(params=fc.DeviceParams(), e=5e8)
    def test_fn_zero_and_odd(self, params, e):
        assert fc.j_fn(0.0, params) == 0.0
        assert fc.j_fn(-e, params) == -fc.j_fn(e, params)

    @settings(max_examples=300, deadline=None)
    @given(params=devices(), e=st.floats(0.0, 1e12))
    @example(params=fc.DeviceParams(), e=0.0)
    @example(params=fc.DeviceParams(), e=1e7)
    @example(params=fc.DeviceParams(), e=1e8)
    @example(params=fc.DeviceParams(), e=5e8)
    def test_pf_zero_and_odd(self, params, e):
        assert fc.j_pf(0.0, params) == 0.0
        assert fc.j_pf(-e, params) == -fc.j_pf(e, params)

    def test_fn_oracle_point(self, params):
        want = float(oracle.j_fn(5e8, 0.65, 1.0))
        assert rel_err(float(fc.j_fn(5e8, params)), want) < 5e-7

    def test_pf_oracle_point(self, params):
        p300 = params.replace(temperature=300.0)
        want = float(oracle.j_pf(1e8, 300.0, 15e-4, 1e24, 0.68, 70))
        assert rel_err(float(fc.j_pf(1e8, p300)), want) < 5e-7

    def test_monotone_magnitude(self, params):
        fields = np.linspace(1e7, 1e9, 60)  # 0.1 - 10 MV/cm
        assert np.all(np.diff(fc.j_fn(fields, params)) > 0)
        assert np.all(np.diff(fc.j_pf(fields, params)) > 0)

    def test_finite_everywhere(self, params):
        fields = np.array([-1e12, -1.0, -1e-6, 0.0, 1e-6, 1.0, 1e12])
        assert np.all(np.isfinite(fc.j_fn(fields, params)))
        assert np.all(np.isfinite(fc.j_pf(fields, params)))


def test_batch_matches_each_device_bitwise():
    # every public function on a heterogeneous batch, against the same call
    # on each device alone; column i of each field grid is device i's
    rng = np.random.default_rng(5)
    batch = ParamsBatch.from_list(fc.sample_params(fc.DeviceParams(), table, rng)
                                  for table in TABLES for _ in range(3))
    e = np.concatenate([np.linspace(-1e12, 1e12, 9), np.linspace(-5e8, 5e8, 41), [0.0]])
    e = e[:, None] + np.linspace(0.0, 1e6, batch.n)
    p = np.linspace(0.0, 1.0, e.size).reshape(e.shape)
    calls = {
        "transition_rates": lambda e, p, prm: fc.transition_rates(e, prm),
        "p_steady_state": lambda e, p, prm: fc.p_steady_state(e, prm),
        "c_depl_branches": lambda e, p, prm: fc.c_depl_branches(e, prm),
        "c_depl": lambda e, p, prm: fc.c_depl(p, e, prm),
        "phi_depl": lambda e, p, prm: fc.phi_depl(p, e * prm.t_fe, prm, e),
        "j_fn": lambda e, p, prm: fc.j_fn(e, prm),
        "j_pf": lambda e, p, prm: fc.j_pf(e, prm),
    }
    for name, call in calls.items():
        got = np.array(call(e, p, batch))
        for i in range(batch.n):
            want = np.array(call(e[:, i], p[:, i], batch.device(i)))
            assert got[..., i].tobytes() == want.tobytes(), (name, i)


class TestDeviceParams:
    def test_defaults_are_table_values(self, params):
        assert params.area == 625e-12
        assert params.t_fe == 9.8e-9
        assert params.t_int == 1.0e-9
        assert params.eps_fe == 70.0
        assert params.eps_int == 90.0
        assert params.eps_depl == 3.6
        assert params.W_b == pytest.approx(1.05 * Q_E, rel=0)
        assert params.d_e == 7.5e-9
        assert params.E_off == 2.0e7
        assert params.P_s == 0.27
        assert params.N_depl_dn == params.N_depl_up == 1.4e28
        assert params.N_fe == 1.0e24
        assert params.Q_fix_depl == 0.0945
        assert params.m_eff_int == 1.0
        assert params.phi_b_int == 0.65
        assert params.phi_tr_fe == 0.68
        assert params.mu_fe == 15e-4
        assert params.temperature == 294.15

    def test_validation(self):
        with pytest.raises(ValueError):
            fc.DeviceParams(t_fe=-1e-9)
        with pytest.raises(ValueError):
            fc.DeviceParams(P_s=0.0)
        with pytest.raises(ValueError):
            fc.DeviceParams(temperature=0.0)

    def test_batch_round_trip(self, params):
        batch = fc.ParamsBatch.from_list([params, params.with_n_depl(7e27)])
        assert batch.n == 2
        assert batch.device(1).N_depl_dn == 7e27
        assert batch.device(0) == params
