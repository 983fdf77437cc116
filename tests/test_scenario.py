import pytest

import fecapsim as fc
from fecapsim.analyses import KINETICS_DT, PROGRAM_DT
from fecapsim.scenario import (
    KINDS,
    Scenario,
    ScenarioError,
    emit_scenario,
    parse_scenario,
)


def test_empty_device_section_gives_table_defaults():
    s = parse_scenario("[device]\n", kind="hysteresis")
    assert s.device == fc.DeviceParams()


def test_all_kinds_emit_parse_identity():
    for kind in KINDS:
        s = parse_scenario("", kind=kind)
        assert parse_scenario(emit_scenario(s)) == s


def test_paper_unit_conversion():
    s = parse_scenario("[device]\nP_s = 27 uC/cm2\n", kind="iv")
    assert s.device.P_s == pytest.approx(0.27, rel=1e-15)
    s = parse_scenario("[device]\nE_off = 0.2 MV/cm\n", kind="iv")
    assert s.device.E_off == pytest.approx(2e7, rel=1e-15)
    s = parse_scenario("[device]\ntemperature = 85 C\n", kind="iv")
    assert s.device.temperature == pytest.approx(358.15, rel=1e-15)
    s = parse_scenario("[device]\nN_depl = 7e21 cm-3\n", kind="iv")
    assert s.device.N_depl_dn == s.device.N_depl_up == pytest.approx(7e27)


def test_custom_scenario_identity():
    text = """
[scenario]
kind = program
[device]
area = 25 um2
[drive]
current = 250 nA
width = 10 us
pulses = 12
discharge = true
[solver]
dt = 0.2 us
[mc]
seed = 99
trials = 50
[output]
dir = results
"""
    s = parse_scenario(text)
    assert s.device.area == pytest.approx(25e-12)
    assert s.drive["current"] == pytest.approx(250e-9)
    assert s.drive["pulses"] == 12
    assert s.mc.seed == 99
    assert s.out_dir == "results"
    assert parse_scenario(emit_scenario(s)) == s


def test_range_error_names_key_and_line():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("[device]\nt_fe = -1 nm\n", kind="iv")
    assert "t_fe" in str(exc.value)
    assert "line 2" in str(exc.value)


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("[device]\nnope = 3\n", kind="iv")
    assert "nope" in str(exc.value)


def test_unknown_drive_key_for_kind():
    with pytest.raises(ScenarioError):
        parse_scenario("[drive]\namplitude = 3 V\n", kind="iv")


def test_wrong_unit_rejected():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("[device]\nt_fe = 1 V\n", kind="iv")
    assert "t_fe" in str(exc.value)


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[bogus]\nx = 1\n", kind="iv")


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[device]\nt_fe = 1 nm\nt_fe = 2 nm\n", kind="iv")


def test_kind_mismatch_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("[scenario]\nkind = hysteresis\n", kind="iv")


def test_kind_required():
    with pytest.raises(ScenarioError):
        parse_scenario("[device]\n")


def test_list_values_with_unit():
    s = parse_scenario("[drive]\nwidths = 0.1, 1, 10 us\n", kind="kinetics")
    assert s.drive["widths"] == pytest.approx((1e-7, 1e-6, 1e-5))


def test_transient_length_mismatch():
    text = "[drive]\nmode = voltage\ntimes = 0,1 ms\nvalues = 0,1,2 V\n"
    with pytest.raises(ScenarioError):
        parse_scenario(text, kind="transient")


def test_mc_overrides_modify_distribution():
    text = "[mc]\ntable = 21C\nt_int_sigma = 0.5 nm\n"
    s = parse_scenario(text, kind="mc")
    dist = s.mc.distribution()
    t_int = next(e for e in dist.entries if e.name == "t_int")
    assert t_int.sigma == pytest.approx(0.5e-9)
    assert t_int.mean == pytest.approx(1.5e-9)


def test_mc_fixed_charge_mean_may_be_negative():
    s = parse_scenario("[mc]\nQ_fix_depl_mean = -5 uC/cm2\n", kind="mc")
    q_fix = next(e for e in s.mc.distribution().entries if e.name == "Q_fix_depl")
    assert q_fix.mean == pytest.approx(-0.05)


def test_mc_table_validated():
    with pytest.raises(ScenarioError):
        parse_scenario("[mc]\ntable = 50C\n", kind="mc")


def test_default_dt_is_the_analyses_default():
    want = {"kinetics": KINETICS_DT, "program": PROGRAM_DT, "bench": PROGRAM_DT}
    for kind, dt in want.items():
        assert parse_scenario("", kind=kind).solver_config().dt == dt
    for sub in ("kinetics", "program"):
        s = parse_scenario(f"[mc]\nscenario = {sub}\n", kind="mc")
        assert s.solver_config().dt == want[sub]


def test_default_dt_scales_with_frequency():
    s = parse_scenario("[drive]\nfrequency = 2 kHz\n", kind="hysteresis")
    assert s.solver_config().dt == pytest.approx(1.0 / (2000 * 1000))


def test_solver_validation_at_parse():
    with pytest.raises(ScenarioError):
        parse_scenario("[solver]\np_init = 2\n", kind="iv")


def test_comments_and_blank_lines_ignored():
    text = "# top comment\n\n[device]\n# inner\nt_fe = 9.8 nm  # inline\n"
    s = parse_scenario(text, kind="iv")
    assert s.device.t_fe == pytest.approx(9.8e-9)
