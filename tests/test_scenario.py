import math
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fecapsim as fc
from fecapsim.analyses import KINETICS_DT, PROGRAM_DT
from fecapsim.params import PARAM_FIELDS
from fecapsim.scenario import (
    DEVICE_KEYS,
    DRIVE_KEYS,
    KINDS,
    MC_DRIVE_FIELDS,
    MC_KEYS,
    MC_OVERRIDE_KEYS,
    OUTPUT_KEYS,
    SOLVER_KEYS,
    McSpec,
    Scenario,
    ScenarioError,
    _drive_table,
    _Key,
    _solver_table,
    emit_scenario,
    parse_scenario,
)
from fecapsim.units import UNITS, to_si


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
[output]
dir = results
"""
    s = parse_scenario(text)
    assert s.device.area == pytest.approx(25e-12)
    assert s.drive["current"] == pytest.approx(250e-9)
    assert s.drive["pulses"] == 12
    assert s.out_dir == "results"
    assert parse_scenario(emit_scenario(s)) == s


def test_range_error_names_key_and_line():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("[device]\nt_fe = -1 nm\n", kind="iv")
    assert "t_fe" in str(exc.value)
    assert "line 2" in str(exc.value)


def test_mc_section_only_for_kind_mc():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("[mc]\ntrials = 5\n", kind="hysteresis")
    assert str(exc.value) == "line 2: unknown key 'trials' in [mc] for kind 'hysteresis'"
    for kind in KINDS:
        assert ("[mc]" in emit_scenario(parse_scenario("", kind=kind))) == (kind == "mc")


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
    with pytest.raises(ScenarioError, match=r"^line 2: p_init must be in \[0, 1\]"):
        parse_scenario("[solver]\np_init = 2\n", kind="hysteresis")


def test_unknown_kind_argument_rejected():
    with pytest.raises(ScenarioError, match="kind must be one of .*, got 'bogus'"):
        parse_scenario("", kind="bogus")


def test_mc_drive_table_is_the_trial_spec():
    for sub, keys in MC_DRIVE_FIELDS.items():
        s = parse_scenario(f"[mc]\nscenario = {sub}\n", kind="mc")
        assert list(s.drive) == list(keys)
        fc.ScenarioSpec(sub, **{f: s.drive[k] for k, f in keys.items()})
    s = parse_scenario("[mc]\nscenario = kinetics\n[drive]\namplitudes = 2 V\n", kind="mc")
    assert s.drive["amplitudes"] == 2.0


def test_comments_and_blank_lines_ignored():
    text = "# top comment\n\n[device]\n# inner\nt_fe = 9.8 nm  # inline\n"
    s = parse_scenario(text, kind="iv")
    assert s.device.t_fe == pytest.approx(9.8e-9)


def test_integer_keys_read_exactly():
    s = parse_scenario("[mc]\nseed = 9007199254740993\ntrials = 1e3\n", kind="mc")
    assert s.mc.seed == 9007199254740993
    assert s.mc.trials == 1000
    s = parse_scenario("[drive]\nsizes = 9007199254740993, 2e1\n", kind="bench")
    assert s.drive["sizes"] == (9007199254740993, 20)


def test_mc_solver_takes_only_dt():
    s = parse_scenario("[solver]\ndt = 2 us\n", kind="mc")
    assert s.solver == {"dt": 2e-6}
    with pytest.raises(ScenarioError, match="line 3: unknown key 'p_init'"):
        parse_scenario("[solver]\ndt = 2 us\np_init = 0.5\n", kind="mc")


def test_readme_lists_every_drive_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("Scenario kinds and their drive keys:")[1].split("\n\n")[1]
    rows = {}
    for row in table.splitlines()[2:]:
        kind, keys = (cell.strip() for cell in row.strip("|").split("|"))
        rows[kind] = keys
    assert set(rows) == set(DRIVE_KEYS) | {"mc"}
    for kind, keys in DRIVE_KEYS.items():
        assert rows[kind].split(", ") == list(keys)
    mc = dict(part.split(": ") for part in rows["mc"].split("; "))
    assert {sub: keys.split(", ") for sub, keys in mc.items()} == {
        sub: list(keys) for sub, keys in MC_DRIVE_FIELDS.items()}


def test_readme_lists_every_unit():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("Units per quantity:")[1].split("\n\n")[1]
    rows = {}
    for row in table.splitlines()[2:]:
        quantity, units = (cell.strip() for cell in row.strip("|").split("|"))
        rows[quantity] = units.split(", ")
    assert rows == {quantity: [u for u in units if u] for quantity, units in UNITS.items()}


def _key_per_quantity():
    """quantity -> (section, key) of the first hysteresis key measuring it;
    N_depl is skipped, as it sets two device fields."""
    tables = (("device", {key: _Key(q) for key, q in DEVICE_KEYS.items() if key != "N_depl"}),
              ("drive", DRIVE_KEYS["hysteresis"]), ("solver", SOLVER_KEYS))
    keys = {}
    for section, table in tables:
        for key, spec in table.items():
            keys.setdefault(spec.quantity, (section, key))
    return keys


def test_every_unit_parses_only_for_its_quantity():
    # A trailing "1" is read as a digit of the value, never as a unit.
    written = {quantity: [u for u in units if u != "1"] for quantity, units in UNITS.items()}
    keys = _key_per_quantity()
    assert set(keys) == set(UNITS)
    for quantity, (section, key) in keys.items():
        for unit in written[quantity]:
            s = parse_scenario(f"[{section}]\n{key} = 2 {unit}\n", "hysteresis")
            got = {"device": asdict(s.device), "drive": s.drive, "solver": s.solver}[section][key]
            assert got == (2.0 if quantity == "none" else to_si(2.0, unit))
        allowed = ", ".join(u for u in UNITS[quantity] if u)
        for other, units in written.items():
            for unit in units:
                if other == quantity or not unit:
                    continue
                with pytest.raises(ScenarioError) as err:
                    parse_scenario(f"[{section}]\n{key} = 2 {unit}\n", "hysteresis")
                assert str(err.value) == (f"line 2: unit '{unit}' not valid for {key} "
                                          f"(expected one of {allowed})")


_FINITE = dict(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, **_FINITE)


def _values(spec):
    """Valid values of one table entry: its choices, or numbers above its
    least bound, integers where the entry holds integers."""
    if spec.choices:
        return st.sampled_from(spec.choices)
    if spec.pytype is bool:
        return st.booleans()
    bound, strict = spec.least or (None, False)
    if spec.integer:
        number = st.integers(min_value=None if bound is None else bound + strict,
                             max_value=2**70)
    else:
        number = st.floats(min_value=bound, exclude_min=strict, **_FINITE)
    if spec.pytype is list:
        return st.lists(number, min_size=1, max_size=4).map(tuple)
    return number


# SolverConfig's own ranges; the [solver] table leaves them to it.
_SOLVER_VALUES = {
    "dt": st.none() | _POSITIVE,
    "newton_tol_v": _POSITIVE,
    "newton_tol_i": st.none() | _POSITIVE,
    "max_newton_iters": st.integers(1, 2**70),
    "max_step_halvings": st.integers(0, 2**70),
    "p_init": st.floats(0.0, 1.0),
    "record_every": st.integers(1, 2**70),
}
assert set(_SOLVER_VALUES) == set(SOLVER_KEYS)

@st.composite
def scenarios(draw):
    """Any valid Scenario as parse_scenario returns it, of any kind."""
    kind = draw(st.sampled_from(KINDS))
    device = fc.DeviceParams(**{
        name: draw(st.floats(**_FINITE) if name in ("E_off", "Q_fix_depl") else _POSITIVE)
        for name in PARAM_FIELDS})
    mc = McSpec()
    if kind == "mc":
        overrides = tuple((key, draw(_values(spec))) for key, spec in MC_OVERRIDE_KEYS.items()
                          if draw(st.booleans()))
        mc = McSpec(**{key: draw(_values(spec)) for key, spec in MC_KEYS.items()},
                    overrides=overrides)
    out_dir = draw(st.none() | st.from_regex(r"[A-Za-z0-9_./-]{0,12}", fullmatch=True))
    s = Scenario(kind, device=device, mc=mc, out_dir=out_dir)
    d = s.drive = {key: draw(_values(spec)) for key, spec in _drive_table(s, None).items()}
    if s.drive_kind == "transient":
        d["times"] = tuple(sorted(draw(st.lists(st.floats(**_FINITE), min_size=1,
                                                max_size=4, unique=True))))
        d["values"] = tuple(draw(st.lists(st.floats(**_FINITE), min_size=len(d["times"]),
                                          max_size=len(d["times"]))))
    if s.drive_kind == "bench":
        # bench_waveform's tail, t_total - width - 2 * edge, must be > 0.
        d["t_total"] += d["width"] + 2 * d["edge"]
        assume(math.isfinite(d["t_total"]) and d["t_total"] - d["width"] - 2 * d["edge"] > 0.0)
    s.solver = {key: draw(_SOLVER_VALUES[key]) for key in _solver_table(kind)}
    return s


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_emit_parse_round_trip(s):
    assert parse_scenario(emit_scenario(s)) == s


_UNITS = ["", "1", "V", "mV", "s", "us", "Hz", "nA", "nm", "um2", "uC/cm2", "cm-3",
          "MV/cm", "eV", "C", "K", "cm2/Vs", "bogus"]
_NUMBERS = st.one_of(st.integers().map(str), st.floats().map(repr),
                     st.sampled_from(["1e3", "2.5", "true", "no", "", "x"]))
_RAW_VALUES = st.one_of(
    st.text(max_size=12),
    st.builds(lambda nums, unit: f"{', '.join(nums)} {unit}",
              st.lists(_NUMBERS, max_size=3), st.sampled_from(_UNITS)),
    st.sampled_from([c for spec in MC_KEYS.values() for c in spec.choices]
                    + list(KINDS) + ["voltage", "current", "dc"]),
)
_ALL_KEYS = sorted({"kind", *DEVICE_KEYS, *SOLVER_KEYS, *MC_KEYS, *MC_OVERRIDE_KEYS,
                    *OUTPUT_KEYS, *(k for table in DRIVE_KEYS.values() for k in table)})
_SECTIONS = st.lists(st.tuples(
    st.sampled_from(["scenario", "device", "drive", "solver", "mc", "output", "bogus"]),
    st.lists(st.tuples(st.sampled_from(_ALL_KEYS + ["bogus"]), _RAW_VALUES), max_size=4)),
    max_size=4)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS), sections=_SECTIONS)
def test_any_key_value_lines_parse_or_raise_scenario_error(kind, sections):
    text = "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in lines)
                   for name, lines in sections)
    try:
        s = parse_scenario(text, kind=kind)
    except ScenarioError:
        return
    assert parse_scenario(emit_scenario(s)) == s
