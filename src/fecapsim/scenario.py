"""Scenario configuration: strict line-oriented parsing and emission.

Format: ``[section]`` headers with ``key = value [unit]`` lines; ``#``
starts a comment. Sections: ``[scenario]`` (kind), ``[device]`` (parameter
overrides in paper or SI units), ``[drive]`` (per-kind drive spec),
``[solver]``, ``[mc]`` (kind mc only), ``[output]``. Unknown sections,
unknown keys, bad units and out-of-range values are all fatal, with line
numbers.

A run accepts only the keys it reads: a Monte-Carlo ``[drive]`` those of
:data:`MC_DRIVE_FIELDS`, and ``[solver]`` those of :func:`_solver_table`.

Each section has one key table of :class:`_Key` entries (quantity, default,
type, least bound, allowed strings); one loop, :func:`_section`, parses and
checks every section against its table, and one, :func:`_emit_section`,
writes it back. Integer keys take integral values only and read integer
literals exactly.

Parsing resolves every omitted field from the defaults (device defaults are
the calibrated parameter table), so a parsed Scenario is fully concrete;
:func:`emit_scenario` writes it back in canonical SI units such that
``parse_scenario(emit_scenario(s)) == s`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional

from .analyses import KINETICS_DT, PROGRAM_DT, hysteresis_dt
from .montecarlo import McDistribution, ParamDist
from .params import DEFAULT_CHUNK, DeviceParams
from .solver import SolverConfig
from .units import UnitError, to_si

KINDS = ("hysteresis", "kinetics", "cv", "iv", "program", "transient", "mc", "bench")
MC_SUB_KINDS = ("hysteresis", "kinetics", "program")


class ScenarioError(ValueError):
    """Configuration error with location information."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# Allowed units per quantity; the first entry is the canonical (SI) unit
# used for emission.
_QUANTITY_UNITS = {
    "length": ("m", "nm", "um", "cm"),
    "area": ("m2", "um2", "cm2"),
    "time": ("s", "ns", "us", "ms"),
    "voltage": ("V", "mV"),
    "current": ("A", "pA", "nA", "uA", "mA"),
    "frequency": ("Hz", "kHz", "MHz"),
    "charge_density": ("C/m2", "uC/cm2"),
    "field": ("V/m", "MV/cm", "kV/cm"),
    "density": ("m-3", "cm-3"),
    "energy": ("J", "eV"),
    "mobility": ("m2/Vs", "cm2/Vs"),
    "temperature": ("K", "C"),
    "none": ("", "1"),
}


class _Key(NamedTuple):
    """One scenario key: the quantity its units belong to, its default and
    its type: float, int, bool, str or list (a tuple of numbers, integers
    when the default's are). *least* = (bound, strict) is checked on every
    element; *choices* lists the allowed strings."""

    quantity: str
    default: object = None
    pytype: type = float
    least: Optional[tuple] = None
    choices: tuple = ()

    @property
    def integer(self) -> bool:
        return self.pytype is int or (self.pytype is list
                                      and isinstance(self.default[0], int))


_POSITIVE = (0.0, True)
_AT_LEAST_0 = (0, False)
_AT_LEAST_1 = (1, False)

SCENARIO_KEYS = {"kind": _Key("none", None, str, choices=KINDS)}

# key -> quantity. Each key sets the DeviceParams field of its name, except
# N_depl, which sets both depletion densities.
DEVICE_KEYS = {
    "area": "area", "t_fe": "length", "t_int": "length", "eps_fe": "none",
    "eps_int": "none", "eps_depl": "none", "W_b": "energy", "d_e": "length",
    "E_off": "field", "P_s": "charge_density", "N_depl": "density",
    "N_depl_dn": "density", "N_depl_up": "density", "N_fe": "density",
    "Q_fix_depl": "charge_density", "m_eff_int": "none", "phi_b_int": "voltage",
    "phi_tr_fe": "voltage", "mu_fe": "mobility", "temperature": "temperature",
}
_DEVICE_TABLE = {key: _Key(quantity) for key, quantity in DEVICE_KEYS.items()}
_DEVICE_FIELDS = {key: (key,) for key in DEVICE_KEYS} | {"N_depl": ("N_depl_dn", "N_depl_up")}

# Durations, rates and the C-V probe step must be > 0. A hysteresis run
# needs a second cycle, since its first is the preset.
_KINETICS_WIDTHS = (1e-7, 4.6416e-7, 2.1544e-6, 1e-5, 4.6416e-5, 2.1544e-4, 1e-3)
DRIVE_KEYS = {
    "hysteresis": {
        "amplitude": _Key("voltage", 3.0),
        "frequency": _Key("frequency", 1e3, float, _POSITIVE),
        "cycles": _Key("none", 3, int, (2, False)),
    },
    "cv": {
        "amplitude": _Key("voltage", 3.0),
        "frequency": _Key("frequency", 1e3, float, _POSITIVE),
        "cycles": _Key("none", 2, int, _AT_LEAST_1),
        "delta_v": _Key("voltage", 0.01, float, _POSITIVE),
    },
    "kinetics": {
        "amplitudes": _Key("voltage", (1.0, 1.5, 2.0, 2.5, 3.0), list),
        "widths": _Key("time", _KINETICS_WIDTHS, list, _POSITIVE),
        "preset": _Key("voltage", -3.0),
        "preset_width": _Key("time", 1e-3, float, _POSITIVE),
        "settle": _Key("time", 1e-6, float, _POSITIVE),
        "edge": _Key("time", 1e-8, float, _POSITIVE),
    },
    "iv": {
        "v_start": _Key("voltage", 0.0),
        "v_stop": _Key("voltage", 3.0),
        "points": _Key("none", 61, int, (2, False)),
    },
    "program": {
        "current": _Key("current", 250e-9),
        "width": _Key("time", 1e-5, float, _POSITIVE),
        "pulses": _Key("none", 25, int, _AT_LEAST_1),
        "discharge": _Key("none", True, bool),
        "gap": _Key("time", 3e-5, float, _POSITIVE),
        "max_discharge": _Key("time", 3e-5, float, _POSITIVE),
        "edge": _Key("time", 1e-8, float, _POSITIVE),
    },
    "transient": {
        "mode": _Key("none", "voltage", str, choices=("voltage", "current")),
        "times": _Key("time", (0.0, 1e-3), list),
        # Currents under current drive; see _drive_table.
        "values": _Key("voltage", (0.0, 0.0), list),
    },
    "bench": {
        "sizes": _Key("none", (100, 1000, 10000, 100000), list, _AT_LEAST_1),
        "current": _Key("current", 250e-9),
        "width": _Key("time", 1e-5, float, _POSITIVE),
        "t_total": _Key("time", 3e-5, float, _POSITIVE),
        "chunk": _Key("none", DEFAULT_CHUNK, int, _AT_LEAST_1),
        "edge": _Key("time", 1e-8, float, _POSITIVE),
    },
}

# Each Monte-Carlo [drive] key and the ScenarioSpec field it sets; a trial
# runs one kinetics amplitude.
MC_DRIVE_FIELDS = {
    "hysteresis": {"amplitude": "amplitude", "frequency": "frequency", "cycles": "n_cycles"},
    "kinetics": {"amplitudes": "amplitude", "widths": "widths"},
    "program": {"current": "pulse_current", "width": "pulse_width", "pulses": "n_pulses"},
}
_MC_DRIVE_TABLES = {sub: {key: DRIVE_KEYS[sub][key] for key in fields}
                    for sub, fields in MC_DRIVE_FIELDS.items()}
_MC_DRIVE_TABLES["kinetics"]["amplitudes"] = _Key("voltage", 1.0)

# Each key is checked on its own by SolverConfig.
SOLVER_KEYS = {
    "dt": _Key("time"),
    "newton_tol_v": _Key("voltage", 1e-9),
    "newton_tol_i": _Key("current"),
    "max_newton_iters": _Key("none", 20, int),
    "max_step_halvings": _Key("none", 12, int),
    "p_init": _Key("none", 0.0),
    "record_every": _Key("none", 1, int),
}

MC_KEYS = {
    "table": _Key("none", "21C", str, choices=("21C", "85C")),
    "trials": _Key("none", 200, int, _AT_LEAST_1),
    "seed": _Key("none", 12345, int, _AT_LEAST_0),
    "scenario": _Key("none", "hysteresis", str, choices=MC_SUB_KINDS),
}
# Mean/sigma overrides of the variability table, e.g. "t_int_sigma = 0.3 nm",
# in sorted key order, the order McSpec.overrides keeps them in. The means of
# the positive device parameters must be > 0.
MC_OVERRIDE_KEYS = {
    "N_depl_mean": _Key("density", least=_POSITIVE),
    "N_depl_sigma": _Key("density", least=_AT_LEAST_0),
    "P_s_mean": _Key("charge_density", least=_POSITIVE),
    "P_s_sigma": _Key("charge_density", least=_AT_LEAST_0),
    "Q_fix_depl_mean": _Key("charge_density"),
    "d_e_mean": _Key("length", least=_POSITIVE),
    "t_int_mean": _Key("length", least=_POSITIVE),
    "t_int_sigma": _Key("length", least=_AT_LEAST_0),
}
_MC_TABLE = {**MC_KEYS, **MC_OVERRIDE_KEYS}

OUTPUT_KEYS = {"dir": _Key("none", None, str)}

# Default base time step per scenario kind, as the analyses default it;
# hysteresis/cv scale with the drive period and transient with its span.
# The DC sweep (iv) integrates no transient.
_DT_DEFAULTS = {"kinetics": KINETICS_DT, "program": PROGRAM_DT, "bench": PROGRAM_DT}


@dataclass(frozen=True)
class McSpec:
    table: str = "21C"
    trials: int = 200
    seed: int = 12345
    scenario: str = "hysteresis"
    overrides: tuple = ()

    def distribution(self) -> McDistribution:
        base = (McDistribution.table_21c() if self.table == "21C"
                else McDistribution.table_85c())
        over = dict(self.overrides)
        if not over:
            return base
        entries = []
        for e in base.entries:
            mean = over.get(f"{e.name}_mean", e.mean)
            sigma = over.get(f"{e.name}_sigma", e.sigma)
            lower, upper = e.lower, e.upper
            if f"{e.name}_mean" in over or f"{e.name}_sigma" in over:
                lower = max(mean - 4.0 * sigma, min(e.lower, mean))
                upper = mean + 4.0 * sigma
            entries.append(ParamDist(e.name, mean, sigma, lower, upper))
        return McDistribution(entries=tuple(entries), temperature=base.temperature)


@dataclass
class Scenario:
    kind: str
    device: DeviceParams = field(default_factory=DeviceParams)
    drive: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    mc: McSpec = field(default_factory=McSpec)
    out_dir: Optional[str] = None

    @property
    def drive_kind(self) -> str:
        """The analysis the drive describes: a Monte-Carlo run's sub-scenario."""
        return self.mc.scenario if self.kind == "mc" else self.kind

    def solver_config(self) -> SolverConfig:
        s = dict(self.solver)
        if s.get("dt") is None:
            s["dt"] = self._default_dt()
        return SolverConfig(**s)

    def _default_dt(self) -> float:
        kind = self.drive_kind
        if kind in _DT_DEFAULTS:
            return _DT_DEFAULTS[kind]
        if kind in ("hysteresis", "cv"):
            return hysteresis_dt(self.drive["frequency"])
        if kind == "transient":
            times = self.drive["times"]
            return max((times[-1] - times[0]) / 1000.0, 1e-12)
        return 1e-7


def _drive_table(s: Scenario, mode: Optional[str]) -> dict:
    """[drive] keys of *s*: those of its Monte-Carlo trial for kind mc; a
    transient's values are currents unless its mode is voltage."""
    if s.kind == "mc":
        return _MC_DRIVE_TABLES[s.mc.scenario]
    table = DRIVE_KEYS[s.kind]
    if s.kind == "transient" and mode != "voltage":
        table = {**table, "values": table["values"]._replace(quantity="current")}
    return table


# The [solver] keys each kind reads: the DC sweep integrates nothing, and
# kinetics and the bench set their own record_every.
_UNRECORDED = tuple(key for key in SOLVER_KEYS if key != "record_every")
_SOLVER_READS = {"mc": ("dt",), "iv": ("newton_tol_i",),
                 "kinetics": _UNRECORDED, "bench": _UNRECORDED}


def _solver_table(kind: str) -> dict:
    return {key: SOLVER_KEYS[key] for key in _SOLVER_READS.get(kind, SOLVER_KEYS)}


def _defaults(table: dict) -> dict:
    return {key: spec.default for key, spec in table.items()}


def _numeric_token(tok: str) -> bool:
    pieces = [p for p in tok.split(",") if p]
    if not pieces:
        return False
    try:
        for p in pieces:
            float(p)
    except ValueError:
        return False
    return True


def _split_unit(text: str):
    """Split a raw value string into (numbers-part, unit token or '')."""
    parts = text.split()
    if not parts:
        return "", ""
    last = parts[-1]
    if _numeric_token(last) or last.lower() in ("true", "false"):
        return " ".join(parts), ""
    return " ".join(parts[:-1]), last


def _to_si_checked(value: float, unit: str, quantity: str, key: str, line: int):
    allowed = _QUANTITY_UNITS[quantity]
    if unit == "" and quantity != "none":
        unit = allowed[0]
    if unit not in allowed and not (quantity == "none" and unit == ""):
        raise ScenarioError(f"unit '{unit}' not valid for {key} "
                            f"(expected one of {', '.join(u for u in allowed if u)})", line)
    if quantity == "none":
        return value
    try:
        return to_si(value, unit)
    except UnitError as err:
        raise ScenarioError(f"{key}: {err}", line) from None


def _number(tok: str, integer: bool):
    """An integer literal is read exactly; anything else as a float."""
    if integer:
        try:
            return int(tok)
        except ValueError:
            pass
    return float(tok)


def _parse_numbers(raw: str, spec: _Key, key: str, line: int) -> list:
    nums, unit = _split_unit(raw)
    integer = spec.integer
    try:
        items = [_number(tok, integer) for tok in nums.replace(" ", "").split(",") if tok]
    except ValueError:
        raise ScenarioError(f"{key}: cannot parse number from '{raw}'", line) from None
    values = [_to_si_checked(v, unit, spec.quantity, key, line) for v in items]
    if not all(isinstance(v, int) or math.isfinite(v) for v in values):
        raise ScenarioError(f"{key}: expected finite numbers, got '{raw}'", line)
    if spec.pytype is list and not values:
        raise ScenarioError(f"{key}: expected one or more values", line)
    if spec.pytype is not list and len(values) != 1:
        raise ScenarioError(f"{key}: expected a single value, got '{raw}'", line)
    if integer and any(v != int(v) for v in values):
        raise ScenarioError(f"{key}: expected an integer, got '{raw}'", line)
    return [int(v) for v in values] if integer else values


def _parse_value(raw: str, spec: _Key, key: str, line: int):
    """The value of *key* in SI units, checked against its choices and its
    least bound."""
    if spec.pytype is str:
        value = raw.strip()
        if spec.choices and value not in spec.choices:
            raise ScenarioError(f"{key} must be one of {', '.join(spec.choices)}, "
                                f"got '{value}'", line)
        return value
    if spec.pytype is bool:
        token = _split_unit(raw)[0].strip().lower()
        if token in ("true", "1", "yes"):
            return True
        if token in ("false", "0", "no"):
            return False
        raise ScenarioError(f"{key}: expected true/false, got '{raw}'", line)
    values = _parse_numbers(raw, spec, key, line)
    if spec.least is not None:
        bound, strict = spec.least
        for v in values:
            if v < bound or (strict and v == bound):
                raise ScenarioError(f"{key}: must be {'>' if strict else '>='} {bound:g}, "
                                    f"got {v}", line)
    return tuple(values) if spec.pytype is list else values[0]


def _read_sections(text: str):
    """Raw pass: {section: {key: (raw value, line)}}, preserving order."""
    sections: dict = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in ("scenario", "device", "drive", "solver", "mc", "output"):
                raise ScenarioError(f"unknown section '[{current}]'", lineno)
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got '{line}'", lineno)
        if current is None:
            raise ScenarioError("key outside any [section]", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ScenarioError(f"duplicate key '{key}'", lineno)
        sections[current][key] = (value.strip(), lineno)
    return sections


def _section(sections: dict, name: str, table: dict, where: str = "",
             check=None) -> dict:
    """{key: value} of the keys given in [name], in file order, each parsed
    and checked against its entry in *table*, then by ``check(key, value)``."""
    values = {}
    for key, (raw, line) in sections.get(name, {}).items():
        if key not in table:
            raise ScenarioError(f"unknown key '{key}' in [{name}]{where}", line)
        values[key] = value = _parse_value(raw, table[key], key, line)
        try:
            if check is not None:
                check(key, value)
        except ValueError as err:
            raise ScenarioError(f"{err} (key '{key}')", line) from None
    return values


def parse_scenario(text: str, kind: Optional[str] = None) -> Scenario:
    """Parse scenario text; *kind* (e.g. from the CLI subcommand) overrides
    or validates the [scenario] kind entry. Every omitted field is filled
    with its default."""
    sections = _read_sections(text)
    file_kind = _section(sections, "scenario", SCENARIO_KEYS).get("kind")
    if kind is not None and file_kind is not None and kind != file_kind:
        raise ScenarioError(
            f"scenario kind '{file_kind}' does not match requested '{kind}'",
            sections["scenario"]["kind"][1])
    kind = kind or file_kind
    if kind is None:
        raise ScenarioError("scenario kind not specified")
    kind = _parse_value(kind, SCENARIO_KEYS["kind"], "kind", None)

    # [mc] first: for kind mc the drive keys depend on the sub-scenario.
    # No other kind reads it, so it takes no keys there.
    if kind == "mc":
        mc = _section(sections, "mc", _MC_TABLE)
    else:
        mc = _section(sections, "mc", {}, f" for kind '{kind}'")
    overrides = tuple((key, mc.pop(key)) for key in MC_OVERRIDE_KEYS if key in mc)
    s = Scenario(kind, mc=McSpec(overrides=overrides, **mc))

    device = _section(sections, "device", _DEVICE_TABLE, check=lambda k, v:
                      DeviceParams(**dict.fromkeys(_DEVICE_FIELDS[k], v)))
    s.device = DeviceParams(**{f: v for k, v in device.items() for f in _DEVICE_FIELDS[k]})

    given = sections.get("drive", {})
    table = _drive_table(s, given.get("mode", ("voltage",))[0])
    where = f" for kind '{kind}'" + (f", scenario '{s.mc.scenario}'" if kind == "mc" else "")
    d = s.drive = _defaults(table) | _section(sections, "drive", table, where)
    if s.drive_kind == "transient":
        if len(d["times"]) != len(d["values"]):
            raise ScenarioError("transient times and values must have equal length")
        # The default times increase, so only a given list can fail here.
        if any(b <= a for a, b in zip(d["times"], d["times"][1:])):
            raise ScenarioError("times: must be strictly increasing", given["times"][1])
    # The same test as arraybench.bench_waveform: the tail must be > 0.
    if s.drive_kind == "bench" and d["t_total"] - d["width"] - 2 * d["edge"] <= 0.0:
        # The defaults pass, so one of the three keys was given.
        key = next(k for k in ("t_total", "width", "edge") if k in given)
        raise ScenarioError(
            f"t_total must exceed width + 2 * edge, got {d['t_total']:g} s "
            f"against {d['width'] + 2 * d['edge']:g} s", given[key][1])

    table = _solver_table(kind)
    s.solver = _defaults(table) | _section(sections, "solver", table, f" for kind '{kind}'",
                                           lambda k, v: SolverConfig(**{"dt": 1.0, k: v}))

    s.out_dir = _section(sections, "output", OUTPUT_KEYS).get("dir")
    return s


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _emit_section(name: str, table: dict, values: dict) -> str:
    """[name] with a line for each key of *table* that has a value, numbers
    in the canonical unit."""
    lines = [f"[{name}]"]
    for key, spec in table.items():
        if values.get(key) is None:
            continue
        unit = _QUANTITY_UNITS[spec.quantity][0] if spec.pytype in (float, list) else ""
        lines.append(f"{key} = {_fmt(values[key])}{' ' + unit if unit else ''}")
    return "\n".join(lines) + "\n"


def emit_scenario(s: Scenario) -> str:
    """Canonical text form in SI units; parse(emit(s)) reproduces *s* exactly."""
    sections = [
        ("scenario", SCENARIO_KEYS, {"kind": s.kind}),
        ("device", _DEVICE_TABLE, asdict(s.device)),
        ("drive", _drive_table(s, s.drive.get("mode")), s.drive),
        ("solver", _solver_table(s.kind), s.solver),
    ]
    if s.kind == "mc":
        sections.append(("mc", _MC_TABLE, {**asdict(s.mc), **dict(s.mc.overrides)}))
    if s.out_dir is not None:
        sections.append(("output", OUTPUT_KEYS, {"dir": s.out_dir}))
    return "\n".join(_emit_section(*section) for section in sections)
