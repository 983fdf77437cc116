"""Scenario configuration: strict line-oriented parsing and emission.

Format: ``[section]`` headers with ``key = value [unit]`` lines; ``#``
starts a comment. Sections: ``[scenario]`` (kind), ``[device]`` (parameter
overrides in paper or SI units), ``[drive]`` (per-kind drive spec),
``[solver]``, ``[mc]``, ``[output]``. Unknown sections, unknown keys, bad
units and out-of-range values are all fatal, with line numbers.

Parsing resolves every omitted field from the defaults (device defaults are
the calibrated parameter table), so a parsed Scenario is fully concrete;
:func:`emit_scenario` writes it back in canonical SI units such that
``parse_scenario(emit_scenario(s)) == s`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .analyses import HYSTERESIS_STEPS_PER_PERIOD, KINETICS_DT, PROGRAM_DT
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

# key -> (DeviceParams field or tuple of fields, quantity)
DEVICE_KEYS = {
    "area": ("area", "area"),
    "t_fe": ("t_fe", "length"),
    "t_int": ("t_int", "length"),
    "eps_fe": ("eps_fe", "none"),
    "eps_int": ("eps_int", "none"),
    "eps_depl": ("eps_depl", "none"),
    "W_b": ("W_b", "energy"),
    "d_e": ("d_e", "length"),
    "E_off": ("E_off", "field"),
    "P_s": ("P_s", "charge_density"),
    "N_depl": (("N_depl_dn", "N_depl_up"), "density"),
    "N_depl_dn": ("N_depl_dn", "density"),
    "N_depl_up": ("N_depl_up", "density"),
    "N_fe": ("N_fe", "density"),
    "Q_fix_depl": ("Q_fix_depl", "charge_density"),
    "m_eff_int": ("m_eff_int", "none"),
    "phi_b_int": ("phi_b_int", "voltage"),
    "phi_tr_fe": ("phi_tr_fe", "voltage"),
    "mu_fe": ("mu_fe", "mobility"),
    "temperature": ("temperature", "temperature"),
}

# key -> (quantity, default, pytype); pytype: float | int | bool | str | list
_KINETICS_WIDTHS = (1e-7, 4.6416e-7, 2.1544e-6, 1e-5, 4.6416e-5, 2.1544e-4, 1e-3)
DRIVE_KEYS = {
    "hysteresis": {
        "amplitude": ("voltage", 3.0, float),
        "frequency": ("frequency", 1e3, float),
        "cycles": ("none", 3, int),
    },
    "cv": {
        "amplitude": ("voltage", 3.0, float),
        "frequency": ("frequency", 1e3, float),
        "cycles": ("none", 2, int),
        "delta_v": ("voltage", 0.01, float),
    },
    "kinetics": {
        "amplitudes": ("voltage", (1.0, 1.5, 2.0, 2.5, 3.0), list),
        "widths": ("time", _KINETICS_WIDTHS, list),
        "preset": ("voltage", -3.0, float),
        "preset_width": ("time", 1e-3, float),
        "settle": ("time", 1e-6, float),
        "edge": ("time", 1e-8, float),
    },
    "iv": {
        "v_start": ("voltage", 0.0, float),
        "v_stop": ("voltage", 3.0, float),
        "points": ("none", 61, int),
    },
    "program": {
        "current": ("current", 250e-9, float),
        "width": ("time", 1e-5, float),
        "pulses": ("none", 25, int),
        "discharge": ("none", True, bool),
        "gap": ("time", 3e-5, float),
        "max_discharge": ("time", 3e-5, float),
        "edge": ("time", 1e-8, float),
    },
    "transient": {
        "mode": ("none", "voltage", str),
        "times": ("time", (0.0, 1e-3), list),
        "values": ("none", (0.0, 0.0), list),
    },
    "bench": {
        "sizes": ("none", (100, 1000, 10000, 100000), list),
        "current": ("current", 250e-9, float),
        "width": ("time", 1e-5, float),
        "t_total": ("time", 3e-5, float),
        "chunk": ("none", DEFAULT_CHUNK, int),
        "edge": ("time", 1e-8, float),
    },
}

SOLVER_KEYS = {
    "dt": ("time", None, float),
    "newton_tol_v": ("voltage", 1e-9, float),
    "newton_tol_i": ("current", None, float),
    "max_newton_iters": ("none", 20, int),
    "max_step_halvings": ("none", 12, int),
    "p_init": ("none", 0.0, float),
    "record_every": ("none", 1, int),
}

MC_KEYS = {
    "table": ("none", "21C", str),
    "trials": ("none", 200, int),
    "seed": ("none", 12345, int),
    "scenario": ("none", "hysteresis", str),
}
# Mean/sigma overrides of the variability table, e.g. "t_int_sigma = 0.3 nm".
MC_OVERRIDE_KEYS = {
    "t_int_mean": "length", "t_int_sigma": "length",
    "P_s_mean": "charge_density", "P_s_sigma": "charge_density",
    "N_depl_mean": "density", "N_depl_sigma": "density",
    "Q_fix_depl_mean": "charge_density",
    "d_e_mean": "length",
}

OUTPUT_KEYS = {"dir": ("none", None, str)}

# Least value of numeric [drive] and [mc] keys, checked on every element:
# (bound, strict). Durations, rates, the C-V probe step and the means of
# the positive device parameters must be > 0; a hysteresis run needs a
# second cycle, since its first is the preset.
_LEAST = dict.fromkeys(("frequency", "width", "widths", "preset_width", "settle",
                        "edge", "gap", "max_discharge", "t_total", "delta_v",
                        "t_int_mean", "P_s_mean", "N_depl_mean", "d_e_mean"),
                       (0.0, True))
_LEAST.update(dict.fromkeys(("seed", "t_int_sigma", "P_s_sigma", "N_depl_sigma"),
                            (0, False)),
              cycles=(1, False), pulses=(1, False), points=(2, False),
              sizes=(1, False), chunk=(1, False), trials=(1, False))

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

    def solver_config(self) -> SolverConfig:
        s = dict(self.solver)
        if s.get("dt") is None:
            s["dt"] = self._default_dt()
        return SolverConfig(**s)

    def _default_dt(self) -> float:
        kind = self.mc.scenario if self.kind == "mc" else self.kind
        if kind in _DT_DEFAULTS:
            return _DT_DEFAULTS[kind]
        if kind in ("hysteresis", "cv"):
            return 1.0 / (self.drive["frequency"] * HYSTERESIS_STEPS_PER_PERIOD)
        if kind == "transient":
            times = self.drive["times"]
            return max((times[-1] - times[0]) / 1000.0, 1e-12)
        return 1e-7

    def drive_keys(self) -> dict:
        kind = self.mc.scenario if self.kind == "mc" else self.kind
        return DRIVE_KEYS[kind]


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


def _parse_scalar(raw: str, quantity: str, pytype, key: str, line: int):
    if pytype is str:
        return raw.strip()
    nums, unit = _split_unit(raw)
    if pytype is bool:
        token = nums.strip().lower()
        if token in ("true", "1", "yes"):
            return True
        if token in ("false", "0", "no"):
            return False
        raise ScenarioError(f"{key}: expected true/false, got '{raw}'", line)
    try:
        items = [float(tok) for tok in nums.replace(" ", "").split(",") if tok]
    except ValueError:
        raise ScenarioError(f"{key}: cannot parse number from '{raw}'", line) from None
    values = [_to_si_checked(v, unit, quantity, key, line) for v in items]
    if not all(math.isfinite(v) for v in values):
        raise ScenarioError(f"{key}: expected finite numbers, got '{raw}'", line)
    if pytype is list:
        if not values:
            raise ScenarioError(f"{key}: expected one or more values", line)
        return tuple(values)
    if len(values) != 1:
        raise ScenarioError(f"{key}: expected a single value, got '{raw}'", line)
    value = values[0]
    if pytype is int:
        if value != int(value):
            raise ScenarioError(f"{key}: expected an integer, got '{raw}'", line)
        return int(value)
    return value


def _check_least(key: str, value, line: int, bound, strict: bool) -> None:
    for v in value if isinstance(value, tuple) else (value,):
        if v < bound or (strict and v == bound):
            raise ScenarioError(f"{key}: must be {'>' if strict else '>='} {bound:g}, "
                                f"got {v:g}", line)


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


def parse_scenario(text: str, kind: Optional[str] = None) -> Scenario:
    """Parse scenario text; *kind* (e.g. from the CLI subcommand) overrides
    or validates the [scenario] kind entry. Every omitted field is filled
    with its default."""
    sections = _read_sections(text)

    sc = sections.get("scenario", {})
    for key in sc:
        if key != "kind":
            raise ScenarioError(f"unknown key '{key}' in [scenario]", sc[key][1])
    file_kind = None
    if "kind" in sc:
        file_kind = sc["kind"][0].strip()
        if file_kind not in KINDS:
            raise ScenarioError(f"unknown scenario kind '{file_kind}'", sc["kind"][1])
    if kind is not None and file_kind is not None and kind != file_kind:
        raise ScenarioError(
            f"scenario kind '{file_kind}' does not match requested '{kind}'",
            sc["kind"][1])
    resolved_kind = kind or file_kind
    if resolved_kind is None:
        raise ScenarioError("scenario kind not specified")

    # [mc] first: for kind=mc the drive keys depend on the sub-scenario.
    mc_raw = sections.get("mc", {})
    mc_vals = {}
    overrides = {}
    for key, (raw, line) in mc_raw.items():
        if key in MC_KEYS:
            quantity, _default, pytype = MC_KEYS[key]
            mc_vals[key] = value = _parse_scalar(raw, quantity, pytype, key, line)
        elif key in MC_OVERRIDE_KEYS:
            overrides[key] = value = _parse_scalar(raw, MC_OVERRIDE_KEYS[key], float,
                                                   key, line)
        else:
            raise ScenarioError(f"unknown key '{key}' in [mc]", line)
        if key in _LEAST:
            _check_least(key, value, line, *_LEAST[key])
    if "table" in mc_vals and mc_vals["table"] not in ("21C", "85C"):
        raise ScenarioError(f"mc table must be 21C or 85C, got '{mc_vals['table']}'",
                            mc_raw["table"][1])
    if "scenario" in mc_vals and mc_vals["scenario"] not in MC_SUB_KINDS:
        raise ScenarioError(
            f"mc scenario must be one of {MC_SUB_KINDS}, got '{mc_vals['scenario']}'",
            mc_raw["scenario"][1])
    mc = McSpec(overrides=tuple(sorted(overrides.items())),
                **{k: v for k, v in mc_vals.items()})

    # [device]
    dev_raw = sections.get("device", {})
    dev_values = {}
    dev_lines = {}
    for key, (raw, line) in dev_raw.items():
        if key not in DEVICE_KEYS:
            raise ScenarioError(f"unknown key '{key}' in [device]", line)
        fields, quantity = DEVICE_KEYS[key]
        value = _parse_scalar(raw, quantity, float, key, line)
        for f_name in (fields if isinstance(fields, tuple) else (fields,)):
            dev_values[f_name] = value
            dev_lines[f_name] = (key, line)
    try:
        device = DeviceParams(**dev_values)
    except ValueError as err:
        name = str(err).split(".")[-1].split(" ")[0] if "." in str(err) else ""
        key, line = dev_lines.get(name, (name or "device", None))
        raise ScenarioError(f"{err} (key '{key}')", line) from None

    # [drive]
    kind_for_drive = mc.scenario if resolved_kind == "mc" else resolved_kind
    drive_table = DRIVE_KEYS[kind_for_drive]
    drive = {k: spec[1] for k, spec in drive_table.items()}
    drive_raw = sections.get("drive", {})
    for key, (raw, line) in drive_raw.items():
        if key not in drive_table:
            raise ScenarioError(
                f"unknown key '{key}' in [drive] for kind '{kind_for_drive}'", line)
        quantity, _default, pytype = drive_table[key]
        if kind_for_drive == "transient" and key == "values":
            mode_raw = sections.get("drive", {}).get("mode")
            mode = (mode_raw[0].strip() if mode_raw else drive.get("mode", "voltage"))
            quantity = "voltage" if mode == "voltage" else "current"
        drive[key] = value = _parse_scalar(raw, quantity, pytype, key, line)
        if key not in _LEAST:
            continue
        bound, strict = _LEAST[key]
        if (kind_for_drive, key) == ("hysteresis", "cycles"):
            bound = 2
        _check_least(key, value, line, bound, strict)
    if kind_for_drive == "transient":
        if drive["mode"] not in ("voltage", "current"):
            raise ScenarioError(f"transient mode must be voltage or current, "
                                f"got '{drive['mode']}'")
        if len(drive["times"]) != len(drive["values"]):
            raise ScenarioError("transient times and values must have equal length")
        # The default times increase, so only a given list can fail here.
        if any(b <= a for a, b in zip(drive["times"], drive["times"][1:])):
            raise ScenarioError("times: must be strictly increasing", drive_raw["times"][1])
    if kind_for_drive == "bench":
        drive["sizes"] = tuple(int(s) for s in drive["sizes"])
        # The same test as arraybench.bench_waveform: the tail must be > 0.
        if drive["t_total"] - drive["width"] - 2 * drive["edge"] <= 0.0:
            # The defaults pass, so one of the three keys was given.
            key = next(k for k in ("t_total", "width", "edge") if k in drive_raw)
            raise ScenarioError(
                f"t_total must exceed width + 2 * edge, got {drive['t_total']:g} s "
                f"against {drive['width'] + 2 * drive['edge']:g} s",
                drive_raw[key][1])

    # [solver]
    solver = {k: spec[1] for k, spec in SOLVER_KEYS.items()}
    for key, (raw, line) in sections.get("solver", {}).items():
        if key not in SOLVER_KEYS:
            raise ScenarioError(f"unknown key '{key}' in [solver]", line)
        quantity, _default, pytype = SOLVER_KEYS[key]
        solver[key] = _parse_scalar(raw, quantity, pytype, key, line)
    try:
        probe = dict(solver)
        if probe.get("dt") is None:
            probe["dt"] = 1.0
        SolverConfig(**probe)
    except ValueError as err:
        raise ScenarioError(f"[solver]: {err}") from None

    # [output]
    out_dir = None
    for key, (raw, line) in sections.get("output", {}).items():
        if key not in OUTPUT_KEYS:
            raise ScenarioError(f"unknown key '{key}' in [output]", line)
        out_dir = raw.strip()

    return Scenario(kind=resolved_kind, device=device, drive=drive,
                    solver=solver, mc=mc, out_dir=out_dir)


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


def emit_scenario(s: Scenario) -> str:
    """Canonical text form in SI units; parse(emit(s)) reproduces *s* exactly."""
    lines = ["[scenario]", f"kind = {s.kind}", "", "[device]"]
    for key, (fields, quantity) in DEVICE_KEYS.items():
        if isinstance(fields, tuple) or key == "N_depl":
            continue
        unit = _QUANTITY_UNITS[quantity][0]
        value = getattr(s.device, fields)
        lines.append(f"{key} = {_fmt(value)}{(' ' + unit) if unit else ''}")
    lines += ["", "[drive]"]
    drive_table = s.drive_keys()
    for key, (quantity, _default, pytype) in drive_table.items():
        if key == "values":
            quantity = "voltage" if s.drive.get("mode", "voltage") == "voltage" else "current"
        unit = _QUANTITY_UNITS[quantity][0]
        suffix = f" {unit}" if unit and pytype in (float, list) else ""
        lines.append(f"{key} = {_fmt(s.drive[key])}{suffix}")
    lines += ["", "[solver]"]
    for key, (quantity, _default, pytype) in SOLVER_KEYS.items():
        if s.solver.get(key) is None:
            continue
        unit = _QUANTITY_UNITS[quantity][0]
        suffix = f" {unit}" if unit and pytype is float else ""
        lines.append(f"{key} = {_fmt(s.solver[key])}{suffix}")
    lines += ["", "[mc]"]
    lines.append(f"table = {s.mc.table}")
    lines.append(f"trials = {s.mc.trials}")
    lines.append(f"seed = {s.mc.seed}")
    lines.append(f"scenario = {s.mc.scenario}")
    for key, value in s.mc.overrides:
        unit = _QUANTITY_UNITS[MC_OVERRIDE_KEYS[key]][0]
        lines.append(f"{key} = {_fmt(value)} {unit}")
    if s.out_dir is not None:
        lines += ["", "[output]", f"dir = {s.out_dir}"]
    return "\n".join(lines) + "\n"
