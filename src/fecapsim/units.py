"""Unit conversions between the user-facing unit system and SI.

All internal computation is SI. Configuration files and CSV output use the
units common in the ferroelectrics literature (uC/cm2, MV/cm, nm, um2, C).
:data:`UNITS` is the one table of which units belong to which quantity:
``to_si``, ``from_si`` and ``known_unit`` read it, a scenario key accepts
the units of its quantity and is emitted in the first, and ``fecap-sim
defaults`` prints each device field in one of them.
"""

from .constants import Q_E

CELSIUS_OFFSET = 273.15

# quantity -> {unit: factor}, value_in_SI = value * factor. Each quantity's
# first unit is its canonical SI unit; a plain number's is no unit at all.
# Temperature converts by offset, not by factor (see to_si).
UNITS = {
    "length": {"m": 1.0, "nm": 1e-9, "um": 1e-6, "cm": 1e-2},
    "area": {"m2": 1.0, "um2": 1e-12, "cm2": 1e-4},
    "time": {"s": 1.0, "ns": 1e-9, "us": 1e-6, "ms": 1e-3},
    "voltage": {"V": 1.0, "mV": 1e-3},
    "current": {"A": 1.0, "pA": 1e-12, "nA": 1e-9, "uA": 1e-6, "mA": 1e-3},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6},
    "charge_density": {"C/m2": 1.0, "uC/cm2": 1e-2},
    "field": {"V/m": 1.0, "MV/cm": 1e8, "kV/cm": 1e5},
    "density": {"m-3": 1.0, "cm-3": 1e6},
    "energy": {"J": 1.0, "eV": Q_E},
    "mobility": {"m2/Vs": 1.0, "cm2/Vs": 1e-4},
    "temperature": {"K": None, "C": None},
    "none": {"": 1.0, "1": 1.0},
}

# Every named unit and its factor.
_FACTORS = {unit: factor for units in UNITS.values() for unit, factor in units.items() if unit}


class UnitError(ValueError):
    """Unknown unit token or unit not allowed for a quantity."""


def to_si(value: float, unit: str) -> float:
    """Convert *value* expressed in *unit* to SI."""
    if unit == "K":
        return value
    if unit == "C":
        return value + CELSIUS_OFFSET
    try:
        return value * _FACTORS[unit]
    except KeyError:
        raise UnitError(f"unknown unit '{unit}'") from None


def from_si(value: float, unit: str) -> float:
    """Convert an SI *value* to *unit*."""
    if unit == "K":
        return value
    if unit == "C":
        return value - CELSIUS_OFFSET
    try:
        return value / _FACTORS[unit]
    except KeyError:
        raise UnitError(f"unknown unit '{unit}'") from None


def known_unit(unit: str) -> bool:
    return unit in _FACTORS
