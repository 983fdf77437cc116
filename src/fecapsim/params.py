"""Device parameter set for the HZO ferroelectric capacitor model.

``DeviceParams()`` with no arguments gives the calibrated woken-up device
(all values in SI). ``ParamsBatch`` is the struct-of-arrays form consumed by
the vectorized solver; a batch of one is how single-device runs execute.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .constants import Q_E

# Carrier density modeling a pristine (not woken-up) electrode interface, 1/m^3.
N_DEPL_PRISTINE = 7e27
# Devices per vectorized batch of the array bench and Monte-Carlo runs: wide
# enough to amortize a step's fixed numpy dispatch cost, narrow enough that
# the per-device cost stays flat from ~100 devices up.
DEFAULT_CHUNK = 256


@dataclass(frozen=True)
class DeviceParams:
    """Physical parameters of one FeCap, SI units throughout.

    Defaults are the calibrated parameter extraction for the woken-up
    device at 21 degC ambient. Both depletion-layer densities default to the
    same value; they are split because the depletion capacitance is modeled
    independently per polarization direction.
    """

    area: float = 625e-12          # device area, m^2
    t_fe: float = 9.8e-9           # ferroelectric thickness, m
    t_int: float = 1.0e-9          # interface thickness, m
    eps_fe: float = 70.0           # HZO relative permittivity
    eps_int: float = 90.0          # interface relative permittivity
    eps_depl: float = 3.6          # depletion-layer polarizability
    W_b: float = 1.05 * Q_E        # switching energy barrier, J
    d_e: float = 7.5e-9            # electric-field action distance, m
    E_off: float = 2.0e7           # internal bias field, V/m
    P_s: float = 0.27              # saturation polarization, C/m^2
    N_depl_dn: float = 1.4e28      # depletion carrier density, down branch, 1/m^3
    N_depl_up: float = 1.4e28      # depletion carrier density, up branch, 1/m^3
    N_fe: float = 1.0e24           # conduction-band density of states, 1/m^3
    Q_fix_depl: float = 0.0945     # fixed depletion-interface charge, C/m^2
    m_eff_int: float = 1.0         # relative effective mass, interface
    phi_b_int: float = 0.65        # electrode/interface barrier height, V
    phi_tr_fe: float = 0.68        # trap depth in HZO, V
    mu_fe: float = 15e-4           # carrier mobility in HZO, m^2/(V*s)
    temperature: float = 294.15    # ambient temperature, K (21 degC)

    def __post_init__(self):
        check_fields({name: getattr(self, name) for name in PARAM_FIELDS})

    def with_n_depl(self, n_depl: float) -> "DeviceParams":
        """Copy with both depletion densities set to *n_depl* (1/m^3)."""
        return replace(self, N_depl_dn=n_depl, N_depl_up=n_depl)

    def replace(self, **kwargs) -> "DeviceParams":
        return replace(self, **kwargs)


PARAM_FIELDS = tuple(f.name for f in fields(DeviceParams))
# Fields that must be finite and > 0, in the order they are checked; the
# others need only be finite and are checked after them.
_POSITIVE = (
    "area", "t_fe", "t_int", "eps_fe", "eps_int", "eps_depl",
    "W_b", "d_e", "P_s", "N_depl_dn", "N_depl_up", "N_fe",
    "m_eff_int", "phi_b_int", "phi_tr_fe", "mu_fe", "temperature",
)
_CHECK_ORDER = _POSITIVE + tuple(name for name in PARAM_FIELDS if name not in _POSITIVE)


def check_fields(values: dict) -> None:
    """Raise ValueError unless every value in *values* is valid for its field.

    *values* maps DeviceParams field names to a scalar or to one value per
    device. Fields are checked in a fixed order; the error names the first
    invalid field and its first invalid value, in the text DeviceParams
    gives for it.
    """
    for name in _CHECK_ORDER:
        if name not in values:
            continue
        v = values[name]
        a = np.asarray(v, dtype=np.float64)
        bad = ~np.isfinite(a)
        if name not in _POSITIVE:
            if bad.any():
                raise ValueError(f"DeviceParams.{name} must be finite")
            continue
        bad |= a <= 0.0
        if bad.any():
            got = v if a.ndim == 0 else a[bad][0]
            raise ValueError(f"DeviceParams.{name} must be finite and > 0, got {got}")


class ParamsBatch:
    """Struct-of-arrays view of n device parameter sets.

    Every attribute of :class:`DeviceParams` is present as a float64 array of
    shape (n,). The solver broadcasts over this axis, so independent devices
    (Monte-Carlo trials, array cells) run in one vectorized pass.
    """

    __slots__ = ("n",) + PARAM_FIELDS

    def __init__(self, n: int, **arrays):
        if n < 1:
            raise ValueError("batch must contain at least one device")
        self.n = n
        for name in PARAM_FIELDS:
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape == ():
                arr = np.full(n, float(arr))
            if arr.shape != (n,):
                raise ValueError(f"{name}: expected shape ({n},), got {arr.shape}")
            object.__setattr__(self, name, arr)

    def __setattr__(self, name, value):
        if name == "n" and hasattr(self, "n"):
            raise AttributeError("ParamsBatch is immutable")
        object.__setattr__(self, name, value)

    @classmethod
    def from_params(cls, params: DeviceParams, n: int = 1) -> "ParamsBatch":
        """Replicate a single parameter set across *n* devices."""
        return cls(n, **{name: getattr(params, name) for name in PARAM_FIELDS})

    @classmethod
    def from_list(cls, params_list) -> "ParamsBatch":
        """Stack a sequence of DeviceParams into one batch."""
        params_list = list(params_list)
        n = len(params_list)
        return cls(n, **{
            name: np.array([getattr(p, name) for p in params_list])
            for name in PARAM_FIELDS
        })

    def device(self, i: int) -> DeviceParams:
        """Extract device *i* back into a scalar DeviceParams."""
        return DeviceParams(**{name: float(getattr(self, name)[i]) for name in PARAM_FIELDS})

    def slice(self, idx) -> "ParamsBatch":
        """Sub-batch selected by an index array or slice."""
        sub = {name: getattr(self, name)[idx] for name in PARAM_FIELDS}
        n = int(np.asarray(sub["area"]).shape[0])
        return ParamsBatch(n, **sub)
