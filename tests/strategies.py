"""Hypothesis strategies shared by the property tests."""

from dataclasses import replace

from hypothesis import strategies as st

import fecapsim as fc

TABLES = (fc.McDistribution.table_21c(), fc.McDistribution.table_85c())


@st.composite
def devices(draw):
    """The calibrated device, or one anywhere inside a variability table."""
    base = fc.DeviceParams()
    table = draw(st.sampled_from((None,) + TABLES))
    if table is None:
        return base
    values = {"temperature": table.temperature}
    for e in table.entries:
        x = draw(st.floats(e.lower, e.upper))
        if e.name == "N_depl":
            values["N_depl_dn"] = values["N_depl_up"] = x
        else:
            values[e.name] = x
    return replace(base, **values)
