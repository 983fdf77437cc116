"""Properties of the solver's scalar root-finder on functions with known roots.

Each device carries its own increasing function
f(x) = a (x - r) + b sinh(c (x - r)), whose only root is r, so the result
can be checked against the root and the exact slope without the solver's
physics.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fecapsim.solver import _root

TOL_F = 1e-10
TOL_X = 1e-9
MAX_ITERS = 60


@st.composite
def devices(draw):
    """(a, b, c, r, x0) of one device; some start on or next to their root."""
    a = draw(st.floats(1e-3, 10.0))
    b = draw(st.floats(0.0, 10.0))
    c = draw(st.floats(0.1, 3.0))
    r = draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        x0 = r + draw(st.sampled_from((0.0, 1e-15, -1e-15, 1e-13)))
    else:
        x0 = draw(st.floats(-5.0, 5.0))
    return a, b, c, r, x0


def _fun(a, b, c, r):
    def fun(x):
        u = x - r
        f = a * u + b * np.sinh(c * u)
        return f, (u,)
    return fun


def _slope(a, b, c, r, x):
    return a + b * c * np.cosh(c * (x - r))


def _solve(devs):
    a, b, c, r, x0 = (np.array(col, dtype=np.float64) for col in zip(*devs))
    x, f, conv, _, aux = _root(_fun(a, b, c, r), x0, TOL_F, TOL_X, MAX_ITERS)
    return a, b, c, r, x0, x, f, conv, aux


@settings(max_examples=200, deadline=None)
@given(devs=st.lists(devices(), min_size=1, max_size=8))
def test_root_properties(devs):
    a, b, c, r, x0, x, f, conv, aux = _solve(devs)
    assert conv.all()
    # Converged points meet both tests, the correction on the exact slope.
    assert np.all(np.abs(f) <= TOL_F)
    assert np.all(np.abs(f / _slope(a, b, c, r, x)) <= 1.01 * TOL_X)
    assert np.array_equal(f, _fun(a, b, c, r)(x)[0])
    assert np.array_equal(aux[0], x - r)
    # A device converged at its start is never moved.
    start_f = _fun(a, b, c, r)(x0)[0]
    at_root = (np.abs(x0 - r) <= 1e-13) & (np.abs(start_f) <= TOL_F)
    assert np.array_equal(x[at_root].view(np.int64), x0[at_root].view(np.int64))
    # Each device's result does not depend on the rest of its batch.
    for i, dev in enumerate(devs):
        alone = _solve([dev])
        assert alone[5][0].view(np.int64) == x[i].view(np.int64)
        assert alone[6][0].view(np.int64) == f[i].view(np.int64)
