import numpy as np
import pytest

from fecapsim.waveform import (
    CURRENT,
    VOLTAGE,
    Waveform,
    from_segments,
    hold,
    pulse_train,
    rect_pulse,
    triangle,
)


def test_breakpoints_must_increase():
    with pytest.raises(ValueError):
        Waveform(VOLTAGE, np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        Waveform(VOLTAGE, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        Waveform("charge", np.array([0.0, 1.0]), np.array([0.0, 1.0]))


def test_end_values_held():
    wf = Waveform(VOLTAGE, np.array([1.0, 2.0]), np.array([3.0, 5.0]))
    assert wf.value_at(0.0) == 3.0
    assert wf.value_at(10.0) == 5.0
    assert wf.value_at(1.5) == pytest.approx(4.0)


def test_time_grid_hits_breakpoints():
    wf = from_segments(VOLTAGE, [(1e-8, 1.0), (1e-5, 1.0), (1e-8, 0.0)])
    grid = wf.time_grid(1e-6)
    for t in wf.times:
        assert np.any(np.isclose(grid, t, rtol=0, atol=1e-18 + 1e-12 * t))
    assert np.all(np.diff(grid) > 0)


def test_time_grid_exact_division():
    wf = hold(1.0, 1e-3)
    grid = wf.time_grid(1e-6)
    assert grid.size == 1001  # no spurious extra subdivision from round-off


def test_triangle_shape():
    wf = triangle(3.0, 1e3, 2)
    assert wf.t_end == pytest.approx(2e-3)
    assert wf.value_at(0.25e-3) == pytest.approx(3.0)
    assert wf.value_at(0.75e-3) == pytest.approx(-3.0)
    assert wf.value_at(1.0e-3) == pytest.approx(0.0)
    assert wf.value_at(1.25e-3) == pytest.approx(3.0)


def test_rect_pulse_flat_top():
    wf = rect_pulse(2.0, 1e-5, edge=1e-8)
    assert wf.value_at(1e-8) == pytest.approx(2.0)
    assert wf.value_at(5e-6) == pytest.approx(2.0)
    assert wf.value_at(1e-5 + 2e-8) == pytest.approx(0.0)


def test_pulse_train_period_check():
    with pytest.raises(ValueError):
        pulse_train(250e-9, 1e-5, 1e-5, 3)  # period too short
    wf = pulse_train(250e-9, 1e-5, 4e-5, 3)
    assert wf.mode == CURRENT
    assert wf.t_end == pytest.approx(12e-5)
    assert wf.value_at(4e-5 + 5e-6) == pytest.approx(250e-9)
    assert wf.value_at(3.5e-5) == pytest.approx(0.0)


def test_per_device_values():
    amps = np.array([1.0, 2.0, 3.0])
    wf = triangle(amps, 1e3, 1)
    v = wf.value_at(0.25e-3)
    assert v.shape == (3,)
    assert np.allclose(v, amps)
    # an array of times gives one row per time, each equal to its scalar call
    t = np.array([0.1e-3, 0.25e-3, 0.6e-3, 2e-3])
    rows = wf.value_at(t)
    assert rows.shape == (4, 3)
    for ti, row in zip(t, rows):
        assert np.array_equal(row, wf.value_at(ti))


def test_segment_duration_positive():
    with pytest.raises(ValueError):
        from_segments(VOLTAGE, [(0.0, 1.0)])


def test_1d_values_and_single_column_interpolate_alike():
    # one formula for both shapes: the same drive as a 1-D vector and as a
    # single column gives the same bits at and between breakpoints
    one = from_segments(VOLTAGE, [(1e-6, 1.0), (1e-6, 0.0)])
    col = from_segments(VOLTAGE, [(1e-6, [1.0]), (1e-6, [0.0])])
    grid = one.time_grid(1e-7)
    t = np.concatenate([grid, grid[:-1] + np.diff(grid) / 3.0, [-1.0, 5e-6]])
    assert one.value_at(t).tobytes() == col.value_at(t)[:, 0].tobytes()
    for ti in t:
        assert np.float64(one.value_at(ti)).tobytes() == col.value_at(ti)[0].tobytes()
