import numpy as np
import pytest

from fbmsde.paths import GridError, SamplePath, StepFunction


def test_uniform_grid_enforced():
    with pytest.raises(ValueError):
        SamplePath(np.array([0.0, 0.1, 0.3]), np.zeros(3))
    with pytest.raises(ValueError):
        SamplePath(np.array([0.1, 0.2, 0.3]), np.zeros(3))
    with pytest.raises(ValueError):
        SamplePath(np.array([0.0, 0.2, 0.1]), np.zeros(3))


@pytest.mark.parametrize(
    "shift, uniform",
    [(0.9e-10, True), (-0.9e-10, True), (1.1e-10, False), (-1.1e-10, False)],
)
def test_uniformity_tolerance_edge(shift, uniform):
    # dt = 0.1, so a step may differ from it by 1e-15 + 1e-9 * 0.1 ~ 1.0e-10
    times = np.linspace(0.0, 1.0, 11)
    times[5] += shift
    if uniform:
        assert SamplePath(times, np.zeros(11)).dt == 0.1
    else:
        with pytest.raises(ValueError, match="grid must be uniform"):
            SamplePath(times, np.zeros(11))


@pytest.mark.parametrize("times", [[0.0, np.nan, 1.0], [0.0, 0.5, np.nan], [0.0, np.inf]])
def test_nonfinite_grid_rejected(times):
    with pytest.raises(ValueError, match="grid must be uniform"):
        SamplePath(np.array(times), np.zeros(len(times)))


def test_index_of_snaps_and_rejects():
    p = SamplePath.from_function(lambda t: t, 1.0, 10)
    assert p.index_of(0.3) == 3
    assert p.index_of(0.0) == 0
    with pytest.raises(GridError):
        p.index_of(0.33)
    with pytest.raises(GridError):
        p.index_of(1.2)


def test_slice_indices():
    p = SamplePath.from_function(lambda t: t, 1.0, 10)
    assert p.slice_indices(0.25, 0.75) == (3, 7)
    assert p.slice_indices(0.3, 0.3) == (3, 3)
    with pytest.raises(GridError):
        p.slice_indices(0.31, 0.39)


def test_values_read_only():
    p = SamplePath.from_function(lambda t: t, 1.0, 4)
    with pytest.raises(ValueError):
        p.values[0] = 5.0


def test_callers_arrays_keep_their_flags():
    # contiguous float64 inputs are viewed, not copied, and the views are read-only
    t, v = np.linspace(0.0, 1.0, 5), np.zeros(5)
    p = SamplePath(t, v)
    assert t.flags.writeable and v.flags.writeable
    assert not (p.times.flags.writeable or p.values.flags.writeable)
    assert np.shares_memory(p.times, t) and np.shares_memory(p.values, v)
    bp, lv = np.array([0.0, 0.5, 1.0]), np.array([2.0, -1.0])
    f = StepFunction(bp, lv)
    assert bp.flags.writeable and lv.flags.writeable
    assert not (f.breakpoints.flags.writeable or f.levels.flags.writeable)


@pytest.mark.parametrize("times", [[0.0], []])
def test_one_point_grid_rejected(times):
    with pytest.raises(ValueError, match="at least two points"):
        SamplePath(np.array(times), np.zeros(len(times)))


def test_step_function_shape_checks():
    with pytest.raises(ValueError):
        StepFunction(np.array([0.0, 0.5]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        StepFunction(np.array([0.5, 0.2]), np.array([1.0]))
    with pytest.raises(ValueError):
        StepFunction(np.array([-0.5, 0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        StepFunction(np.array([0.0, 0.5]), np.array([np.nan]))


def test_indicator():
    ind = StepFunction.indicator(0.0, 0.4)
    assert np.array_equal(ind.breakpoints, [0.0, 0.4])
    assert np.array_equal(ind.levels, [1.0])
