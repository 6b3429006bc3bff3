import numpy as np
import pytest

from curvemax.grid import GridFunction, from_callable


def test_from_callable_lattice():
    f = from_callable(lambda p: p[:, 0] + 2.0, -1.0, 3.0, (9,))
    assert f.d == 1
    assert f.mins == (-1.0,)
    assert f.maxs == (3.0,)
    assert f.steps == (0.5,)
    np.testing.assert_allclose(f.axis(0), np.linspace(-1, 3, 9))
    np.testing.assert_allclose(f.samples, np.linspace(-1, 3, 9) + 2.0)


def test_from_callable_2d_orientation():
    f = from_callable(lambda p: 10.0 * p[:, 0] + p[:, 1] + 20.0,
                      (0.0, 0.0), (1.0, 2.0), (3, 5))
    assert f.samples.shape == (3, 5)
    assert f.samples[2, 0] == pytest.approx(30.0)
    assert f.samples[0, 4] == pytest.approx(22.0)


def test_validation():
    with pytest.raises(ValueError):
        GridFunction(mins=(0.0,), steps=(0.5,), samples=np.ones((3, 3)))
    with pytest.raises(ValueError):
        GridFunction(mins=(0.0,), steps=(-0.5,), samples=np.ones(3))
    with pytest.raises(ValueError):
        GridFunction(mins=(0.0,), steps=(0.5,), samples=np.array([1.0, -2.0]))
    with pytest.raises(ValueError):
        GridFunction(mins=(0.0,), steps=(0.5,), samples=np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        from_callable(lambda p: np.ones(len(p)), (0,) * 4, (1,) * 4, (3,) * 4)


@pytest.mark.parametrize("shape", [(1,), (0,), (5, 1)])
def test_from_callable_needs_two_points_per_axis(shape):
    # (1,) ended in a ZeroDivisionError forming the step
    d = len(shape)
    with pytest.raises(ValueError, match="shape"):
        from_callable(lambda p: np.ones(len(p)), (0.0,) * d, (1.0,) * d, shape)


@pytest.mark.parametrize("mins, steps", [
    ((0.0,), (np.nan,)),   # gave an all-zero curve average
    ((0.0,), (np.inf,)),   # gave an all-ones curve average
    ((np.nan,), (0.5,)),
], ids=["nan-step", "inf-step", "nan-min"])
def test_rejects_non_finite_extent(mins, steps):
    with pytest.raises(ValueError, match="finite"):
        GridFunction(mins=mins, steps=steps, samples=np.ones(3))


def test_shift_exact_on_linear_data():
    # multilinear interpolation reproduces affine functions away from the edge
    f = from_callable(lambda p: 3.0 + p[:, 0], -2.0, 2.0, (41,))
    shifted = f.shifted(0.17)
    xs = f.axis(0)
    inner = slice(5, 36)
    np.testing.assert_allclose(shifted[inner], 3.0 + xs[inner] - 0.17,
                               rtol=1e-12)


def test_shift_zero_fills():
    f = from_callable(lambda p: np.ones(len(p)), 0.0, 1.0, (11,))
    shifted = f.shifted(0.35)
    assert shifted[0] == 0.0
    assert shifted[-1] == pytest.approx(1.0)


def test_whole_cell_shift_is_a_roll():
    rng = np.random.default_rng(8)
    vals = rng.uniform(0.5, 2.0, 16)
    f = GridFunction(mins=(0.0,), steps=(0.25,), samples=vals)
    shifted = f.shifted(0.5)
    np.testing.assert_allclose(shifted[2:], vals[:-2], rtol=1e-14)
    np.testing.assert_allclose(shifted[:2], 0.0, atol=0.0)
