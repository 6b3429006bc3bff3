import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from curvemax.norms import (MAX_DIMENSION, ParabolicSpace, _annulus_point,
                            _blocks, ball_volume, dilate, make_space,
                            polar_integration_check, quasi_triangle_ratio, rho)
from curvemax.rng import stream


def test_known_point_values():
    assert rho([3.0, 4.0]) == pytest.approx(5.0, rel=1e-15)
    assert rho([1.0, 1.0, 1.0]) == pytest.approx(3.0, rel=1e-15)
    assert rho([0.0, 0.0, 1.0, 1.0]) == pytest.approx(2.0 ** 0.25, rel=1e-15)


def test_zero_vector():
    assert rho(np.zeros(5)) == 0.0


def _rho_block_loop(x):
    """rho as one loop over the blocks, each reduced over the last axis: the
    plain form of the definition, kept as the bit-for-bit reference."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape[:-1], dtype=float)
    for lo, hi, level, js in _blocks(x.shape[-1]):
        block = np.abs(x[..., lo:hi])
        scale = block ** (1.0 / js)
        m = np.max(scale, axis=-1)
        safe_m = np.where(m > 0.0, m, 1.0)
        ratios = scale / safe_m[..., None]
        inner = np.sum(ratios ** float(2**level), axis=-1)
        total = total + np.where(m > 0.0, m * inner ** (1.0 / 2**level), 0.0)
    return total if total.ndim else float(total)


# single vectors and a one-row batch take different numpy paths for
# |x_2|^{1/2} (a stride-0 exponent of 0.5 is a square root), and a single
# vector's inner root is a scalar power; each shape is drawn many times so
# that a path taken in the wrong shape shows
RHO_SHAPES = [((), 40), ((1,), 40), ((1, 1), 20), ((7,), 5), ((3, 1), 5),
              ((1, 4), 5), ((3, 5), 5), ((2, 3, 4), 5), ((0,), 1),
              ((10_000,), 1)]


@pytest.mark.parametrize("d", range(1, MAX_DIMENSION + 1))
def test_rho_is_the_block_loop_bit_for_bit(d):
    rng = np.random.default_rng([23, d])
    for shape, reps in RHO_SHAPES:
        for _ in range(reps):
            size = shape + (d,)
            x = rng.standard_normal(size) * 10.0 ** rng.uniform(-300, 300, size)
            x[rng.random(size) < 0.2] = 0.0
            if shape == (10_000,):
                x[:3] = [[0.0], [1e-300], [1e300]]   # a zero row, two extremes
            if shape == (3, 5):
                x = np.asfortranarray(x)
            got, want = rho(x), _rho_block_loop(x)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("d, alpha", [(1, 1), (4, 10), (5, 15)])
def test_homogeneous_dimension(d, alpha):
    assert make_space(d).alpha == alpha


@st.composite
def _dilation_case(draw, d=None):
    """(x, s): d as given or drawn in 1..64, s in [1e-3, 1e3], and
    coordinates that are zero or normal with s^j x_j normal too."""
    if d is None:
        d = draw(st.integers(1, MAX_DIMENSION))
    s = draw(st.floats(1e-3, 1e3))
    x = []
    for j in range(1, d + 1):
        shift = j * math.log2(s)
        e = draw(st.integers(math.ceil(max(-1021, -1021 - shift)),
                             math.floor(min(1022, 1022 - shift))))
        mant = draw(st.one_of(st.just(0.0),
                              st.floats(1.0, 2.0, exclude_max=True),
                              st.floats(-2.0, -1.0, exclude_min=True)))
        x.append(math.ldexp(mant, e))
    assume(any(x))
    return np.array(x), s


# the smallest and largest dimensions and a few between are pinned, so each
# run reaches them; the last case draws d across 1..64
@pytest.mark.parametrize("d", [1, 2, 3, 8, MAX_DIMENSION, None],
                         ids=["1", "2", "3", "8", "64", "any"])
@given(data=st.data())
def test_homogeneity_and_symmetry(d, data):
    # criterion 1's gate: 1e-12 relative; symmetry holds exactly
    x, s = data.draw(_dilation_case(d))
    r = rho(x)
    assert r > 0
    assert rho(dilate(x, s)) == pytest.approx(s * r, rel=1e-12)
    assert rho(-x) == r


def test_extreme_scales_survive():
    # the blockwise max is factored out before any j-th power is taken
    for mag in (1e-300, 1e300):
        x = np.full(8, mag)
        v = rho(x)
        assert np.isfinite(v) and v > 0
        assert rho(dilate(x[None, :], np.array([2.0]))[0]) == pytest.approx(
            2.0 * v, rel=1e-14)


@example([1e-305, 0.0], 1014)  # s^2 overflows; the zero once became nan
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=8),
       st.integers(-1074, 1023))
def test_power_of_two_dilation_is_exponent_scaling(x, m):
    def scaled(v, e):
        try:
            return math.ldexp(v, e)
        except OverflowError:
            return math.copysign(math.inf, v)

    expected = [scaled(v, m * j) for j, v in enumerate(x, start=1)]
    with np.errstate(over="ignore"):
        out = dilate(x, 2.0**m)
    np.testing.assert_array_equal(out, expected)


@pytest.mark.parametrize("s", [-1.0, 0.0, np.nan, np.inf, [2.0, -0.5]])
def test_dilate_rejects_a_scale_off_the_half_line(s):
    # -1 flipped the odd coordinates, 0 zeroed them and nan gave nan; none
    # of these is a dilation
    with pytest.raises(ValueError, match="dilation s must be positive and finite"):
        dilate(np.ones((2, 3)), s)


@pytest.mark.parametrize("r", [np.nan, np.inf, 0.0, -1.0])
def test_ball_volume_names_its_radius(r):
    # nan and inf reached rho, which reported non-finite coordinates
    with pytest.raises(ValueError, match="radius r must be positive and finite"):
        ball_volume(make_space(2), r, samples=1000)


@pytest.mark.parametrize("x", [[np.nan, 1.0], [1.0, np.nan], [np.inf, 1.0],
                               [1.0, -np.inf], [[1.0, 2.0], [np.nan, 0.0]]])
def test_non_finite_coordinates_raise(x):
    with pytest.raises(ValueError, match="finite"):
        rho(x)


def test_dimension_cap():
    assert rho(np.ones(MAX_DIMENSION)) > 0
    with pytest.raises(ValueError):
        rho(np.ones(MAX_DIMENSION + 1))
    with pytest.raises(ValueError):
        make_space(0)


@pytest.mark.parametrize("d", [0, -1, MAX_DIMENSION + 1, 2.5])
def test_annulus_point_rejects_a_dimension_outside_the_cap(d):
    # d = 0 redrew an empty direction forever; make_space(2.5) built a
    # space with alpha = 4.0
    with pytest.raises(ValueError, match=rf"got {d}$"):
        _annulus_point(np.random.default_rng(0), d)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 16])
def test_quasi_triangle_ratio_below_two(d):
    ratio = quasi_triangle_ratio(make_space(d), trials=20_000, seed=0)
    assert 0.5 < ratio <= 2.0


@pytest.mark.parametrize("trials", [0, -3])
def test_quasi_triangle_ratio_needs_a_trial(trials):
    # no pairs returned 0.0, a vacuous ratio <= 2
    with pytest.raises(ValueError, match="at least one trial"):
        quasi_triangle_ratio(make_space(2), trials=trials)


def test_ball_volume_exact_in_1d():
    bv = ball_volume(make_space(1), 1.0, samples=1000)
    assert bv.value == 2.0
    assert bv.stderr == 0.0


@pytest.mark.parametrize("r, exact", [(1.0, 4.0 / 3.0), (2.0, 32.0 / 3.0)])
def test_ball_volume_2d(r, exact):
    # volume of {|x| + sqrt|y| <= r} is (4/3) r^3
    bv = ball_volume(make_space(2), r, samples=200_000)
    assert abs(bv.value - exact) <= 4.0 * bv.stderr + 1e-12


def test_ball_volume_scaling_follows_alpha():
    space = make_space(3)
    b1 = ball_volume(space, 1.0, samples=400_000)
    b2 = ball_volume(space, 2.0, samples=400_000)
    ratio = b2.value / b1.value
    expected = 2.0 ** space.alpha
    assert abs(ratio - expected) / expected < 0.02


@pytest.mark.parametrize("d", [1, 2])
def test_polar_integration_identity(d):
    check = polar_integration_check(make_space(d), lambda r: np.exp(-r),
                                    tol=0.08)
    assert check.passed
    assert check.lhs == pytest.approx(check.rhs, abs=0.08)


def test_polar_integration_rejects_high_dimension():
    with pytest.raises(ValueError):
        polar_integration_check(make_space(3), lambda r: np.exp(-r),
                                tol=0.1)


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("d", [1, 2])
def test_polar_identity_fails_at_a_wrong_alpha(d, shift):
    # the Cartesian side does not read alpha, so only the identity can fail
    space = make_space(d)
    wrong = ParabolicSpace(space.d, space.n, space.alpha + shift)
    check = polar_integration_check(wrong, lambda r: np.exp(-r), tol=0.08)
    assert not check.passed
    assert abs(check.lhs - check.rhs) > 1.0


@pytest.mark.parametrize("kwargs, text", [
    ({"tol": 0.1, "grid_n": 1}, "grid_n must be at least 2, got 1"),
    ({"tol": 0.1, "grid_n": 0}, "grid_n must be at least 2, got 0"),
    ({"tol": math.inf}, "got inf"),
    ({"tol": math.nan}, "got nan"),
    ({"tol": 0.0}, "got 0.0"),
    ({"tol": -0.1}, "got -0.1"),
])
def test_polar_integration_rejects_a_check_that_cannot_fail(kwargs, text):
    # tol = inf passed whatever the two sides were, and grid_n = 1 left the
    # half-resolution grid empty
    with pytest.raises(ValueError, match=text):
        polar_integration_check(make_space(2), lambda r: np.exp(-r), **kwargs)


def test_batch_shapes():
    x = stream(0, 1).standard_normal((6, 5, 3))
    assert rho(x).shape == (6, 5)
    assert dilate(x, 2.0).shape == x.shape
