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


def test_l2_norm_weights_by_cell_volume():
    f = GridFunction(mins=(0.0, 0.0), steps=(0.5, 0.25),
                     samples=np.full((4, 4), 2.0))
    assert f.l2_norm() == pytest.approx(np.sqrt(0.125 * 16 * 4.0))


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    f = GridFunction(mins=(-1.0, 0.5), steps=(0.1, 0.2),
                     samples=rng.uniform(0, 3, (7, 9)))
    path = tmp_path / "grid.bin"
    f.save(path)
    g = GridFunction.load(path)
    assert g.mins == f.mins
    assert g.steps == f.steps
    np.testing.assert_array_equal(g.samples, f.samples)


def saved_grid(tmp_path):
    f = GridFunction(mins=(0.0, 1.0), steps=(0.5, 0.25), samples=np.ones((3, 4)))
    path = tmp_path / "grid.bin"
    f.save(path)
    return path


@pytest.mark.parametrize("cut, found", [(5, 91), (-8, 104)])
def test_load_rejects_wrong_sample_byte_count(tmp_path, cut, found):
    # 3 x 4 float64 samples take 96 bytes: a truncated file and trailing bytes
    path = saved_grid(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-cut] if cut > 0 else raw + b"\0" * -cut)
    with pytest.raises(ValueError, match=f"needs 96 sample bytes, found {found}") as exc:
        GridFunction.load(path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("header", [b"{not json", b'{"d": 2}', b"[1, 2]", b""])
def test_load_rejects_bad_header(tmp_path, header):
    path = saved_grid(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(header + raw[raw.index(b"\n"):])
    with pytest.raises(ValueError, match="bad header") as exc:
        GridFunction.load(path)
    assert str(path) in str(exc.value)
