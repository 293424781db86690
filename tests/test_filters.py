import math

import numpy as np
import pytest

from oracles import cauchy_column_oracle, rel_err

from superevents.filters import materialize_stack, stack_backward
from superevents.model import init_model

LD = np.longdouble


def backward(centers, widths, upstream):
    """stack_backward of the filters materialized at upstream's length."""
    _, cache = materialize_stack(centers, widths, upstream.shape[-2])
    return stack_backward(cache, upstream)


def fd_gradient(centers, widths, T, upstream, h=1e-4):
    """Central finite differences of sum(upstream * values)."""

    def loss(c, w):
        values, _ = materialize_stack(c, w, T)
        return float((upstream * values).sum())

    dc = np.zeros_like(centers)
    dw = np.zeros_like(widths)
    for idx in np.ndindex(centers.shape):
        cp, cm = centers.copy(), centers.copy()
        cp[idx] += h
        cm[idx] -= h
        dc[idx] = (loss(cp, widths) - loss(cm, widths)) / (2 * h)
        wp, wm = widths.copy(), widths.copy()
        wp[idx] += h
        wm[idx] -= h
        dw[idx] = (loss(centers, wp) - loss(centers, wm)) / (2 * h)
    return dc, dw


def test_midpoint_center_and_max_scale():
    values, cache = materialize_stack(np.array([0.0]), np.array([0.0]), 5)
    centers, scales = cache["frame_centers"], cache["scales"]
    assert centers[0] == pytest.approx(2.0, abs=1e-12)
    assert scales[0] == pytest.approx(math.e, abs=1e-12)
    assert values[:, 0].sum() == pytest.approx(1.0, abs=1e-9)
    # symmetric about the midpoint
    np.testing.assert_allclose(values[:, 0], values[::-1, 0], rtol=1e-12)


def test_saturated_center_lands_on_last_frame():
    values, cache = materialize_stack(np.array([20.0]), np.array([3.0]), 10)
    centers = cache["frame_centers"]
    assert centers[0] == pytest.approx(9.0, abs=1e-6)
    col = values[:, 0]
    assert int(np.argmax(col)) == 9
    assert col[-3:].sum() > col[:3].sum()
    assert col[-3:].sum() > 0.5


def test_scalar_oracle_column():
    # frozen from an extended-precision evaluation of the construction
    params = np.array([0.5], dtype=np.float64), np.array([0.3], dtype=np.float64)
    values, cache = materialize_stack(*params, 4)
    centers, scales = cache["frame_centers"], cache["scales"]
    assert centers[0] == pytest.approx(2.1931757358900146, rel=1e-12)
    assert scales[0] == pytest.approx(1.5179713041865228, rel=1e-12)
    expected = [
        0.11970299992177812,
        0.22843871243603666,
        0.36368922540714298,
        0.28816906223504224,
    ]
    np.testing.assert_allclose(values[:, 0], expected, rtol=1e-10)
    xh, gh, col = cauchy_column_oracle(0.5, 0.3, 4)
    np.testing.assert_allclose(values[:, 0], col, rtol=1e-12)


def test_rejects_bad_inputs():
    zero = np.array([0.0])
    with pytest.raises(ValueError):
        materialize_stack(zero, zero, 0)
    with pytest.raises(ValueError):
        materialize_stack(np.array([np.nan]), zero, 4)
    with pytest.raises(ValueError):
        materialize_stack(zero, np.array([np.inf]), 4)
    with pytest.raises(ValueError):
        materialize_stack(np.array([[0.0], [np.nan]]), np.zeros((2, 1)), 5)
    _, cache = materialize_stack(zero, zero, 5)  # values (5, 1)
    for shape in ((5, 2), (5,), (0, 1), (4, 1), (1, 5, 1)):
        with pytest.raises(ValueError, match="not the stack's"):
            stack_backward(cache, np.zeros(shape))
    _, cache = materialize_stack(np.zeros((2, 3)), np.zeros((2, 3)), 5)  # (2, 5, 3)
    for shape in ((5, 3), (2, 3, 5), (3, 5, 3), (2, 6, 3)):
        with pytest.raises(ValueError, match="not the stack's"):
            stack_backward(cache, np.zeros(shape))


def test_normalization_and_bounds_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        T = int(rng.integers(1, 200))
        params = rng.normal(0, 3, n), rng.normal(0, 3, n)
        values, cache = materialize_stack(*params, T)
        centers, scales = cache["frame_centers"], cache["scales"]
        np.testing.assert_allclose(values.sum(axis=0), 1.0, atol=1e-6)
        assert np.all(values > 0)
        assert np.all(centers >= 0) and np.all(centers <= T - 1)
        assert np.all(scales > 1 / math.e) and np.all(scales <= math.e)


def test_peak_at_rounded_center_when_narrow():
    rng = np.random.default_rng(21)
    for _ in range(50):
        T = int(rng.integers(2, 60))
        x = float(rng.normal(0, 2))
        gamma = float(rng.choice([-6.0, 6.0]))
        values, cache = materialize_stack(np.array([x]), np.array([gamma]), T)
        centers = cache["frame_centers"]
        expect = min(max(round(float(centers[0])), 0), T - 1)
        assert int(np.argmax(values[:, 0])) == expect


def test_backward_zero_upstream():
    dc, dw = backward(np.array([0.3, -0.2]), np.array([0.1, 0.4]), np.zeros((9, 2)))
    assert np.all(dc == 0) and np.all(dw == 0)


def test_backward_constant_upstream_is_zero():
    # each column sums to 1 for every parameter value, so a constant
    # functional of a column has zero parameter gradient
    rng = np.random.default_rng(3)
    centers = rng.normal(size=3).astype(LD)
    widths = rng.normal(size=3).astype(LD)
    upstream = np.broadcast_to(np.array([2.5, -1.0, 7.0], dtype=LD), (12, 3)).copy()
    dc, dw = backward(centers, widths, upstream)
    np.testing.assert_allclose(np.asarray(dc, float), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.asarray(dw, float), 0.0, atol=1e-12)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        T = int(rng.integers(2, 20))
        centers = rng.normal(0, 1.5, n).astype(LD)
        widths = rng.normal(0, 1.5, n).astype(LD)
        upstream = rng.normal(0, 1, (T, n)).astype(LD)
        dc, dw = backward(centers, widths, upstream)
        fc, fw = fd_gradient(centers, widths, T, upstream)
        assert rel_err(np.asarray(dc, float), np.asarray(fc, float)) < 1e-4
        assert rel_err(np.asarray(dw, float), np.asarray(fw, float)) < 1e-4


def test_backward_at_width_kink_uses_zero_subgradient():
    _, dw = backward(np.array([0.2], dtype=LD), np.array([0.0], dtype=LD),
                     np.random.default_rng(0).normal(size=(12, 1)).astype(LD))
    assert float(dw[0]) == 0.0


def test_stack_matches_per_filter():
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(4, 3))
    widths = rng.normal(size=(4, 3))
    values, cache = materialize_stack(centers, widths, 17)
    assert values.shape == (4, 17, 3)
    upstream = rng.normal(size=(4, 17, 3))
    dc, dw = stack_backward(cache, upstream)
    for m in range(4):
        np.testing.assert_allclose(values[m],
                                   materialize_stack(centers[m], widths[m], 17)[0],
                                   rtol=1e-12)
        dcm, dwm = backward(centers[m], widths[m], upstream[m])
        np.testing.assert_allclose(dc[m], dcm, rtol=1e-12)
        np.testing.assert_allclose(dw[m], dwm, rtol=1e-12)


@pytest.mark.parametrize("T", [1, 2, 3, 200, 3000])
def test_stack_matches_per_filter_and_oracle_at_extreme_lengths(T):
    # 3000 frames is the longest video the eval-long benchmark scores
    rng = np.random.default_rng(T)
    centers = rng.normal(0, 1.5, (5, 3))
    widths = rng.normal(0, 1.5, (5, 3))
    values, cache = materialize_stack(centers, widths, T)
    assert values.shape == (5, T, 3) and values.flags.c_contiguous
    assert values.dtype == np.float64
    upstream = rng.normal(size=(5, T, 3))
    dc, dw = stack_backward(cache, upstream)
    for m in range(5):
        one, _ = materialize_stack(centers[m], widths[m], T)
        assert one.shape == (T, 3) and one.flags.c_contiguous
        np.testing.assert_allclose(values[m], one, rtol=1e-12)
        dcm, dwm = backward(centers[m], widths[m], upstream[m])
        np.testing.assert_allclose(dc[m], dcm, rtol=1e-12)
        np.testing.assert_allclose(dw[m], dwm, rtol=1e-12)
        for n in range(3):
            xh, gh, col = cauchy_column_oracle(centers[m, n], widths[m, n], T)
            np.testing.assert_allclose(values[m, :, n], col, rtol=1e-12)
            assert cache["frame_centers"][m, n] == pytest.approx(xh, rel=1e-12, abs=1e-12)
            assert cache["scales"][m, n] == pytest.approx(gh, rel=1e-12)


def test_init_ranges_and_dtype():
    rng = np.random.default_rng(0)
    for variant, m in (("single", 4), ("attended", 5), ("relative", 5)):
        state = init_model(variant, 6, 4, list("abcd"), 3, 5, 7, rng)
        for name in ("filter_centers", "filter_widths"):
            p = state.params[name]
            assert p.shape == (m, 3) and p.dtype == np.float32
            assert np.all(np.abs(p) <= 0.5)


def test_centers_rescale_proportionally_with_length():
    centers, widths = np.array([0.37, -0.8]), np.array([0.1, 0.2])
    a = materialize_stack(centers, widths, 12)[1]["frame_centers"]
    b = materialize_stack(centers, widths, 47)[1]["frame_centers"]
    np.testing.assert_allclose(a / 11, b / 46, rtol=1e-12)
