import math

import numpy as np
import pytest

from superevents.detector import bce_backward, bce_loss, frame_logits, sigmoid
from superevents.model import (VARIANTS, forward_logits, init_model, loss_and_grads,
                               predict_probabilities)


def masked_sigmoid(x):
    """The two-branch stable sigmoid evaluated branch by branch through
    boolean masks, the reference `sigmoid` must match bit for bit."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1 / (1 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1 + e)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.longdouble])
def test_sigmoid_bitwise_matches_masked_branches(dtype):
    edges = [0.0, -0.0, 30.0, -30.0, np.nan, -np.nan, np.inf, -np.inf,
             1e-30, -1e-30, 100.0, -100.0, 1e4, -1e4]
    x = np.concatenate([edges, np.random.default_rng(8).normal(0, 12, 4096)])
    x = x.astype(dtype)
    got, want = sigmoid(x), masked_sigmoid(x)
    assert got.dtype == dtype and got.shape == x.shape
    assert np.array_equal(np.signbit(got), np.signbit(want))
    if dtype == np.longdouble:  # its padding bytes are undefined
        assert np.array_equal(got, want, equal_nan=True)
    else:
        assert got.tobytes() == want.tobytes()


GLOBAL = ("max", "mean", "pyramid3", "single", "attended")


def model(variant, D, C, rng, N=2, M=2):
    """A float64 model; the filter variants' filters start at init_model's."""
    return init_model(variant, D, C, [f"c{i}" for i in range(C)], N, M, 3, rng,
                      dtype=np.float64)


def test_zero_params_give_half():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(4, 3))
    for variant in ("baseline",) + GLOBAL:
        state = model(variant, 3, 2, rng)
        state.params["classifier_weight"][:] = 0.0
        state.params["classifier_bias"][:] = 0.0
        np.testing.assert_allclose(predict_probabilities(state, v), 0.5, atol=1e-12)


def test_large_bias_saturates():
    v = np.ones((3, 2))
    for variant in ("baseline",) + GLOBAL:
        state = model(variant, 2, 1, np.random.default_rng(1))
        state.params["classifier_weight"][:] = 0.0
        state.params["classifier_bias"][:] = 30.0
        assert np.all(predict_probabilities(state, v) >= 1 - 1e-9)


def test_explicit_scalar_logit():
    # T=2, C=1, D=1, mean context S = mean(v) = 2:
    # logit = w_v*v + w_s*S + b worked out by hand
    v = np.array([[1.0], [3.0]])
    state = model("mean", 1, 1, np.random.default_rng(2))
    state.params["classifier_weight"][:] = [[2.0, -1.0]]
    state.params["classifier_bias"][:] = 0.5
    expect0 = 1 / (1 + math.exp(-(2 * 1 - 1 * 2.0 + 0.5)))
    expect1 = 1 / (1 + math.exp(-(2 * 3 - 1 * 2.0 + 0.5)))
    got = predict_probabilities(state, v)
    np.testing.assert_allclose(got[:, 0], [expect0, expect1], rtol=1e-12)
    # the head without context on the same features
    state = model("baseline", 1, 1, np.random.default_rng(2))
    state.params["classifier_weight"][:] = 1.0
    b0 = 1 / (1 + math.exp(-1.0))
    np.testing.assert_allclose(predict_probabilities(state, v)[0, 0], b0, rtol=1e-12)


def test_zero_context_block_matches_baseline_bitwise():
    rng = np.random.default_rng(2)
    D, C, T = 4, 3, 5
    v = rng.normal(size=(T, D))
    for variant in GLOBAL:
        state = model(variant, D, C, rng)
        state.params["classifier_weight"][:, D:] = 0.0
        state.params["classifier_bias"][:] = rng.normal(size=C)
        base = model("baseline", D, C, rng)
        base.params["classifier_weight"][:] = state.params["classifier_weight"][:, :D]
        base.params["classifier_bias"][:] = state.params["classifier_bias"]
        assert np.array_equal(predict_probabilities(state, v),
                              predict_probabilities(base, v)), variant


def test_outputs_strictly_inside_unit_interval():
    rng = np.random.default_rng(3)
    v = rng.normal(0, 3, size=(10, 4))
    for variant in GLOBAL:
        state = model(variant, 4, 3, rng)
        for w in state.params.values():
            w[:] = rng.normal(0, 0.5, w.shape)
        out = predict_probabilities(state, v)
        assert np.all(out > 0) and np.all(out < 1), variant


def test_shape_mismatches():
    rng = np.random.default_rng(4)
    w = rng.normal(0, 0.5, (2, 5))
    b = rng.normal(0, 0.5, 2)
    with pytest.raises(ValueError):
        frame_logits(w, b, rng.normal(size=(4, 3)))
    # features of another width than the model's D, including the widths at
    # which a global context would broadcast silently against its weights
    for variant in GLOBAL:
        state = model(variant, 3, 2, rng, N=1)
        for width in (1, 2, 4, 5):
            with pytest.raises(ValueError, match="feature dimension"):
                forward_logits(state, rng.normal(size=(4, width)))
    with pytest.raises(ValueError):
        bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def test_bce_zero_logits_is_ln2():
    logits = np.zeros((3, 4))
    z = np.random.default_rng(5).integers(0, 2, (3, 4))
    assert bce_loss(logits, z) == pytest.approx(math.log(2), rel=1e-12)


def test_bce_perfect_prediction_clamped():
    z = np.array([[1.0, 0.0]])
    logits = np.array([[500.0, -500.0]])  # clamps to +-30
    assert bce_loss(logits, z) <= 1e-6


def test_bce_explicit_scalar():
    # p = [0.8, 0.3], z = [1, 0]: -(ln .8 + ln .7)/2, via the exact logits
    logits = np.array([[math.log(0.8 / 0.2), math.log(0.3 / 0.7)]])
    z = np.array([[1.0, 0.0]])
    expected = -(math.log(0.8) + math.log(0.7)) / 2  # 0.2899092476...
    assert bce_loss(logits, z) == pytest.approx(expected, rel=1e-12)
    assert bce_loss(logits, z) == pytest.approx(0.2899092476264711, rel=1e-12)


def test_bce_loss_nonnegative_and_finite():
    rng = np.random.default_rng(6)
    for _ in range(50):
        logits = rng.normal(0, 50, (4, 3))
        z = rng.integers(0, 2, (4, 3))
        val = bce_loss(logits, z)
        assert np.isfinite(val) and val >= 0


def test_bce_backward_closed_form():
    rng = np.random.default_rng(7)
    logits = rng.normal(0, 2, (5, 3))
    z = rng.integers(0, 2, (5, 3)).astype(float)
    g = bce_backward(logits, z)
    np.testing.assert_allclose(g, (sigmoid(logits) - z) / 15, rtol=1e-12)


def test_bce_backward_zero_at_perfect_prediction():
    z = np.array([[1.0, 0.0]])
    logits = np.array([[40.0, -40.0]])
    np.testing.assert_allclose(bce_backward(logits, z), 0.0, atol=1e-12)


def test_bias_gradient_is_mean_residual():
    rng = np.random.default_rng(8)
    T, C, D = 6, 3, 4
    v = rng.normal(size=(T, D))
    z = rng.integers(0, 2, (T, C)).astype(np.uint8)
    for variant in VARIANTS:
        state = init_model(variant, D, C, ["a", "b", "c"], 2, 2, 3, rng, dtype=np.float64)
        state.params["classifier_bias"] += rng.normal(0, 0.5, C)
        _, grads = loss_and_grads(state, v, z)
        residual = predict_probabilities(state, v) - z
        np.testing.assert_allclose(grads["classifier_bias"], residual.mean(axis=0) / C,
                                   rtol=1e-9)


def test_init_scales_and_zero_bias():
    rng = np.random.default_rng(11)
    for variant, width in (("pyramid3", 9 + 7 * 9), ("attended", 9 + 3 * 9),
                           ("baseline", 9)):
        state = init_model(variant, 9, 5, list("abcde"), 3, 2, 3, rng)
        w = state.params["classifier_weight"]
        assert w.shape == (5, width) and w.dtype == np.float32
        assert np.all(np.abs(w) <= (1 / width) ** 0.5)
        assert not state.params["classifier_bias"].any()
