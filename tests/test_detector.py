import math

import numpy as np
import pytest

from superevents.detector import bce_backward, bce_loss, frame_logits, sigmoid
from superevents.model import VARIANTS, init_model, loss_and_grads, predict_probabilities


def probs(weight, bias, features, context=None):
    return sigmoid(frame_logits(weight, bias, features, context))


def test_zero_params_give_half():
    v = np.random.default_rng(0).normal(size=(4, 3))
    S = np.random.default_rng(1).normal(size=(2, 2))
    np.testing.assert_allclose(probs(np.zeros((2, 5)), np.zeros(2), v, S), 0.5,
                               atol=1e-12)
    np.testing.assert_allclose(probs(np.zeros((2, 3)), np.zeros(2), v), 0.5, atol=1e-12)


def test_large_bias_saturates():
    v = np.ones((3, 2))
    S = np.ones((1, 2))
    assert np.all(probs(np.zeros((1, 4)), np.array([30.0]), v, S) >= 1 - 1e-9)
    assert np.all(probs(np.zeros((1, 2)), np.array([30.0]), v) >= 1 - 1e-9)


def test_explicit_scalar_logit():
    # T=2, C=1, D=1, N=1: logit = w_v*v + w_s*S + b worked out by hand
    v = np.array([[1.0], [3.0]])
    S = np.array([[0.25]])
    expect0 = 1 / (1 + math.exp(-(2 * 1 - 1 * 0.25 + 0.5)))
    expect1 = 1 / (1 + math.exp(-(2 * 3 - 1 * 0.25 + 0.5)))
    got = probs(np.array([[2.0, -1.0]]), np.array([0.5]), v, S)
    np.testing.assert_allclose(got[:, 0], [expect0, expect1], rtol=1e-12)
    # the head without context on the same features
    b0 = 1 / (1 + math.exp(-1.0))
    np.testing.assert_allclose(probs(np.array([[1.0]]), np.array([0.0]), v)[0, 0], b0,
                               rtol=1e-12)


def test_zero_context_block_matches_baseline_bitwise():
    rng = np.random.default_rng(2)
    D, K, C, T = 4, 6, 3, 5
    w = rng.normal(size=(C, D + K))
    w[:, D:] = 0.0
    b = rng.normal(size=C)
    v = rng.normal(size=(T, D))
    S = rng.normal(size=(C, K))
    assert np.array_equal(probs(w, b, v, S), probs(w[:, :D].copy(), b, v))


def test_outputs_strictly_inside_unit_interval():
    rng = np.random.default_rng(3)
    w = rng.normal(0, 0.5, (3, 6))
    b = rng.normal(0, 0.5, 3)
    v = rng.normal(0, 3, size=(10, 4))
    out = probs(w, b, v, rng.normal(size=(3, 2)))
    assert np.all(out > 0) and np.all(out < 1)


def test_shape_mismatches():
    rng = np.random.default_rng(4)
    w = rng.normal(0, 0.5, (2, 5))
    b = rng.normal(0, 0.5, 2)
    with pytest.raises(ValueError):
        frame_logits(w, b, rng.normal(size=(4, 5)), rng.normal(size=(2, 2)))
    with pytest.raises(ValueError):
        frame_logits(w, b, rng.normal(size=(4, 3)), rng.normal(size=(3, 2)))
    with pytest.raises(ValueError):
        bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))
    # no per-frame (T, C, K) context: relative folds it into its kernels
    with pytest.raises(ValueError, match="2-D"):
        frame_logits(w, b, rng.normal(size=(4, 3)), rng.normal(size=(4, 2, 2)))


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
