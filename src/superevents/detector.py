"""Per-frame multi-label sigmoid scores and the detector's loss.

Class c is scored from the concatenation [v_t, S_c] of the frame feature and
that class's context, with a bias. The head is linear, so that score is the
frame-only score frame_logits computes plus a context score the model adds
(model._forward): one constant per class for the global variants, and a
(T, C) score for relative, whose context weights are folded into its kernels
(see pooling.pool_relative). The loss is the mean binary cross-entropy over all
(frame, class) cells, computed from logits in the fused log-sum-exp form
(never log of a saturated sigmoid), with logits clamped to [-30, 30].

All functions are pure; the clamp contributes zero gradient outside its range.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "frame_logits",
    "bce_loss",
    "bce_backward",
    "sigmoid",
    "LOGIT_CLAMP",
]

LOGIT_CLAMP = 30.0


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    # exp(-|x|) never overflows; minimum(x, -x) keeps a NaN's sign bit
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1 / (1 + e), e / (1 + e))


def frame_logits(weight: np.ndarray, bias: np.ndarray,
                 features: np.ndarray) -> np.ndarray:
    """Frame-only linear scores (T, C) = features @ weight.T + bias."""
    features = np.asarray(features)
    if weight.shape[1] != features.shape[1]:
        raise ValueError("weight width does not match the feature dimension")
    return features @ weight.T + bias


def _clamped(logits: np.ndarray):
    c = logits.dtype.type(LOGIT_CLAMP) if hasattr(logits.dtype, "type") else LOGIT_CLAMP
    return np.clip(logits, -c, c), np.abs(logits) < c


def bce_loss(logits: np.ndarray, labels) -> float:
    """Mean over (t, c) of z*softplus(-x) + (1-z)*softplus(x), x clamped."""
    logits = np.asarray(logits)
    z = np.asarray(labels)
    if logits.shape != z.shape:
        raise ValueError(f"logits {logits.shape} vs labels {z.shape}")
    x, _ = _clamped(logits)
    # softplus(x) - z*x == -[z log(sigmoid) + (1-z) log(1-sigmoid)]
    terms = np.logaddexp(logits.dtype.type(0), x) - z * x
    return float(terms.mean())


def bce_backward(logits: np.ndarray, labels) -> np.ndarray:
    """d(mean bce)/d(logits): (sigmoid(x) - z) / (T*C), zero where clamped."""
    logits = np.asarray(logits)
    z = np.asarray(labels)
    x, inside = _clamped(logits)
    return (sigmoid(x) - z) * inside / logits.size
