"""Per-frame multi-label sigmoid scores and the detector's loss.

Class c is scored from the concatenation [v_t, S_c] of the frame feature and
that class's context vector, or from the frame feature alone when there is no
context; the head carries a bias. The relative variant's per-frame context
never reaches this module: its context weights are folded into its kernels
(see pooling.pool_relative), which return the (T, C) context scores that are
added to the frame-only logits. The loss is the mean binary cross-entropy over all
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


def frame_logits(weight: np.ndarray, bias: np.ndarray, features: np.ndarray,
                 context: np.ndarray | None = None) -> np.ndarray:
    """Linear scores (T, C); context is None or per-class (C, K)."""
    features = np.asarray(features)
    d = features.shape[1]
    if context is None:
        if weight.shape[1] != d:
            raise ValueError("weight width does not match the feature dimension")
        return features @ weight.T + bias

    context = np.asarray(context)
    if context.ndim != 2:
        raise ValueError("context must be a 2-D (C, K) array")
    if weight.shape[1] != d + context.shape[1]:
        raise ValueError(
            f"weight width {weight.shape[1]} != feature {d} + context "
            f"{context.shape[1]}"
        )
    if context.shape[0] != weight.shape[0]:
        raise ValueError("context rows must match the class count")
    w_frame = weight[:, :d]
    w_ctx = weight[:, d:]
    logits = features @ w_frame.T + bias
    return logits + (w_ctx * context).sum(axis=1)


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
