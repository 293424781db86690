"""Float64 reference computations the benchmark checks the program against.

Written from the method's formulas, not from the package: the Cauchy filter
formula, the attention softmax, global (attended) and per-frame (relative)
pooling, the clamped binary cross-entropy and frame-level AP. Nothing here
imports ``superevents``.
"""

from __future__ import annotations

import numpy as np

LOGIT_CLAMP = 30.0


def cauchy_filters(centers, widths, length: int) -> np.ndarray:
    """(M, length, N) filters; column n of filter m is a normalised Cauchy
    density with centre (length-1)(tanh c + 1)/2 and scale exp(1 - 2|tanh w|)."""
    centers = np.asarray(centers, dtype=np.float64)
    widths = np.asarray(widths, dtype=np.float64)
    mu = (length - 1) * (np.tanh(centers) + 1.0) / 2.0
    gamma = np.exp(1.0 - 2.0 * np.abs(np.tanh(widths)))
    t = np.arange(length, dtype=np.float64)[None, :, None]
    z = (t - mu[:, None, :]) / gamma[:, None, :]
    g = 1.0 / (np.pi * gamma[:, None, :] * (1.0 + z * z))
    return g / g.sum(axis=1, keepdims=True)


def softmax(logits) -> np.ndarray:
    x = np.asarray(logits, dtype=np.float64)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _windows(features: np.ndarray, length: int) -> np.ndarray:
    """(T, length, D): window[t, l] is frame t - (length-1)/2 + l, zero
    outside the video."""
    T, D = features.shape
    half = (length - 1) // 2
    padded = np.zeros((T + length - 1, D))
    padded[half:half + T] = features
    idx = np.arange(T)[:, None] + np.arange(length)[None, :]
    return padded[idx]


def logits(params: dict, variant: str, kernel_length: int, features) -> np.ndarray:
    """(T, C) frame scores of the ``attended`` or ``relative`` detector.

    The classifier row of class c scores [v_t, S_c] where S_c, laid out
    distribution-major (index n*D + d), is the attention-weighted pooled
    context: one vector per video for ``attended``, one per frame for
    ``relative``.
    """
    v = np.asarray(features, dtype=np.float64)
    T, D = v.shape
    w = np.asarray(params["classifier_weight"], dtype=np.float64)
    b = np.asarray(params["classifier_bias"], dtype=np.float64)
    C = w.shape[0]
    att = softmax(params["attention_logits"])  # (C, M)
    N = np.asarray(params["filter_centers"]).shape[1]
    w_ctx = w[:, D:].reshape(C, N, D)
    out = v @ w[:, :D].T + b
    if variant == "attended":
        F = cauchy_filters(params["filter_centers"], params["filter_widths"], T)
        pooled = np.einsum("mtn,td->mnd", F, v)  # per-filter weighted frame sums
        context = np.einsum("cm,mnd->cnd", att, pooled)
        return out + np.einsum("cnd,cnd->c", context, w_ctx)[None, :]
    if variant == "relative":
        L = kernel_length
        F = cauchy_filters(params["filter_centers"], params["filter_widths"], L)
        kernels = np.einsum("cm,mln->cln", att, F).reshape(C, L * N)
        win = _windows(v, L).transpose(0, 2, 1).reshape(T * D, L)
        # context[t, d, c, n] = sum_l kernel_c[l, n] * v[t - half + l, d]
        context = (win @ kernels.reshape(C, L, N).transpose(1, 0, 2).reshape(L, C * N))
        context = context.reshape(T, D, C, N)
        return out + np.einsum("tdcn,cnd->tc", context, w_ctx)
    raise ValueError(f"no reference forward pass for variant {variant!r}")


def probabilities(params: dict, variant: str, kernel_length: int, features) -> np.ndarray:
    x = logits(params, variant, kernel_length, features)
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def bce_loss(x: np.ndarray, labels) -> float:
    """Mean over (frame, class) of -[z log s(x) + (1-z) log(1-s(x))], x
    clamped to [-30, 30]."""
    x = np.clip(x, -LOGIT_CLAMP, LOGIT_CLAMP)
    z = np.asarray(labels, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, x) - z * x))


def directional_derivative(params: dict, variant: str, kernel_length: int, features,
                           labels, direction: dict, h: float = 1e-6) -> float:
    """Central difference of the reference loss along ``direction``."""
    def loss_at(step):
        moved = {k: np.asarray(p, np.float64) + step * direction.get(k, 0.0)
                 for k, p in params.items()}
        return bce_loss(logits(moved, variant, kernel_length, features), labels)
    return (loss_at(h) - loss_at(-h)) / (2.0 * h)


def average_precision(scores, labels) -> float:
    """Precision at the rank of each positive, averaged over positives; ties
    ranked in input order."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    order = np.lexsort((np.arange(scores.size), -scores))
    hits = labels[order]
    ranks = np.flatnonzero(hits) + 1.0
    return float(np.mean(np.arange(1, ranks.size + 1) / ranks))


def class_aps(scores: np.ndarray, labels: np.ndarray) -> dict[int, float]:
    """AP of every class with a positive frame, from (frames, C) arrays."""
    return {c: average_precision(scores[:, c], labels[:, c])
            for c in range(labels.shape[1]) if labels[:, c].any()}
