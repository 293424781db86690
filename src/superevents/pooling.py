"""Pooling of a T x D feature sequence into super-event context vectors.

Four families, all pure functions; the two that carry learned attention have
exact hand-written backward passes for the filter stack and the attention
logits, and relative also for the context weights folded into it (features
are fixed inputs, so no gradient flows to them):

* pool_single      — one T x N filter applied to the sequence, giving an
                     N*D vector (distribution-major: block n holds the
                     filter-weighted frame average for distribution n); a
                     (C, T, N) stack gives one such vector per class.
* pool_attended    — M shared filters mixed per class by a row-softmax of
                     attention logits; computed as the attention-weighted
                     mixture of the M pooled vectors (identical by linearity
                     to mixing filters first, and cheaper when C > M).
* pool_relative    — fixed-length L filters slid over the sequence as
                     zero-padded, centered convolution kernels; the per-frame
                     context is only read through the classifier, so its
                     context weights are folded in and the result is one
                     (T, C) score per frame and class (one convolution of
                     the features with an L x D kernel per class).
* pool_baseline    — parameter-free global max / mean / 3-level temporal
                     pyramid poolings.

Because filter columns sum to one, every coordinate pool_single and
pool_attended return is a convex combination of that feature coordinate over
frames.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RelativeConfig",
    "soft_attention",
    "soft_attention_backward",
    "pool_single",
    "pool_attended",
    "pool_attended_backward",
    "pool_relative",
    "pool_baseline",
    "BASELINE_KINDS",
    "baseline_context_blocks",
]

BASELINE_KINDS = ("max", "mean", "pyramid3")

# blocks of length D each kind concatenates
baseline_context_blocks = {"max": 1, "mean": 1, "pyramid3": 7}


@dataclass(frozen=True)
class RelativeConfig:
    """Fixed odd kernel length for the per-frame (convolutional) variant;
    frames outside [0, T-1] are treated as zeros."""

    kernel_length: int = 15

    def __post_init__(self):
        if self.kernel_length < 1:
            raise ValueError("kernel length must be >= 1")
        if self.kernel_length % 2 == 0:
            raise ValueError("kernel length must be odd so the kernel has a center")


def soft_attention(logits) -> np.ndarray:
    """Row softmax with max subtraction; rows land on the simplex."""
    logits = np.asarray(logits)
    if not np.all(np.isfinite(logits)):
        raise ValueError("attention logits must be finite")
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def soft_attention_backward(attention: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient wrt the logits given d(loss)/d(attention); rows sum to 0."""
    inner = (upstream * attention).sum(axis=-1, keepdims=True)
    return attention * (upstream - inner)


def pool_single(filters: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Apply one T x N filter to T x D features -> N*D vector, or a (C, T, N)
    stack, one filter per class, -> (C, N*D)."""
    filters = np.asarray(filters)
    features = np.asarray(features)
    if filters.shape[-2] != features.shape[0]:
        raise ValueError(
            f"filter length {filters.shape[-2]} != sequence length {features.shape[0]}"
        )
    if filters.ndim == 2:
        return (filters.T @ features).reshape(-1)
    mixed = np.einsum("ctn,td->cnd", filters, features, optimize=True)
    return mixed.reshape(filters.shape[0], -1)


def _pooled_per_filter(stack: np.ndarray, features: np.ndarray) -> np.ndarray:
    # (M, T, N) x (T, D) -> (M, N, D)
    return np.einsum("mtn,td->mnd", stack, features, optimize=True)


def pool_attended(stack: np.ndarray, logits: np.ndarray,
                  features: np.ndarray) -> np.ndarray:
    """Per-class context (C, N*D): attention-weighted mixture of the M pooled
    vectors of a (M, T, N) filter stack, with (C, M) attention logits."""
    if logits.shape[1] != stack.shape[0]:
        raise ValueError(
            f"attention expects {logits.shape[1]} filters, bank has {stack.shape[0]}"
        )
    if stack.shape[1] != features.shape[0]:
        raise ValueError("filters were materialized at a different length")
    att = soft_attention(logits)
    pooled = _pooled_per_filter(stack, features)  # (M, N, D)
    mixed = np.einsum("cm,mnd->cnd", att, pooled, optimize=True)
    return mixed.reshape(logits.shape[0], -1)


def pool_attended_backward(stack: np.ndarray, logits: np.ndarray,
                           features: np.ndarray, upstream: np.ndarray):
    """Returns (d_filter_stack (M,T,N), d_logits (C,M))."""
    features = np.asarray(features)
    n = stack.shape[2]
    c = logits.shape[0]
    up = np.asarray(upstream).reshape(c, n, features.shape[1])  # (C, N, D)

    att = soft_attention(logits)
    pooled = _pooled_per_filter(stack, features)
    d_att = np.einsum("cnd,mnd->cm", up, pooled, optimize=True)
    d_logits = soft_attention_backward(att, d_att)
    d_pooled = np.einsum("cm,cnd->mnd", att, up, optimize=True)
    d_stack = np.einsum("mnd,td->mtn", d_pooled, features, optimize=True)
    return d_stack, d_logits


def _padded_windows(features: np.ndarray, L: int) -> np.ndarray:
    """Zero-padded sliding windows as a contiguous (T, L*D) matrix,
    windows[t, l*D + d] = padded[t + l, d]."""
    T, D = features.shape
    half = (L - 1) // 2
    padded = np.zeros((T + L - 1) * D, dtype=features.dtype)
    padded[half * D : (half + T) * D] = features.reshape(-1)
    view = np.lib.stride_tricks.sliding_window_view(padded, L * D)[::D]
    return np.ascontiguousarray(view)


def _relative_state(stack: np.ndarray, logits: np.ndarray, w_ctx: np.ndarray,
                    features: np.ndarray, cfg: RelativeConfig):
    """Per-frame context scores (T, C) with the classifier's context weights
    (C, N*D) folded into the kernels, plus the cache _relative_grads needs.

    The per-frame context is linear in the features, and the classifier only
    reads it through w_ctx, so attention, filters and weights collapse into
    one (L, D) kernel per class, K_c[l] = sum_{m,n} att[c,m] F_m[l,n] w_c[n];
    the scores are one matmul of the zero-padded windows with the C kernels.
    """
    features = np.asarray(features)
    m, L, n = stack.shape
    if L != cfg.kernel_length:
        raise ValueError("filters must be materialized at the configured kernel length")
    if logits.shape[1] != m:
        raise ValueError("attention/filter count mismatch")
    T, D = features.shape
    c = logits.shape[0]
    if w_ctx.shape != (c, n * D):
        raise ValueError(f"context weights {w_ctx.shape} != ({c}, {n * D})")

    att = soft_attention(logits)
    mixed = (att @ stack.reshape(m, L * n)).reshape(c, L, n)  # per-class filters
    weights = w_ctx.reshape(c, n, D)
    kernels = mixed @ weights  # (C, L, D)
    windows = _padded_windows(features, L)  # (T, L*D)
    scores = windows @ kernels.reshape(c, L * D).T
    cache = {"windows": windows, "stack": stack, "att": att, "mixed": mixed,
             "weights": weights}
    return scores, cache


def _relative_grads(cache: dict, d_scores: np.ndarray):
    """(d_filter_stack, d_logits, d_w_ctx) from a _relative_state cache."""
    stack, att = cache["stack"], cache["att"]
    mixed, weights = cache["mixed"], cache["weights"]
    m, L, n = stack.shape
    c = att.shape[0]
    d_kernels = (d_scores.T @ cache["windows"]).reshape(c, L, -1)  # (C, L, D)
    d_w_ctx = (mixed.transpose(0, 2, 1) @ d_kernels).reshape(c, -1)
    d_mixed = (d_kernels @ weights.transpose(0, 2, 1)).reshape(c, L * n)
    d_att = d_mixed @ stack.reshape(m, L * n).T  # (C, M)
    d_logits = soft_attention_backward(att, d_att)
    d_stack = (att.T @ d_mixed).reshape(m, L, n)
    return d_stack, d_logits, d_w_ctx


def pool_relative(stack: np.ndarray, logits: np.ndarray, w_ctx: np.ndarray,
                  features: np.ndarray, cfg: RelativeConfig) -> np.ndarray:
    """Per-frame context scores (T, C): the classifier's context term of the
    relative variant, from kernels centered at each frame and attention
    mixing as in pool_attended."""
    scores, _ = _relative_state(stack, logits, w_ctx, features, cfg)
    return scores


def _pyramid_segments(T: int):
    """21 raw -> 7 effective (start, end) pairs for levels 1, 2, 4; empty
    segments borrow the nearest nonempty segment within their level."""
    segments = []
    for k in (1, 2, 4):
        bounds = [i * T // k for i in range(k + 1)]
        level = [(bounds[i], bounds[i + 1]) for i in range(k)]
        nonempty = [i for i, (s, e) in enumerate(level) if e > s]
        for i, (s, e) in enumerate(level):
            if e > s:
                segments.append((s, e))
            else:
                j = min(nonempty, key=lambda j: (abs(j - i), j))
                segments.append(level[j])
    return segments


def pool_baseline(kind: str, features: np.ndarray) -> np.ndarray:
    """Global max/mean (D) or 3-level temporal pyramid of means (7*D)."""
    features = np.asarray(features)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("features must be a nonempty T x D array")
    if kind == "max":
        return features.max(axis=0)
    if kind == "mean":
        return features.mean(axis=0)
    if kind == "pyramid3":
        return np.concatenate(
            [features[s:e].mean(axis=0) for s, e in _pyramid_segments(features.shape[0])]
        )
    raise ValueError(f"unknown pooling kind {kind!r}")
