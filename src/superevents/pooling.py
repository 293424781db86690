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
                     zero-padded, centered convolution kernels. The per-frame
                     context is only read through the classifier, so its
                     weights are folded into one L x D kernel per class and
                     the result is a (T, C) score: one matmul per tap over a
                     shifted view of the padded features, no window matrix.
                     The model calls _relative_state, which also returns the
                     cache _relative_grads reads.
* pool_baseline    — parameter-free global max / mean / 3-level temporal
                     pyramid poolings.

Because filter columns sum to one, every coordinate pool_single and
pool_attended return is a convex combination of that feature coordinate over
frames.

All contractions are plain 2-D or batched matmuls on transposed, reshaped or
shifted operands (no einsum path planning per call). Filter stacks and their
gradients keep the (..., T, N) shape of filters.materialize_stack, and every
array returned is C-contiguous.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_kernel_length",
    "soft_attention",
    "soft_attention_backward",
    "pool_single",
    "pool_attended",
    "pool_attended_backward",
    "pool_relative",
    "pool_baseline",
    "baseline_context_blocks",
]

# blocks of length D each kind concatenates
baseline_context_blocks = {"max": 1, "mean": 1, "pyramid3": 7}


def check_kernel_length(length) -> None:
    """The relative variant's kernel length L must be odd and positive, so
    each kernel has a center frame; ValueError otherwise."""
    if length < 1 or length % 2 == 0:
        raise ValueError(f"kernel_length {length} must be odd and >= 1, so the "
                         f"kernel has a center")


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
    mixed = np.swapaxes(filters, -1, -2) @ features  # (..., N, D)
    return mixed.reshape(filters.shape[:-2] + (-1,))


def pool_attended(stack: np.ndarray, logits: np.ndarray,
                  features: np.ndarray) -> np.ndarray:
    """Per-class context (C, N*D): attention-weighted mixture of the M pooled
    vectors of a (M, T, N) filter stack, with (C, M) attention logits."""
    if logits.shape[1] != stack.shape[0]:
        raise ValueError(
            f"attention expects {logits.shape[1]} filters, bank has {stack.shape[0]}"
        )
    return soft_attention(logits) @ pool_single(stack, features)  # checks T


def pool_attended_backward(stack: np.ndarray, logits: np.ndarray,
                           features: np.ndarray, upstream: np.ndarray):
    """Returns (d_filter_stack (M,T,N), d_logits (C,M))."""
    features = np.asarray(features)
    m, _, n = stack.shape
    up = np.asarray(upstream).reshape(logits.shape[0], -1)  # (C, N*D)

    att = soft_attention(logits)
    d_logits = soft_attention_backward(att, up @ pool_single(stack, features).T)
    d_pooled = (att.T @ up).reshape(m, n, -1)  # (M, N, D)
    d_stack = features @ np.swapaxes(d_pooled, 1, 2)  # (M, T, N)
    return d_stack, d_logits


def _relative_state(stack: np.ndarray, logits: np.ndarray, w_ctx: np.ndarray,
                    features: np.ndarray):
    """Per-frame context scores (T, C) with the classifier's context weights
    (C, N*D) folded into the kernels, plus the cache _relative_grads needs.

    The per-frame context is linear in the features, and the classifier only
    reads it through w_ctx, so attention, filters and weights collapse into
    one (L, D) kernel per class, K_c[l] = sum_{m,n} att[c,m] F_m[l,n] w_c[n];
    the scores are a sum over the L taps of one (T, D) @ (D, C) matmul each.
    Tap l reads the zero-padded features shifted by l frames, a strided view
    of one (T+L-1, D) buffer, so no (T, L*D) window matrix is built.
    """
    features = np.asarray(features)
    m, L, n = stack.shape  # the filters are materialized at the kernel length
    check_kernel_length(L)
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
    padded = np.zeros((T + L - 1, D), dtype=features.dtype)
    padded[(L - 1) // 2 : (L - 1) // 2 + T] = features
    row, col = padded.strides
    # shifted[l, t] = padded[t + l], read-only: every tap aliases the buffer
    shifted = np.lib.stride_tricks.as_strided(padded, (L, T, D), (row, row, col),
                                              writeable=False)
    scores = (shifted @ np.ascontiguousarray(kernels.transpose(1, 2, 0))).sum(axis=0)
    cache = {"shifted": shifted, "stack": stack, "att": att, "mixed": mixed,
             "weights": weights}
    return scores, cache


def _relative_grads(cache: dict, d_scores: np.ndarray):
    """(d_filter_stack, d_logits, d_w_ctx) from a _relative_state cache."""
    stack, att = cache["stack"], cache["att"]
    mixed, weights = cache["mixed"], cache["weights"]
    m, L, n = stack.shape
    c = att.shape[0]
    d_kernels = np.ascontiguousarray(d_scores.T) @ cache["shifted"]  # (L, C, D)
    d_kernels = d_kernels.transpose(1, 0, 2)  # (C, L, D)
    d_w_ctx = (mixed.transpose(0, 2, 1) @ d_kernels).reshape(c, -1)
    d_mixed = (d_kernels @ weights.transpose(0, 2, 1)).reshape(c, L * n)
    d_att = d_mixed @ stack.reshape(m, L * n).T  # (C, M)
    d_logits = soft_attention_backward(att, d_att)
    d_stack = (att.T @ d_mixed).reshape(m, L, n)
    return d_stack, d_logits, d_w_ctx


def pool_relative(stack: np.ndarray, logits: np.ndarray, w_ctx: np.ndarray,
                  features: np.ndarray) -> np.ndarray:
    """Per-frame context scores (T, C): the classifier's context term of the
    relative variant, from a (M, L, N) stack materialized at an odd kernel
    length L, centered at each frame (frames outside [0, T-1] count as zeros),
    and attention mixing as in pool_attended."""
    scores, _ = _relative_state(stack, logits, w_ctx, features)
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
