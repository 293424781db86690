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
                     context is only read through the classifier, so the
                     result is a (T, C) score: the features are projected
                     onto the classifier's C*N context-weight rows, and each
                     of those signals is correlated with its own mixed filter
                     column, as blocked banded matmuls (no window matrix).
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


# output frames per block of the relative correlation (see _correlate); of
# 8 to 48, 16 was about the fastest at both T=200 and T=3000 (L=101, C*N=24,
# float32, one BLAS thread on 2 vCPUs)
_BLOCK = 16


def _correlate(signals: np.ndarray, kernels: np.ndarray):
    """Centered zero-padded correlation of (..., T) signals with (..., L)
    kernels (broadcast), out[t] = sum_l kernel[l] * signal[t - (L-1)/2 + l].

    Each block of B output frames is one row of a (nb, B+L-1) @ (B+L-1, B)
    matmul, nb = ceil(T / B): its B+L-1 input frames (zeros outside
    [0, T-1]) by a banded matrix whose column b holds the kernel from row b
    on. Returns (out (..., T), the contiguous (..., nb, B+L-1) frame blocks).
    """
    T, length = signals.shape[-1], kernels.shape[-1]
    nb, half, width = -(-T // _BLOCK), (length - 1) // 2, _BLOCK + length - 1
    padded = np.zeros(signals.shape[:-1] + (nb * _BLOCK + length - 1,), signals.dtype)
    padded[..., half : half + T] = signals
    # frames[..., j, i] = padded[..., j*B + i]; np.ndarray checks that a view
    # given a buffer stays inside it
    step = padded.itemsize
    frames = np.ndarray(signals.shape[:-1] + (nb, width), padded.dtype, padded,
                        strides=padded.strides[:-1] + (_BLOCK * step, step)).copy()
    band = np.zeros(kernels.shape[:-1] + (width, _BLOCK), kernels.dtype)
    step = band.itemsize  # band[..., b + l, b] = kernel[..., l]
    np.ndarray(kernels.shape[:-1] + (_BLOCK, length), band.dtype, band,
               strides=band.strides[:-2] + ((_BLOCK + 1) * step, _BLOCK * step)
               )[...] = kernels[..., None, :]
    out = frames @ band  # (..., nb, B)
    return out.reshape(out.shape[:-2] + (-1,))[..., :T], frames


def _relative_state(stack: np.ndarray, logits: np.ndarray, w_ctx: np.ndarray,
                    features: np.ndarray):
    """Per-frame context scores (T, C) with the classifier's context weights
    (C, N*D) folded in, plus the cache _relative_grads needs.

    The per-frame context is linear in the features, and the classifier only
    reads it through w_ctx, so class c's score is sum_n of the correlation of
    the signal w_c[n] . features[t] with the mixed filter column
    sum_m att[c,m] F_m[:, n]. The C*N signals come from one (C*N, D) @ (D, T)
    matmul, and each is correlated with its own L-tap kernel by _correlate:
    C*N multiply-adds per frame and tap, where correlating the features with
    one (L, D) kernel per class would take C*D.
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
    signals = (w_ctx.reshape(c * n, D) @ features.T).reshape(c, n, T)
    out, frames = _correlate(signals, np.swapaxes(mixed, 1, 2))  # (C, N, T)
    scores = np.ascontiguousarray(out.sum(axis=1).T)
    cache = {"features": features, "frames": frames, "stack": stack, "att": att,
             "mixed": mixed}
    return scores, cache


def _relative_grads(cache: dict, d_scores: np.ndarray):
    """(d_filter_stack, d_logits, d_w_ctx) from a _relative_state cache."""
    stack, att, mixed = cache["stack"], cache["att"], cache["mixed"]
    features, frames = cache["features"], cache["frames"]
    m, L, n = stack.shape
    c = att.shape[0]
    # the adjoint of a centered correlation is the one with reversed kernels
    d_signals, d_frames = _correlate(d_scores.T[:, None],
                                     np.swapaxes(mixed[:, ::-1], 1, 2))  # (C, N, T)
    d_w_ctx = (d_signals.reshape(c * n, -1) @ features).reshape(c, -1)
    # d_kernel[l] = sum_t d_scores[t] * frame[t + l], summed over blocks by
    # one (B, nb) @ (nb, B+L-1) matmul per channel (d_frames holds the
    # zero-padded (nb, B) blocks of d_scores from column (L-1)/2 on), then
    # over b of element [b, b + l]: written with rows B+L-1 long and read
    # with rows B+L long, that element sits at [b, l], and the last B
    # elements of prod, never written, are never read either
    lead, width, half = frames.shape[:-2], _BLOCK + L - 1, (L - 1) // 2
    prod = np.empty(lead + (_BLOCK * (width + 1),), np.result_type(d_frames, frames))
    np.matmul(np.swapaxes(d_frames[..., half : half + _BLOCK], -1, -2), frames,
              out=prod[..., : _BLOCK * width].reshape(lead + (_BLOCK, width)))
    diagonals = prod.reshape(lead + (_BLOCK, width + 1))[..., :L]
    d_kernels = np.ones(_BLOCK, prod.dtype) @ diagonals  # (C, N, L)
    d_mixed = np.swapaxes(d_kernels, 1, 2).reshape(c, L * n)
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
