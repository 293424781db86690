"""Temporal structure filters: banks of normalized Cauchy distributions over frames.

A filter is a T x N matrix whose columns are discrete Cauchy densities,
each with a learnable center and width held in unconstrained form:

    center_hat = (T - 1) * (tanh(center) + 1) / 2          in [0, T-1]
    scale_hat  = exp(1 - 2 * |tanh(width)|)                in (1/e, e]
    u[t]       = (t - center_hat) / scale_hat
    h[t]       = 1 / (1 + u[t]^2)
    values[t]  = h[t] / sum_s h[s]

The density's 1 / (pi * scale_hat) factor is constant over a column, so the
normalization cancels it and h is all that is computed. Every column is
strictly positive and sums to one regardless of the raw parameter values,
and center positions rescale proportionally with T. Frames are 0-based,
t in {0, ..., T-1}.

`materialize_stack` takes parameters with any leading shape: one filter's
(N,), or a stack of M filters' (M, N). Its arithmetic runs on (..., N, T)
arrays, frames innermost, so every elementwise pass and every normalizing
sum walks contiguous memory. It returns C-contiguous (..., T, N) values and
a cache: center_hat and scale_hat, the tanh of both parameters, and the
(..., N, T) values, h and u. `stack_backward(cache, upstream)` takes a
(..., T, N) upstream and reads the cache, recomputing none of it; it gives
the exact parameter gradients, including the dependence of the per-column
normalizer on both parameters (at width = 0, where |tanh| has a kink, the
subgradient 0 is used). Both are pure and dtype-preserving (feed
float64/longdouble arrays to get that precision back).
"""

from __future__ import annotations

import numpy as np

__all__ = ["materialize_stack", "stack_backward"]


def _frame_positions(centers, widths, T: int):
    """tanh of the raw centers and widths, then center_hat and scale_hat."""
    th_c, th_w, one = np.tanh(centers), np.tanh(widths), centers.dtype.type(1)
    return th_c, th_w, (T - 1) * (th_c + one) / 2, np.exp(one - 2 * np.abs(th_w))


def materialize_stack(centers: np.ndarray, widths: np.ndarray, T: int):
    """Evaluate filters with leading batch shape at length T: returns
    (values (..., T, N), the cache stack_backward reads)."""
    centers = np.asarray(centers)
    widths = np.asarray(widths)
    if T < 1:
        raise ValueError("sequence length T must be >= 1")
    if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(widths))):
        raise ValueError("filter parameters must be finite")
    th_c, th_w, frame_centers, scales = _frame_positions(centers, widths, T)
    t = np.arange(T, dtype=frame_centers.dtype)
    u = (t - frame_centers[..., None]) / scales[..., None]
    h = 1 / (1 + u * u)
    values = h / h.sum(axis=-1, keepdims=True)
    cache = {"frame_centers": frame_centers, "scales": scales, "th_c": th_c,
             "th_w": th_w, "values": values, "h": h, "u": u}
    return np.ascontiguousarray(np.swapaxes(values, -1, -2)), cache


def stack_backward(cache: dict, upstream: np.ndarray):
    """Gradients (dcenters, dwidths), in the parameters' shapes, of
    sum(upstream * values) wrt the raw centers and widths of a
    materialize_stack cache; upstream has the values' (..., T, N) shape."""
    values, h, u = cache["values"], cache["h"], cache["u"]
    th_c, th_w = cache["th_c"], cache["th_w"]
    upstream = np.asarray(upstream, dtype=th_c.dtype)
    *lead, N, T = values.shape
    if upstream.shape != (*lead, T, N):
        raise ValueError(f"upstream shape {upstream.shape} is not the stack's "
                         f"{(*lead, T, N)}")
    up = np.ascontiguousarray(np.swapaxes(upstream, -1, -2))

    # dL/dh_t = (up_t - sum_s up_s values_s) / sum_s h_s, and since
    # dh/du = -2 u h^2 with du/dcenter_hat = -1/scale_hat and
    # du/dscale_hat = -u/scale_hat:
    #   dL/dcenter_hat = (2/scale_hat) sum_t dL/dh_t h_t^2 u_t
    #   dL/dscale_hat  = (2/scale_hat) sum_t dL/dh_t h_t^2 u_t^2
    # dL/dh_t h_t^2 = (up_t - inner) values_t h_t
    a = (up - (up * values).sum(axis=-1, keepdims=True)) * values * h * u

    one = th_c.dtype.type(1)
    dcenters = a.sum(axis=-1) / cache["scales"] * (T - 1) * (one - th_c * th_c)
    # dscale_hat/dwidth = -2 scale_hat sign(tanh) (1 - tanh^2), whose scale_hat
    # cancels dL/dscale_hat's 1/scale_hat; sign() yields 0 at width = 0, the
    # chosen subgradient of |tanh|
    dwidths = (a * u).sum(axis=-1) * (-4) * np.sign(th_w) * (one - th_w * th_w)
    return dcenters, dwidths
