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

The functions take parameters with any leading shape: one filter's (N,),
or a stack of M filters' (M, N). Their arithmetic runs on (..., N, T)
arrays, frames innermost, so every elementwise pass and every normalizing
sum walks contiguous memory; the public shapes stay frames-major:
`materialize_stack` returns C-contiguous (..., T, N) values and
`stack_backward` takes a (..., T, N) upstream, whose length is T. They are
pure and dtype-preserving (feed float64/longdouble arrays to get that
precision back), so they are safe to call concurrently. `stack_backward`
supplies the exact parameter gradients, including the dependence of the
per-column normalizer on both parameters; at width = 0, where |tanh| has a
kink, the subgradient 0 is used.
"""

from __future__ import annotations

import numpy as np

__all__ = ["frame_positions", "materialize_stack", "stack_backward"]


def frame_positions(centers, widths, T: int):
    """Frame-unit centers center_hat and scales scale_hat of the filters at
    sequence length T, each with the parameters' shape."""
    centers = np.asarray(centers)
    widths = np.asarray(widths)
    if T < 1:
        raise ValueError("sequence length T must be >= 1")
    if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(widths))):
        raise ValueError("filter parameters must be finite")
    one = centers.dtype.type(1)
    frame_centers = (T - 1) * (np.tanh(centers) + one) / 2
    scales = np.exp(one - 2 * np.abs(np.tanh(widths)))
    return frame_centers, scales


def _columns(frame_centers, scales, T: int):
    # normalized columns, h and offsets u, each (..., N, T)
    t = np.arange(T, dtype=frame_centers.dtype)
    u = (t - frame_centers[..., None]) / scales[..., None]
    h = 1 / (1 + u * u)
    return h / h.sum(axis=-1, keepdims=True), h, u


def materialize_stack(centers: np.ndarray, widths: np.ndarray, T: int) -> np.ndarray:
    """Evaluate filters with leading batch shape at length T: values (..., T, N)."""
    values, _, _ = _columns(*frame_positions(centers, widths, T), T)
    return np.ascontiguousarray(np.swapaxes(values, -1, -2))


def stack_backward(centers: np.ndarray, widths: np.ndarray, upstream: np.ndarray):
    """Gradients of sum(upstream * values) wrt raw centers/widths.

    `upstream` has shape (..., T, N) matching materialize_stack output;
    returns (dcenters, dwidths) with the parameter shapes.
    """
    centers = np.asarray(centers)
    widths = np.asarray(widths)
    upstream = np.asarray(upstream, dtype=centers.dtype)
    if (upstream.ndim != centers.ndim + 1
            or upstream.shape[:-2] + upstream.shape[-1:] != centers.shape):
        raise ValueError(f"upstream shape {upstream.shape} is not (..., T, N) for "
                         f"parameters {centers.shape}")
    T = upstream.shape[-2]
    frame_centers, scales = frame_positions(centers, widths, T)
    values, h, u = _columns(frame_centers, scales, T)
    up = np.ascontiguousarray(np.swapaxes(upstream, -1, -2))

    # dL/dh_t = (up_t - sum_s up_s values_s) / sum_s h_s, and since
    # dh/du = -2 u h^2 with du/dcenter_hat = -1/scale_hat and
    # du/dscale_hat = -u/scale_hat:
    #   dL/dcenter_hat = (2/scale_hat) sum_t dL/dh_t h_t^2 u_t
    #   dL/dscale_hat  = (2/scale_hat) sum_t dL/dh_t h_t^2 u_t^2
    # dL/dh_t h_t^2 = (up_t - inner) values_t h_t
    a = (up - (up * values).sum(axis=-1, keepdims=True)) * values * h * u

    one = centers.dtype.type(1)
    th_c = np.tanh(centers)
    th_w = np.tanh(widths)
    dcenters = a.sum(axis=-1) / scales * (T - 1) * (one - th_c * th_c)
    # dscale_hat/dwidth = -2 scale_hat sign(tanh) (1 - tanh^2), whose scale_hat
    # cancels dL/dscale_hat's 1/scale_hat; sign() yields 0 at width = 0, the
    # chosen subgradient of |tanh|
    dwidths = (a * u).sum(axis=-1) * (-4) * np.sign(th_w) * (one - th_w * th_w)
    return dcenters, dwidths
