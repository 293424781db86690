"""Temporal structure filters: banks of normalized Cauchy distributions over frames.

A filter is a T x N matrix whose columns are discrete Cauchy densities,
each with a learnable center and width held in unconstrained form:

    center_hat = (T - 1) * (tanh(center) + 1) / 2          in [0, T-1]
    scale_hat  = exp(1 - 2 * |tanh(width)|)                in (1/e, e]
    g[t]       = 1 / (pi * scale_hat * (1 + ((t - center_hat) / scale_hat)^2))
    values[t]  = g[t] / sum_s g[s]

so every column is strictly positive and sums to one regardless of the raw
parameter values, and center positions rescale proportionally with T.
Frames are 0-based, t in {0, ..., T-1}.

Both functions take parameters with any leading shape: one filter's (N,),
or a stack of M filters' (M, N). Their arithmetic runs on (..., N, T)
arrays, frames innermost, so every elementwise pass and every normalizing
sum walks contiguous memory; the public shapes stay frames-major:
`materialize_stack` returns C-contiguous (..., T, N) values and
`stack_backward` takes a (..., T, N) upstream. They are pure and
dtype-preserving (feed float64/longdouble arrays to get that precision
back), so they are safe to call concurrently. `stack_backward` supplies the
exact parameter gradients, including the dependence of the per-column
normalizer on both parameters; at width = 0, where |tanh| has a kink, the
subgradient 0 is used.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["materialize_stack", "stack_backward"]


def _check_params(centers, widths):
    if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(widths))):
        raise ValueError("filter parameters must be finite")


def _transform(centers, widths, T):
    # raw -> frame-unit centers and bounded scales
    one = centers.dtype.type(1)
    frame_centers = (T - 1) * (np.tanh(centers) + one) / 2
    scales = np.exp(one - 2 * np.abs(np.tanh(widths)))
    return frame_centers, scales


def _density(frame_centers, scales, T):
    # unnormalized Cauchy rows g and offsets u, shapes (..., N, T)
    t = np.arange(T, dtype=frame_centers.dtype)
    u = (t - frame_centers[..., None]) / scales[..., None]
    g = 1.0 / (math.pi * scales[..., None] * (1 + u * u))
    return g, u


def materialize_stack(centers: np.ndarray, widths: np.ndarray, T: int):
    """Evaluate filters with leading batch shape; returns values (..., T, N)
    plus frame_centers, scales, norms each (..., N)."""
    centers = np.asarray(centers)
    widths = np.asarray(widths)
    if T < 1:
        raise ValueError("sequence length T must be >= 1")
    _check_params(centers, widths)
    frame_centers, scales = _transform(centers, widths, T)
    g, _ = _density(frame_centers, scales, T)
    norms = g.sum(axis=-1)
    values = np.ascontiguousarray(np.swapaxes(g / norms[..., None], -1, -2))
    return values, frame_centers, scales, norms


def stack_backward(centers: np.ndarray, widths: np.ndarray, T: int, upstream: np.ndarray):
    """Gradients of sum(upstream * values) wrt raw centers/widths.

    `upstream` has shape (..., T, N) matching materialize_stack output;
    returns (dcenters, dwidths) with the parameter shapes.
    """
    centers = np.asarray(centers)
    widths = np.asarray(widths)
    upstream = np.asarray(upstream, dtype=centers.dtype)
    if T < 1:
        raise ValueError("sequence length T must be >= 1")
    _check_params(centers, widths)
    if upstream.shape != centers.shape[:-1] + (T, centers.shape[-1]):
        raise ValueError(
            f"upstream shape {upstream.shape} does not match parameters "
            f"{centers.shape} at T={T}"
        )

    frame_centers, scales = _transform(centers, widths, T)
    g, u = _density(frame_centers, scales, T)
    up = np.ascontiguousarray(np.swapaxes(upstream, -1, -2))
    norms = g.sum(axis=-1, keepdims=True)
    values = g / norms

    # d(sum U*F)/dg_t: normalization couples every frame of a column
    dLdg = (up - (up * values).sum(axis=-1, keepdims=True)) / norms

    denom = scales[..., None] * (1 + u * u)
    dg_dcenter_hat = g * 2 * u / denom
    dg_dscale_hat = g * (u * u - 1) / denom

    dcenter_hat = (dLdg * dg_dcenter_hat).sum(axis=-1)
    dscale_hat = (dLdg * dg_dscale_hat).sum(axis=-1)

    one = centers.dtype.type(1)
    th_c = np.tanh(centers)
    th_w = np.tanh(widths)
    dcenters = dcenter_hat * (T - 1) / 2 * (one - th_c * th_c)
    # sign() yields 0 at width = 0: the chosen subgradient of |tanh|
    dwidths = dscale_hat * scales * (-2) * np.sign(th_w) * (one - th_w * th_w)
    return dcenters, dwidths
