"""Model state, per-variant forward/backward composition, checkpoint I/O.

A model is a flat dict of named parameter tensors whose set depends on the
detection variant:

* ``baseline``                  — classifier_weight (C, D), classifier_bias
* ``max`` / ``mean``            — classifier over [v_t, pooled] (C, 2D)
* ``pyramid3``                  — classifier over [v_t, pyramid] (C, 8D)
* ``single``                    — one filter per class: filter_centers /
                                  filter_widths (C, N), classifier (C, D+N*D)
* ``attended``                  — M shared filters (M, N), attention_logits
                                  (C, M), classifier (C, D+N*D)
* ``relative``                  — as attended, filters materialized at the
                                  fixed kernel length L instead of T

Each variant's forward is built in one place, ``_forward``: the frame-only
logits plus the variant's context score. ``forward_logits`` (eval and
gradcheck's finite differences) returns its logits; ``loss_and_grads``
(training) runs it, then returns the mean BCE over (frame, class) cells and
exact hand-derived gradients for every parameter, obtained by chaining the
detector, pooling and filter backward passes. All functions are pure in the
parameters and dtype-preserving; checkpoints round-trip bit for bit.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import detector, pooling
from .errors import (
    BadMagicError,
    FormatError,
    ModelDatasetMismatchError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from .filters import materialize_stack, stack_backward
from .pooling import RelativeConfig, baseline_context_blocks

__all__ = [
    "VARIANTS",
    "FILTER_VARIANTS",
    "ModelState",
    "init_model",
    "check_compatible",
    "context_dim",
    "forward_logits",
    "predict_probabilities",
    "loss_and_grads",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
]

VARIANTS = ("baseline", "max", "mean", "pyramid3", "single", "attended", "relative")
FILTER_VARIANTS = ("single", "attended", "relative")

CHECKPOINT_MAGIC = b"TSFM"
CHECKPOINT_VERSION = 1

_HEADER_KEYS = ("variant", "feature_dim", "num_classes", "num_distributions",
                "num_filters", "kernel_length", "class_names", "adam_t", "iteration",
                "rng_state", "config", "tensors")
_TENSOR_KEYS = {"name", "dtype", "shape"}


@dataclass
class ModelState:
    """Everything needed to continue training exactly where it stopped."""

    variant: str
    feature_dim: int
    num_classes: int
    num_distributions: int
    num_filters: int
    kernel_length: int
    class_names: list[str]
    params: dict[str, np.ndarray]
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    adam_t: int = 0
    iteration: int = 0
    rng_state: dict | None = None
    config: dict = field(default_factory=dict)


def check_compatible(state: ModelState, dataset) -> None:
    """Raise ModelDatasetMismatchError unless the dataset has the model's
    feature dim D, class count C and ordered class names."""
    if (state.feature_dim != dataset.feature_dim
            or state.num_classes != dataset.num_classes):
        raise ModelDatasetMismatchError(
            f"model dims (D={state.feature_dim}, C={state.num_classes}) do not match "
            f"dataset (D={dataset.feature_dim}, C={dataset.num_classes})"
        )
    if list(state.class_names) != list(dataset.class_names):
        raise ModelDatasetMismatchError(
            f"model classes {list(state.class_names)} do not match dataset classes "
            f"{list(dataset.class_names)}"
        )


def context_dim(variant: str, feature_dim: int, num_distributions: int) -> int:
    if variant == "baseline":
        return 0
    if variant in baseline_context_blocks:
        return baseline_context_blocks[variant] * feature_dim
    return num_distributions * feature_dim


def _param_shapes(variant: str, feature_dim: int, num_classes: int,
                  num_distributions: int, num_filters: int) -> dict[str, tuple]:
    """Shape of every parameter tensor, in init_model's order; the filter
    dims are a ModelState's (0 for variants without filters)."""
    shapes = {}
    if variant in FILTER_VARIANTS:
        shapes["filter_centers"] = (num_filters, num_distributions)
        shapes["filter_widths"] = (num_filters, num_distributions)
    if variant in ("attended", "relative"):
        shapes["attention_logits"] = (num_classes, num_filters)
    k = context_dim(variant, feature_dim, num_distributions)
    shapes["classifier_weight"] = (num_classes, feature_dim + k)
    shapes["classifier_bias"] = (num_classes,)
    return shapes


def init_model(variant: str, feature_dim: int, num_classes: int,
               class_names: list[str], num_distributions: int, num_filters: int,
               kernel_length: int, rng: np.random.Generator,
               dtype=np.float32) -> ModelState:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if variant == "relative":
        RelativeConfig(kernel_length)  # validates odd, positive

    n = num_distributions if variant in FILTER_VARIANTS else 0
    m = {"single": num_classes, "attended": num_filters,
         "relative": num_filters}.get(variant, 0)

    params: dict[str, np.ndarray] = {}
    for name, shape in _param_shapes(variant, feature_dim, num_classes, n, m).items():
        if name.startswith("filter_"):
            params[name] = rng.uniform(-0.5, 0.5, shape).astype(dtype)
        elif name == "classifier_weight":
            a = (1.0 / shape[1]) ** 0.5
            params[name] = rng.uniform(-a, a, shape).astype(dtype)
        else:  # attention logits and bias start at zero
            params[name] = np.zeros(shape, dtype=dtype)

    return ModelState(
        variant=variant,
        feature_dim=feature_dim,
        num_classes=num_classes,
        num_distributions=n,
        num_filters=m,
        kernel_length=kernel_length if variant == "relative" else 0,
        class_names=list(class_names),
        params=params,
    )


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _forward(state: ModelState, features: np.ndarray):
    """Logits (T, C) and the cache loss_and_grads' backward reads.

    The classifier is linear, so the logits are the frame-only scores plus
    the variant's context score: one constant per class for the global
    variants (cached: their (C, K) context, or the (K,) one every class
    shares for max/mean/pyramid3), a (T, C) score for relative (cached:
    pooling._relative_state's cache), and nothing for baseline (None).
    """
    p, variant = state.params, state.variant
    features = np.asarray(features)
    d = state.feature_dim
    w = p["classifier_weight"]
    # rejects features whose width is not the model's D
    logits = detector.frame_logits(w[:, :d], p["classifier_bias"], features)
    if variant == "baseline":
        return logits, None
    if variant == "relative":
        stack, _, _, _ = materialize_stack(p["filter_centers"], p["filter_widths"],
                                           state.kernel_length)
        scores, cache = pooling._relative_state(stack, p["attention_logits"],
                                                w[:, d:], features,
                                                RelativeConfig(state.kernel_length))
        return logits + scores, cache
    if variant in baseline_context_blocks:
        ctx = pooling.pool_baseline(variant, features)
    else:
        stack, _, _, _ = materialize_stack(p["filter_centers"], p["filter_widths"],
                                           features.shape[0])
        if variant == "single":
            ctx = pooling.pool_single(stack, features)
        else:
            ctx = pooling.pool_attended(stack, p["attention_logits"], features)
    return logits + (w[:, d:] * ctx).sum(axis=1), ctx


def forward_logits(state: ModelState, features: np.ndarray) -> np.ndarray:
    """Per-frame class scores (T, C) before the sigmoid."""
    return _forward(state, features)[0]


def predict_probabilities(state: ModelState, features: np.ndarray) -> np.ndarray:
    return detector.sigmoid(forward_logits(state, features))


def loss_and_grads(state: ModelState, features: np.ndarray, labels: np.ndarray):
    """Mean BCE and exact gradients for every parameter tensor: _forward,
    then its backward."""
    p = state.params
    variant = state.variant
    features = np.asarray(features)
    T, D = features.shape
    logits, cache = _forward(state, features)
    loss = detector.bce_loss(logits, labels)
    dlogits = detector.bce_backward(logits, labels)

    grads: dict[str, np.ndarray] = {}
    grads["classifier_bias"] = col = dlogits.sum(axis=0)
    d_w_frame = dlogits.T @ features
    if variant == "baseline":
        grads["classifier_weight"] = d_w_frame
        return loss, grads

    if variant == "relative":
        length = state.kernel_length
        d_stack, d_logits_att, d_w_ctx = pooling._relative_grads(cache, dlogits)
        grads["classifier_weight"] = np.concatenate([d_w_frame, d_w_ctx], axis=1)
        grads["attention_logits"] = d_logits_att
    else:
        # the context is constant over frames, so its gradients are per class
        grads["classifier_weight"] = np.concatenate([d_w_frame, col[:, None] * cache],
                                                    axis=1)
        if variant in baseline_context_blocks:
            return loss, grads
        d_ctx = col[:, None] * p["classifier_weight"][:, D:]
        length = T
        stack, _, _, _ = materialize_stack(p["filter_centers"], p["filter_widths"],
                                           length)
        if variant == "single":
            c, _, n = stack.shape
            d_stack = features @ np.swapaxes(d_ctx.reshape(c, n, D), 1, 2)
        else:
            d_stack, grads["attention_logits"] = pooling.pool_attended_backward(
                stack, p["attention_logits"], features, d_ctx
            )

    dc, dw_ = stack_backward(p["filter_centers"], p["filter_widths"], length, d_stack)
    grads["filter_centers"] = dc
    grads["filter_widths"] = dw_
    return loss, grads


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def _tensor_entries(state: ModelState):
    for name in sorted(state.params):
        yield f"params/{name}", state.params[name]
    for name in sorted(state.adam_m):
        yield f"adam_m/{name}", state.adam_m[name]
    for name in sorted(state.adam_v):
        yield f"adam_v/{name}", state.adam_v[name]


def save_checkpoint(state: ModelState, path) -> None:
    tensors = []
    payload = bytearray()
    for name, arr in _tensor_entries(state):
        arr = np.ascontiguousarray(arr)
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        tensors.append(
            {"name": name, "dtype": le.dtype.str, "shape": list(arr.shape)}
        )
        payload += le.tobytes()
    header = json.dumps(
        {
            "variant": state.variant,
            "feature_dim": state.feature_dim,
            "num_classes": state.num_classes,
            "num_distributions": state.num_distributions,
            "num_filters": state.num_filters,
            "kernel_length": state.kernel_length,
            "class_names": state.class_names,
            "adam_t": state.adam_t,
            "iteration": state.iteration,
            "rng_state": state.rng_state,
            "config": state.config,
            "tensors": tensors,
        }
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(header)))
        fh.write(header)
        fh.write(payload)


def _is_tensor_entry(entry) -> bool:
    return (isinstance(entry, dict) and set(entry) == _TENSOR_KEYS
            and isinstance(entry["name"], str) and isinstance(entry["shape"], list)
            and all(isinstance(d, int) and d >= 0 for d in entry["shape"]))


def load_checkpoint(path) -> ModelState:
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise TruncatedPayloadError(f"{path}: shorter than the checkpoint header")
    if raw[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint (magic {raw[:4]!r})")
    version, header_len = struct.unpack("<II", raw[4:12])
    if version != CHECKPOINT_VERSION:
        raise UnsupportedVersionError(f"{path}: unsupported checkpoint version {version}")
    if len(raw) < 12 + header_len:
        raise TruncatedPayloadError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable checkpoint header: {exc}") from exc

    if not isinstance(header, dict):
        raise FormatError(f"{path}: checkpoint header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise FormatError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    tensors = header["tensors"]
    if not (isinstance(tensors, list) and all(map(_is_tensor_entry, tensors))):
        raise FormatError(
            f"{path}: checkpoint tensors must be a list of {{name, dtype, shape}} objects"
        )

    variant = header["variant"]
    if variant not in VARIANTS:
        raise FormatError(f"{path}: unknown variant {variant!r}")
    dim_keys = ("feature_dim", "num_classes", "num_distributions", "num_filters")
    if not all(type(header[key]) is int and header[key] >= 0
               for key in dim_keys + ("kernel_length",)):
        raise FormatError(f"{path}: checkpoint dims must be non-negative integers")
    expected = _param_shapes(variant, *(header[key] for key in dim_keys))

    offset = 12 + header_len
    groups: dict[str, dict[str, np.ndarray]] = {"params": {}, "adam_m": {}, "adam_v": {}}
    for entry in tensors:
        group, _, name = entry["name"].partition("/")
        if group not in groups or not name:
            raise FormatError(
                f"{path}: tensor {entry['name']!r} is not in params, adam_m or adam_v"
            )
        if name not in expected:
            raise FormatError(f"{path}: a {variant} model has no tensor {entry['name']}")
        if tuple(entry["shape"]) != expected[name]:
            raise FormatError(
                f"{path}: tensor {entry['name']} has shape {entry['shape']}, but the "
                f"header's dims give {list(expected[name])}"
            )
        try:
            dt = np.dtype(entry["dtype"])
        except TypeError as exc:
            raise FormatError(f"{path}: tensor {entry['name']}: {exc}") from exc
        count = int(np.prod(entry["shape"], dtype=np.int64)) if entry["shape"] else 1
        nbytes = dt.itemsize * count
        if offset + nbytes > len(raw):
            raise TruncatedPayloadError(f"{path}: truncated tensor {entry['name']}")
        arr = np.frombuffer(raw[offset : offset + nbytes], dtype=dt).reshape(
            entry["shape"]
        )
        offset += nbytes
        groups[group][name] = arr.astype(dt.newbyteorder("="))
    for group, found in groups.items():
        missing = [name for name in expected if name not in found]
        # Adam's moments may be absent as a whole (no step taken yet)
        if missing and (group == "params" or groups["adam_m"] or groups["adam_v"]):
            raise FormatError(f"{path}: checkpoint lacks tensor {group}/{missing[0]}")

    return ModelState(
        variant=variant,
        feature_dim=header["feature_dim"],
        num_classes=header["num_classes"],
        num_distributions=header["num_distributions"],
        num_filters=header["num_filters"],
        kernel_length=header["kernel_length"],
        class_names=header["class_names"],
        params=groups["params"],
        adam_m=groups["adam_m"],
        adam_v=groups["adam_v"],
        adam_t=header["adam_t"],
        iteration=header["iteration"],
        rng_state=header["rng_state"],
        config=header["config"],
    )
