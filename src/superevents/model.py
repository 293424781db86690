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

A checkpoint (magic ``TSFM``, read and written by ``data``'s container
code) holds every ModelState field; loading checks every header field, the
variant's tensors at its dims' shapes, and that each tensor is finite.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import detector, pooling
from .data import check_fields, parse_json, read_container, write_container
from .errors import FormatError, ModelDatasetMismatchError
from .filters import materialize_stack, stack_backward
from .pooling import baseline_context_blocks, check_kernel_length

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
]

VARIANTS = ("baseline", "max", "mean", "pyramid3", "single", "attended", "relative")
FILTER_VARIANTS = ("single", "attended", "relative")

CHECKPOINT_MAGIC = b"TSFM"


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
        check_kernel_length(kernel_length)

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
        stack = materialize_stack(p["filter_centers"], p["filter_widths"],
                                  state.kernel_length)
        scores, cache = pooling._relative_state(stack, p["attention_logits"],
                                                w[:, d:], features)
        return logits + scores, cache
    if variant in baseline_context_blocks:
        ctx = pooling.pool_baseline(variant, features)
    else:
        stack = materialize_stack(p["filter_centers"], p["filter_widths"],
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
        if variant == "single":
            c, n = p["filter_centers"].shape
            d_stack = features @ np.swapaxes(d_ctx.reshape(c, n, D), 1, 2)
        else:
            stack = materialize_stack(p["filter_centers"], p["filter_widths"], T)
            d_stack, grads["attention_logits"] = pooling.pool_attended_backward(
                stack, p["attention_logits"], features, d_ctx
            )

    grads["filter_centers"], grads["filter_widths"] = stack_backward(
        p["filter_centers"], p["filter_widths"], d_stack)
    return loss, grads


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

_GROUPS = ("params", "adam_m", "adam_v")  # the ModelState fields stored as tensors
# the header: every other ModelState field, then the tensor directory
_HEADER_FIELDS = tuple(f.name for f in fields(ModelState) if f.name not in _GROUPS)
_TENSOR_FIELDS = ("name", "dtype", "shape")


def save_checkpoint(state: ModelState, path) -> None:
    entries = [(f"{group}/{name}", arr) for group in _GROUPS
               for name, arr in sorted(getattr(state, group).items())]
    header = {key: getattr(state, key) for key in _HEADER_FIELDS}
    header["tensors"] = [{"name": name, "dtype": arr.dtype.newbyteorder("<").str,
                          "shape": list(arr.shape)} for name, arr in entries]
    raw = json.dumps(header).encode("utf-8")
    write_container(path, CHECKPOINT_MAGIC, struct.pack("<I", len(raw)) + raw,
                    [arr for _, arr in entries])


def _tensor_layout(header: dict, path) -> list:
    """(name, dtype, shape) of each tensor a checked header lists, once they
    are shown to be the tensors its variant and dims give."""
    variant = header["variant"]
    if variant not in VARIANTS:
        raise FormatError(f"{path}: unknown variant {variant!r}")
    if variant == "relative":
        try:
            check_kernel_length(header["kernel_length"])
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    if len(header["class_names"]) != header["num_classes"]:
        raise FormatError(f"{path}: class_names lists {len(header['class_names'])} "
                          f"names for num_classes {header['num_classes']}")
    params = _param_shapes(variant, *(header[key] for key in (
        "feature_dim", "num_classes", "num_distributions", "num_filters")))
    shapes = {f"{group}/{name}": shape for group in _GROUPS
              for name, shape in params.items()}
    entries = [check_fields(entry, _TENSOR_FIELDS, path, "tensor entry", exact=True)
               for entry in header["tensors"]]
    names = [entry["name"] for entry in entries]
    # Adam's moments are absent as a whole until the first step
    if len(set(names)) != len(names) or set(names) not in (
            {f"params/{name}" for name in params}, set(shapes)):
        raise FormatError(f"{path}: tensors {names} are not the params (and adam_m, "
                          f"adam_v) of a {variant} model: {', '.join(params)}")
    specs = []
    for entry in entries:
        name, shape = entry["name"], shapes[entry["name"]]
        if tuple(entry["shape"]) != shape:
            raise FormatError(f"{path}: tensor {name} has shape {entry['shape']}, but "
                              f"the header's dims give {list(shape)}")
        try:
            dtype = np.dtype(entry["dtype"])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"{path}: tensor {name}: {exc}") from exc
        if dtype.kind != "f":
            raise FormatError(f"{path}: tensor {name} dtype {dtype} is not a float type")
        specs.append((name, dtype, shape))
    return specs


def load_checkpoint(path) -> ModelState:
    def layout(take):
        (length,) = struct.unpack("<I", take(4))
        header = check_fields(parse_json(take(length), path, "checkpoint header"),
                              _HEADER_FIELDS + ("tensors",), path, "checkpoint header")
        return header, _tensor_layout(header, path)

    header, arrays = read_container(path, CHECKPOINT_MAGIC, layout)
    groups = {group: {} for group in _GROUPS}
    for entry, arr in zip(header["tensors"], arrays):
        if not np.isfinite(arr).all():
            raise FormatError(f"{path}: tensor {entry['name']} is not finite")
        group, _, name = entry["name"].partition("/")
        groups[group][name] = arr
    return ModelState(**{key: header[key] for key in _HEADER_FIELDS}, **groups)
