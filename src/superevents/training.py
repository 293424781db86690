"""End-to-end trainer: Adam with step-decayed learning rate, inverted input
dropout, mini-batches over variable-length videos.

Defaults mirror the reference recipe: lr 0.1 decayed by 10x every 1000
iterations, batch 32, 5000 iterations, dropout 0.5 on the input features,
N = 3 distributions per filter and M = 5 shared filters, Adam with
beta1 = 0.9, beta2 = 0.999, eps = 1e-8.

Videos are processed individually (no padding); filters are re-materialized
per video length. Gradients are accumulated in ascending video-index order
and the optimizer step is single-threaded, so a run is a pure function of
(config, seed, dataset): identical inputs give bitwise-identical parameters,
and a run resumed from a checkpoint matches an uninterrupted one.

``gradcheck`` compares every analytic parameter gradient against central
finite differences on a small random instance, in the widest float
precision, with dropout forced off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .data import Dataset
from .detector import bce_loss
from .errors import NumericError
from .model import (ModelState, check_compatible, forward_logits, init_model,
                    loss_and_grads)
from .pooling import check_kernel_length

__all__ = [
    "TrainConfig",
    "ADAM_BETA1",
    "ADAM_BETA2",
    "ADAM_EPS",
    "adam_step",
    "effective_lr",
    "train",
    "GradcheckReport",
    "gradcheck",
    "GRADCHECK_TOLERANCE",
]

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

GRADCHECK_TOLERANCE = 1e-4
_GRADCHECK_STEP = 1e-4  # central finite-difference step


@dataclass
class TrainConfig:
    lr: float = 0.1
    lr_decay_every: int = 1000
    lr_decay_factor: float = 0.1
    iterations: int = 5000
    batch_size: int = 32
    dropout: float = 0.5
    num_filters: int = 5  # M, shared filters (attended/relative)
    num_distributions: int = 3  # N, Cauchy distributions per filter
    kernel_length: int = 15  # L, relative variant only; must be odd
    seed: int = 0
    variant: str = "attended"

    def validate(self) -> "TrainConfig":
        for name in ("lr", "lr_decay_factor"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if self.lr_decay_every < 1:
            raise ValueError("lr_decay_every must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.num_filters < 1 or self.num_distributions < 1:
            raise ValueError("filter counts must be >= 1")
        if self.variant == "relative":
            check_kernel_length(self.kernel_length)
        return self


def effective_lr(config: TrainConfig, iteration: int) -> float:
    return config.lr * config.lr_decay_factor ** (iteration // config.lr_decay_every)


def adam_step(state: ModelState, grads: dict[str, np.ndarray], lr: float) -> None:
    """One textbook Adam update, in place, in the parameters' dtype."""
    if not state.adam_m:
        state.adam_m = {k: np.zeros_like(v) for k, v in state.params.items()}
        state.adam_v = {k: np.zeros_like(v) for k, v in state.params.items()}
    state.adam_t += 1
    t = state.adam_t
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in state.params.items():
        g = grads[name].astype(p.dtype, copy=False)
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _restore_rng(state: ModelState) -> np.random.Generator:
    if state.rng_state is None:
        raise ValueError("the model to resume holds no generator state")
    bg = np.random.PCG64()
    bg.state = state.rng_state
    return np.random.Generator(bg)


def _dropout_mask(rng: np.random.Generator, shape, p: float) -> np.ndarray:
    keep = rng.random(shape, dtype=np.float32) >= np.float32(p)
    return keep.astype(np.float32) / np.float32(1.0 - p)


def train(config: TrainConfig, dataset: Dataset, state: ModelState | None = None,
          on_iteration=None):
    """Run (or resume) training; returns (state, per-iteration losses).

    ``on_iteration(iteration, lr, loss)`` is called after each optimizer step.
    """
    config.validate()
    if not dataset.videos:
        raise ValueError("dataset is empty")

    if state is None:
        rng = np.random.default_rng(config.seed)
        state = init_model(
            config.variant,
            dataset.feature_dim,
            dataset.num_classes,
            dataset.class_names,
            config.num_distributions,
            config.num_filters,
            config.kernel_length,
            rng,
        )
        state.rng_state = rng.bit_generator.state
    else:
        if state.variant != config.variant:
            raise ValueError(
                f"checkpoint was trained as {state.variant!r}, requested "
                f"{config.variant!r}"
            )
        check_compatible(state, dataset)
    state.config = asdict(config)  # the echo of the run that wrote the state

    rng = _restore_rng(state)
    num_videos = len(dataset.videos)
    losses = []
    while state.iteration < config.iterations:
        it = state.iteration
        lr = effective_lr(config, it)

        replace = config.batch_size > num_videos
        batch = rng.choice(num_videos, size=config.batch_size, replace=replace)
        batch = np.sort(batch)  # fixed accumulation order

        grads_sum: dict[str, np.ndarray] = {}
        loss_sum = 0.0
        for idx in batch:
            video = dataset.videos[int(idx)]
            features = video.features
            if config.dropout > 0:
                features = features * _dropout_mask(rng, features.shape, config.dropout)
            loss, grads = loss_and_grads(state, features, video.labels)
            loss_sum += loss
            for k, g in grads.items():
                if k in grads_sum:
                    grads_sum[k] += g
                else:
                    grads_sum[k] = g.astype(np.float64, copy=True)

        scale = 1.0 / config.batch_size
        mean_loss = loss_sum * scale
        if not np.isfinite(mean_loss):
            raise NumericError(
                f"non-finite loss {mean_loss} at iteration {it} "
                f"(variant={config.variant}, lr={lr})"
            )
        adam_step(state, {k: g * scale for k, g in grads_sum.items()}, lr)
        state.iteration = it + 1
        state.rng_state = rng.bit_generator.state
        losses.append(mean_loss)
        if on_iteration is not None:
            on_iteration(state.iteration, lr, mean_loss)
    return state, losses


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

@dataclass
class GradcheckReport:
    variant: str
    instance_seed: int
    dims: dict
    max_rel_err: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v < GRADCHECK_TOLERANCE for v in self.max_rel_err.values())

    def format(self) -> str:
        lines = [
            f"gradcheck variant={self.variant} seed={self.instance_seed} "
            f"dims={self.dims} tolerance={GRADCHECK_TOLERANCE:g}"
        ]
        for name in sorted(self.max_rel_err):
            err = self.max_rel_err[name]
            flag = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
            lines.append(f"  {name:<20} max_rel_err={err:.3e}  {flag}")
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def gradcheck(config: TrainConfig, instance_seed: int) -> GradcheckReport:
    """Analytic vs central-finite-difference gradients on a small random
    instance, in the widest float precision. Dropout is never applied here."""
    rng = np.random.default_rng(instance_seed)
    T = int(rng.integers(5, 21))
    D = int(rng.integers(2, 9))
    C = int(rng.integers(1, 5))
    M = min(int(rng.integers(1, 4)), config.num_filters)
    N = min(int(rng.integers(1, 3)), config.num_distributions)
    L = min(int(rng.choice([3, 5, 7])), T - (T + 1) % 2)

    wide = np.longdouble
    state = init_model(config.variant, D, C, [f"c{i}" for i in range(C)],
                       N, M, L, rng, dtype=wide)
    # spread parameters away from the zero init so the instance is generic
    for k in state.params:
        state.params[k] = state.params[k] + rng.normal(0, 0.3, state.params[k].shape
                                                       ).astype(wide)
    features = rng.normal(0, 1, (T, D)).astype(wide)
    labels = rng.integers(0, 2, (T, C)).astype(np.uint8)

    _, analytic = loss_and_grads(state, features, labels)

    def loss_at():
        return bce_loss(forward_logits(state, features), labels)

    report = GradcheckReport(
        variant=config.variant,
        instance_seed=instance_seed,
        dims={"T": T, "D": D, "C": C, "M": M, "N": N, "L": L},
    )
    h = wide(_GRADCHECK_STEP)
    for name, arr in state.params.items():
        flat = arr.reshape(-1)
        worst = 0.0
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_at()
            flat[i] = orig - h
            lo = loss_at()
            flat[i] = orig
            fd = (hi - lo) / (2 * h)
            a = float(analytic[name].reshape(-1)[i])
            rel = abs(a - float(fd)) / max(abs(a), abs(float(fd)), 1e-8)
            worst = max(worst, rel)
        report.max_rel_err[name] = worst
    return report
