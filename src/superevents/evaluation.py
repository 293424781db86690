"""Frame-level average precision and mean average precision.

Frames are pooled across all test videos per class before ranking
(dataset-level AP). AP is the exact precision-at-positive-rank form: sum of
precision at each positive, in descending score order, divided by the
positive count; no interpolation. Frames rank by (-score, video order, frame
order), so reports are deterministic: one sort, then a frame-index tie-break
on the tied runs only, which gives bitwise the APs of a stable sort. Classes
with no positive frame are excluded from the mean and listed in the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .model import ModelState, check_compatible, predict_probabilities

__all__ = ["EvalReport", "average_precision", "evaluate", "PROTOCOL"]

PROTOCOL = {
    "ap": "exact precision-at-positive-rank (no interpolation)",
    "pooling": "frames pooled across all videos per class before ranking",
    "ties": "stable sort on (-score, video order, frame order)",
}


_INDEX_BITS = 32  # the tie-break key packs a frame index into its low bits


def _rank(scores: np.ndarray) -> np.ndarray:
    """Frame indices by (-score, index); NaNs tie, as do +0.0 and -0.0."""
    if scores.size >= 1 << _INDEX_BITS:
        raise ValueError(f"cannot rank {scores.size} frames: the tie-break key "
                         f"holds indices below 2**{_INDEX_BITS}")
    neg = -scores
    order = np.argsort(neg)
    ranked = neg[order]
    nan = np.isnan(ranked)
    tied = np.r_[False, (ranked[1:] == ranked[:-1]) | (nan[1:] & nan[:-1])]
    runs = np.flatnonzero(tied | np.r_[tied[1:], False])
    if runs.size:
        run_rank = np.cumsum(~tied[runs], dtype=np.uint64) << np.uint64(_INDEX_BITS)
        key = np.sort(run_rank | order[runs].astype(np.uint64))
        order[runs] = key & np.uint64((1 << _INDEX_BITS) - 1)
    return order


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """AP of one ranking; raises ValueError when there is no positive."""
    scores = np.asarray(scores).reshape(-1)
    if scores.dtype.kind != "f":
        scores = scores.astype(np.float64)  # so that -scores cannot wrap
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape or scores.size == 0:
        raise ValueError("scores and labels must be equal-length and nonempty")
    positives = int(labels.sum())
    if positives == 0:
        raise ValueError("average precision is undefined without positives")
    ranked = labels[_rank(scores)].astype(np.float64)
    hits = np.flatnonzero(ranked == 1)
    return float((np.cumsum(ranked)[hits] / (hits + 1)).sum() / positives)


@dataclass
class EvalReport:
    class_names: list[str]
    ap_per_class: list  # float per evaluated class, None per excluded class
    mean_ap: float
    evaluated_classes: list[int]
    excluded_classes: list[int]

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema_version": 1,
                "mean_ap": self.mean_ap,
                "ap_per_class": {
                    name: ap
                    for name, ap in zip(self.class_names, self.ap_per_class)
                },
                "evaluated_classes": [self.class_names[i] for i in self.evaluated_classes],
                "excluded_classes": [self.class_names[i] for i in self.excluded_classes],
                "protocol": PROTOCOL,
            },
            indent=1,
        )

    def format_table(self) -> str:
        width = max((len(n) for n in self.class_names), default=5)
        lines = [f"{'class':<{width}}  AP"]
        for i, (name, ap) in enumerate(zip(self.class_names, self.ap_per_class)):
            shown = f"{ap:.4f}" if ap is not None else "(no positives)"
            lines.append(f"{name:<{width}}  {shown}")
        lines.append(f"{'mAP':<{width}}  {self.mean_ap:.4f}")
        return "\n".join(lines)


def evaluate(state: ModelState, dataset: Dataset) -> EvalReport:
    """Score every frame of every video (no dropout) and report per-class AP."""
    check_compatible(state, dataset)
    scores = []
    labels = []
    for video in dataset.videos:
        scores.append(predict_probabilities(state, video.features))
        labels.append(video.labels)
    all_scores = np.concatenate(scores, axis=0)
    all_labels = np.concatenate(labels, axis=0)

    ap_per_class: list = []
    evaluated, excluded = [], []
    for c in range(dataset.num_classes):
        if all_labels[:, c].sum() == 0:
            ap_per_class.append(None)
            excluded.append(c)
        else:
            ap_per_class.append(average_precision(all_scores[:, c], all_labels[:, c]))
            evaluated.append(c)
    mean_ap = float(np.mean([ap_per_class[c] for c in evaluated])) if evaluated else 0.0
    return EvalReport(
        class_names=list(dataset.class_names),
        ap_per_class=ap_per_class,
        mean_ap=mean_ap,
        evaluated_classes=evaluated,
        excluded_classes=excluded,
    )
