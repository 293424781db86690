"""Frame-level average precision and mean average precision.

Frames are pooled across all test videos per class before ranking
(dataset-level AP). AP is the exact precision-at-positive-rank form: sum of
precision at each positive, in descending score order, divided by the
positive count; no interpolation. Frames rank by (-score, video order, frame
order): one sort of int64 keys, each -score narrowed to float32 as an
order-keeping integer above its frame index, then for scores wider than
float32 a re-sort by full value of the runs that narrowing merged. The APs are
bitwise those of a stable sort. Classes with no positive frame are excluded
from the mean and listed in the report.
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
    with np.errstate(over="ignore", invalid="ignore"):  # overflow to inf; signalling NaNs
        narrow = neg.astype(np.float32, copy=False) + np.float32(0)  # -0.0 is +0.0
    narrow[np.isnan(narrow)] = np.nan  # one NaN pattern, which orders after +inf
    bits = narrow.view(np.int32)
    bits ^= (bits >> 31) & 0x7FFFFFFF  # signed integers in float order
    key = np.sort(bits.astype(np.int64) << _INDEX_BITS | np.arange(scores.size))
    order = key & ((1 << _INDEX_BITS) - 1)
    if neg.dtype.itemsize > 4:  # narrowing may have merged distinct values
        tied = np.diff(key >> _INDEX_BITS) == 0
        runs = np.flatnonzero(np.r_[tied, False] | np.r_[False, tied])
        idx, run_id = order[runs], np.cumsum(~np.r_[False, tied][runs])
        order[runs] = idx[np.lexsort((neg[idx], run_id))]  # stable: index order kept
    return order


def average_precision(scores: np.ndarray, labels: np.ndarray) -> float:
    """AP of one ranking; raises ValueError when there is no positive."""
    scores = np.asarray(scores).reshape(-1)
    if scores.dtype.kind != "f":
        scores = scores.astype(np.float64)  # so that -scores cannot wrap
    labels = np.asarray(labels).reshape(-1)
    if scores.shape != labels.shape or scores.size == 0:
        raise ValueError("scores and labels must be equal-length and nonempty")
    positive = labels == 1
    if not (positive | (labels == 0)).all():
        raise ValueError("labels must be 0 or 1")
    if not positive.any():
        raise ValueError("average precision is undefined without positives")
    hits = np.flatnonzero(positive[_rank(scores)])
    return float((np.arange(1, hits.size + 1) / (hits + 1)).sum() / hits.size)


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
    if not dataset.videos:
        raise ValueError("dataset is empty")
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
