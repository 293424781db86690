"""Correctness checks on the program's outputs.

Each check returns ``None`` when the output is right and a one-line reason
when it is not, so a workload can collect every failure and a test can feed
a deliberately wrong output.
"""

from __future__ import annotations

import math

import numpy as np

import reference

# float32 program against the float64 reference; the gaps seen are below
# 3e-6 for probabilities and for AP
PROBABILITY_TOLERANCE = 1e-4
AP_TOLERANCE = 1e-4
# relative error of a float64 directional derivative against its central
# difference with h = 1e-6; the errors seen are below 1e-7
GRADIENT_TOLERANCE = 1e-5


def forward(program_probs, reference_probs, what: str):
    diff = float(np.max(np.abs(np.asarray(program_probs, np.float64) - reference_probs)))
    if not diff <= PROBABILITY_TOLERANCE:
        return f"{what}: probabilities differ from the float64 reference by {diff:.3g}"
    return None


def average_precisions(report: dict, scores: np.ndarray, labels: np.ndarray, what: str):
    """The eval report's per-class APs and mAP against APs of ``scores``."""
    names = list(report["ap_per_class"])
    expected = reference.class_aps(scores, labels)
    got = {c: report["ap_per_class"][name] for c, name in enumerate(names)
           if report["ap_per_class"][name] is not None}
    if sorted(got) != sorted(expected):
        return f"{what}: evaluated classes {sorted(got)}, expected {sorted(expected)}"
    worst = max(abs(got[c] - expected[c]) for c in expected)
    gap = abs(report["mean_ap"] - float(np.mean(list(expected.values()))))
    if not max(worst, gap) <= AP_TOLERANCE:
        return f"{what}: AP differs from the reference by {max(worst, gap):.3g}"
    return None


def above_chance(mean_ap: float, labels: np.ndarray, what: str):
    """mAP must beat the mean positive rate of the classes it averages,
    which is the AP of a random ranking."""
    rates = labels.mean(axis=0)
    chance = float(rates[rates > 0].mean())
    if not mean_ap > chance:
        return f"{what}: mAP {mean_ap:.4f} is not above chance {chance:.4f}"
    return None


def losses(values, what: str):
    values = np.asarray(values, dtype=np.float64)
    if values.size < 10 or not np.all(np.isfinite(values)):
        return f"{what}: {values.size} losses, not all finite"
    tenth = values.size // 10
    first, last = values[:tenth].mean(), values[-tenth:].mean()
    if not last < first:
        return f"{what}: mean loss of the last tenth {last:.4f} >= first tenth {first:.4f}"
    return None


def gradient(analytic: float, finite_difference: float, what: str):
    scale = max(abs(analytic), abs(finite_difference), 1e-12)
    err = abs(analytic - finite_difference) / scale
    if not (math.isfinite(err) and err <= GRADIENT_TOLERANCE):
        return (f"{what}: directional derivative {analytic:.10g} vs finite "
                f"difference {finite_difference:.10g} (relative error {err:.3g})")
    return None


def identical(outputs, what: str):
    if any(o != outputs[0] for o in outputs[1:]):
        return f"{what}: {len(outputs)} outputs are not identical"
    return None


def directional(grads: dict, direction: dict) -> float:
    return float(sum(np.sum(np.asarray(grads[k], np.float64) * u)
                     for k, u in direction.items()))
