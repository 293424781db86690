"""Readings of evaluation and gradcheck reports that only the tests make."""

import numpy as np

from superevents.training import GRADCHECK_TOLERANCE


def mean_over(report, class_indices) -> float:
    """Mean AP of an EvalReport over the given classes, each with positives."""
    vals = [report.ap_per_class[i] for i in class_indices]
    if any(v is None for v in vals):
        raise ValueError("requested classes include one with no positives")
    return float(np.mean(vals))


def failing_groups(report) -> list[str]:
    """The parameter groups of a GradcheckReport at or over the tolerance."""
    return [k for k, v in report.max_rel_err.items() if v >= GRADCHECK_TOLERANCE]
