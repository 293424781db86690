"""Spans recorded around the package's public functions, from outside.

A ``Tracer`` replaces a function by a timing wrapper in the module that
looks it up when it is called (``superevents.model.materialize_stack``, not
``superevents.filters.materialize_stack``, because ``model`` imported the
name), so the package itself is unchanged. Spans live in memory as
``[label, start, end, parent]`` rows and are written out once, when the run
ends. A span's self time is its duration minus the durations of its
children.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

# (module that looks the name up, name, label); the label's first part is
# the layer the time is charged to.
TARGETS = (
    ("superevents.cli", "main", "cli"),
    ("superevents.cli", "load_dataset", "data.load"),
    ("superevents.cli", "load_checkpoint", "model.checkpoint_load"),
    ("superevents.cli", "evaluate", "evaluation"),
    ("superevents.evaluation", "predict_probabilities", "model"),
    ("superevents.evaluation", "average_precision", "evaluation.ap"),
    ("superevents.training", "train", "training"),
    ("superevents.training", "adam_step", "training.adam"),
    ("superevents.training", "loss_and_grads", "model"),
    ("superevents.model", "save_checkpoint", "model.checkpoint_save"),
    ("superevents.model", "materialize_stack", "filters"),
    ("superevents.model", "stack_backward", "filters"),
    ("superevents.pooling", "pool_attended", "pooling"),
    ("superevents.pooling", "pool_attended_backward", "pooling"),
    ("superevents.pooling", "pool_relative", "pooling"),
    ("superevents.pooling", "_relative_state", "pooling"),
    ("superevents.pooling", "_relative_grads", "pooling"),
    ("superevents.detector", "frame_logits", "detector"),
    ("superevents.detector", "bce_loss", "detector"),
    ("superevents.detector", "bce_backward", "detector"),
    ("superevents.detector", "sigmoid", "detector"),
    ("superevents.data", "generate_synthetic", "data.synth"),
    ("superevents.data", "load_dataset", "data.load"),
)


class Tracer:
    """Span recorder. ``region()`` installs the wrappers, times the region's
    wall clock and removes the wrappers again, so code outside a region runs
    the package's own functions."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.region_seconds = 0.0
        self._stack: list[int] = []

    def _wrap(self, fn, label):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([label, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def region(self):
        saved = []
        for module_name, name, label in self.targets:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, self._wrap(original, label))
        start = perf_counter()
        try:
            yield
        finally:
            self.region_seconds += perf_counter() - start
            for module, name, original in reversed(saved):
                setattr(module, name, original)

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def roots(self) -> list[int]:
        """Index of each span's outermost ancestor."""
        root = []
        for i, (_, _, _, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
        return root

    def unattributed_seconds(self) -> float:
        """Region wall time that no top-level span covers."""
        covered = sum(end - start for _, start, end, parent in self.spans if parent < 0)
        return self.region_seconds - covered

    def write(self, path, **meta) -> None:
        doc = dict(meta, columns=["label", "start", "end", "parent"], spans=self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
