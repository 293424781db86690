"""Wall clock corrected for the machine's changing speed.

The benchmark machine's cores are shared with other tenants. The wall time
of one fixed training loop swings by 20-30% over tens of seconds as they
load the machine, and its CPU time swings with it, so neither a longer run
nor CPU time makes the figures steady. A fixed kernel per variant, the
benchmark's own float64 forward pass of that variant over a 200-frame video
(``reference.logits``, three times for attended), is made of the same kind
of numpy calls as the program's work on that variant and slows by nearly
the same factor. The
clock samples the kernels between operations and reports every interval at
reference speed: its wall time times REFERENCE_MS over the median kernel
time of the samples taken near it, using the kernel of the variant the
interval ran. Over 15 s windows of a loaded machine the attended kernel cut
the spread (interquartile range over median) of the median attended
iteration time from 30% to 4%, and the relative one that of relative
iterations from 20% to 4%. Between whole runs on different seeds the
spreads left are 3-9% (bench/README.md).

The clock's own time base leaves the samples out, so an interval read from
``now()`` holds only the work between its two readings.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

import reference


class Clock:
    # each variant's kernel time on an idle core of the reference machine
    REFERENCE_MS = {"attended": 0.44, "relative": 2.72}
    # forward passes per sample: one attended pass is too short to time alone
    REPEATS = {"attended": 3, "relative": 1}
    KERNEL_LENGTH = 101  # the relative kernel's L, as in the recipe
    SAMPLE_INTERVAL = 0.1  # seconds between samples taken when due
    WINDOW = 0.5  # seconds around an interval whose samples calibrate it
    NEAREST = 4  # samples used at least, the nearest ones

    def __init__(self, variants):
        rng = np.random.default_rng(0)
        C, M, N, D = 8, 5, 3, 16
        self._params = {
            "filter_centers": rng.normal(0, 0.5, (M, N)),
            "filter_widths": rng.normal(0, 0.5, (M, N)),
            "attention_logits": rng.normal(0, 0.5, (C, M)),
            "classifier_weight": rng.normal(0, 0.2, (C, D + N * D)),
            "classifier_bias": np.zeros(C),
        }
        self._features = rng.standard_normal((200, D))
        self.variants = tuple(variants)
        self.positions: list[float] = []  # on this clock
        self.samples: dict[str, list[float]] = {v: [] for v in self.variants}
        self.spent = 0.0
        self.enabled = True
        self._next = 0.0

    def now(self) -> float:
        return perf_counter() - self.spent

    def sample(self, due_only: bool = False) -> None:
        """Time every variant's kernel once; with ``due_only``, only if
        SAMPLE_INTERVAL has passed since the last sample."""
        t0 = perf_counter()
        if not self.enabled or (due_only and t0 < self._next):
            return
        for variant in self.variants:
            start = perf_counter()
            for _ in range(self.REPEATS[variant]):
                reference.logits(self._params, variant, self.KERNEL_LENGTH, self._features)
            self.samples[variant].append(perf_counter() - start)
        t1 = perf_counter()
        self.positions.append(t0 - self.spent)
        self.spent += t1 - t0
        self._next = t1 + self.SAMPLE_INTERVAL

    def kernel_ms(self, variant: str, intervals=None) -> float:
        """Median time of ``variant``'s kernel over the samples within
        WINDOW of any of the (start, end) intervals, or the NEAREST closest
        if fewer; over all samples without intervals."""
        seconds = np.asarray(self.samples[variant])
        if intervals is not None:
            positions = np.asarray(self.positions)
            distance = np.full(positions.shape, np.inf)
            for start, end in intervals:
                distance = np.minimum(distance, np.maximum.reduce(
                    [start - positions, positions - end, np.zeros_like(positions)]))
            near = distance <= self.WINDOW
            if near.sum() < self.NEAREST:
                near = np.argsort(distance, kind="stable")[:self.NEAREST]
            seconds = seconds[near]
        return 1000.0 * float(np.median(seconds))

    def scale(self, variants, intervals=None) -> float:
        """Factor that takes a time measured over ``intervals`` running
        ``variants`` to reference speed: the mean of their kernels' factors."""
        return float(np.mean([self.REFERENCE_MS[v] / self.kernel_ms(v, intervals)
                              for v in variants]))

    def at_reference(self, interval, variants) -> float:
        start, end = interval
        return (end - start) * self.scale(variants, [interval])
