"""Wall time scaled to the machine's speed, measured around each operation.

The machine the benchmark runs on is shared, and its speed drifts: a fixed
numpy loop's median time moves by ±15% between 10-second windows, and
query_full's median view latency ranged from 74 to 111 ms across runs a
few minutes apart. So each timed operation is bracketed by a fixed
reference computation, and its wall time is scaled by REFERENCE_S over the
reference's time around it. Over 80 seconds of full-model localizations,
the median latency per 10-second window ranged from 90 to 116 ms; scaled,
it ranged over ±2%. A reference a fifth as long (0.8 ms) tracked the
machine only to ±7%.

The reference mixes what the program spends its time on: a BLAS product
and an argmin over 64-dimensional rows (matching, k-means), small SVDs
(DLT) and interpreter-bound dictionary updates (RANSAC and pool loops).
"""

from __future__ import annotations

import time

import numpy as np

# Scaled times read as wall time on a machine that runs the reference in
# this long. The machine the README's figures come from took 5.3-8.7 ms,
# 7.1 ms in the median run.
REFERENCE_S = 0.0055
# An operation that starts within this long of the last reference reuses
# it as its opening reference.
REUSE_S = 0.05


class Stopwatch:
    """Times operations in seconds at the reference speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._rows = rng.normal(size=(2048, 64))
        self._words = rng.normal(size=(64, 256))
        self._system = rng.normal(size=(24, 12))
        self.references: list[float] = []
        self._last = 0.0
        self._last_at = -np.inf

    def reference(self) -> float:
        """Seconds one run of the reference computation takes now."""
        t0 = time.perf_counter()
        for _ in range(2):
            (self._rows @ self._words).argmin(axis=1)
        for _ in range(20):
            np.linalg.svd(self._system, full_matrices=False)
        counts: dict[int, int] = {}
        for i in range(4000):
            counts[i % 61] = counts.get(i % 61, 0) + i
        self._last_at = time.perf_counter()
        self._last = self._last_at - t0
        self.references.append(self._last)
        return self._last

    def start(self):
        if time.perf_counter() - self._last_at > REUSE_S:
            self.reference()
        self._before = self._last
        self._t0 = time.perf_counter()

    def stop(self) -> float:
        """Scaled seconds since `start`."""
        elapsed = time.perf_counter() - self._t0
        after = self.reference()
        return elapsed * REFERENCE_S / ((self._before + after) / 2.0)
