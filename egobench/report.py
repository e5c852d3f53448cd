"""Summaries of measured samples and the benchmark's result line."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field


def percentile(values: list[float], q: float) -> float:
    """The q-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class Tally:
    """What one run's operations did, gathered across its rounds.

    `violations` holds the correctness checks that failed on operations that
    did not fail outright.
    """

    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    latencies_s: list[float] = field(default_factory=list)
    views: int = 0
    view_time_s: float = 0.0
    errors_cm: list[float] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    references_s: list[float] = field(default_factory=list)

    def check(self, ok: bool, message: str):
        if not ok:
            self.violations.append(message)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    value: float
    samples: int


def result_line(tally: Tally, metrics: list[Metric]) -> str:
    """The JSON object the benchmark prints as its last line."""
    return json.dumps(
        {
            "correct": not tally.violations,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in metrics},
        }
    )


def table(metrics: list[Metric]) -> str:
    """Human-readable listing: every metric by name, value, unit and sample count."""
    width = max(len(m.name) for m in metrics)
    return "\n".join(
        f"{m.name:<{width}}  {m.value:>14.6g} {m.unit:<8} n={m.samples}" for m in metrics
    )
