"""Which egoloc functions a traced run rebinds, and the per-layer metrics.

Each function is rebound in the module that calls it: the stages of a
query inside `egoloc.pose`, the pool's localizations and scoring inside
`egoloc.pool`, and everything the workloads call directly inside
`egobench.workloads`.
"""

from __future__ import annotations

import statistics

import egoloc.pool
import egoloc.pose

from . import workloads
from .report import Metric, Tally, percentile
from .trace import Span, Tracer, self_times


def _ransac_counts(estimate) -> dict[str, float]:
    return {"inliers": estimate.n_inliers, "correspondences": estimate.n_correspondences}


def _session_counts(returned) -> dict[str, float]:
    _, outcome = returned
    verified = sum(1 for served in outcome.served if served.verified)
    return {"verified": verified, "new_models": outcome.num_new_models}


# (module, attribute, span name, counter of the returned value)
TRACED = [
    (egoloc.pose, "match_features", "match_features", lambda m: {"correspondences": len(m)}),
    (egoloc.pose, "ransac_pose", "ransac_pose", _ransac_counts),
    (egoloc.pose, "refine_pose", "refine_pose", None),
    (egoloc.pool, "localize", "localize", None),
    (egoloc.pool, "score_model", "score_model", None),
    (workloads, "localize", "localize", None),
    (workloads, "generate_scene", "generate_scene", None),
    (workloads, "build_model", "build_model", None),
    (workloads, "detect_structures", "detect_structures", lambda s: {"found": s.num_structures}),
    (workloads, "tune_k", "tune_k", lambda r: {"points_kept": r[1].num_points}),
    (workloads, "compress_weighted_kcover", "compress_weighted_kcover", None),
    (workloads, "build_index", "build_index", None),
    (workloads, "save_model", "save_model", None),
    (workloads, "load_model", "load_model", None),
    (workloads, "ingest_session", "ingest_session", _session_counts),
    (workloads, "smooth_trajectory", "smooth_trajectory", None),
]


def install(tracer: Tracer):
    for module, attr, name, counter in TRACED:
        tracer.install(module, attr, name, counter)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer_metrics(tracer: Tracer, tally: Tally, workload, wall_s: float) -> list[Metric]:
    """Per-layer metrics of a traced run; a layer the workload never calls reads 0.

    Times are per call and include traced children; counts are per call,
    except the pool's, which are per round.
    """
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name: str) -> list[Span]:
        return by_name.get(name, [])

    def mean_time(name: str, scale: float) -> tuple[float, int]:
        durations = [s.duration * scale for s in spans(name)]
        return _mean(durations), len(durations)

    def mean_count(name: str, key: str) -> tuple[float, int]:
        counts = [s.counts[key] for s in spans(name) if key in s.counts]
        return _mean(counts), len(counts)

    def total(name: str, key: str | None = None) -> float:
        return float(sum(s.counts.get(key, 0) if key else 1 for s in spans(name)))

    rounds = max(tally.rounds, 1)
    localize_ms = [s.duration * 1e3 for s in spans("localize")]
    ransac_corr = total("ransac_pose", "correspondences")
    tune_calls = len(spans("tune_k"))
    tracks = getattr(workload, "track_errors_cm", [])
    values = {
        "matching.match_ms": ("ms", *mean_time("match_features", 1e3)),
        "matching.build_index_s": ("s", *mean_time("build_index", 1.0)),
        "matching.correspondences": ("count", *mean_count("match_features", "correspondences")),
        "pose.localize_ms_p90": (
            "ms",
            percentile(localize_ms, 90) if localize_ms else 0.0,
            len(localize_ms),
        ),
        "pose.ransac_ms": ("ms", *mean_time("ransac_pose", 1e3)),
        "pose.refine_ms": ("ms", *mean_time("refine_pose", 1e3)),
        "pose.position_error_cm_stdev": (
            "cm",
            statistics.pstdev(tally.errors_cm) if tally.errors_cm else 0.0,
            len(tally.errors_cm),
        ),
        "pose.inlier_ratio": (
            "ratio",
            total("ransac_pose", "inliers") / ransac_corr if ransac_corr else 0.0,
            len(spans("ransac_pose")),
        ),
        "synthetic.generate_scene_s": ("s", *mean_time("generate_scene", 1.0)),
        "synthetic.build_model_s": ("s", *mean_time("build_model", 1.0)),
        "structures.detect_s": ("s", *mean_time("detect_structures", 1.0)),
        "structures.found": ("count", *mean_count("detect_structures", "found")),
        "compression.tune_k_s": ("s", *mean_time("tune_k", 1.0)),
        "compression.compress_calls": (
            "count",
            total("compress_weighted_kcover") / tune_calls if tune_calls else 0.0,
            tune_calls,
        ),
        "compression.points_kept": ("count", *mean_count("tune_k", "points_kept")),
        "model_io.save_s": ("s", *mean_time("save_model", 1.0)),
        "model_io.load_s": ("s", *mean_time("load_model", 1.0)),
        "pool.score_model_s": ("s", *mean_time("score_model", 1.0)),
        "pool.score_calls": ("count", total("score_model") / rounds, rounds),
        "pool.views_verified": ("count", total("ingest_session", "verified") / rounds, rounds),
        "pool.new_models": ("count", total("ingest_session", "new_models") / rounds, rounds),
        "tracking.smooth_ms": ("ms", *mean_time("smooth_trajectory", 1e3)),
        "tracking.track_error_cm_mean": ("cm", _mean(tracks), len(tracks)),
        "trace.overhead_pct": ("%", 100.0 * tracer.bookkeeping_s / wall_s, len(tracer.spans)),
    }
    return [Metric(name, unit, float(value), n) for name, (unit, value, n) in values.items()]


def self_time_table(tracer: Tracer) -> str:
    """Calls and total self time per traced function, largest first."""
    own = self_times(tracer.spans)
    totals: dict[str, list[float]] = {}
    for span in tracer.spans:
        entry = totals.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += own[span.span_id]
    rows = sorted(totals.items(), key=lambda kv: -kv[1][1])
    lines = [f"{'span':<26}{'calls':>7}{'self s':>11}"]
    lines += [f"{name:<26}{calls:>7d}{self_s:>11.3f}" for name, (calls, self_s) in rows]
    return "\n".join(lines)
