"""Benchmark orchestration: compression trade-off runs and session simulations.

`run_benchmark` generates a scene, builds and compresses a model per method
with k auto-tuned so retained point counts match a common target, localizes
held-out views against each variant, and reports positioning error,
registration rate, point counts, and serialized sizes.

`run_session_sim` drives the model pool across a schedule of appearance
regimes and compares the update-applied errors with a fixed-model baseline.

Both drivers return plain JSON records holding only seed-deterministic
fields, so a repeated run is byte-identical; an error statistic over no
registered view is None (JSON null). `table` prints them as aligned text.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .compression import METHODS, CompressedModel, compress
from .errors import ConfigError, TooFewVisibleError
from .geometry import pose_looking_at
from .matching import MatchParams, build_index
from .model_io import BYTES_PER_MB, _saved_size
from .pool import ModelPool, ModelRecord, PoolParams, SessionBatch, ingest_session
from .pool import _localize_or_none
from .pose import RansacParams
from .structures import DetectParams, detect_structures
from .synthetic import (
    GroundTruthScene,
    QueryView,
    SceneSpec,
    build_model,
    generate_scene,
    render_view,
    resample_descriptors,
)

# The uncompressed model, then each compression method.
ALL_METHODS = ("full", *METHODS)


@dataclass
class BenchConfig:
    scene: SceneSpec
    methods: tuple[str, ...] = ALL_METHODS
    target_fraction: float = 0.1
    num_queries: int = 20
    reconstruction_noise: float = 0.0
    num_words: int | None = None
    detect: DetectParams = field(default_factory=DetectParams)
    match: MatchParams = field(default_factory=MatchParams)
    ransac: RansacParams = field(default_factory=RansacParams)
    seed: int = 0

    def __post_init__(self):
        self.methods = tuple(self.methods)
        unknown = set(self.methods) - set(ALL_METHODS)
        if unknown:
            raise ConfigError(f"unknown methods: {sorted(unknown)}")
        if not 0.0 < self.target_fraction <= 1.0:
            raise ConfigError("target_fraction must be in (0, 1]")
        if self.num_queries < 1:
            raise ConfigError("num_queries must be positive")


# (header, record key, width, format) of each printed column.
BENCH_COLUMNS = (
    ("method", "method", "<18", ""),
    ("param", "parameter", ">9", ".4g"),
    ("points", "num_points", ">8", "d"),
    ("size MB", "size_mb", ">8", ".3f"),
    ("mean cm", "mean_error_cm", ">9", ".2f"),
    ("stdev cm", "stdev_error_cm", ">9", ".2f"),
    ("reg rate", "registration_rate", ">9", ".3f"),
    ("time s", "time_s", ">8", ".2f"),
)
SESSION_COLUMNS = (
    ("session", "session_index", ">8", "d"),
    ("regime", "regime", ">8", "d"),
    ("active after", "active_after", "<22", ""),
    ("trig", "triggers", ">4", "d"),
    ("new", "new_models", ">3", "d"),
    ("updated cm", "updated_mean_cm", ">11", ".1f"),
    ("fixed cm", "fixed_mean_cm", ">11", ".1f"),
)


def table(columns, rows: list[dict]) -> str:
    """Aligned text table of `rows`, one `columns` entry per column; a None
    value prints as `-`."""
    header = " ".join(f"{title:{width}}" for title, _, width, _ in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = (("-" if row[k] is None else format(row[k], fmt), w) for _, k, w, fmt in columns)
        lines.append(" ".join(f"{cell:{width}}" for cell, width in cells))
    return "\n".join(lines)


def tune_k(
    compress_fn: Callable[[int], CompressedModel],
    target_count: int,
    max_count: int,
    tolerance: float = 0.05,
) -> tuple[int, CompressedModel]:
    """Find k whose selection count lands within tolerance of the target.

    The retained count grows with k, almost linearly, so the search
    interpolates on it. It keeps a bracket: `lo`, the largest k probed whose
    count is below the target (at first the implicit count(0) = 0), and `hi`,
    the smallest whose count is above it. Until some count is above the
    target, the next k extrapolates the line through (0, 0) and
    (lo, count(lo)), clamped to [lo + 1, max_count]; after that it
    interpolates between the two ends, clamped to [lo + 1, hi - 1]. The
    bracket shrinks with every call, so the search ends even when the count
    jumps across the band, and no k runs twice. Returns the first k probed
    within tolerance, else the closest k probed (ties to the smaller k).
    """
    cache: dict[int, CompressedModel] = {}

    def within(count: int) -> bool:
        return abs(count - target_count) <= tolerance * target_count

    lo, lo_count = 0, 0
    hi = hi_count = None
    k = 1
    while True:
        cache[k] = compress_fn(k)
        count = cache[k].num_points
        if within(count):
            return k, cache[k]
        if count < target_count:
            lo, lo_count = k, count
        else:
            hi, hi_count = k, count
        if hi is None:
            if lo >= max_count:
                break
            guess = lo * target_count / lo_count if lo_count else 2 * lo
            k = min(max(round(guess), lo + 1), max_count)
        else:
            if hi - lo <= 1:
                break
            guess = lo + (hi - lo) * (target_count - lo_count) / (hi_count - lo_count)
            k = min(max(round(guess), lo + 1), hi - 1)
    best = min(cache, key=lambda k: (abs(cache[k].num_points - target_count), k))
    return best, cache[best]


def held_out_views(scene: GroundTruthScene, count: int, seed: int) -> list[QueryView]:
    """Render novel views from poses interleaved with the training cameras."""
    radius = 1.45 * scene.spec.scene_extent
    height = 0.25 * scene.spec.scene_extent
    views = []
    for i in range(count):
        angle = np.pi * ((i + 0.5) / count)
        eye = np.array([radius * np.cos(angle), radius * np.sin(angle), height])
        pose = pose_looking_at(eye, np.zeros(3))
        try:
            views.append(render_view(scene, pose, seed=(seed * 100003 + i)))
        except TooFewVisibleError as exc:
            raise ConfigError(f"held-out view {i} sees too few points: {exc}") from exc
    return views


def _error_cm(result, view: QueryView) -> float:
    return float(np.linalg.norm(result.pose.center - view.true_pose.center)) * 100.0


def _error_stat(stat: Callable, errors: list[float]) -> float | None:
    """`stat` of the errors rounded to 6 places, or None (JSON null) when no
    view registered."""
    return round(float(stat(errors)), 6) if errors else None


def _localize_views(index, views, match_params, ransac_params) -> list[float]:
    """The position error, in cm, of each view that registers."""
    errors = []
    for view in views:
        result = _localize_or_none(view, index, match_params, ransac_params)
        if result is not None:
            errors.append(_error_cm(result, view))
    return errors


def run_benchmark(config: BenchConfig) -> tuple[list[dict], list[float]]:
    """Compression trade-off benchmark over one seeded scene.

    Returns one JSON record per method, holding only seed-deterministic
    fields, and each method's wall time in seconds.
    """
    scene = generate_scene(config.scene)
    model = build_model(scene, config.reconstruction_noise, seed=config.seed)
    labeling = detect_structures(model.xyz, config.detect)
    model.labeling = labeling
    views = held_out_views(scene, config.num_queries, config.seed)

    target = max(1, int(round(config.target_fraction * model.num_points)))
    visible_anywhere = int((model.visibility.track_lengths() > 0).sum())

    records, wall_times = [], []
    for method in config.methods:
        t0 = time.perf_counter()
        variant, parameter = model, 1.0
        if method == "top_visibility":  # its parameter is the target fraction itself
            parameter = config.target_fraction
            variant = compress(model, labeling, method, parameter)
        elif method != "full":
            k, variant = tune_k(
                lambda k: compress(model, labeling, method, k), target, visible_anywhere
            )
            parameter = float(k)

        index = build_index(variant, config.num_words, seed=config.seed)
        errors = _localize_views(index, views, config.match, config.ransac)
        wall_times.append(time.perf_counter() - t0)
        records.append(
            {
                "method": method,
                "parameter": parameter,
                "num_points": variant.num_points,
                "size_mb": round(_saved_size(variant) / BYTES_PER_MB, 6),
                "mean_error_cm": _error_stat(np.mean, errors),
                "stdev_error_cm": _error_stat(np.std, errors),
                "registration_rate": round(len(errors) / len(views), 6),
                "num_queries": len(views),
            }
        )
    return records, wall_times


@dataclass
class SessionSimConfig:
    scene: SceneSpec
    pool_regimes: tuple[int, ...] = (1, 2)
    schedule: tuple[int, ...] = (1, 2)
    views_per_session: int = 15
    score_views: int = 10
    num_words: int | None = None
    match: MatchParams = field(default_factory=MatchParams)
    ransac: RansacParams = field(default_factory=RansacParams)
    pool: PoolParams = field(default_factory=PoolParams)
    seed: int = 0

    def __post_init__(self):
        self.pool_regimes = tuple(self.pool_regimes)
        self.schedule = tuple(self.schedule)
        if not self.pool_regimes:
            raise ConfigError("pool must be seeded with at least one regime")
        if not self.schedule:
            raise ConfigError("schedule must contain at least one session")
        if self.views_per_session < 1:
            raise ConfigError("views_per_session must be positive")


def run_session_sim(config: SessionSimConfig) -> tuple[list[dict], list[dict]]:
    """Drive the model pool across appearance-regime sessions.

    Returns one JSON record per session and the pool's decision events,
    each tagged with its session's index.

    Pool records are built for `pool_regimes`; each scheduled session renders
    views under its own regime. The fixed-model baseline always localizes
    against the initially active record. Sessions whose regime matches no
    pool record trigger a new-model construction from that session's regime.
    """
    base = generate_scene(config.scene)
    regime_scenes: dict[int, GroundTruthScene] = {}

    def scene_for(regime: int) -> GroundTruthScene:
        if regime not in regime_scenes:
            regime_scenes[regime] = resample_descriptors(base, regime)
        return regime_scenes[regime]

    def model_for(regime: int):
        model = build_model(scene_for(regime), 0.0, seed=regime, model_id=f"regime-{regime}")
        return model, build_index(model, config.num_words, seed=config.seed)

    records = []
    for i, regime in enumerate(config.pool_regimes):
        model, index = model_for(regime)
        records.append(
            ModelRecord(
                record_id=f"regime-{regime}",
                model=model,
                index=index,
                created=float(i),
                last_used=float(i),
                condition=f"regime {regime}",
            )
        )
    pool = ModelPool(records=records, active_id=records[0].record_id, params=config.pool)
    fixed_index = records[0].index

    rows: list[dict] = []
    events: list[dict] = []
    session_start = float(len(records))
    for s, regime in enumerate(config.schedule):
        scene = scene_for(regime)
        views = []
        for i in range(config.views_per_session):
            cam = (config.seed + s * 31 + i) % scene.num_cameras
            views.append(render_view(scene, cam, seed=config.seed * 1_000_003 + s * 1009 + i))
        timestamps = session_start + s * 1000.0 + np.arange(len(views), dtype=np.float64)
        session = SessionBatch(views=views, timestamps=timestamps, session_id=f"s{s}")

        active_before = pool.active_id
        pool, outcome = ingest_session(
            pool,
            session,
            config.match,
            config.ransac,
            build_model_fn=lambda _session: model_for(regime),
            score_views=config.score_views,
        )
        updated_errors = [
            _error_cm(sv.result, views[sv.view_index])
            for sv in outcome.served
            if sv.result is not None
        ]
        fixed_errors = _localize_views(fixed_index, views, config.match, config.ransac)
        rows.append(
            {
                "session_index": s,
                "regime": regime,
                "active_before": active_before,
                "active_after": pool.active_id,
                "triggers": outcome.num_triggers,
                "new_models": outcome.num_new_models,
                "updated_mean_cm": _error_stat(np.mean, updated_errors),
                "fixed_mean_cm": _error_stat(np.mean, fixed_errors),
                "updated_registered": len(updated_errors),
                "fixed_registered": len(fixed_errors),
            }
        )
        for e in outcome.events:
            events.append(
                {"session_index": s, "kind": e.kind, "time": e.time, "details": e.details}
            )
    return rows, events
