"""Benchmark orchestration: compression trade-off runs and session simulations.

`run_benchmark` generates a scene, builds and compresses a model per method
with k auto-tuned so retained point counts match a common target, localizes
held-out views against each variant, and reports positioning error,
registration rate, point counts, and serialized sizes.

`run_session_sim` drives the model pool across a schedule of appearance
regimes and compares the update-applied errors with a fixed-model baseline.

Reports render as aligned text tables and as machine-readable JSON records;
records carry only seed-deterministic fields so a repeated run is
byte-identical.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .compression import (
    CompressedModel,
    compress_set_kcover,
    compress_top_visibility,
    compress_weighted_kcover,
)
from .errors import ConfigError, RegistrationFailedError, TooFewVisibleError, parse_config
from .geometry import pose_looking_at
from .matching import MatchParams, build_index
from .model import PointCloudModel
from .model_io import BYTES_PER_MB, save_model
from .pool import ModelPool, ModelRecord, SessionBatch, ingest_session
from .pose import RansacParams, localize
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

ALL_METHODS = ("full", "weighted_kcover", "set_kcover", "top_visibility")


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

    @classmethod
    def from_dict(cls, raw: dict) -> "BenchConfig":
        sections = {
            "scene": SceneSpec,
            "detect": DetectParams,
            "match": MatchParams,
            "ransac": RansacParams,
        }
        return parse_config(cls, raw, sections=sections)


@dataclass
class BenchRow:
    method: str
    parameter: float
    num_points: int
    size_mb: float
    mean_error_cm: float
    stdev_error_cm: float
    registration_rate: float
    num_queries: int
    wall_time_s: float

    def record(self) -> dict:
        """Seed-deterministic fields only (no wall time)."""
        return {
            "method": self.method,
            "parameter": self.parameter,
            "num_points": self.num_points,
            "size_mb": round(self.size_mb, 6),
            "mean_error_cm": round(self.mean_error_cm, 6),
            "stdev_error_cm": round(self.stdev_error_cm, 6),
            "registration_rate": round(self.registration_rate, 6),
            "num_queries": self.num_queries,
        }


@dataclass
class BenchReport:
    rows: list[BenchRow]

    def records(self) -> list[dict]:
        return [r.record() for r in self.rows]

    def table(self) -> str:
        header = (
            f"{'method':<18}{'param':>10}{'points':>9}{'size MB':>9}"
            f"{'mean cm':>10}{'stdev cm':>10}{'reg rate':>10}{'time s':>9}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.method:<18}{r.parameter:>10.4g}{r.num_points:>9d}{r.size_mb:>9.3f}"
                f"{r.mean_error_cm:>10.2f}{r.stdev_error_cm:>10.2f}"
                f"{r.registration_rate:>10.3f}{r.wall_time_s:>9.2f}"
            )
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


def _localize_views(index, views, match_params, ransac_params) -> tuple[list[float], int]:
    errors = []
    registered = 0
    for view in views:
        try:
            result = localize(view, index, match_params, ransac_params)
        except RegistrationFailedError:
            continue
        registered += 1
        errors.append(_error_cm(result, view))
    return errors, registered


def _serialized_size_mb(model) -> float:
    with tempfile.TemporaryDirectory() as tmp:
        n = save_model(model, Path(tmp) / "m.eglm")
    return n / BYTES_PER_MB


def run_benchmark(config: BenchConfig) -> BenchReport:
    """Compression trade-off benchmark over one seeded scene."""
    scene = generate_scene(config.scene)
    model = build_model(scene, config.reconstruction_noise, seed=config.seed)
    labeling = detect_structures(model.xyz, config.detect)
    model.labeling = labeling
    views = held_out_views(scene, config.num_queries, config.seed)

    target = max(1, int(round(config.target_fraction * model.num_points)))
    visible_anywhere = int((model.visibility.track_lengths() > 0).sum())

    rows = []
    for method in config.methods:
        t0 = time.perf_counter()
        if method == "full":
            variant: PointCloudModel | CompressedModel = model
            parameter = 1.0
            num_points = model.num_points
        elif method == "top_visibility":
            variant = compress_top_visibility(model, labeling, config.target_fraction)
            parameter = config.target_fraction
            num_points = variant.num_points
        else:
            fn = (
                (lambda k: compress_weighted_kcover(model, labeling, k))
                if method == "weighted_kcover"
                else (lambda k: compress_set_kcover(model, k))
            )
            k, variant = tune_k(fn, target, visible_anywhere)
            parameter = float(k)
            num_points = variant.num_points

        index = build_index(variant, config.num_words, seed=config.seed)
        errors, registered = _localize_views(index, views, config.match, config.ransac)
        wall = time.perf_counter() - t0
        rows.append(
            BenchRow(
                method=method,
                parameter=parameter,
                num_points=num_points,
                size_mb=_serialized_size_mb(variant),
                mean_error_cm=float(np.mean(errors)) if errors else float("nan"),
                stdev_error_cm=float(np.std(errors)) if errors else float("nan"),
                registration_rate=registered / len(views),
                num_queries=len(views),
                wall_time_s=wall,
            )
        )
    return BenchReport(rows=rows)


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
    t1: int = 50
    t2: float = 0.5
    swap_threshold: float = 0.6
    invalid_window: int = 5
    invalid_quota: int = 3
    ttl: float = float("inf")
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

    @classmethod
    def from_dict(cls, raw: dict) -> "SessionSimConfig":
        sections = {"scene": SceneSpec, "match": MatchParams, "ransac": RansacParams}
        return parse_config(cls, raw, sections=sections)


@dataclass
class SessionRow:
    session_index: int
    regime: int
    active_before: str
    active_after: str
    triggers: int
    new_models: int
    updated_mean_cm: float
    fixed_mean_cm: float
    updated_registered: int
    fixed_registered: int

    def record(self) -> dict:
        return {
            "session_index": self.session_index,
            "regime": self.regime,
            "active_before": self.active_before,
            "active_after": self.active_after,
            "triggers": self.triggers,
            "new_models": self.new_models,
            "updated_mean_cm": round(self.updated_mean_cm, 6),
            "fixed_mean_cm": round(self.fixed_mean_cm, 6),
            "updated_registered": self.updated_registered,
            "fixed_registered": self.fixed_registered,
        }


@dataclass
class SessionSimReport:
    rows: list[SessionRow]
    events: list[dict]

    def records(self) -> list[dict]:
        return [r.record() for r in self.rows]

    def table(self) -> str:
        header = (
            f"{'session':>8}{'regime':>8}  {'active after':<22}{'trig':>5}{'new':>4}"
            f"{'updated cm':>12}{'fixed cm':>12}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.session_index:>8d}{r.regime:>8d}  {r.active_after:<22}{r.triggers:>5d}"
                f"{r.new_models:>4d}{r.updated_mean_cm:>12.1f}{r.fixed_mean_cm:>12.1f}"
            )
        return "\n".join(lines)


def _mean_error(errors: list[float]) -> float:
    return float(np.mean(errors)) if errors else float("inf")


def run_session_sim(config: SessionSimConfig) -> SessionSimReport:
    """Drive the model pool across appearance-regime sessions.

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
    pool = ModelPool(
        records=records,
        active_id=records[0].record_id,
        t1=config.t1,
        t2=config.t2,
        swap_threshold=config.swap_threshold,
        invalid_window=config.invalid_window,
        invalid_quota=config.invalid_quota,
        ttl=config.ttl,
    )
    fixed_index = records[0].index

    rows: list[SessionRow] = []
    all_events: list[dict] = []
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
        fixed_errors, fixed_registered = _localize_views(
            fixed_index, views, config.match, config.ransac
        )
        rows.append(
            SessionRow(
                session_index=s,
                regime=regime,
                active_before=active_before,
                active_after=pool.active_id,
                triggers=outcome.num_triggers,
                new_models=outcome.num_new_models,
                updated_mean_cm=_mean_error(updated_errors),
                fixed_mean_cm=_mean_error(fixed_errors),
                updated_registered=len(updated_errors),
                fixed_registered=fixed_registered,
            )
        )
        for e in outcome.events:
            all_events.append(
                {"session_index": s, "kind": e.kind, "time": e.time, "details": e.details}
            )
    return SessionSimReport(rows=rows, events=all_events)
