"""The benchmark's four workloads: their inputs, operations and checks.

Every input is made afresh with the code under test, so a change to scene
synthesis, model construction or compression reaches every workload that
depends on it. The program receives only the generated inputs.

The data set is fixed, as a benchmark's data set is: the scene geometry,
the query views, the confusable twins, the regimes' appearance and the
models built from them (descriptor noise, detection and k-means seeds)
come from DATA_SEED. The run's seed draws the RANSAC seed of every
localization. Drawn from the run's seed, the data set moved the figures
more than the machine's own noise does. Over five seeds, the query_full
position error ranged from 10.6 to 15.7 cm with seeded scenes and its
stdev from 9.7 to 16.1 cm with seeded models; the build probe's error
ranged from 10.3 to 14.2 cm and the median session from 526 to 692 ms
with seeded models.

One client drives the program in a closed loop: each operation starts when
the previous one has returned.

The correctness checks are the benchmark's own: they use the ground-truth
scene, their own projection and the visibility lists, never the program's
reporting helpers (`coverage_report`, `PointCloudModel.equals`, `verify`).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import cKDTree

from egoloc import (
    CompressedModel,
    DetectParams,
    GroundTruthScene,
    MatchParams,
    ModelPool,
    ModelRecord,
    PlaneStructure,
    PointCloudModel,
    RansacParams,
    SceneSpec,
    SessionBatch,
    TrackParams,
    build_index,
    build_model,
    compress_weighted_kcover,
    detect_structures,
    generate_scene,
    ingest_session,
    load_model,
    localize,
    render_view,
    resample_descriptors,
    save_model,
    smooth_trajectory,
)
from egoloc.bench import held_out_views, tune_k
from egoloc.errors import RegistrationFailedError

from .report import Tally
from .speed import Stopwatch

# Marks the start of an operation so a traced run can file spans under it.
Mark = Callable[[str], None]

MATCH = MatchParams()
# Error a registered view may have against its ground-truth pose. The
# query workloads measure means of 10-20 cm; a wrong pose is off by metres.
ERROR_BOUND_CM = 200.0
# Slack for comparing the benchmark's own projection with the program's.
PIXEL_SLACK = 1e-6

VIEWS_PER_ROUND = 100
# Share of scene points that, at query time, carry the descriptor of
# another point of their own structure. At 0.4 one view in 600 came out
# 2.5 m off (its inlier ratio 0.38); at 0.3 the lowest inlier ratio over
# 600 views was 0.56 and the largest error 86 cm.
CONFUSABLE_SHARE = 0.3
TARGET_FRACTION = 0.08
TUNE_TOLERANCE = 0.02
# Arc views are 0.1 s apart along a 14.5 m radius: about 4.5 m/s.
FRAME_INTERVAL = 0.1
PROCESS_NOISE = 1.0

DATA_SEED = 0
POOL_REGIMES = (1, 2)
# Regimes 3 and 4 are not in the pool at first, so each forces one new
# model; the nine sessions after them each force a swap among four records,
# so the median session is a swap whatever the noise.
SCHEDULE = (1, 3, 4, 2, 1, 3, 2, 4, 1, 3, 2, 4)
VIEWS_PER_SESSION = 15
SCORE_VIEWS = 10


def acceptance_spec(seed: int) -> SceneSpec:
    """The acceptance scene: 20k points on 4 planes, 40 cameras, ~320k descriptors."""
    return SceneSpec(
        num_planes=4,
        num_lines=0,
        points_per_plane=(8000, 6000, 4000, 1500),
        num_clutter=500,
        num_cameras=40,
        descriptor_dim=64,
        visibility_dropout=0.6,
        pixel_noise_sigma=1.0,
        descriptor_noise_sigma=0.05,
        outlier_fraction=0.1,
        seed=seed,
    )


def session_spec(seed: int) -> SceneSpec:
    """A small area served by a model pool: 860 points, 6 cameras."""
    return SceneSpec(
        num_planes=2,
        num_lines=0,
        points_per_plane=400,
        num_clutter=60,
        num_cameras=6,
        descriptor_dim=32,
        descriptor_noise_sigma=0.03,
        pixel_noise_sigma=0.5,
        seed=7000 + seed,
    )


def ransac_params(seed: int, i: int) -> RansacParams:
    return RansacParams(seed=seed * 997 + i)


def confusable_scene(scene: GroundTruthScene, share: float, seed: int) -> GroundTruthScene:
    """The scene as queries see it when `share` of each structure's points
    carry the descriptor of another point of the same structure, as
    repeated facade texture does."""
    rng = np.random.default_rng((seed, 5))
    descriptors = scene.descriptors.copy()
    labeling = scene.true_labeling
    for ids in [s.member_ids for s in labeling.structures] + [labeling.residual_ids]:
        if len(ids) < 2:
            continue
        positions = rng.choice(len(ids), size=int(round(share * len(ids))), replace=False)
        twins = (positions + rng.integers(1, len(ids), size=len(positions))) % len(ids)
        descriptors[ids[positions]] = scene.descriptors[ids[twins]]
    return replace(scene, descriptors=descriptors)


def error_cm(result, view) -> float:
    return float(np.linalg.norm(result.pose.center - view.true_pose.center)) * 100.0


def inliers_reproject(result, view, xyz: np.ndarray, threshold: float) -> bool:
    """Every reported inlier point projects, under the returned pose, within
    `threshold` pixels of some feature of the view (its matched feature is
    one of them)."""
    pts = xyz[result.inlier_point_ids]
    cam = pts @ result.pose.rotation.T + result.pose.translation
    if np.any(cam[:, 2] <= 0):
        return False
    intr = result.intrinsics
    px = np.column_stack(
        [
            intr.focal_x * cam[:, 0] / cam[:, 2] + intr.principal_x,
            intr.focal_y * cam[:, 1] / cam[:, 2] + intr.principal_y,
        ]
    )
    distance, _ = cKDTree(view.pixels).query(px)
    return bool(np.all(distance <= threshold + PIXEL_SLACK))


def check_view(tally: Tally, label: str, result, view, xyz: np.ndarray, threshold: float):
    err = error_cm(result, view)
    tally.errors_cm.append(err)
    tally.check(err <= ERROR_BOUND_CM, f"{label}: error {err:.1f} cm > {ERROR_BOUND_CM} cm")
    tally.check(
        inliers_reproject(result, view, xyz, threshold),
        f"{label}: a reported inlier reprojects beyond {threshold} px",
    )


def track_params(track) -> TrackParams:
    """Filter tuning with the measurement variance estimated from the track.

    For white noise of variance s^2 per axis, the second differences of the
    positions have E|d2|^2 = 18 s^2. Consecutive views share most of their
    scene points, so their errors correlate and the second differences
    understate the noise; E|d2|^2 / 6, three times the white-noise figure,
    smooths every track measured (raw errors from 2 to 17 cm). Estimating
    it keeps the filter matched when localization gets more accurate.
    """
    z = np.array([position for _, position in track if position is not None])
    second = z[2:] - 2.0 * z[1:-1] + z[:-2]
    variance = float(np.mean(np.sum(second**2, axis=1))) / 6.0 if len(second) else 1.0
    return TrackParams(
        process_noise=PROCESS_NOISE,
        measurement_variance=max(variance, 1e-8),
        frame_interval=FRAME_INTERVAL,
    )


def tuned_compression(model: PointCloudModel, labeling, target: int) -> CompressedModel:
    _, compressed = tune_k(
        lambda k: compress_weighted_kcover(model, labeling, k),
        target,
        model.num_points,
        TUNE_TOLERANCE,
    )
    return compressed


class QueryWorkload:
    """Localize views along the viewing arc against one served model file.

    Set-up loads the file and builds its match index, as a device would.
    With `confusable_share` the model is the weighted-k-cover compression
    and the views come from the confusable scene; their positions, in arc
    order, are then smoothed as one video track.
    """

    def __init__(
        self,
        name: str,
        seed: int,
        out_dir: Path,
        spec: SceneSpec,
        num_views: int = VIEWS_PER_ROUND,
        confusable_share: float = 0.0,
    ):
        self.name = name
        self.seed = seed
        self.spec = spec
        self.num_views = num_views
        self.share = confusable_share
        self.path = out_dir / f"{name}-{seed}.eglm"
        self.track_errors_cm: list[float] = []

    def prepare(self):
        scene = generate_scene(self.spec)
        model = build_model(scene, 0.0, seed=DATA_SEED)
        served: PointCloudModel | CompressedModel = model
        if self.share:
            labeling = detect_structures(model.xyz, DetectParams(seed=DATA_SEED))
            target = int(round(TARGET_FRACTION * model.num_points))
            served = tuned_compression(model, labeling, target)
            scene = confusable_scene(scene, self.share, DATA_SEED)
        self.model_bytes = save_model(served, self.path)
        self.xyz = scene.xyz
        self.views = held_out_views(scene, self.num_views, DATA_SEED)

    def setup(self):
        return build_index(load_model(self.path), None, seed=DATA_SEED)

    def run_round(self, index, tally: Tally, mark: Mark, watch: Stopwatch):
        track = []
        for i, view in enumerate(self.views):
            mark(f"view-{i}")
            params = ransac_params(self.seed, i)
            tally.attempted += 1
            watch.start()
            try:
                result = localize(view, index, MATCH, params)
            except RegistrationFailedError:
                result = None
            elapsed = watch.stop()
            tally.latencies_s.append(elapsed)
            tally.views += 1
            tally.view_time_s += elapsed
            if result is None:
                tally.failed += 1
                track.append((FRAME_INTERVAL * i, None))
                continue
            check_view(tally, f"view {i}", result, view, self.xyz, params.inlier_threshold)
            track.append((FRAME_INTERVAL * i, result.pose.center))
        if self.share:
            mark("track")
            self._check_track(track, tally)

    def _check_track(self, track, tally: Tally):
        states = smooth_trajectory(track, track_params(track))
        raw, smoothed = [], []
        for (_, measured), state, view in zip(track, states, self.views):
            if measured is not None:
                truth = view.true_pose.center
                raw.append(np.linalg.norm(measured - truth) * 100.0)
                smoothed.append(np.linalg.norm(state.position - truth) * 100.0)
        if not raw:
            return
        raw_cm, smoothed_cm = float(np.mean(raw)), float(np.mean(smoothed))
        self.track_errors_cm.append(smoothed_cm)
        tally.check(
            smoothed_cm <= raw_cm,
            f"track: smoothed error {smoothed_cm:.1f} cm > raw {raw_cm:.1f} cm",
        )

    def cleanup(self):
        self.path.unlink(missing_ok=True)


def same_arrays(a: PointCloudModel | CompressedModel, b: PointCloudModel | CompressedModel) -> bool:
    """Field-by-field exact comparison of a saved and a loaded model."""
    if isinstance(a, CompressedModel):
        if not isinstance(b, CompressedModel):
            return False
        header = (a.source_model_id, a.method, a.parameter)
        if header != (b.source_model_id, b.method, b.parameter):
            return False
        if not (
            np.array_equal(a.selected_ids, b.selected_ids)
            and np.array_equal(a.achieved_counts, b.achieved_counts)
        ):
            return False
        a, b = a.model, b.model
    if not isinstance(b, PointCloudModel) or a.model_id != b.model_id:
        return False
    pairs = [(a.xyz, b.xyz), (a.point_ids, b.point_ids)]
    if len(a.descriptors) != len(b.descriptors):
        return False
    pairs += zip(a.descriptors, b.descriptors)
    if a.visibility.num_cameras != b.visibility.num_cameras:
        return False
    pairs += zip(a.visibility.points_in_camera, b.visibility.points_in_camera)
    if (a.labeling is None) != (b.labeling is None):
        return False
    if a.labeling is not None:
        sa, sb = a.labeling.structures, b.labeling.structures
        if len(sa) != len(sb) or any(type(x) is not type(y) for x, y in zip(sa, sb)):
            return False
        pairs.append((a.labeling.residual_ids, b.labeling.residual_ids))
        for x, y in zip(sa, sb):
            pairs.append((x.member_ids, y.member_ids))
            if isinstance(x, PlaneStructure):
                pairs += [(x.normal, y.normal), (np.float64(x.offset), np.float64(y.offset))]
            else:
                pairs += [(x.anchor, y.anchor), (x.direction, y.direction)]
    return all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in pairs)


def kcover_holds(model: PointCloudModel, compressed: CompressedModel, k: int) -> bool:
    """Each camera with at least k visible points keeps at least k of them;
    every other camera keeps all of its points."""
    selected = np.zeros(model.num_points, dtype=bool)
    selected[np.searchsorted(model.point_ids, compressed.selected_ids)] = True
    for visible in model.visibility.points_in_camera:
        kept = int(selected[visible].sum())
        if kept < min(k, len(visible)):
            return False
    return True


def members_within(xyz: np.ndarray, structure, threshold: float) -> bool:
    pts = xyz[structure.member_ids]
    if isinstance(structure, PlaneStructure):
        dist = np.abs(pts @ structure.normal - structure.offset)
    else:
        rel = pts - structure.anchor
        along = rel @ structure.direction
        dist = np.linalg.norm(rel - along[:, None] * structure.direction, axis=1)
    return bool(np.all(dist <= threshold))


class BuildWorkload:
    """Build the deployable models of one scene, server side.

    Set-up generates the scene. One operation runs `build_model`,
    `detect_structures`, `tune_k` over `compress_weighted_kcover`,
    `build_index` and a `save_model`/`load_model` round trip, for the full
    model and for the compressed one. The build is then checked, and the
    arc views are localized against the compressed model.
    """

    def __init__(
        self, seed: int, out_dir: Path, spec: SceneSpec, probe_views: int = VIEWS_PER_ROUND
    ):
        self.seed = seed
        self.spec = spec
        self.probe_views = probe_views
        self.paths = (out_dir / f"build-full-{seed}.eglm", out_dir / f"build-compressed-{seed}.eglm")

    def prepare(self):
        """The scene is made in set-up; nothing else to prepare."""

    def setup(self):
        return generate_scene(self.spec)

    def run_round(self, scene: GroundTruthScene, tally: Tally, mark: Mark, watch: Stopwatch):
        mark(f"build-{tally.rounds}")
        full_path, compressed_path = self.paths
        tally.attempted += 1
        spent = 0.0

        def timed(fn, *args, **kwargs):
            # Each stage is scaled by the references around it, so a drift
            # in the machine's speed during the 7-second build is followed.
            nonlocal spent
            watch.start()
            result = fn(*args, **kwargs)
            spent += watch.stop()
            return result

        model = timed(build_model, scene, 0.0, seed=DATA_SEED)
        params = DetectParams(seed=DATA_SEED)
        model.labeling = timed(detect_structures, model.xyz, params)
        target = int(round(TARGET_FRACTION * model.num_points))
        compressed = timed(tuned_compression, model, model.labeling, target)
        timed(build_index, model, None, seed=DATA_SEED)
        index = timed(build_index, compressed, None, seed=DATA_SEED)
        timed(save_model, model, full_path)
        full_ok = same_arrays(model, timed(load_model, full_path))
        self.model_bytes = timed(save_model, compressed, compressed_path)
        compressed_ok = same_arrays(compressed, timed(load_model, compressed_path))
        tally.latencies_s.append(spent)

        k = int(compressed.parameter)
        checks = {
            "full model round trip": full_ok,
            "compressed model round trip": compressed_ok,
            f"k-cover at k={k}": kcover_holds(model, compressed, k),
            f"{compressed.num_points} points kept for target {target}": abs(
                compressed.num_points - target
            )
            <= TUNE_TOLERANCE * target,
            "structure members within threshold": all(
                members_within(model.xyz, s, params.inlier_threshold)
                for s in model.labeling.structures
            ),
        }
        checks["probe views localize"] = self._probe(scene, index, tally, mark, watch)
        if not all(checks.values()):
            tally.failed += 1
            tally.violations.extend(
                f"build {tally.rounds}: {name} failed" for name, ok in checks.items() if not ok
            )

    def _probe(
        self, scene: GroundTruthScene, index, tally: Tally, mark: Mark, watch: Stopwatch
    ) -> bool:
        views = held_out_views(scene, self.probe_views, DATA_SEED)
        for i, view in enumerate(views):
            mark(f"probe-{i}")
            params = ransac_params(self.seed, i)
            watch.start()
            try:
                result = localize(view, index, MATCH, params)
            except RegistrationFailedError:
                return False
            tally.view_time_s += watch.stop()
            tally.views += 1
            check_view(tally, f"probe view {i}", result, view, scene.xyz, params.inlier_threshold)
        return True

    def cleanup(self):
        for path in self.paths:
            path.unlink(missing_ok=True)


class SessionsWorkload:
    """Serve a schedule of appearance-regime sessions through a model pool.

    Set-up builds the pool's seeded records. Each round starts from those
    records and runs `ingest_session` once per scheduled session; sessions
    in a regime the pool lacks build a new model inside the session.
    """

    def __init__(
        self,
        seed: int,
        out_dir: Path,
        spec: SceneSpec,
        schedule: tuple[int, ...] = SCHEDULE,
        views_per_session: int = VIEWS_PER_SESSION,
    ):
        self.seed = seed
        self.spec = spec
        self.schedule = schedule
        self.views_per_session = views_per_session
        self.out_dir = out_dir
        self.model_bytes = 0

    def prepare(self):
        base = generate_scene(self.spec)
        self.scenes = {
            r: resample_descriptors(base, 9000 + DATA_SEED * 10 + r)
            for r in sorted(set(POOL_REGIMES) | set(self.schedule))
        }
        self.sessions = []
        for s, regime in enumerate(self.schedule):
            scene = self.scenes[regime]
            views = [
                render_view(
                    scene,
                    (s * 31 + i) % scene.num_cameras,
                    seed=DATA_SEED * 1_000_003 + s * 1009 + i,
                )
                for i in range(self.views_per_session)
            ]
            timestamps = 10.0 + s * 1000.0 + np.arange(len(views), dtype=np.float64)
            self.sessions.append((regime, SessionBatch(views, timestamps, session_id=f"s{s}")))

    def _model_for(self, regime: int):
        model = build_model(self.scenes[regime], 0.0, seed=DATA_SEED, model_id=f"regime-{regime}")
        return model, build_index(model, None, seed=DATA_SEED)

    def setup(self):
        return {r: self._model_for(r) for r in POOL_REGIMES}

    def run_round(self, seeded, tally: Tally, mark: Mark, watch: Stopwatch):
        records = [
            ModelRecord(record_id=f"regime-{r}", model=m, index=ix, created=float(i), last_used=float(i))
            for i, (r, (m, ix)) in enumerate(seeded.items())
        ]
        pool = ModelPool(records=records, active_id=records[0].record_id)
        regime_of = {f"regime-{r}": r for r in seeded}
        regime = POOL_REGIMES[0]

        def build_from_session(batch: SessionBatch):
            # Reads `regime` when the pool calls it: the session's own regime.
            return self._model_for(regime)

        for s, (regime, batch) in enumerate(self.sessions):
            mark(f"session-{s}")
            params = ransac_params(self.seed, s)
            novel = regime not in regime_of.values()
            tally.attempted += 1
            watch.start()
            pool, outcome = ingest_session(
                pool,
                batch,
                MATCH,
                params,
                build_model_fn=build_from_session,
                score_views=SCORE_VIEWS,
            )
            elapsed = watch.stop()
            tally.latencies_s.append(elapsed)
            tally.views += len(batch.views)
            tally.view_time_s += elapsed
            new_ids = [e.details["record_id"] for e in outcome.events if e.kind == "new_model"]
            regime_of.update((rid, regime) for rid in new_ids)
            if regime_of.get(pool.active_id) != regime or len(new_ids) != int(novel):
                tally.failed += 1
                continue
            xyz = self.scenes[regime].xyz
            for served in outcome.served:
                if served.verified:
                    view = batch.views[served.view_index]
                    check_view(
                        tally,
                        f"session {s} view {served.view_index}",
                        served.result,
                        view,
                        xyz,
                        params.inlier_threshold,
                    )
        if not self.model_bytes:
            self.model_bytes = sum(
                save_model(r.model, self.out_dir / f"sessions-{self.seed}-{r.record_id}.eglm")
                for r in pool.records
            )

    def cleanup(self):
        for path in self.out_dir.glob(f"sessions-{self.seed}-*.eglm"):
            path.unlink()


def make(name: str, seed: int, out_dir: Path):
    """The named workload at its measured size."""
    if name == "query_full":
        return QueryWorkload(name, seed, out_dir, acceptance_spec(DATA_SEED))
    if name == "query_confusable":
        return QueryWorkload(
            name, seed, out_dir, acceptance_spec(DATA_SEED), confusable_share=CONFUSABLE_SHARE
        )
    if name == "build":
        return BuildWorkload(seed, out_dir, acceptance_spec(DATA_SEED))
    if name == "sessions":
        return SessionsWorkload(seed, out_dir, session_spec(DATA_SEED))
    raise ValueError(f"unknown workload {name!r}")
