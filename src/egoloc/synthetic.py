"""Synthetic ground-truth scenes: planar/linear geometry, cameras, descriptors.

Stands in for real image capture and reconstruction so every downstream stage
can be verified at desk scale against exact ground truth. Descriptors are
unit vectors on the sphere; appearance change between sessions is simulated
by re-sampling them under a different regime seed.

Every operation is a pure function of its inputs and seed. Independent seeds
drive geometry, descriptors, and visibility so related scenes stay aligned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Annotated

import numpy as np

from .errors import (
    ConfigError,
    In,
    InfeasibleSpecError,
    TooFewVisibleError,
    check_fields,
    check_value,
    is_integer,
)
from .geometry import (
    MIN_CORRESPONDENCES,
    CameraIntrinsics,
    CameraPose,
    VisibilityMatrix,
    pose_looking_at,
    project_array,
)
from .model import PointCloudModel
from .structures import LineStructure, PlaneStructure, StructureLabeling

DEFAULT_IMAGE_WIDTH = 900
DEFAULT_IMAGE_HEIGHT = 600
DEFAULT_FOCAL = 500.0  # ~84 degree horizontal field of view at 900 px
MAX_FEATURES_PER_VIEW = 1200  # a rendered view's feature budget
# Model descriptor rows per block of `build_model`'s noise draw: 1 MB of
# float64 at 64 dimensions, which stays in cache from the draw to the store.
_NOISE_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a generated scene.

    `points_per_plane` / `points_per_line` take either one count for all
    structures or a per-structure list, stored as a tuple.
    `outlier_fraction`, in [0, 1), is the fraction of rendered features that
    are spurious (random pixel, random descriptor). `visibility_dropout` is
    the chance a geometrically visible point is dropped from a camera's
    track list, emulating failed detections; points are always kept in at
    least two views.
    """

    num_planes: Annotated[int, In("[0, inf)")] = 2
    num_lines: Annotated[int, In("[0, inf)")] = 1
    points_per_plane: Annotated[int | tuple[int, ...], In("[0, inf)")] = 200
    points_per_line: Annotated[int | tuple[int, ...], In("[0, inf)")] = 50
    num_clutter: Annotated[int, In("[0, inf)")] = 50
    scene_extent: Annotated[float, In("(0, inf)")] = 10.0
    num_cameras: Annotated[int, In("[0, inf)")] = 8
    descriptor_dim: Annotated[int, In("[0, inf)")] = 128
    descriptor_noise_sigma: Annotated[float, In("[0, inf)")] = 0.05
    pixel_noise_sigma: Annotated[float, In("[0, inf)")] = 0.5
    outlier_fraction: Annotated[float, In("[0, 1)")] = 0.0
    visibility_dropout: Annotated[float, In("[0, 1)")] = 0.25
    min_points_per_camera: int = MIN_CORRESPONDENCES
    seed: Annotated[int, In("[0, inf)")] = 0

    def __post_init__(self):
        check_fields(self)
        self.plane_counts, self.line_counts  # a list must give one count per structure

    @staticmethod
    def _counts(value, n: int, label: str) -> tuple[int, ...]:
        if isinstance(value, int):
            return (value,) * n
        if len(value) != n:
            raise ValueError(f"{label} must give one count per structure")
        return value

    @property
    def plane_counts(self) -> tuple[int, ...]:
        return self._counts(self.points_per_plane, self.num_planes, "points_per_plane")

    @property
    def line_counts(self) -> tuple[int, ...]:
        return self._counts(self.points_per_line, self.num_lines, "points_per_line")


@dataclass
class GroundTruthScene:
    """Exact scene state: geometry, appearance, cameras, and visibility."""

    xyz: np.ndarray
    true_labeling: StructureLabeling
    descriptors: np.ndarray
    cameras: list[tuple[CameraPose, CameraIntrinsics]]
    visibility: VisibilityMatrix
    spec: SceneSpec

    @property
    def num_points(self) -> int:
        return len(self.xyz)

    @property
    def num_cameras(self) -> int:
        return len(self.cameras)


@dataclass
class QueryView:
    """A rendered query image: noisy features plus test-only ground truth.

    `true_point_ids[i]` is the scene point behind feature i, or -1 for
    outlier features; None when ground truth is withheld.
    """

    true_pose: CameraPose
    intrinsics: CameraIntrinsics
    pixels: np.ndarray
    descriptors: np.ndarray
    true_point_ids: np.ndarray | None = None

    @property
    def num_features(self) -> int:
        return len(self.pixels)


def default_intrinsics() -> CameraIntrinsics:
    return CameraIntrinsics(
        focal_x=DEFAULT_FOCAL,
        focal_y=DEFAULT_FOCAL,
        principal_x=DEFAULT_IMAGE_WIDTH / 2,
        principal_y=DEFAULT_IMAGE_HEIGHT / 2,
        image_width=DEFAULT_IMAGE_WIDTH,
        image_height=DEFAULT_IMAGE_HEIGHT,
    )


def _normalize_rows(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The rows of `v` scaled to unit length, written into `out` (which may
    be `v`); zero rows stay zero. The quotients are rounded once to `out`'s
    dtype."""
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return np.divide(v, norms, out=out)


def _unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    v = rng.normal(size=(n, dim))
    return _normalize_rows(v, v)


def _perturb_rows(
    rng: np.random.Generator, v: np.ndarray, sigma: float, out: np.ndarray
) -> np.ndarray:
    """Add N(0, sigma²) noise to the rows of `v` in place and write them
    renormalized into `out` (which may be `v`)."""
    v += rng.normal(scale=sigma, size=v.shape)
    return _normalize_rows(v, out)


def _structure_center(rng: np.random.Generator, extent: float) -> np.ndarray:
    """A plane's centre or a line's anchor, uniform in the box of half-widths
    0.2, 0.2 and 0.1 extent about the origin (one draw per axis, x first)."""
    half = np.array([0.2, 0.2, 0.1]) * extent
    return rng.uniform(-half, half)


def _sample_geometry(spec: SceneSpec, rng: np.random.Generator):
    """Points on planes, then lines, then uniform clutter; exact labels.

    Planes lean facade-like (near-horizontal normals) and the scene is
    vertically flatter than it is wide, mirroring a street scene, which
    keeps every point inside the viewing arc's shared field of view.
    """
    extent = spec.scene_extent
    blocks: list[np.ndarray] = []
    structures: list[PlaneStructure | LineStructure] = []
    next_id = 0

    for count in spec.plane_counts:
        azimuth = rng.uniform(0, 2 * np.pi)
        tilt = rng.uniform(-0.3, 0.3)
        normal = np.array([np.cos(azimuth), np.sin(azimuth), tilt])
        normal /= np.linalg.norm(normal)
        center = _structure_center(rng, extent)
        # In-plane basis: u horizontal, v the steepest in-plane direction.
        u = np.cross(normal, np.array([0.0, 0.0, 1.0]))
        u /= np.linalg.norm(u)
        v = np.cross(normal, u)
        ab = np.column_stack(
            [
                rng.uniform(-extent / 2, extent / 2, size=count),
                rng.uniform(-extent / 4, extent / 4, size=count),
            ]
        )
        pts = center + ab[:, :1] * u + ab[:, 1:] * v
        ids = np.arange(next_id, next_id + len(pts))
        next_id += len(pts)
        blocks.append(pts)
        structures.append(
            PlaneStructure(normal=normal, offset=float(normal @ center), member_ids=ids)
        )

    for count in spec.line_counts:
        direction = _unit_rows(rng, 1, 3)[0]
        anchor = _structure_center(rng, extent)
        t = rng.uniform(-0.35 * extent, 0.35 * extent, size=(count, 1))
        pts = anchor + t * direction
        ids = np.arange(next_id, next_id + len(pts))
        next_id += len(pts)
        blocks.append(pts)
        structures.append(LineStructure(anchor=anchor, direction=direction, member_ids=ids))

    clutter = np.column_stack(
        [
            rng.uniform(-extent / 2, extent / 2, size=spec.num_clutter),
            rng.uniform(-extent / 2, extent / 2, size=spec.num_clutter),
            rng.uniform(-extent / 4, extent / 4, size=spec.num_clutter),
        ]
    )
    residual_ids = np.arange(next_id, next_id + len(clutter))
    blocks.append(clutter)

    xyz = np.vstack(blocks) if blocks else np.zeros((0, 3))
    labeling = StructureLabeling(
        structures=structures, residual_ids=residual_ids, num_points=len(xyz)
    )
    return xyz, labeling


def _place_cameras(spec: SceneSpec) -> list[tuple[CameraPose, CameraIntrinsics]]:
    """Cameras spaced on a half arc around the scene, all facing its center."""
    radius = 1.5 * spec.scene_extent
    height = 0.3 * spec.scene_extent
    intr = default_intrinsics()
    cameras = []
    n = spec.num_cameras
    for i in range(n):
        angle = np.pi * (i / max(n - 1, 1))
        eye = np.array([radius * np.cos(angle), radius * np.sin(angle), height])
        cameras.append((pose_looking_at(eye, np.zeros(3)), intr))
    return cameras


def _in_image(pixels: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Mask of pixels inside the image. `project_array` gives NaN pixels for
    points behind the camera, and NaN fails every comparison."""
    return (
        (pixels[:, 0] >= 0)
        & (pixels[:, 0] < intr.image_width)
        & (pixels[:, 1] >= 0)
        & (pixels[:, 1] < intr.image_height)
    )


def _geometric_visibility(
    xyz: np.ndarray, cameras: list[tuple[CameraPose, CameraIntrinsics]]
) -> np.ndarray:
    """Dense mask of points projecting inside each camera's image."""
    vis = np.zeros((len(xyz), len(cameras)), dtype=bool)
    for j, (pose, intr) in enumerate(cameras):
        vis[:, j] = _in_image(project_array(pose, intr, xyz)[0], intr)
    return vis


def generate_scene(spec: SceneSpec) -> GroundTruthScene:
    """Generate a deterministic ground-truth scene from its spec.

    Raises:
        InfeasibleSpecError: when a camera would see fewer points than the
            configured minimum, or a point cannot be kept in two views.
    """
    geom_rng = np.random.default_rng((spec.seed, 0))
    desc_rng = np.random.default_rng((spec.seed, 1))
    vis_rng = np.random.default_rng((spec.seed, 2))

    xyz, labeling = _sample_geometry(spec, geom_rng)
    if len(xyz) == 0:
        raise InfeasibleSpecError("scene has no points")
    if spec.num_cameras < 2:
        raise InfeasibleSpecError("at least two cameras are required for a valid model")

    cameras = _place_cameras(spec)
    geo = _geometric_visibility(xyz, cameras)

    keep = geo & (vis_rng.random(geo.shape) >= spec.visibility_dropout)
    # Repair: every point must stay visible in at least two views.
    track = keep.sum(axis=1)
    for i in np.flatnonzero(track < 2):
        candidates = np.flatnonzero(geo[i])
        if len(candidates) < 2:
            raise InfeasibleSpecError(
                f"point {i} is geometrically visible in {len(candidates)} cameras"
            )
        keep[i, candidates[:2]] = True

    counts = keep.sum(axis=0)
    if np.any(counts < spec.min_points_per_camera):
        worst = int(np.argmin(counts))
        raise InfeasibleSpecError(
            f"camera {worst} sees {int(counts[worst])} points "
            f"(minimum {spec.min_points_per_camera})"
        )

    visibility = VisibilityMatrix.from_dense(keep)
    descriptors = _unit_rows(desc_rng, len(xyz), spec.descriptor_dim)
    return GroundTruthScene(
        xyz=xyz,
        true_labeling=labeling,
        descriptors=descriptors,
        cameras=cameras,
        visibility=visibility,
        spec=spec,
    )


def resample_descriptors(scene: GroundTruthScene, regime_seed: int) -> GroundTruthScene:
    """Same geometry and cameras under a different appearance regime.

    Reference descriptors are re-drawn from the regime seed, simulating the
    appearance change between sessions (lighting, weather) that makes an old
    model stop matching. `regime_seed` is an integer in [0, inf).
    """
    check_value("regime_seed", int, regime_seed, In("[0, inf)"))
    rng = np.random.default_rng((regime_seed, 1))
    return replace(scene, descriptors=_unit_rows(rng, scene.num_points, scene.spec.descriptor_dim))


def render_view(scene: GroundTruthScene, camera: int | CameraPose, *, seed: int = 0) -> QueryView:
    """Render a noisy query view from a scene camera or a novel pose.

    A novel pose is rendered with `default_intrinsics()`. Noise and
    outliers come from `scene.spec`. Features are the projections of visible
    points with Gaussian pixel noise and perturbed (renormalized)
    descriptors, plus spurious outlier features. Noisy pixels that leave the
    image are dropped, as a real detector would never report them. When more
    than `MAX_FEATURES_PER_VIEW` points are visible, a seeded subset of that
    many is kept, emulating a detector's feature cap. `seed` is in [0, inf).

    Raises:
        ConfigError: a camera that is neither an integer index (a bool is
            not one) nor a `CameraPose`, or an index outside
            ``0..num_cameras-1``.
        TooFewVisibleError: fewer than MIN_CORRESPONDENCES points are visible.
    """
    check_value("seed", int, seed, In("[0, inf)"))
    spec = scene.spec
    out_frac = spec.outlier_fraction

    if is_integer(camera):
        if not 0 <= camera < scene.num_cameras:
            raise ConfigError(
                f"camera {camera} is not a camera of the scene (0..{scene.num_cameras - 1})"
            )
        pose, intr = scene.cameras[camera]
        visible = scene.visibility.points_in_camera[camera]
    elif isinstance(camera, CameraPose):
        pose = camera
        intr = default_intrinsics()
        mask = _geometric_visibility(scene.xyz, [(pose, intr)])[:, 0]
        visible = np.flatnonzero(mask)
    else:
        raise ConfigError(f"camera must be a camera index or a CameraPose, not {camera!r}")

    if len(visible) < MIN_CORRESPONDENCES:
        raise TooFewVisibleError(f"view sees {len(visible)} of {MIN_CORRESPONDENCES} points")

    rng = np.random.default_rng((seed, 3))
    if len(visible) > MAX_FEATURES_PER_VIEW:
        visible = np.sort(rng.choice(visible, size=MAX_FEATURES_PER_VIEW, replace=False))
    pixels, _ = project_array(pose, intr, scene.xyz[visible])
    if spec.pixel_noise_sigma > 0:
        pixels = pixels + rng.normal(scale=spec.pixel_noise_sigma, size=pixels.shape)
    in_bounds = _in_image(pixels, intr)
    pixels = pixels[in_bounds]
    kept_ids = visible[in_bounds]

    desc = scene.descriptors[kept_ids]
    if spec.descriptor_noise_sigma > 0:
        desc = _perturb_rows(rng, desc, spec.descriptor_noise_sigma, desc)

    n_true = len(kept_ids)
    n_out = int(round(n_true * out_frac / (1.0 - out_frac))) if out_frac > 0 else 0
    if n_out:
        out_px = np.column_stack(
            [
                rng.uniform(0, intr.image_width, size=n_out),
                rng.uniform(0, intr.image_height, size=n_out),
            ]
        )
        out_desc = _unit_rows(rng, n_out, spec.descriptor_dim)
        pixels = np.vstack([pixels, out_px])
        desc = np.vstack([desc, out_desc])

    ids = np.concatenate([kept_ids, -np.ones(n_out, dtype=np.int64)])
    perm = rng.permutation(len(ids))
    return QueryView(
        true_pose=pose,
        intrinsics=intr,
        pixels=pixels[perm],
        descriptors=desc[perm],
        true_point_ids=ids[perm],
    )


def build_model(
    scene: GroundTruthScene,
    reconstruction_noise_sigma: float = 0.0,
    seed: int = 0,
    model_id: str | None = None,
) -> PointCloudModel:
    """Turn a ground-truth scene into a positioning model.

    Point positions get optional Gaussian jitter (reconstruction error); each
    point gets one noisy descriptor sample per camera that sees it,
    emulating the multi-view descriptors of a reconstructed model. Each
    sample is drawn and normalized in float64 and rounded once to the
    model's float16. `reconstruction_noise_sigma` and `seed` are in
    [0, inf).
    """
    jitter = check_value(
        "reconstruction_noise_sigma", float, reconstruction_noise_sigma, In("[0, inf)")
    )
    check_value("seed", int, seed, In("[0, inf)"))
    rng = np.random.default_rng((seed, 4))
    xyz = scene.xyz.copy()
    if jitter > 0:
        xyz = xyz + rng.normal(scale=jitter, size=xyz.shape)

    sigma = scene.spec.descriptor_noise_sigma
    counts = scene.visibility.track_lengths()
    # Model row r is a sample of scene point source[r]. The rows are drawn
    # one block at a time, in row order, so the noise is the same stream of
    # values as one draw over all rows.
    source = np.repeat(np.arange(scene.num_points), counts)
    descriptors = np.empty((len(source), scene.descriptors.shape[1]), dtype=np.float16)
    for start in range(0, len(source), _NOISE_BLOCK_ROWS):
        rows = scene.descriptors[source[start : start + _NOISE_BLOCK_ROWS]]
        stored = descriptors[start : start + _NOISE_BLOCK_ROWS]
        if sigma > 0:
            _perturb_rows(rng, rows, sigma, stored)
        else:
            stored[...] = rows

    return PointCloudModel(
        xyz=xyz,
        descriptors=descriptors,
        descriptor_counts=counts,
        visibility=scene.visibility,
        model_id=model_id if model_id is not None else f"model-{scene.spec.seed}-{seed}",
    )
