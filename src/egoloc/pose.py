"""Camera localization: 6-point DLT, RANSAC, nonlinear refinement, pipeline.

The DLT estimates a 3x4 projection matrix from normalized correspondences;
RANSAC wraps it with counter-seeded minimal samples and adaptive stopping;
refinement runs damped least squares on the reprojection residuals with the
intrinsics held fixed. `localize` chains matching, RANSAC, and refinement
into the query-to-pose pipeline and reports the correspondence and inlier
counts the model-maintenance layer verifies against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.optimize
from scipy.spatial.transform import Rotation

from .errors import (
    DegenerateConfigurationError,
    NoModelFoundError,
    RegistrationFailedError,
    SingularBlockError,
)
from .geometry import DEPTH_EPSILON, CameraIntrinsics, CameraPose
from .matching import MatchIndex, MatchParams, match_features

# Relative singular-value floor below which a correspondence set counts as
# coplanar/collinear for the DLT.
_PLANAR_TOL = 1e-9


@dataclass(frozen=True)
class RansacParams:
    """RANSAC configuration; threshold in pixels at the working resolution."""

    inlier_threshold: float = 4.0
    max_iterations: int = 1000
    confidence: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if self.inlier_threshold <= 0:
            raise ValueError("inlier threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass
class PoseEstimate:
    """Pose with its supporting inliers.

    `inlier_ids` index into the correspondence arrays the estimate was
    computed from; every inlier reprojects within the RANSAC threshold under
    this pose.
    """

    pose: CameraPose
    intrinsics: CameraIntrinsics
    inlier_ids: np.ndarray
    n_correspondences: int
    n_inliers: int
    mean_reprojection_error: float

    def __post_init__(self):
        self.inlier_ids = np.asarray(self.inlier_ids, dtype=np.int64).reshape(-1)
        if self.n_inliers > self.n_correspondences:
            raise ValueError("inlier count cannot exceed the correspondence count")


@dataclass
class LocalizationResult:
    """Outcome of localizing one query view.

    `timings` holds wall times in seconds; `counters` holds deterministic
    work counts (the matching stage's `features_scanned` and
    `words_evaluated`), kept apart so seeded records stay reproducible.
    """

    pose: CameraPose
    intrinsics: CameraIntrinsics
    n_correspondences: int
    n_inliers: int
    inlier_point_ids: np.ndarray
    mean_reprojection_error: float
    timings: dict[str, float]
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def inlier_ratio(self) -> float:
        return self.n_inliers / self.n_correspondences if self.n_correspondences else 0.0


def _normalization_2d(pixels: np.ndarray) -> np.ndarray:
    centroid = pixels.mean(axis=0)
    dist = np.linalg.norm(pixels - centroid, axis=1).mean()
    if dist <= 0:
        raise DegenerateConfigurationError("pixel observations are coincident")
    s = np.sqrt(2.0) / dist
    return np.array([[s, 0, -s * centroid[0]], [0, s, -s * centroid[1]], [0, 0, 1]])


def _normalization_3d(points: np.ndarray) -> np.ndarray:
    centroid = points.mean(axis=0)
    dist = np.linalg.norm(points - centroid, axis=1).mean()
    if dist <= 0:
        raise DegenerateConfigurationError("3D points are coincident")
    s = np.sqrt(3.0) / dist
    u = np.eye(4)
    u[:3, :3] *= s
    u[:3, 3] = -s * centroid
    return u


def dlt_pose(pixels: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Direct linear transform for the 3x4 projection matrix.

    Correspondences are Hartley-normalized before stacking the 2n x 12
    system; the solution is the right singular vector of the smallest
    singular value, de-normalized, scaled so the third row's rotation part
    is unit (making ``P @ [X;1]`` yield true depths), and sign-fixed so the
    input points have positive depth.

    Raises:
        DegenerateConfigurationError: fewer than 6 correspondences would be
            needed, the points are coplanar/collinear, or the system is
            rank-deficient.
    """
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(px)
    if n != len(pts):
        raise ValueError("pixel and point counts differ")
    if n < 6:
        raise ValueError("DLT needs at least 6 correspondences")

    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[2] <= _PLANAR_TOL * max(sv[0], 1e-300):
        raise DegenerateConfigurationError("3D points are coplanar or collinear")

    t_norm = _normalization_2d(px)
    u_norm = _normalization_3d(pts)
    px_h = np.column_stack([px, np.ones(n)]) @ t_norm.T
    pts_h = np.column_stack([pts, np.ones(n)]) @ u_norm.T

    a = np.zeros((2 * n, 12))
    a[0::2, 0:4] = pts_h
    a[0::2, 8:12] = -px_h[:, [0]] * pts_h
    a[1::2, 4:8] = pts_h
    a[1::2, 8:12] = -px_h[:, [1]] * pts_h

    _, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[-2] <= 1e-10 * max(s[0], 1e-300):
        raise DegenerateConfigurationError("DLT system is rank-deficient")
    p = vt[-1].reshape(3, 4)
    p = np.linalg.inv(t_norm) @ p @ u_norm

    scale = np.linalg.norm(p[2, :3])
    if scale <= 0 or not np.isfinite(scale):
        raise DegenerateConfigurationError("projection has a vanishing third row")
    p = p / scale
    depths = pts @ p[2, :3] + p[2, 3]
    if np.sum(depths > 0) < np.sum(depths < 0):
        p = -p
    return p


def project_with_matrix(p: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixels and depths of world points under a projection matrix."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    hom = pts @ p[:, :3].T + p[:, 3]
    depth = hom[:, 2]
    valid = depth > DEPTH_EPSILON
    safe = np.where(valid, depth, 1.0)
    pixels = hom[:, :2] / safe[:, None]
    pixels[~valid] = np.nan
    return pixels, depth


def decompose(
    p: np.ndarray, image_size: tuple[int, int] | None = None
) -> tuple[CameraIntrinsics, CameraPose]:
    """RQ-decompose a projection matrix into intrinsics and pose.

    The triangular factor is sign-fixed to a positive diagonal and the
    rotation to determinant +1. With no `image_size`, the image is assumed
    centered on the principal point. Skew is not part of the camera model
    and is dropped from the reported intrinsics.

    Raises:
        SingularBlockError: the left 3x3 block is not invertible.
    """
    p = np.asarray(p, dtype=np.float64).reshape(3, 4)
    m = p[:, :3]
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[2] <= 1e-12 * max(sv[0], 1e-300):
        raise SingularBlockError("left 3x3 block of the projection matrix is singular")
    if np.linalg.det(m) < 0:
        p = -p
        m = p[:, :3]

    k, r = scipy.linalg.rq(m)
    signs = np.sign(np.diag(k))
    signs[signs == 0] = 1.0
    k = k * signs[None, :]
    r = r * signs[:, None]
    t = scipy.linalg.solve_triangular(k, p[:, 3])
    k = k / k[2, 2]

    if image_size is None:
        width = max(int(round(2 * abs(k[0, 2]))), 1)
        height = max(int(round(2 * abs(k[1, 2]))), 1)
    else:
        width, height = image_size
    intr = CameraIntrinsics(
        focal_x=float(k[0, 0]),
        focal_y=float(k[1, 1]),
        principal_x=float(k[0, 2]),
        principal_y=float(k[1, 2]),
        image_width=width,
        image_height=height,
    )
    return intr, CameraPose(rotation=r, translation=t)


def _reprojection_errors(p: np.ndarray, pixels: np.ndarray, points: np.ndarray) -> np.ndarray:
    proj, depth = project_with_matrix(p, points)
    err = np.linalg.norm(proj - pixels, axis=1)
    err[~(depth > DEPTH_EPSILON)] = np.inf
    err[~np.isfinite(err)] = np.inf
    return err


def ransac_pose(
    pixels: np.ndarray,
    points: np.ndarray,
    params: RansacParams | None = None,
    *,
    image_size: tuple[int, int] | None = None,
) -> PoseEstimate:
    """Robust pose from 2D-3D correspondences via 6-point DLT + RANSAC.

    Hypothesis samples draw from counter-derived seeds, so the reported best
    equals the sequential (count, mean error, hypothesis index) winner even
    if evaluation were parallelized. The final model is refit on all inliers
    and inliers are re-certified under it.

    Raises:
        NoModelFoundError: every sample was degenerate or the best model
            explains fewer than 6 correspondences.
    """
    params = params or RansacParams()
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(px)
    if n < 6:
        raise ValueError("RANSAC needs at least 6 correspondences")

    best_p = None
    best_count = 0
    best_mean = np.inf
    iterations_needed = params.max_iterations

    for h in range(params.max_iterations):
        if h >= iterations_needed:
            break
        rng = np.random.default_rng((params.seed, h))
        sample = rng.choice(n, size=6, replace=False)
        try:
            p = dlt_pose(px[sample], pts[sample])
        except DegenerateConfigurationError:
            continue
        err = _reprojection_errors(p, px, pts)
        inliers = err <= params.inlier_threshold
        count = int(inliers.sum())
        if count == 0:
            continue
        mean_err = float(err[inliers].mean())
        if count > best_count or (count == best_count and mean_err < best_mean):
            best_p = p
            best_count = count
            best_mean = mean_err
            ratio = count / n
            if ratio >= 1.0:
                iterations_needed = h + 1
            else:
                denom = np.log1p(-min(ratio**6, 1 - 1e-12))
                needed = np.log(1 - params.confidence) / denom
                iterations_needed = min(params.max_iterations, int(np.ceil(needed)))

    if best_p is None or best_count < 6:
        raise NoModelFoundError(
            f"no pose explains >= 6 of {n} correspondences within "
            f"{params.inlier_threshold} px"
        )

    final_p = best_p
    inliers = _reprojection_errors(best_p, px, pts) <= params.inlier_threshold
    try:
        refit = dlt_pose(px[inliers], pts[inliers])
        refit_inliers = _reprojection_errors(refit, px, pts) <= params.inlier_threshold
        if int(refit_inliers.sum()) >= 6:
            final_p = refit
            inliers = refit_inliers
    except (DegenerateConfigurationError, ValueError):
        pass

    # Certify the inliers under the camera model actually reported: the
    # decomposition drops DLT skew, so errors are recomputed with the
    # reconstructed skew-free matrix to keep the certification (and any
    # downstream refinement comparison) consistent.
    intr, pose = decompose(final_p, image_size=image_size)
    p_report = intr.matrix @ np.column_stack([pose.rotation, pose.translation])
    err = _reprojection_errors(p_report, px, pts)
    report_inliers = err <= params.inlier_threshold
    if int(report_inliers.sum()) >= 6:
        inliers = report_inliers
    inlier_ids = np.flatnonzero(inliers)
    return PoseEstimate(
        pose=pose,
        intrinsics=intr,
        inlier_ids=inlier_ids,
        n_correspondences=n,
        n_inliers=len(inlier_ids),
        mean_reprojection_error=float(err[inlier_ids].mean()),
    )


def _residuals(
    x: np.ndarray, intr: CameraIntrinsics, pixels: np.ndarray, points: np.ndarray
) -> np.ndarray:
    rot = Rotation.from_rotvec(x[:3]).as_matrix()
    cam = points @ rot.T + x[3:]
    z = np.maximum(cam[:, 2], 1e-9)
    u = intr.focal_x * cam[:, 0] / z + intr.principal_x
    v = intr.focal_y * cam[:, 1] / z + intr.principal_y
    return np.concatenate([u - pixels[:, 0], v - pixels[:, 1]])


def refine_pose(
    estimate: PoseEstimate,
    pixels: np.ndarray,
    points: np.ndarray,
    *,
    max_iterations: int = 50,
) -> PoseEstimate:
    """Damped least-squares refinement of the pose over its inliers.

    Rotation is locally parameterized as a rotation vector and the
    translation is free; intrinsics stay fixed. The refined pose is kept
    only if neither the squared-error objective nor the mean pixel error
    increased, so refinement never degrades an estimate.
    """
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(px) < 6:
        raise ValueError("refinement needs at least 6 inlier correspondences")

    intr = estimate.intrinsics
    x0 = np.concatenate(
        [Rotation.from_matrix(estimate.pose.rotation).as_rotvec(), estimate.pose.translation]
    )
    r0 = _residuals(x0, intr, px, pts)
    cost0 = float(r0 @ r0)
    mean0 = float(np.linalg.norm(r0.reshape(2, -1).T, axis=1).mean())

    result = scipy.optimize.least_squares(
        _residuals,
        x0,
        args=(intr, px, pts),
        method="lm",
        ftol=1e-10,
        xtol=1e-12,
        max_nfev=max_iterations * 7,
    )
    r1 = _residuals(result.x, intr, px, pts)
    cost1 = float(r1 @ r1)
    mean1 = float(np.linalg.norm(r1.reshape(2, -1).T, axis=1).mean())
    if cost1 > cost0 or mean1 > mean0:
        return estimate

    rot = Rotation.from_rotvec(result.x[:3]).as_matrix()
    # Re-orthonormalize against accumulated float drift before validation.
    u, _, vt = np.linalg.svd(rot)
    rot = u @ vt
    pose = CameraPose(rotation=rot, translation=result.x[3:])
    return PoseEstimate(
        pose=pose,
        intrinsics=intr,
        inlier_ids=estimate.inlier_ids,
        n_correspondences=estimate.n_correspondences,
        n_inliers=estimate.n_inliers,
        mean_reprojection_error=mean1,
    )


def localize(
    query,
    index: MatchIndex,
    match_params: MatchParams | None = None,
    ransac_params: RansacParams | None = None,
    *,
    use_query_intrinsics: bool = False,
) -> LocalizationResult:
    """Full query-to-pose pipeline: match, RANSAC, refine, re-certify.

    With `use_query_intrinsics` the refinement trusts the query's calibration
    instead of the DLT-decomposed intrinsics; the default is the full DLT
    estimate.

    Raises:
        RegistrationFailedError: tagged with the stage ("matching" or
            "ransac") that could not produce a usable result.
    """
    match_params = match_params or MatchParams()
    ransac_params = ransac_params or RansacParams()
    timings: dict[str, float] = {}
    counters: dict[str, int] = {}

    t0 = time.perf_counter()
    matches = match_features(query, index, match_params, counters=counters)
    timings["match"] = time.perf_counter() - t0
    if len(matches) < 6:
        raise RegistrationFailedError("matching", f"only {len(matches)} correspondences")

    px = query.pixels[[m.feature_index for m in matches]]
    pts = np.stack([index.position_of(m.point_id) for m in matches])
    point_ids = np.array([m.point_id for m in matches], dtype=np.int64)

    t0 = time.perf_counter()
    try:
        estimate = ransac_pose(
            px,
            pts,
            ransac_params,
            image_size=(query.intrinsics.image_width, query.intrinsics.image_height),
        )
    except NoModelFoundError as exc:
        raise RegistrationFailedError("ransac", str(exc)) from exc
    timings["ransac"] = time.perf_counter() - t0

    if use_query_intrinsics:
        estimate = PoseEstimate(
            pose=estimate.pose,
            intrinsics=query.intrinsics,
            inlier_ids=estimate.inlier_ids,
            n_correspondences=estimate.n_correspondences,
            n_inliers=estimate.n_inliers,
            mean_reprojection_error=estimate.mean_reprojection_error,
        )

    t0 = time.perf_counter()
    refined = refine_pose(estimate, px[estimate.inlier_ids], pts[estimate.inlier_ids])
    timings["refine"] = time.perf_counter() - t0

    # Re-certify inliers under the refined pose so the reported counts hold
    # for the pose actually returned.
    k = refined.intrinsics.matrix
    p_final = k @ np.column_stack([refined.pose.rotation, refined.pose.translation])
    err = _reprojection_errors(p_final, px, pts)
    inliers = err <= ransac_params.inlier_threshold
    if int(inliers.sum()) >= 6:
        inlier_ids = np.flatnonzero(inliers)
        mean_err = float(err[inlier_ids].mean())
    else:
        inlier_ids = refined.inlier_ids
        mean_err = refined.mean_reprojection_error

    timings["total"] = sum(timings.values())
    return LocalizationResult(
        pose=refined.pose,
        intrinsics=refined.intrinsics,
        n_correspondences=len(matches),
        n_inliers=len(inlier_ids),
        inlier_point_ids=point_ids[inlier_ids],
        mean_reprojection_error=mean_err,
        timings=timings,
        counters=counters,
    )
