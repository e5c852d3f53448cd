"""Camera localization: P3P and 6-point DLT, RANSAC, refinement, pipeline.

RANSAC draws minimal samples with adaptive stopping and solves them with
one of two solvers. With the camera's intrinsics known, a batched P3P
gives up to four poses per 3-point sample; without them, the DLT estimates
a 3x4 projection matrix from 6 normalized correspondences, which is then
RQ-decomposed. Refinement is a Levenberg–Marquardt loop over the six pose
parameters with a closed-form Jacobian and the intrinsics held fixed.
`localize` chains matching, calibrated RANSAC and refinement into the
query-to-pose pipeline under the query's own calibration, and reports the
correspondence and inlier counts the model-maintenance layer verifies
against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Annotated

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import (
    DegenerateConfigurationError,
    In,
    NoModelFoundError,
    RegistrationFailedError,
    SingularBlockError,
    check_fields,
)
from .geometry import DEPTH_EPSILON, MIN_CORRESPONDENCES, CameraIntrinsics, CameraPose
from .matching import MatchIndex, MatchParams, match_features
from .structures import draw_distinct

# Relative singular-value floor below which a correspondence set counts as
# coplanar/collinear for the DLT.
_PLANAR_TOL = 1e-9

# RANSAC solves its hypotheses in batches. The first is small, since a view
# with few outliers stops after about ten hypotheses. Each later batch is a
# quarter of the hypotheses drawn so far (at least _MIN_BATCH), so few are
# solved past the stop while a long run needs few batches. No batch passes
# the current stopping bound, and _MAX_BATCH keeps the (H, n) arrays small.
_FIRST_BATCH = 8
_MIN_BATCH = 16
_MAX_BATCH = 256

# Levenberg–Marquardt refinement: the damping of the first step, the floor
# it shrinks to, and the stop: a step whose linearized cost decrease is at
# most _COST_TOL of the cost is not taken.
_INITIAL_DAMPING = 1e-6
_MIN_DAMPING = 1e-12
_COST_TOL = 1e-14


@dataclass(frozen=True)
class RansacParams:
    """RANSAC configuration; threshold in pixels at the working resolution."""

    inlier_threshold: Annotated[float, In("(0, inf)")] = 4.0
    max_iterations: Annotated[int, In("[1, inf)")] = 1000
    confidence: Annotated[float, In("(0, 1)")] = 0.99
    seed: Annotated[int, In("[0, inf)")] = 0

    def __post_init__(self):
        check_fields(self)


@dataclass
class PoseEstimate:
    """Pose with its supporting inliers.

    `inlier_ids` index into the correspondence arrays the estimate was
    computed from, and `n_inliers` counts them. `ransac_pose` certifies
    that every inlier reprojects within its threshold under this pose;
    `refine_pose` moves the pose and keeps the ids unchecked, and
    `localize` certifies them again under the refined pose.
    """

    pose: CameraPose
    intrinsics: CameraIntrinsics
    inlier_ids: np.ndarray
    n_correspondences: int
    mean_reprojection_error: float

    def __post_init__(self):
        self.inlier_ids = np.asarray(self.inlier_ids, dtype=np.int64).reshape(-1)
        if self.n_inliers > self.n_correspondences:
            raise ValueError("inlier count cannot exceed the correspondence count")

    @property
    def n_inliers(self) -> int:
        return len(self.inlier_ids)


@dataclass
class LocalizationResult(PoseEstimate):
    """Outcome of localizing one query view: the certified pose estimate,
    whose `inlier_ids` index the view's matches, and `inlier_point_ids`,
    the model points those inliers matched.

    `timings` holds wall times in seconds; `counters` holds deterministic
    work counts, kept apart so seeded records stay reproducible: the
    matching stage's `features_scanned` and `words_evaluated`; calibrated
    RANSAC's `ransac_hypotheses` (3-point samples drawn), `ransac_degenerate`
    (samples P3P gave no pose: collinear or coincident points, coincident
    rays, or no real root with all three points in front) and `ransac_stop`;
    and `refine_iterations`, the refinement steps of both passes.
    """

    inlier_point_ids: np.ndarray
    timings: dict[str, float]
    counters: dict[str, int] = field(default_factory=dict)


def _correspondences(pixels, points, caller: str) -> tuple[np.ndarray, np.ndarray]:
    """`pixels` and `points` as float64 (n, 2) and (n, 3) arrays; a
    ValueError unless they pair up one to one, n >= MIN_CORRESPONDENCES.
    `caller` names the solver in the error."""
    px = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(px) != len(pts):
        raise ValueError(f"{len(px)} pixels but {len(pts)} points: counts must agree")
    if len(px) < MIN_CORRESPONDENCES:
        raise ValueError(f"{caller} needs at least {MIN_CORRESPONDENCES} correspondences")
    return px, pts


# Why a stacked DLT row has no solution, indexed by the reason it reports.
_DEGENERATE = (
    None,
    "3D points are coplanar or collinear",
    "pixel observations are coincident",
    "DLT system is rank-deficient",
    "projection has a vanishing third row",
)


def _dlt_batch(pixels: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked DLT over H correspondence sets of n points each.

    `pixels` is (H, n, 2) and `points` (H, n, 3). Returns the (H, 3, 4)
    projection matrices and an (H,) array of reasons: 0 where the solve
    succeeded, otherwise the index into `_DEGENERATE` of the first check
    that failed (that row's matrix is zero). Every step runs the numpy or
    LAPACK kernel a one-set solve runs, per set, so each row is
    bit-identical to the H = 1 case.
    """
    n = pixels.shape[1]
    c3 = points.mean(axis=1)
    centered = points - c3[:, None]
    d3 = np.linalg.norm(centered, axis=2).mean(axis=1)
    c2 = pixels.mean(axis=1)
    d2 = np.linalg.norm(pixels - c2[:, None], axis=2).mean(axis=1)
    sv = np.linalg.svd(centered, compute_uv=False)
    coplanar = sv[:, 2] <= _PLANAR_TOL * np.maximum(sv[:, 0], 1e-300)
    coincident = d2 <= 0
    # Degenerate rows are solved with a unit spread to keep them finite; their
    # results are discarded.
    s2 = np.sqrt(2.0) / np.where(coincident, 1.0, d2)
    s3 = np.sqrt(3.0) / np.where(coplanar, 1.0, d3)
    t_norm = np.zeros((len(s2), 3, 3))
    t_norm[:, 0, 0] = t_norm[:, 1, 1] = s2
    t_norm[:, :2, 2] = -s2[:, None] * c2
    t_norm[:, 2, 2] = 1.0
    u_norm = np.zeros((len(s3), 4, 4))
    u_norm[:, 0, 0] = u_norm[:, 1, 1] = u_norm[:, 2, 2] = s3
    u_norm[:, :3, 3] = -s3[:, None] * c3
    u_norm[:, 3, 3] = 1.0
    px_h = np.ones((len(s2), n, 3))
    px_h[:, :, :2] = pixels
    px_h = px_h @ t_norm.transpose(0, 2, 1)
    pts_h = np.ones((len(s3), n, 4))
    pts_h[:, :, :3] = points
    pts_h = pts_h @ u_norm.transpose(0, 2, 1)

    a = np.zeros((len(s2), 2 * n, 12))
    a[:, 0::2, 0:4] = pts_h
    a[:, 0::2, 8:12] = -px_h[:, :, 0:1] * pts_h
    a[:, 1::2, 4:8] = pts_h
    a[:, 1::2, 8:12] = -px_h[:, :, 1:2] * pts_h
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    p = np.linalg.inv(t_norm) @ vt[:, -1].reshape(-1, 3, 4) @ u_norm

    # sqrt of a dot product, as the one-dimensional `np.linalg.norm` takes it.
    scale = np.sqrt(p[:, 2, None, :3] @ p[:, 2, :3, None])[:, 0, 0]
    rank_deficient = s[:, -2] <= 1e-10 * np.maximum(s[:, 0], 1e-300)
    vanishing = (scale <= 0) | ~np.isfinite(scale)
    reason = np.select([coplanar, coincident, rank_deficient, vanishing], [1, 2, 3, 4], 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = p / scale[:, None, None]
    depths = (points @ p[:, 2, :3, None])[:, :, 0] + p[:, 2, None, 3]
    flip = np.count_nonzero(depths > 0, axis=1) < np.count_nonzero(depths < 0, axis=1)
    p[flip] = -p[flip]
    p[reason != 0] = 0.0
    return p, reason


def _bearings(pixels: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Unit camera-frame rays K⁻¹[u, v, 1] of pixels (n, 2), as (n, 3)."""
    rays = np.ones((len(pixels), 3))
    rays[:, 0] = (pixels[:, 0] - intr.principal_x) / intr.focal_x
    rays[:, 1] = (pixels[:, 1] - intr.principal_y) / intr.focal_y
    return rays / np.sqrt(np.add.reduce(rays * rays, axis=1))[:, None]


# Vectors below are stored coordinate-first, (3, ...), so each coordinate
# is one array; a cross product pairs each coordinate with the next two.
_NEXT = [1, 2, 0]
_PREV = [2, 0, 1]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.add.reduce(a * b, axis=0)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[_NEXT] * b[_PREV] - a[_PREV] * b[_NEXT]


def _frame(edge: np.ndarray, normal: np.ndarray) -> tuple[np.ndarray, ...]:
    """The orthonormal frame of a triangle: its unit first edge, the in-plane
    unit vector normal to it, and the unit normal of its plane."""
    e1 = edge / np.sqrt(_dot(edge, edge))
    e3 = normal / np.sqrt(_dot(normal, normal))
    return e1, _cross(e3, e1), e3


def _p3p_batch(rays: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Grunert's three-point pose over H samples, up to four poses each.

    `rays` (H, 3, 3) are unit bearings and `points` (H, 3, 3) the world
    points they observe. With the ray distances ``s2 = u·s1`` and ``s3 =
    v·s1``, the law of cosines on the three sides gives ``u`` as a rational
    function of ``v`` and a quartic in ``v`` (Haralick et al., IJCV 1994).
    Its roots, the eigenvalues of the companion matrix, give the ray
    distances, which one Newton step on the three law-of-cosines equations
    polishes; aligning the orthonormal frames of the world and camera-frame
    triangles gives the pose. Returns the (H, 4, 3, 4) world-to-camera
    matrices [R|t] and an (H, 4) mask of the real roots that put all three
    points in front of the camera; masked-out matrices are zero. A sample
    whose points are collinear or coincident, or whose rays coincide, has
    none.
    """
    j = rays.transpose(1, 2, 0)  # (point, coordinate, sample)
    x = points.transpose(1, 2, 0)
    edge, far = x[1] - x[0], x[2] - x[0]
    normal = _cross(edge, far)
    a2 = _dot(x[2] - x[1], x[2] - x[1])
    b2 = _dot(far, far)
    c2 = _dot(edge, edge)
    ca, cb, cg = _dot(j[1], j[2]), _dot(j[0], j[2]), _dot(j[0], j[1])
    ok = (np.sqrt(_dot(normal, normal)) > _PLANAR_TOL * np.maximum(np.maximum(a2, b2), c2)) & (
        np.maximum(np.maximum(ca, cb), cg) < 1.0 - 1e-12
    )
    b2 = np.where(ok, b2, 1.0)
    q = (a2 - c2) / b2
    r = c2 / b2
    # u = N(v) / D(v); substituted into the c-side equation times D² this is
    # F = N² - 2·cos γ·N·D + (1 - r·(v² - 2·cos β·v + 1))·D² = 0.
    n2, n1, n0 = q - 1.0, -2.0 * q * cb, 1.0 + q
    d1, d0 = -2.0 * ca, 2.0 * cg
    lead = n2 * n2 - r * d1 * d1
    ok &= np.abs(lead) > 1e-12 * (np.abs(n2 * n2) + np.abs(r * d1 * d1))
    companion = np.zeros((len(q), 4, 4))
    top = companion[:, 0]
    top[:, 0] = 2.0 * (n2 * n1 - cg * n2 * d1 + r * d1 * (cb * d1 - d0))
    top[:, 1] = (
        n1 * n1 + 2.0 * n2 * n0 - 2.0 * cg * (n2 * d0 + n1 * d1)
        + 4.0 * r * cb * d1 * d0 + (1.0 - r) * d1 * d1 - r * d0 * d0
    )
    top[:, 2] = 2.0 * (n1 * n0 - cg * (n1 * d0 + n0 * d1) + r * cb * d0 * d0 + (1.0 - r) * d1 * d0)
    top[:, 3] = n0 * n0 - 2.0 * cg * n0 * d0 + (1.0 - r) * d0 * d0
    top /= -np.where(ok, lead, 1.0)[:, None]
    top[~ok] = 0.0
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    roots = np.linalg.eigvals(companion)
    v = roots.real
    ca, cb, cg, a2, b2, c2 = (y[:, None] for y in (ca, cb, cg, a2, b2, c2))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = ((n2[:, None] * v + n1[:, None]) * v + n0[:, None]) / (d1[:, None] * v + d0[:, None])
        s1 = np.sqrt(b2 / ((v - 2.0 * cb) * v + 1.0))
        s2, s3 = u * s1, v * s1
        # Newton step on f = (s2² + s3² - 2·s2·s3·cos α - a², and the b and
        # c sides alike), whose Jacobian 2·[[0, A, B], [C, 0, D], [E, F, 0]]
        # is inverted by its adjugate.
        pa, pb = s2 - s3 * ca, s3 - s2 * ca
        pc, pd = s1 - s3 * cb, s3 - s1 * cb
        pe, pf = s1 - s2 * cg, s2 - s1 * cg
        f0 = s2 * pa + s3 * pb - a2
        f1 = s1 * pc + s3 * pd - b2
        f2 = s1 * pe + s2 * pf - c2
        half = 0.5 / (pa * pd * pe + pb * pc * pf)
        dist = np.stack(
            [
                s1 - (pf * (pb * f1 - pd * f0) + pa * pd * f2) * half,
                s2 - (pe * (pd * f0 - pb * f1) + pb * pc * f2) * half,
                s3 - (pc * (pf * f0 - pa * f2) + pa * pe * f1) * half,
            ]
        )
        cam = dist[:, None] * j[:, :, :, None]  # (point, coordinate, sample, root)
        world = _frame(edge, normal)
        cam_edge = cam[1] - cam[0]
        camera = _frame(cam_edge, _cross(cam_edge, cam[2] - cam[0]))
        rot = sum(c[:, None] * w[None, :, :, None] for c, w in zip(camera, world))
        shift = np.add.reduce(rot * (x.sum(axis=0) / 3.0)[None, :, :, None], axis=1)
        rt = np.empty(v.shape + (3, 4))
        rt[..., :3] = rot.transpose(2, 3, 0, 1)
        rt[..., 3] = (cam.sum(axis=0) / 3.0 - shift).transpose(1, 2, 0)
        valid = (
            ok[:, None]
            & (np.abs(roots.imag) <= 1e-8 * (1.0 + np.abs(v)))
            & (v > 0)
            & (u > 0)
            & np.isfinite(rt).all(axis=(2, 3))
        )
    rt[~valid] = 0.0
    return rt, valid


def dlt_pose(pixels: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Direct linear transform for the 3x4 projection matrix.

    The correspondences are Hartley-normalized before stacking the 2n x 12
    system; the solution is the right singular vector of the smallest
    singular value, de-normalized, scaled so the third row's rotation part
    is unit (making ``P @ [X;1]`` yield true depths), and sign-fixed so the
    input points have positive depth. This is the one-set case of the
    stacked solver RANSAC runs on its hypothesis batches.

    Raises:
        ValueError: unequal pixel and point counts, or fewer than MIN_CORRESPONDENCES.
        DegenerateConfigurationError: the points are coplanar/collinear, the
            pixels coincide, or the system is rank-deficient.
    """
    px, pts = _correspondences(pixels, points, "DLT")
    p, reason = _dlt_batch(px[None], pts[None])
    if reason[0]:
        raise DegenerateConfigurationError(_DEGENERATE[reason[0]])
    return p[0]


def project_with_matrix(p: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pixels and depths of world points under a projection matrix.

    `p` is one (3, 4) matrix or a stack (H, 3, 4); the results then carry
    the same leading axis, (H, n, 2) pixels and (H, n) depths.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    hom = pts @ np.swapaxes(p[..., :3], -1, -2) + p[..., None, :, 3]
    depth = hom[..., 2]
    valid = depth > DEPTH_EPSILON
    safe = np.where(valid, depth, 1.0)
    pixels = hom[..., :2] / safe[..., None]
    pixels[~valid] = np.nan
    return pixels, depth


def decompose(p: np.ndarray) -> tuple[CameraIntrinsics, CameraPose]:
    """RQ-decompose a projection matrix into intrinsics and pose.

    The triangular factor is sign-fixed to a positive diagonal and the
    rotation to determinant +1. The reported image is centered on the
    principal point. Skew is not part of the camera model and is dropped
    from the reported intrinsics.

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

    intr = CameraIntrinsics(
        focal_x=float(k[0, 0]),
        focal_y=float(k[1, 1]),
        principal_x=float(k[0, 2]),
        principal_y=float(k[1, 2]),
        image_width=max(int(round(2 * abs(k[0, 2]))), 1),
        image_height=max(int(round(2 * abs(k[1, 2]))), 1),
    )
    return intr, CameraPose(rotation=r, translation=t)


def _reprojection_errors(p: np.ndarray, pixels: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Pixel error of each point under `p`, (n,) or (H, n) for a stack of
    matrices; inf where a point is behind the camera, whose pixels
    `project_with_matrix` gives as NaN."""
    proj, _ = project_with_matrix(p, points)
    err = np.linalg.norm(proj - pixels, axis=-1)
    err[~np.isfinite(err)] = np.inf
    return err


def _certify(
    intr: CameraIntrinsics,
    pose: CameraPose,
    pixels: np.ndarray,
    points: np.ndarray,
    threshold: float,
) -> PoseEstimate | None:
    """The camera as an estimate whose inliers are the correspondences that
    reproject within `threshold` under its projection matrix K[R|t], or
    None when fewer than MIN_CORRESPONDENCES do."""
    p = intr.matrix @ np.column_stack([pose.rotation, pose.translation])
    err = _reprojection_errors(p, pixels, points)
    inlier_ids = np.flatnonzero(err <= threshold)
    if len(inlier_ids) < MIN_CORRESPONDENCES:
        return None
    return PoseEstimate(pose, intr, inlier_ids, len(err), float(err[inlier_ids].mean()))


def _stop_bound(ratio: float, sample_size: int, params: RansacParams, drawn: int) -> int:
    """Hypotheses needed to draw one all-inlier sample with `params.confidence`
    at inlier ratio `ratio`: ``log(1 - p) / log(1 - ratio^s)``, capped at
    `params.max_iterations`; `drawn` (stop now) when every point is an
    inlier."""
    if ratio >= 1.0:
        return drawn
    denom = np.log1p(-min(ratio**sample_size, 1 - 1e-12))
    return min(params.max_iterations, int(np.ceil(np.log(1 - params.confidence) / denom)))


def ransac_pose(
    pixels: np.ndarray,
    points: np.ndarray,
    params: RansacParams | None = None,
    *,
    intrinsics: CameraIntrinsics | None = None,
    counters: dict[str, int] | None = None,
) -> PoseEstimate:
    """Robust pose from 2D-3D correspondences by RANSAC.

    Every sample is drawn by `draw_distinct` from one `default_rng(seed)`
    stream, one double per index, so hypothesis h is the same whatever the
    batch sizes. With `intrinsics` set, each hypothesis is a 3-point sample
    solved by P3P (`_p3p_batch`), which gives up to four poses, each scored
    as its own candidate. The best candidate's inliers are certified under
    it and it is returned as is, with `intrinsics`.

    Without them, each hypothesis is a 6-point sample solved by the DLT.
    The best projection matrix is refit on all its inliers, RQ-decomposed,
    and the inliers are certified under the decomposed camera.

    Hypotheses are solved and scored in batches, one stacked solve and one
    stacked reprojection per batch, then replayed in (hypothesis,
    candidate) order, so the reported best is the sequential (count, mean
    error, first) winner and adaptive stopping, at the sample size of the
    path, fires at the same hypothesis whatever the batch size.

    If `counters` is given, it receives `ransac_hypotheses` (samples drawn
    before the stop), `ransac_degenerate` (samples whose minimal solver gave
    no pose: no DLT solution, or, for P3P, collinear or coincident points,
    coincident rays, or no real root with all three points in front) and
    `ransac_stop` (the final stopping bound).

    Raises:
        ValueError: unequal pixel and point counts, or fewer than MIN_CORRESPONDENCES.
        NoModelFoundError: every sample was degenerate, or the best model
            (without `intrinsics`, its decomposed camera, which has no skew)
            explains fewer than MIN_CORRESPONDENCES correspondences.
    """
    params = params or RansacParams()
    px, pts = _correspondences(pixels, points, "RANSAC")
    n = len(px)

    if intrinsics is None:
        sample_size = MIN_CORRESPONDENCES

        def solve(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            p, reason = _dlt_batch(px[samples], pts[samples])
            return p[:, None], (reason == 0)[:, None]

    else:
        sample_size = 3
        rays = _bearings(px, intrinsics)

        def solve(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return _p3p_batch(rays[samples], pts[samples])

    rng = np.random.default_rng(params.seed)
    best = None
    best_count = 0
    best_mean = np.inf
    iterations_needed = params.max_iterations
    degenerate = 0
    h = 0
    while h < iterations_needed:
        size = max(h // 4, _MIN_BATCH) if h else _FIRST_BATCH
        size = min(size, iterations_needed - h, _MAX_BATCH)
        # cams: (size, C, 3, 4) candidate matrices; valid: (size, C) mask.
        cams, valid = solve(draw_distinct(rng, n, size, sample_size))
        cams = cams[valid]
        batch_p = cams if intrinsics is None else intrinsics.matrix @ cams
        err = _reprojection_errors(batch_p, px, pts)
        inliers = err <= params.inlier_threshold
        counts = inliers.sum(axis=1)
        ends = np.cumsum(valid.sum(axis=1)).tolist()
        for i in range(size):
            if h >= iterations_needed:
                break
            h += 1
            first = ends[i - 1] if i else 0
            if first == ends[i]:
                degenerate += 1
                continue
            for row in range(first, ends[i]):
                count = int(counts[row])
                if count == 0 or count < best_count:
                    continue
                mean_err = float(err[row][inliers[row]].mean())
                if count > best_count or mean_err < best_mean:
                    best = cams[row]
                    best_count = count
                    best_mean = mean_err
                    iterations_needed = _stop_bound(count / n, sample_size, params, h)

    if counters is not None:
        counters["ransac_hypotheses"] = h
        counters["ransac_degenerate"] = degenerate
        counters["ransac_stop"] = iterations_needed
    if best is None or best_count < MIN_CORRESPONDENCES:
        raise NoModelFoundError(
            f"no pose explains >= {MIN_CORRESPONDENCES} of {n} correspondences within "
            f"{params.inlier_threshold} px"
        )

    threshold = params.inlier_threshold
    if intrinsics is not None:
        intr, pose = intrinsics, CameraPose(rotation=best[:, :3], translation=best[:, 3])
    else:
        inlier_ids = np.flatnonzero(_reprojection_errors(best, px, pts) <= threshold)
        try:
            refit = dlt_pose(px[inlier_ids], pts[inlier_ids])
            refit_count = np.count_nonzero(_reprojection_errors(refit, px, pts) <= threshold)
            if refit_count >= MIN_CORRESPONDENCES:
                best = refit
        except (DegenerateConfigurationError, ValueError):
            pass
        intr, pose = decompose(best)

    # Certify the inliers under the camera actually reported: the
    # decomposition drops DLT skew, and a skew-free camera that explains
    # too few correspondences is no model.
    estimate = _certify(intr, pose, px, pts, threshold)
    if estimate is None:
        raise NoModelFoundError(
            f"the skew-free camera explains < {MIN_CORRESPONDENCES} of {n} correspondences"
        )
    return estimate


def _exp_rotation(w: np.ndarray) -> np.ndarray:
    """exp([w]x) by Rodrigues' formula: the turn by |w| radians about w."""
    x, y, z = w.tolist()
    theta = math.sqrt(x * x + y * y + z * z)
    if theta < 1e-8:
        # sin(θ)/θ and (1 - cos θ)/θ² to double precision.
        a, b = 1.0, 0.5
    else:
        a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / (theta * theta)
    return np.array(
        [
            [1.0 - b * (y * y + z * z), b * x * y - a * z, b * x * z + a * y],
            [b * x * y + a * z, 1.0 - b * (x * x + z * z), b * y * z - a * x],
            [b * x * z - a * y, b * y * z + a * x, 1.0 - b * (x * x + y * y)],
        ]
    )


def _pixel_residuals(cam: np.ndarray, intr: CameraIntrinsics, pixels: np.ndarray) -> np.ndarray:
    """Stacked pixel residuals [u - u_obs; v - v_obs] (2n,) of camera-frame
    points (n, 3) in front of the camera."""
    n = len(cam)
    r = np.empty(2 * n)
    np.divide(cam[:, :2].T, cam[:, 2], out=r.reshape(2, n))
    r[:n] = r[:n] * intr.focal_x + (intr.principal_x - pixels[:, 0])
    r[n:] = r[n:] * intr.focal_y + (intr.principal_y - pixels[:, 1])
    return r


def _jacobian(cam: np.ndarray, intr: CameraIntrinsics) -> np.ndarray:
    """Jacobian (2n, 6) of `_pixel_residuals` in (w, dt), where the perturbed
    pose maps a point to ``exp([w]x) @ cam + dt``. With ``x = X/Z`` and
    ``y = Y/Z``, the row of u is ``fx·[-xy, 1+x², -y, 1/Z, 0, -x/Z]`` and
    that of v is ``fy·[-(1+y²), xy, x, 0, 1/Z, -y/Z]``."""
    n = len(cam)
    iz = 1.0 / cam[:, 2]
    x = cam[:, 0] * iz
    y = cam[:, 1] * iz
    xy = x * y
    jac = np.empty((2 * n, 6))
    ju, jv = jac[:n], jac[n:]
    ju[:, 0] = -xy
    ju[:, 1] = 1.0 + x * x
    ju[:, 2] = -y
    ju[:, 3] = iz
    ju[:, 4] = 0.0
    ju[:, 5] = -x * iz
    jv[:, 0] = -1.0 - y * y
    jv[:, 1] = xy
    jv[:, 2] = x
    jv[:, 3] = 0.0
    jv[:, 4] = iz
    jv[:, 5] = -y * iz
    ju *= intr.focal_x
    jv *= intr.focal_y
    return jac


def _mean_pixel_error(r: np.ndarray) -> float:
    """Mean pixel distance of stacked residuals [du; dv]."""
    n = len(r) // 2
    return float(np.sqrt(r[:n] * r[:n] + r[n:] * r[n:]).mean())


def refine_pose(
    estimate: PoseEstimate,
    pixels: np.ndarray,
    points: np.ndarray,
    *,
    max_iterations: int = 50,
    counters: dict[str, int] | None = None,
) -> PoseEstimate:
    """Levenberg–Marquardt refinement of the pose over its inliers.

    Minimizes the squared pixel residuals with the estimate's intrinsics
    held fixed: the pose-only LM of Hartley & Zisserman, *Multiple View
    Geometry* (2nd ed., §A6). The six parameters are a rotation
    perturbation ``w``, applied on the left, and a translation step
    ``dt``: ``R <- exp(w) R`` and ``t <- exp(w) t + dt``, with the
    closed-form Jacobian of `_jacobian`. Damping multiplies the diagonal of
    ``JᵀJ``; it falls tenfold after an accepted step and rises tenfold
    after a rejected one. A step is rejected if it does not lower the cost
    or puts a point at depth <= DEPTH_EPSILON. The loop stops at the first
    step whose linearized cost decrease is at most _COST_TOL of the cost,
    or after `max_iterations` steps. A start with a point at depth <=
    DEPTH_EPSILON is not refined.

    Every accepted step lowers the squared-error objective, so refinement
    never raises it. The refined pose is kept only if the mean pixel error
    did not increase either; otherwise, and when no step was accepted,
    `estimate` itself is returned. Either way the estimate's `inlier_ids`
    are returned unchanged and are not re-checked under the refined pose;
    `localize` re-certifies them. If `counters` is given, it receives
    `refine_iterations`: the steps solved, accepted or not. Unequal pixel
    and point counts, or fewer than MIN_CORRESPONDENCES, raise ValueError.
    """
    px, pts = _correspondences(pixels, points, "refinement")

    intr = estimate.intrinsics
    rot, t = estimate.pose.rotation, estimate.pose.translation
    cam = pts @ rot.T + t
    iterations = 0
    accepted = False
    if cam[:, 2].min() > DEPTH_EPSILON:
        r = r0 = _pixel_residuals(cam, intr, px)
        cost = float(r @ r)
        damping = _INITIAL_DAMPING
        moved = True
        while iterations < max_iterations:
            if moved:
                jac = _jacobian(cam, intr)
                jtj = jac.T @ jac
                grad = jac.T @ r
                scale = np.diag(jtj)
            iterations += 1
            # Cholesky solve of the damped normal equations, which are
            # positive definite unless the points leave the pose undetermined.
            _, step, info = scipy.linalg.lapack.dposv(jtj + np.diag(damping * scale), -grad)
            if info:
                break
            # Decrease of the linearized cost: |r|² - |r + J step|².
            if -(2.0 * grad @ step + step @ jtj @ step) <= _COST_TOL * cost:
                break
            turn = _exp_rotation(step[:3])
            rot_new = turn @ rot
            t_new = turn @ t + step[3:]
            cam_new = pts @ rot_new.T + t_new
            moved = False
            if cam_new[:, 2].min() > DEPTH_EPSILON:
                r_new = _pixel_residuals(cam_new, intr, px)
                cost_new = float(r_new @ r_new)
                moved = cost_new < cost
            if moved:
                rot, t, cam, r, cost = rot_new, t_new, cam_new, r_new, cost_new
                damping = max(damping * 0.1, _MIN_DAMPING)
                accepted = True
            else:
                damping *= 10.0
    if counters is not None:
        counters["refine_iterations"] = iterations
    if not accepted:
        return estimate
    mean_error = _mean_pixel_error(r)
    if mean_error > _mean_pixel_error(r0):
        return estimate
    # A product of Rodrigues rotations stays orthonormal to rounding, far
    # inside CameraPose's check.
    return replace(
        estimate,
        pose=CameraPose(rotation=rot, translation=t),
        mean_reprojection_error=mean_error,
    )


def localize(
    query,
    index: MatchIndex,
    match_params: MatchParams | None = None,
    ransac_params: RansacParams | None = None,
) -> LocalizationResult:
    """Full query-to-pose pipeline: match, RANSAC, refine, re-certify.

    RANSAC runs the 3-point calibrated path under the query's own
    calibration, `query.intrinsics`, which the result reports. The pose is
    then refined on the RANSAC inliers and the inliers re-certified under
    the refined pose; if that changed the set, the pose is refined once more
    on the new set and certified again. Both stages are called through their
    `egoloc.pose` names, so a tracer that rebinds them sees each call.

    `counters` carries the matching and RANSAC counters and
    `refine_iterations`, summed over the refinement passes.

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
    if len(matches) < MIN_CORRESPONDENCES:
        raise RegistrationFailedError("matching", f"only {len(matches)} correspondences")

    px = query.pixels[matches["feature_index"]]
    point_ids = matches["point_id"]
    pts = index.positions_of(point_ids)

    t0 = time.perf_counter()
    try:
        estimate = ransac_pose(
            px, pts, ransac_params, intrinsics=query.intrinsics, counters=counters
        )
    except NoModelFoundError as exc:
        raise RegistrationFailedError("ransac", str(exc)) from exc
    timings["ransac"] = time.perf_counter() - t0

    # Refine on the inliers and re-certify under the refined pose, so the
    # reported counts hold for the pose returned. If that changed the inlier
    # set, refine once more on the new set and certify again.
    t0 = time.perf_counter()
    refined = estimate
    steps = 0
    for _ in range(2):
        used = refined.inlier_ids
        refined = refine_pose(refined, px[used], pts[used], counters=counters)
        steps += counters["refine_iterations"]
        certified = _certify(
            refined.intrinsics, refined.pose, px, pts, ransac_params.inlier_threshold
        )
        if certified is None:
            break
        refined = certified
        if np.array_equal(certified.inlier_ids, used):
            break
    counters["refine_iterations"] = steps
    timings["refine"] = time.perf_counter() - t0

    timings["total"] = sum(timings.values())
    return LocalizationResult(
        **vars(refined),
        inlier_point_ids=point_ids[refined.inlier_ids],
        timings=timings,
        counters=counters,
    )
