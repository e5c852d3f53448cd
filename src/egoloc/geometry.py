"""Pinhole camera geometry: poses, projection and point-camera visibility.

Conventions
-----------
World frame is right-handed with coordinates in meters. A camera pose maps
world to camera coordinates as ``x_cam = R @ x_world + t``; the camera looks
along +Z of its own frame, so a point is in front of the camera when its
camera-frame depth is positive. Pixels are ``(u, v)`` with u along image
width and v along image height.

All types are immutable after construction and all operations are pure, so
they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Minimum camera-frame depth for a projection to be defined.
DEPTH_EPSILON = 1e-12

# The fewest 2D-3D correspondences a pose is estimated from: the DLT's minimal sample.
MIN_CORRESPONDENCES = 6

# Tolerance for the rotation orthonormality check on pose construction.
ROTATION_TOL = 1e-9


def _store_read_only(obj, name: str, dtype, shape) -> np.ndarray:
    """Set field `name` of `obj`, a frozen dataclass too, to a read-only copy
    in `dtype` and `shape`, and return it; the caller's array is untouched."""
    arr = np.asarray(getattr(obj, name), dtype=dtype).reshape(shape).copy()
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics; focal lengths and principal point in pixels."""

    focal_x: float
    focal_y: float
    principal_x: float
    principal_y: float
    image_width: int
    image_height: int

    def __post_init__(self):
        if not (self.focal_x > 0 and self.focal_y > 0):
            raise ValueError("focal lengths must be positive")
        if not (self.image_width > 0 and self.image_height > 0):
            raise ValueError("image size must be positive")

    @property
    def matrix(self) -> np.ndarray:
        """3x3 calibration matrix K."""
        return np.array(
            [
                [self.focal_x, 0.0, self.principal_x],
                [0.0, self.focal_y, self.principal_y],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class CameraPose:
    """World-to-camera rigid transform ``x_cam = R @ x_world + t``.

    The rotation is validated to be orthonormal with determinant +1 on
    every construction.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = _store_read_only(self, "rotation", np.float64, (3, 3))
        _store_read_only(self, "translation", np.float64, 3)
        if np.max(np.abs(r.T @ r - np.eye(3))) >= ROTATION_TOL:
            raise ValueError("rotation is not orthonormal")
        if np.linalg.det(r) <= 0:
            raise ValueError("rotation must have determinant +1")
        if not np.all(np.isfinite(self.center)):
            raise ValueError("camera center is not finite")

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates, ``-R.T @ t``."""
        return -self.rotation.T @ self.translation


def project_array(
    pose: CameraPose, intr: CameraIntrinsics, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Project many world points at once.

    Returns ``(pixels, depths)`` where pixels of points at or behind the
    camera plane are NaN instead of raising; callers filter on depth.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    p_cam = pts @ pose.rotation.T + pose.translation
    z = p_cam[:, 2]
    valid = z > DEPTH_EPSILON
    pixels = np.full((len(pts), 2), np.nan)
    safe_z = np.where(valid, z, 1.0)
    pixels[:, 0] = intr.focal_x * p_cam[:, 0] / safe_z + intr.principal_x
    pixels[:, 1] = intr.focal_y * p_cam[:, 1] / safe_z + intr.principal_y
    pixels[~valid] = np.nan
    return pixels, z


class VisibilityMatrix:
    """Sparse binary point-camera visibility.

    Stored in one direction only: `points_in_camera[j]` is the sorted array
    of point rows camera j sees. Per-point quantities (`track_lengths`) are
    computed from those lists on demand.
    """

    def __init__(self, num_points: int, points_in_camera: Sequence[np.ndarray]):
        if num_points < 0:
            raise ValueError("num_points must be non-negative")
        self.num_points = int(num_points)
        self.points_in_camera: list[np.ndarray] = []
        for j, ids in enumerate(points_in_camera):
            arr = np.array(ids, dtype=np.int64).reshape(-1)
            # Every list built in this package or read from a model file is
            # strictly increasing already; `np.unique` would cost far more
            # than this check.
            if not np.all(arr[1:] > arr[:-1]):
                arr = np.unique(arr)
            if arr.size and (arr[0] < 0 or arr[-1] >= num_points):
                raise ValueError(f"camera {j} references point ids out of range")
            arr.flags.writeable = False
            self.points_in_camera.append(arr)

    @property
    def num_cameras(self) -> int:
        return len(self.points_in_camera)

    @classmethod
    def from_dense(cls, mask: np.ndarray) -> "VisibilityMatrix":
        """Build from a dense (num_points, num_cameras) boolean matrix."""
        m = np.asarray(mask, dtype=bool)
        lists = [np.flatnonzero(m[:, j]) for j in range(m.shape[1])]
        return cls(m.shape[0], lists)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.num_points, self.num_cameras), dtype=bool)
        for j, ids in enumerate(self.points_in_camera):
            dense[ids, j] = True
        return dense

    def camera_counts(self) -> np.ndarray:
        """Number of visible points per camera."""
        return np.array([len(ids) for ids in self.points_in_camera], dtype=np.int64)

    def track_lengths(self) -> np.ndarray:
        """Number of cameras seeing each point."""
        ids = np.concatenate([np.zeros(0, dtype=np.int64), *self.points_in_camera])
        return np.bincount(ids, minlength=self.num_points)

    def restrict_points(self, rows: np.ndarray) -> "VisibilityMatrix":
        """Visibility over a subset of points, re-indexed to 0..len(rows)-1.

        Camera count is preserved; cameras seeing none of the kept points get
        empty lists. Each list is sorted, since `rows` may come in any order.
        """
        rows = np.asarray(rows, dtype=np.int64)
        remap = -np.ones(self.num_points, dtype=np.int64)
        remap[rows] = np.arange(len(rows))
        lists = []
        for ids in self.points_in_camera:
            kept = remap[ids]
            lists.append(np.sort(kept[kept >= 0]))
        return VisibilityMatrix(len(rows), lists)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VisibilityMatrix):
            return NotImplemented
        return (
            self.num_points == other.num_points
            and self.num_cameras == other.num_cameras
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.points_in_camera, other.points_in_camera)
            )
        )

    def __repr__(self) -> str:
        return f"VisibilityMatrix({self.num_points} points, {self.num_cameras} cameras)"


def pose_looking_at(eye: np.ndarray, target: np.ndarray) -> CameraPose:
    """Camera pose positioned at `eye` with the optical axis through `target`.

    Camera +Z points at the target, +X right, +Y down (image convention),
    with world +Z up.
    """
    eye = np.asarray(eye, dtype=np.float64).reshape(3)
    target = np.asarray(target, dtype=np.float64).reshape(3)
    up = np.array([0.0, 0.0, 1.0])
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("eye and target coincide")
    forward = forward / norm
    right = np.cross(forward, up)
    if np.linalg.norm(right) < 1e-9:
        # Forward parallel to up; pick an arbitrary perpendicular axis.
        right = np.cross(forward, np.array([1.0, 0.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    r = np.stack([right, down, forward])
    return CameraPose(rotation=r, translation=-r @ eye)
