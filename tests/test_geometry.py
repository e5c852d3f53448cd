"""Camera geometry: projection, reprojection error, visibility."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoloc import CameraIntrinsics, CameraPose, VisibilityMatrix
from egoloc.geometry import DEPTH_EPSILON, project_array
from egoloc.pose import _reprojection_errors

from conftest import random_pose, random_rotation, unit_intrinsics

IDENTITY = CameraPose(rotation=np.eye(3), translation=np.zeros(3))


def project(pose, intr, point):
    """The pixel of one point, through `project_array`."""
    pixels, _ = project_array(pose, intr, point)
    return pixels[0]


def reprojection_error(pose, intr, point, observed):
    """The pose module's pixel error of one point under K [R | t]."""
    p = intr.matrix @ np.column_stack([pose.rotation, pose.translation])
    return float(_reprojection_errors(p, np.reshape(observed, (1, 2)), point)[0])


def line_plane_projection_oracle(
    pose: CameraPose, intr: CameraIntrinsics, point: np.ndarray
) -> np.ndarray:
    """Project by intersecting the viewing ray with the z=1 plane in camera
    coordinates, solved as a generic line/plane intersection."""
    center = -pose.rotation.T @ pose.translation
    p0 = pose.rotation @ center + pose.translation  # camera center in camera frame
    p1 = pose.rotation @ point + pose.translation
    direction = p1 - p0
    normal = np.array([0.0, 0.0, 1.0])
    s = (1.0 - normal @ p0) / (normal @ direction)
    hit = p0 + s * direction
    return np.array(
        [intr.focal_x * hit[0] + intr.principal_x, intr.focal_y * hit[1] + intr.principal_y]
    )


class TestProject:
    def test_on_optical_axis(self):
        pixel = project(IDENTITY, unit_intrinsics(), np.array([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(pixel, [0.0, 0.0])

    def test_similar_triangles(self):
        pixel = project(IDENTITY, unit_intrinsics(), np.array([1.0, 1.0, 2.0]))
        np.testing.assert_allclose(pixel, [0.5, 0.5])

    def test_matches_line_plane_intersection_oracle(self):
        rng = np.random.default_rng(42)
        intr = CameraIntrinsics(
            focal_x=500.0,
            focal_y=510.0,
            principal_x=320.0,
            principal_y=240.0,
            image_width=640,
            image_height=480,
        )
        checked = 0
        while checked < 50:
            pose = random_pose(rng)
            point = rng.uniform(-10, 10, size=3)
            cam_z = (pose.rotation @ point + pose.translation)[2]
            if cam_z < 0.1:
                continue
            expected = line_plane_projection_oracle(pose, intr, point)
            got = project(pose, intr, point)
            np.testing.assert_allclose(got, expected, atol=1e-10)
            checked += 1

    def test_behind_camera_gives_nan(self):
        points = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        pixels, depths = project_array(IDENTITY, unit_intrinsics(), points)
        assert np.all(np.isnan(pixels[:2]))
        assert np.all(depths[:2] <= DEPTH_EPSILON)
        np.testing.assert_array_equal(pixels[2], [0.0, 0.0])
        assert np.isinf(reprojection_error(IDENTITY, unit_intrinsics(), points[0], [0.0, 0.0]))

    @given(
        u=st.floats(-300, 300),
        v=st.floats(-300, 300),
        depth=st.floats(0.01, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_unproject_round_trip(self, u, v, depth, seed):
        """A pixel back-projected at a depth projects to that pixel and depth."""
        rng = np.random.default_rng(seed)
        pose = random_pose(rng)
        intr = CameraIntrinsics(
            focal_x=400.0,
            focal_y=420.0,
            principal_x=300.0,
            principal_y=200.0,
            image_width=600,
            image_height=400,
        )
        pixel = np.array([u, v])
        p_cam = np.array(
            [
                (u - intr.principal_x) / intr.focal_x * depth,
                (v - intr.principal_y) / intr.focal_y * depth,
                depth,
            ]
        )
        world = pose.rotation.T @ (p_cam - pose.translation)
        pixels, depths = project_array(pose, intr, world)
        np.testing.assert_allclose(pixels[0], pixel, atol=1e-9)
        assert depths[0] == pytest.approx(depth, rel=1e-9)


class TestReprojectionError:
    def test_zero_on_exact_observation(self):
        point = np.array([0.3, -0.2, 2.0])
        observed = project(IDENTITY, unit_intrinsics(), point)
        assert reprojection_error(IDENTITY, unit_intrinsics(), point, observed) == 0.0

    def test_three_four_five(self):
        point = np.array([0.0, 0.0, 1.0])  # projects to (0, 0)
        err = reprojection_error(IDENTITY, unit_intrinsics(), point, np.array([3.0, 4.0]))
        assert err == pytest.approx(5.0, abs=1e-12)

    def test_matches_project_recomputation(self):
        rng = np.random.default_rng(7)
        intr = unit_intrinsics()
        for _ in range(20):
            pose = random_pose(rng)
            point = rng.uniform(-5, 5, size=3)
            if (pose.rotation @ point + pose.translation)[2] < 0.1:
                continue
            observed = rng.uniform(-2, 2, size=2)
            expected = float(np.linalg.norm(project(pose, intr, point) - observed))
            assert abs(reprojection_error(pose, intr, point, observed) - expected) <= 1e-12

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            point = np.array([rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0.5, 3)])
            observed = rng.uniform(-2, 2, size=2)
            assert reprojection_error(IDENTITY, unit_intrinsics(), point, observed) >= 0.0


class TestCameraCenter:
    def test_identity(self):
        assert np.array_equal(IDENTITY.center, np.zeros(3))

    def test_translation_negated(self):
        pose = CameraPose(rotation=np.eye(3), translation=np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(pose.center, [-1.0, -2.0, -3.0])

    def test_residual_property(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            pose = random_pose(rng)
            c = pose.center
            np.testing.assert_allclose(pose.rotation @ c + pose.translation, 0.0, atol=1e-12)


class TestCameraPoseValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            CameraPose(rotation=np.eye(3) * 1.01, translation=np.zeros(3))

    def test_rejects_reflection(self):
        r = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            CameraPose(rotation=r, translation=np.zeros(3))

    def test_accepts_valid_rotations(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            CameraPose(rotation=random_rotation(rng), translation=rng.normal(size=3))


class TestVisibilityMatrix:
    def test_cross_consistency(self):
        vis = VisibilityMatrix(4, [np.array([0, 2]), np.array([1, 2, 3])])
        assert 2 in vis.points_in_camera[0] and 2 in vis.points_in_camera[1]
        assert 0 not in vis.points_in_camera[1]
        np.testing.assert_array_equal(vis.track_lengths(), [1, 1, 2, 1])
        np.testing.assert_array_equal(vis.camera_counts(), [2, 3])

    def test_lists_sorted_deduplicated_and_copied(self):
        ids = np.array([3, 1, 1, 0], dtype=np.int64)
        sorted_ids = np.array([0, 2, 3], dtype=np.int64)
        vis = VisibilityMatrix(4, [ids, sorted_ids, [2, 2]])
        np.testing.assert_array_equal(vis.points_in_camera[0], [0, 1, 3])
        np.testing.assert_array_equal(vis.points_in_camera[1], [0, 2, 3])
        np.testing.assert_array_equal(vis.points_in_camera[2], [2])
        # Stored lists are read-only copies; the caller's arrays stay as given.
        assert not np.shares_memory(vis.points_in_camera[1], sorted_ids)
        assert sorted_ids.flags.writeable
        assert not vis.points_in_camera[1].flags.writeable
        for stored in vis.points_in_camera:
            assert stored.dtype == np.int64

    def test_dense_round_trip(self):
        rng = np.random.default_rng(9)
        mask = rng.random((10, 4)) < 0.5
        vis = VisibilityMatrix.from_dense(mask)
        np.testing.assert_array_equal(vis.to_dense(), mask)

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            VisibilityMatrix(2, [np.array([0, 5])])

    def test_restrict_points(self):
        vis = VisibilityMatrix(5, [np.array([0, 2, 4]), np.array([1, 2])])
        sub = vis.restrict_points(np.array([2, 4]))
        assert sub.num_points == 2 and sub.num_cameras == 2
        np.testing.assert_array_equal(sub.points_in_camera[0], [0, 1])
        np.testing.assert_array_equal(sub.points_in_camera[1], [0])
