"""DLT, decomposition, RANSAC, refinement, and the localize pipeline."""

import numpy as np
import pytest

from egoloc import (
    CameraIntrinsics,
    CameraPose,
    MatchParams,
    QueryView,
    RansacParams,
    SceneSpec,
    build_index,
    build_model,
    decompose,
    dlt_pose,
    generate_scene,
    localize,
    ransac_pose,
    refine_pose,
    render_view,
)
from egoloc.errors import (
    DegenerateConfigurationError,
    NoModelFoundError,
    RegistrationFailedError,
    SingularBlockError,
)
from egoloc.pose import project_with_matrix

from conftest import random_pose, random_rotation


def make_intrinsics(f=600.0, cx=320.0, cy=240.0):
    return CameraIntrinsics(
        focal_x=f, focal_y=f, principal_x=cx, principal_y=cy, image_width=640, image_height=480
    )


def projection_matrix(intr: CameraIntrinsics, pose: CameraPose) -> np.ndarray:
    return intr.matrix @ np.column_stack([pose.rotation, pose.translation])


def correspondences_for(pose, intr, points):
    p = projection_matrix(intr, pose)
    pixels, depth = project_with_matrix(p, points)
    assert (depth > 0).all()
    return pixels


def front_facing_points(rng, pose, n, spread=4.0, depth_range=(4.0, 12.0)):
    """Random world points guaranteed in front of the camera."""
    cam_pts = np.column_stack(
        [
            rng.uniform(-spread, spread, size=n),
            rng.uniform(-spread, spread, size=n),
            rng.uniform(*depth_range, size=n),
        ]
    )
    return (cam_pts - pose.translation) @ pose.rotation


def matrices_close_up_to_scale(a, b, tol):
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    if np.sign(a.flat[np.argmax(np.abs(a))]) != np.sign(b.flat[np.argmax(np.abs(b))]):
        b = -b
    return np.linalg.norm(a - b) < tol


class TestDltPose:
    def test_recovers_matrix_up_to_scale(self):
        rng = np.random.default_rng(1)
        pose = random_pose(rng, translation_scale=2.0)
        intr = make_intrinsics()
        points = front_facing_points(rng, pose, 8)
        pixels = correspondences_for(pose, intr, points)
        p = dlt_pose(pixels, points)
        truth = projection_matrix(intr, pose)
        assert matrices_close_up_to_scale(p, truth, 1e-8)

    def test_planar_configuration_degenerate(self):
        rng = np.random.default_rng(2)
        pose = random_pose(rng, translation_scale=1.0)
        intr = make_intrinsics()
        points = front_facing_points(rng, pose, 6)
        points[:, 2] = 0.0  # flatten onto a world plane
        points = points + np.array([0.0, 0.0, 1.0])
        cam = points @ pose.rotation.T + pose.translation
        keep = cam[:, 2] > 0.5
        if keep.sum() >= 6:
            pixels = correspondences_for(pose, intr, points)
            with pytest.raises(DegenerateConfigurationError):
                dlt_pose(pixels, points)
        else:
            flat = np.column_stack([np.arange(6), np.arange(6) ** 2, np.zeros(6)])
            with pytest.raises(DegenerateConfigurationError):
                dlt_pose(np.zeros((6, 2)), flat)

    def test_too_few_correspondences(self):
        with pytest.raises(ValueError):
            dlt_pose(np.zeros((5, 2)), np.zeros((5, 3)))

    def test_camera_center_accuracy_over_random_poses(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pose = random_pose(rng, translation_scale=3.0)
            intr = make_intrinsics()
            points = front_facing_points(rng, pose, 50)
            pixels = correspondences_for(pose, intr, points)
            p = dlt_pose(pixels, points)
            _, recovered = decompose(p)
            assert np.linalg.norm(recovered.center - pose.center) < 1e-6

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        pose = random_pose(rng, translation_scale=2.0)
        intr = make_intrinsics()
        points = front_facing_points(rng, pose, 30)
        pixels = correspondences_for(pose, intr, points)
        _, est1 = decompose(dlt_pose(pixels, points))
        s = 3.7
        scaled_pose = CameraPose(rotation=pose.rotation, translation=s * pose.translation)
        scaled_pixels = correspondences_for(scaled_pose, intr, s * points)
        np.testing.assert_allclose(scaled_pixels, pixels, atol=1e-9)
        _, est2 = decompose(dlt_pose(scaled_pixels, s * points))
        np.testing.assert_allclose(est2.center, s * est1.center, rtol=1e-8, atol=1e-10)


class TestDecompose:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pose = random_pose(rng, translation_scale=2.0)
            intr = make_intrinsics(f=rng.uniform(300, 900))
            p = projection_matrix(intr, pose)
            got_intr, got_pose = decompose(2.5 * p, image_size=(640, 480))
            assert got_intr.focal_x == pytest.approx(intr.focal_x, abs=1e-9)
            assert got_intr.focal_y == pytest.approx(intr.focal_y, abs=1e-9)
            assert got_intr.principal_x == pytest.approx(intr.principal_x, abs=1e-9)
            np.testing.assert_allclose(got_pose.rotation, pose.rotation, atol=1e-9)
            np.testing.assert_allclose(got_pose.translation, pose.translation, atol=1e-9)

    def test_identity_with_offset(self):
        intr = CameraIntrinsics(
            focal_x=1.0,
            focal_y=1.0,
            principal_x=0.0,
            principal_y=0.0,
            image_width=2,
            image_height=2,
        )
        pose = CameraPose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 5.0]))
        p = projection_matrix(intr, pose)
        _, got = decompose(p, image_size=(2, 2))
        np.testing.assert_allclose(got.center, [0.0, 0.0, -5.0], atol=1e-12)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            pose = random_pose(rng)
            intr = make_intrinsics(f=rng.uniform(200, 1000), cx=rng.uniform(100, 500))
            p = rng.uniform(0.5, 2.0) * projection_matrix(intr, pose)
            k, got_pose = decompose(p, image_size=(640, 480))
            rebuilt = k.matrix @ np.column_stack([got_pose.rotation, got_pose.translation])
            scale = p[2, :3] @ got_pose.rotation[2, :3]
            np.testing.assert_allclose(rebuilt * scale, p, atol=1e-9 * np.linalg.norm(p))
            assert k.focal_x > 0 and k.focal_y > 0

    def test_singular_block(self):
        p = np.zeros((3, 4))
        p[0, 0] = p[1, 1] = 1.0
        p[2, 3] = 1.0
        with pytest.raises(SingularBlockError):
            decompose(p)


class TestRansacPose:
    def test_all_inliers_noise_free(self):
        rng = np.random.default_rng(7)
        pose = random_pose(rng, translation_scale=2.0)
        intr = make_intrinsics()
        points = front_facing_points(rng, pose, 40)
        pixels = correspondences_for(pose, intr, points)
        estimate = ransac_pose(pixels, points, RansacParams(seed=1))
        assert estimate.n_inliers == estimate.n_correspondences == 40
        assert np.linalg.norm(estimate.pose.center - pose.center) < 1e-6

    def test_robust_to_outliers(self):
        successes = 0
        for trial in range(10):
            rng = np.random.default_rng(100 + trial)
            pose = random_pose(rng, translation_scale=2.0)
            intr = make_intrinsics()
            inlier_pts = front_facing_points(rng, pose, 70)
            inlier_px = correspondences_for(pose, intr, inlier_pts) + rng.normal(
                scale=0.5, size=(70, 2)
            )
            outlier_pts = front_facing_points(rng, pose, 30)
            outlier_px = np.column_stack(
                [rng.uniform(0, 640, size=30), rng.uniform(0, 480, size=30)]
            )
            pixels = np.vstack([inlier_px, outlier_px])
            points = np.vstack([inlier_pts, outlier_pts])
            estimate = ransac_pose(pixels, points, RansacParams(seed=trial))
            scene_extent = 16.0  # spread of the synthetic points
            if np.linalg.norm(estimate.pose.center - pose.center) < 0.01 * scene_extent:
                successes += 1
        assert successes >= 9

    def test_too_few_raises(self):
        with pytest.raises(ValueError):
            ransac_pose(np.zeros((5, 2)), np.zeros((5, 3)), RansacParams())

    def test_degenerate_data_no_model(self):
        # Coplanar points defeat every 6-point sample, so no model exists.
        rng = np.random.default_rng(8)
        points = np.column_stack(
            [rng.uniform(-5, 5, size=30), rng.uniform(-5, 5, size=30), np.zeros(30)]
        )
        pixels = rng.uniform(0, 640, size=(30, 2))
        with pytest.raises(NoModelFoundError):
            ransac_pose(pixels, points, RansacParams(max_iterations=100, seed=2))

    def test_pure_noise_yields_weak_support(self):
        # Random correspondences still admit exact minimal fits, so a model
        # exists, but it never explains much beyond its own sample.
        rng = np.random.default_rng(8)
        pixels = rng.uniform(0, 640, size=(30, 2))
        points = rng.uniform(-10, 10, size=(30, 3))
        try:
            estimate = ransac_pose(pixels, points, RansacParams(max_iterations=100, seed=2))
        except NoModelFoundError:
            return
        assert estimate.n_inliers <= 15

    def test_inlier_certification(self):
        rng = np.random.default_rng(9)
        pose = random_pose(rng, translation_scale=2.0)
        intr = make_intrinsics()
        points = front_facing_points(rng, pose, 60)
        pixels = correspondences_for(pose, intr, points) + rng.normal(scale=1.5, size=(60, 2))
        params = RansacParams(inlier_threshold=4.0, seed=3)
        estimate = ransac_pose(pixels, points, params)
        p = estimate.intrinsics.matrix @ np.column_stack(
            [estimate.pose.rotation, estimate.pose.translation]
        )
        proj, depth = project_with_matrix(p, points[estimate.inlier_ids])
        err = np.linalg.norm(proj - pixels[estimate.inlier_ids], axis=1)
        assert (depth > 0).all()
        assert (err <= params.inlier_threshold + 1e-9).all()

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(10)
        pose = random_pose(rng, translation_scale=2.0)
        intr = make_intrinsics()
        points = front_facing_points(rng, pose, 50)
        pixels = correspondences_for(pose, intr, points) + rng.normal(scale=1.0, size=(50, 2))
        a = ransac_pose(pixels, points, RansacParams(seed=11))
        b = ransac_pose(pixels, points, RansacParams(seed=11))
        np.testing.assert_array_equal(a.inlier_ids, b.inlier_ids)
        np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)


class TestRefinePose:
    def _setup(self, rng, pixel_noise=0.0):
        pose = random_pose(rng, translation_scale=2.0)
        intr = make_intrinsics()
        points = front_facing_points(rng, pose, 40)
        pixels = correspondences_for(pose, intr, points)
        if pixel_noise:
            pixels = pixels + rng.normal(scale=pixel_noise, size=pixels.shape)
        estimate = ransac_pose(pixels, points, RansacParams(seed=4))
        return pose, intr, points, pixels, estimate

    def test_stationary_at_ground_truth(self):
        rng = np.random.default_rng(11)
        pose, intr, points, pixels, _ = self._setup(rng)
        from egoloc.pose import PoseEstimate

        estimate = PoseEstimate(
            pose=pose,
            intrinsics=intr,
            inlier_ids=np.arange(40),
            n_correspondences=40,
            n_inliers=40,
            mean_reprojection_error=0.0,
        )
        refined = refine_pose(estimate, pixels, points)
        assert np.linalg.norm(refined.pose.center - pose.center) < 1e-12

    def test_recovers_from_perturbation(self):
        from scipy.spatial.transform import Rotation

        rng = np.random.default_rng(12)
        pose, intr, points, pixels, _ = self._setup(rng)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        wobble = Rotation.from_rotvec(np.deg2rad(2.0) * axis).as_matrix()
        perturbed = CameraPose(
            rotation=wobble @ pose.rotation,
            translation=pose.translation + rng.normal(scale=0.1, size=3),
        )
        from egoloc.pose import PoseEstimate

        estimate = PoseEstimate(
            pose=perturbed,
            intrinsics=intr,
            inlier_ids=np.arange(40),
            n_correspondences=40,
            n_inliers=40,
            mean_reprojection_error=1.0,
        )
        refined = refine_pose(estimate, pixels, points)
        assert np.linalg.norm(refined.pose.center - pose.center) < 1e-6

    def test_objective_never_increases(self):
        rng = np.random.default_rng(13)
        for trial in range(5):
            pose, intr, points, pixels, estimate = self._setup(rng, pixel_noise=1.0)
            inl = estimate.inlier_ids
            refined = refine_pose(estimate, pixels[inl], points[inl])
            assert refined.mean_reprojection_error <= estimate.mean_reprojection_error + 1e-12


@pytest.fixture(scope="module")
def loc_setup():
    spec = SceneSpec(
        num_planes=2,
        num_lines=1,
        points_per_plane=200,
        points_per_line=60,
        num_clutter=40,
        num_cameras=6,
        descriptor_dim=32,
        descriptor_noise_sigma=0.0,
        pixel_noise_sigma=0.0,
        seed=55,
    )
    scene = generate_scene(spec)
    model = build_model(scene, 0.0, seed=1)
    index = build_index(model, num_words=16, seed=2)
    return scene, model, index


class TestLocalize:
    def test_noise_free_view_accurate(self, loc_setup):
        scene, model, index = loc_setup
        view = render_view(scene, 0, seed=3)
        result = localize(view, index, MatchParams(), RansacParams(seed=4))
        err = np.linalg.norm(result.pose.center - view.true_pose.center)
        assert err < 0.01 * scene.spec.scene_extent
        assert result.n_inliers >= 6
        assert result.n_inliers <= result.n_correspondences
        assert set(result.timings) >= {"match", "ransac", "refine", "total"}
        assert set(result.counters) == {"features_scanned", "words_evaluated"}
        assert result.counters["features_scanned"] <= view.num_features

    def test_random_descriptors_fail_matching(self, loc_setup):
        scene, model, index = loc_setup
        rng = np.random.default_rng(5)
        view = render_view(scene, 1, seed=6)
        noise = rng.normal(size=view.descriptors.shape)
        noise /= np.linalg.norm(noise, axis=1, keepdims=True)
        bogus = QueryView(
            true_pose=view.true_pose,
            intrinsics=view.intrinsics,
            pixels=view.pixels,
            descriptors=noise,
        )
        with pytest.raises(RegistrationFailedError) as exc_info:
            localize(bogus, index, MatchParams(), RansacParams(seed=7))
        assert exc_info.value.stage == "matching"

    def test_cross_scene_view_rejected_or_unverified(self, loc_setup):
        from egoloc import verify

        scene, model, index = loc_setup
        other = generate_scene(
            SceneSpec(
                num_planes=2,
                points_per_plane=200,
                num_clutter=40,
                num_cameras=6,
                descriptor_dim=32,
                seed=999,
            )
        )
        view = render_view(other, 0, seed=8)
        try:
            result = localize(view, index, MatchParams(), RansacParams(seed=9))
        except RegistrationFailedError:
            return
        assert not verify(result, t1=50, t2=0.5)

    def test_known_intrinsics_mode(self, loc_setup):
        scene, model, index = loc_setup
        view = render_view(scene, 2, seed=10)
        result = localize(
            view, index, MatchParams(), RansacParams(seed=11), use_query_intrinsics=True
        )
        assert result.intrinsics is view.intrinsics
        err = np.linalg.norm(result.pose.center - view.true_pose.center)
        assert err < 0.01 * scene.spec.scene_extent
