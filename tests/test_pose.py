"""DLT, decomposition, RANSAC, refinement, and the localize pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from egoloc import (
    CameraIntrinsics,
    CameraPose,
    DetectParams,
    MatchParams,
    QueryView,
    RansacParams,
    SceneSpec,
    build_index,
    build_model,
    compress_weighted_kcover,
    decompose,
    detect_structures,
    dlt_pose,
    generate_scene,
    localize,
    ransac_pose,
    refine_pose,
    render_view,
)
from egoloc.bench import held_out_views, tune_k
from egoloc.errors import (
    DegenerateConfigurationError,
    NoModelFoundError,
    RegistrationFailedError,
    SingularBlockError,
)
from egoloc.geometry import DEPTH_EPSILON
from egoloc.pool import verify
from egoloc.pose import _bearings, _draw_triples, _p3p_batch, project_with_matrix

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
            got_intr, got_pose = decompose(2.5 * p)
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
        _, got = decompose(p)
        np.testing.assert_allclose(got.center, [0.0, 0.0, -5.0], atol=1e-12)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            pose = random_pose(rng)
            intr = make_intrinsics(f=rng.uniform(200, 1000), cx=rng.uniform(100, 500))
            p = rng.uniform(0.5, 2.0) * projection_matrix(intr, pose)
            k, got_pose = decompose(p)
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


def reference_dlt(px, pts):
    """Per-system DLT, one correspondence set at a time, as written before
    RANSAC solved its hypotheses in batches."""
    n = len(px)
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[2] <= 1e-9 * max(sv[0], 1e-300):
        raise DegenerateConfigurationError("coplanar")

    def normalization(x, root):
        centroid = x.mean(axis=0)
        dist = np.linalg.norm(x - centroid, axis=1).mean()
        if dist <= 0:
            raise DegenerateConfigurationError("coincident")
        s = root / dist
        u = np.eye(len(centroid) + 1)
        u[:-1, :-1] *= s
        u[:-1, -1] = -s * centroid
        return u

    t_norm = normalization(px, np.sqrt(2.0))
    u_norm = normalization(pts, np.sqrt(3.0))
    px_h = np.column_stack([px, np.ones(n)]) @ t_norm.T
    pts_h = np.column_stack([pts, np.ones(n)]) @ u_norm.T
    a = np.zeros((2 * n, 12))
    a[0::2, 0:4] = pts_h
    a[0::2, 8:12] = -px_h[:, [0]] * pts_h
    a[1::2, 4:8] = pts_h
    a[1::2, 8:12] = -px_h[:, [1]] * pts_h
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    if s[-2] <= 1e-10 * max(s[0], 1e-300):
        raise DegenerateConfigurationError("rank-deficient")
    p = np.linalg.inv(t_norm) @ vt[-1].reshape(3, 4) @ u_norm
    scale = np.linalg.norm(p[2, :3])
    if scale <= 0 or not np.isfinite(scale):
        raise DegenerateConfigurationError("vanishing third row")
    p = p / scale
    depths = pts @ p[2, :3] + p[2, 3]
    if np.sum(depths > 0) < np.sum(depths < 0):
        p = -p
    return p


def reference_errors(p, px, pts):
    hom = pts @ p[:, :3].T + p[:, 3]
    depth = hom[:, 2]
    valid = depth > DEPTH_EPSILON
    proj = hom[:, :2] / np.where(valid, depth, 1.0)[:, None]
    proj[~valid] = np.nan
    err = np.linalg.norm(proj - px, axis=1)
    err[~valid] = np.inf
    err[~np.isfinite(err)] = np.inf
    return err


def reference_ransac(px, pts, params):
    """The sequential loop: one hypothesis per iteration, each solved and
    scored on its own. Returns (rotation, translation, inlier_ids,
    mean_error), or None where no model explains 6 correspondences, and the
    counters `ransac_pose` reports."""
    n = len(px)
    best_p, best_count, best_mean = None, 0, np.inf
    needed = params.max_iterations
    degenerate = h = 0
    for h in range(params.max_iterations + 1):  # stops at h == needed
        if h >= needed:
            break
        sample = np.random.default_rng((params.seed, h)).choice(n, size=6, replace=False)
        try:
            p = reference_dlt(px[sample], pts[sample])
        except DegenerateConfigurationError:
            degenerate += 1
            continue
        err = reference_errors(p, px, pts)
        inliers = err <= params.inlier_threshold
        count = int(inliers.sum())
        if count == 0:
            continue
        mean_err = float(err[inliers].mean())
        if count > best_count or (count == best_count and mean_err < best_mean):
            best_p, best_count, best_mean = p, count, mean_err
            ratio = count / n
            if ratio >= 1.0:
                needed = h + 1
            else:
                denom = np.log1p(-min(ratio**6, 1 - 1e-12))
                needed = min(
                    params.max_iterations, int(np.ceil(np.log(1 - params.confidence) / denom))
                )
    counters = {"ransac_hypotheses": h, "ransac_degenerate": degenerate, "ransac_stop": needed}
    if best_p is None or best_count < 6:
        return None, counters

    final_p = best_p
    inliers = reference_errors(best_p, px, pts) <= params.inlier_threshold
    try:
        refit = reference_dlt(px[inliers], pts[inliers])
        refit_inliers = reference_errors(refit, px, pts) <= params.inlier_threshold
        if int(refit_inliers.sum()) >= 6:
            final_p, inliers = refit, refit_inliers
    except DegenerateConfigurationError:
        pass
    intr, pose = decompose(final_p)
    err = reference_errors(intr.matrix @ np.column_stack([pose.rotation, pose.translation]), px, pts)
    if int((err <= params.inlier_threshold).sum()) >= 6:
        inliers = err <= params.inlier_threshold
    ids = np.flatnonzero(inliers)
    return (pose.rotation, pose.translation, ids, float(err[ids].mean())), counters


def oracle_case(seed):
    """Seeded correspondences: inlier ratio from 0.3 to 1.0, noise-free at
    ratio 1.0 (so the first hypothesis explains every point and the stop
    fires at once), and every fifth set with most points on one plane, so
    many samples are degenerate."""
    rng = np.random.default_rng(1000 + seed)
    ratio = 0.3 + 0.1 * (seed % 8) if seed % 8 < 7 else 1.0
    n = int(rng.integers(12, 120))
    pose = random_pose(rng, translation_scale=2.0)
    intr = make_intrinsics()
    points = front_facing_points(rng, pose, n)
    if seed % 5 == 0:
        flat = rng.random(n) < 0.85
        points[flat, 2] = points[flat, 2].mean()
    pixels = correspondences_for(pose, intr, points)
    if ratio < 1.0:
        pixels = pixels + rng.normal(scale=0.7, size=(n, 2))
        out = rng.random(n) >= ratio
        pixels[out] = rng.uniform((0, 0), (640, 480), size=(int(out.sum()), 2))
    return pixels, points


class TestRansacOracle:
    """The batched `ransac_pose` returns, bit for bit, what the sequential
    per-hypothesis loop returns, and reports the same counters."""

    @pytest.mark.parametrize("max_iterations", [5, 100, 1000])
    def test_matches_sequential_loop(self, max_iterations):
        stops = set()
        for seed in range(50):
            pixels, points = oracle_case(seed)
            params = RansacParams(max_iterations=max_iterations, seed=seed)
            counters = {}
            want, want_counters = reference_ransac(pixels, points, params)
            if want is None:
                with pytest.raises(NoModelFoundError):
                    ransac_pose(pixels, points, params, counters=counters)
                assert counters == want_counters
                continue
            got = ransac_pose(pixels, points, params, counters=counters)
            rotation, translation, inlier_ids, mean_error = want
            np.testing.assert_array_equal(got.pose.rotation, rotation)
            np.testing.assert_array_equal(got.pose.translation, translation)
            np.testing.assert_array_equal(got.inlier_ids, inlier_ids)
            assert got.mean_reprojection_error == mean_error
            assert counters == want_counters
            stops.add((counters["ransac_hypotheses"], counters["ransac_stop"]))
        # The all-inlier stop fired on the first hypothesis somewhere, and
        # with the cap at 1000 some sets stopped early and some ran long.
        assert (1, 1) in stops
        if max_iterations == 1000:
            hypotheses = {h for h, _ in stops}
            assert min(hypotheses) < 20 and max(hypotheses) > 300

    def test_degenerate_counts(self):
        rng = np.random.default_rng(8)
        points = np.column_stack(
            [rng.uniform(-5, 5, size=30), rng.uniform(-5, 5, size=30), np.zeros(30)]
        )
        pixels = rng.uniform(0, 640, size=(30, 2))
        params = RansacParams(max_iterations=100, seed=2)
        counters = {}
        with pytest.raises(NoModelFoundError):
            ransac_pose(pixels, points, params, counters=counters)
        assert counters == {"ransac_hypotheses": 100, "ransac_degenerate": 100, "ransac_stop": 100}

    def test_dlt_matches_per_system_solve(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            pose = random_pose(rng, translation_scale=2.0)
            n = int(rng.integers(6, 400))
            points = front_facing_points(rng, pose, n)
            pixels = correspondences_for(pose, make_intrinsics(), points)
            pixels = pixels + rng.normal(scale=2.0, size=(n, 2))
            np.testing.assert_array_equal(dlt_pose(pixels, points), reference_dlt(pixels, points))


class TestP3P:
    def test_noise_free_recovers_pose(self):
        rng = np.random.default_rng(31)
        intr = make_intrinsics()
        for _ in range(100):
            pose = random_pose(rng, translation_scale=3.0)
            points = front_facing_points(rng, pose, 3)
            rays = _bearings(correspondences_for(pose, intr, points), intr)
            rt, valid = _p3p_batch(rays[None], points[None])
            assert 1 <= valid.sum() <= 4
            errors = [
                max(
                    np.abs(cam[:, :3] - pose.rotation).max(),
                    np.abs(cam[:, 3] - pose.translation).max(),
                )
                for cam in rt[0][valid[0]]
            ]
            assert min(errors) < 1e-9

    def test_collinear_or_coincident_sample_has_no_candidate(self):
        rng = np.random.default_rng(32)
        intr = make_intrinsics()
        pose = random_pose(rng, translation_scale=2.0)
        points = front_facing_points(rng, pose, 3)
        pixels = correspondences_for(pose, intr, points)
        collinear = points.copy()
        collinear[2] = 0.3 * points[0] + 0.7 * points[1]
        coincident = points.copy()
        coincident[2] = points[0]
        same_pixel = pixels.copy()
        same_pixel[2] = pixels[0]
        rays = np.stack(
            [
                _bearings(correspondences_for(pose, intr, collinear), intr),
                _bearings(pixels, intr),
                _bearings(same_pixel, intr),
            ]
        )
        rt, valid = _p3p_batch(rays, np.stack([collinear, coincident, points]))
        assert not valid.any()
        assert np.array_equal(rt, np.zeros_like(rt))

    def test_degenerate_samples_are_counted_and_never_scored(self, monkeypatch):
        import egoloc.pose as pose_module

        scored = []
        original = pose_module._reprojection_errors

        def finite_only(p, pixels, points):
            assert np.isfinite(p).all()
            scored.append(len(p))
            return original(p, pixels, points)

        monkeypatch.setattr(pose_module, "_reprojection_errors", finite_only)
        rng = np.random.default_rng(33)
        intr = make_intrinsics()
        pose = random_pose(rng, translation_scale=2.0)
        points = front_facing_points(rng, pose, 30)
        on_line = points[0] + np.linspace(0.0, 1.0, 30)[:, None] * (points[1] - points[0])
        pixels = correspondences_for(pose, intr, on_line)
        params = RansacParams(max_iterations=50, seed=3)
        counters = {}
        with pytest.raises(NoModelFoundError):
            ransac_pose(pixels, on_line, params, intrinsics=intr, counters=counters)
        assert counters == {"ransac_hypotheses": 50, "ransac_degenerate": 50, "ransac_stop": 50}
        assert sum(scored) == 0

        # Most points on the line: samples drawn only from it are counted, the
        # first sample with a point off it stops the run, and every candidate
        # scored is finite.
        mixed = np.vstack([on_line[:24], points[24:]])
        pixels = correspondences_for(pose, intr, mixed)
        degenerate = 0
        for seed in range(10):
            params = RansacParams(max_iterations=50, seed=seed)
            estimate = ransac_pose(pixels, mixed, params, intrinsics=intr, counters=counters)
            assert counters["ransac_degenerate"] == counters["ransac_hypotheses"] - 1
            degenerate += counters["ransac_degenerate"]
            assert estimate.n_inliers == 30
            assert np.linalg.norm(estimate.pose.center - pose.center) < 1e-6
        assert degenerate > 0

    def test_draw_triples_is_uniform_and_batch_independent(self):
        samples = _draw_triples(np.random.default_rng(34), 5, 6000)
        assert samples.min() >= 0 and samples.max() < 5
        assert (np.diff(np.sort(samples, axis=1), axis=1) > 0).all()
        _, counts = np.unique(samples, axis=0, return_counts=True)
        assert len(counts) == 60 and counts.min() > 50
        rng = np.random.default_rng(35)
        parts = np.vstack([_draw_triples(rng, 40, k) for k in (1, 8, 16)])
        np.testing.assert_array_equal(parts, _draw_triples(np.random.default_rng(35), 40, 25))


def reference_calibrated_ransac(px, pts, intr, params):
    """The sequential calibrated loop: one 3-point sample per iteration,
    three doubles at a time from one stream, each index picked among those
    the sample does not hold yet, solved on its own and its candidates scored
    one by one. Returns (rotation, translation, inlier_ids, mean_error), or
    None where no candidate explains 6 correspondences, and the counters."""
    n = len(px)
    rays = _bearings(px, intr)
    rng = np.random.default_rng(params.seed)
    best, best_count, best_mean = None, 0, np.inf
    needed = params.max_iterations
    degenerate = h = 0
    while h < needed:
        remaining = list(range(n))
        sample = [remaining.pop(int(x * (n - k))) for k, x in enumerate(rng.random(3))]
        h += 1
        rt, valid = _p3p_batch(rays[sample][None], pts[sample][None])
        if not valid.any():
            degenerate += 1
            continue
        for cam in rt[0][valid[0]]:
            err = reference_errors(intr.matrix @ cam, px, pts)
            inliers = err <= params.inlier_threshold
            count = int(inliers.sum())
            if count == 0:
                continue
            mean_err = float(err[inliers].mean())
            if count > best_count or (count == best_count and mean_err < best_mean):
                best, best_count, best_mean = cam, count, mean_err
                ratio = count / n
                if ratio >= 1.0:
                    needed = h
                else:
                    denom = np.log1p(-min(ratio**3, 1 - 1e-12))
                    needed = min(
                        params.max_iterations,
                        int(np.ceil(np.log(1 - params.confidence) / denom)),
                    )
    counters = {"ransac_hypotheses": h, "ransac_degenerate": degenerate, "ransac_stop": needed}
    if best is None or best_count < 6:
        return None, counters
    err = reference_errors(intr.matrix @ best, px, pts)
    ids = np.flatnonzero(err <= params.inlier_threshold)
    return (best[:, :3], best[:, 3], ids, float(err[ids].mean())), counters


def calibrated_oracle_case(seed):
    """`oracle_case`, with every third set's first half moved onto one line,
    so samples drawn from it are collinear."""
    pixels, points = oracle_case(seed)
    if seed % 3 == 0:
        half = len(points) // 2
        points = points.copy()
        points[:half] = points[0] + np.linspace(0.0, 1.0, half)[:, None] * (points[1] - points[0])
    return pixels, points


class TestCalibratedRansacOracle:
    """With intrinsics, the batched `ransac_pose` returns, bit for bit, what
    the sequential per-sample loop returns, and reports the same counters."""

    @pytest.mark.parametrize("max_iterations", [5, 100, 1000])
    def test_matches_sequential_loop(self, max_iterations):
        intr = make_intrinsics()
        stops = set()
        degenerate = 0
        for seed in range(50):
            pixels, points = calibrated_oracle_case(seed)
            params = RansacParams(max_iterations=max_iterations, seed=seed)
            counters = {}
            want, want_counters = reference_calibrated_ransac(pixels, points, intr, params)
            degenerate += want_counters["ransac_degenerate"]
            if want is None:
                with pytest.raises(NoModelFoundError):
                    ransac_pose(pixels, points, params, intrinsics=intr, counters=counters)
                assert counters == want_counters
                continue
            got = ransac_pose(pixels, points, params, intrinsics=intr, counters=counters)
            rotation, translation, inlier_ids, mean_error = want
            assert got.intrinsics is intr
            np.testing.assert_array_equal(got.pose.rotation, rotation)
            np.testing.assert_array_equal(got.pose.translation, translation)
            np.testing.assert_array_equal(got.inlier_ids, inlier_ids)
            assert got.mean_reprojection_error == mean_error
            assert counters == want_counters
            stops.add((counters["ransac_hypotheses"], counters["ransac_stop"]))
        assert (1, 1) in stops
        assert degenerate > 0
        if max_iterations == 1000:
            hypotheses = {h for h, _ in stops}
            assert min(hypotheses) < 10 and max(hypotheses) > 100


def pixel_distances(r):
    return np.linalg.norm(r.reshape(2, -1), axis=0)


def _scipy_refine(estimate, pixels, points):
    """Oracle: scipy's MINPACK Levenberg–Marquardt over a rotation vector and
    the translation, to tight tolerances, kept under `refine_pose`'s rule
    that neither the cost nor the mean pixel error may rise. Returns the
    camera centre."""
    import scipy.optimize
    from scipy.spatial.transform import Rotation

    intr = estimate.intrinsics

    def residuals(x):
        p = projection_matrix(intr, CameraPose(Rotation.from_rotvec(x[:3]).as_matrix(), x[3:]))
        return (project_with_matrix(p, points)[0] - pixels).T.ravel()

    x0 = np.concatenate(
        [Rotation.from_matrix(estimate.pose.rotation).as_rotvec(), estimate.pose.translation]
    )
    x1 = scipy.optimize.least_squares(
        residuals, x0, method="lm", ftol=1e-15, xtol=1e-15, gtol=1e-15, max_nfev=10_000
    ).x
    r0, r1 = residuals(x0), residuals(x1)
    if r1 @ r1 > r0 @ r0 or pixel_distances(r1).mean() > pixel_distances(r0).mean():
        return estimate.pose.center
    return -Rotation.from_rotvec(x1[:3]).as_matrix().T @ x1[3:]


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

    def test_jacobian_matches_central_differences(self):
        from scipy.spatial.transform import Rotation

        from egoloc.pose import _jacobian

        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(20):
            pose = random_pose(rng, translation_scale=2.0)
            intr = make_intrinsics(f=rng.uniform(300, 900), cx=rng.uniform(200, 400))
            intr = replace(intr, focal_y=intr.focal_x * rng.uniform(0.8, 1.2))
            points = front_facing_points(rng, pose, 30, depth_range=(1.0, 12.0))

            def projected(delta):
                turn = Rotation.from_rotvec(delta[:3]).as_matrix()
                moved = CameraPose(turn @ pose.rotation, turn @ pose.translation + delta[3:])
                return project_with_matrix(projection_matrix(intr, moved), points)[0].T.ravel()

            cam = points @ pose.rotation.T + pose.translation
            jac = _jacobian(cam, intr)
            numeric = np.column_stack(
                [(projected(h * e) - projected(-h * e)) / (2 * h) for e in np.eye(6)]
            )
            assert np.abs(numeric - jac).max() <= 1e-6 * np.abs(jac).max()

    @pytest.mark.parametrize("calibrated", [False, True])
    def test_reaches_scipy_optimum(self, calibrated):
        rng = np.random.default_rng(22)
        for _ in range(5):
            pose, intr, points, pixels, estimate = self._setup(rng, pixel_noise=1.0)
            if calibrated:
                estimate = replace(estimate, intrinsics=intr)
            inl = estimate.inlier_ids
            refined = refine_pose(estimate, pixels[inl], points[inl])
            expected = _scipy_refine(estimate, pixels[inl], points[inl])
            assert refined is not estimate
            assert np.linalg.norm(refined.pose.center - expected) < 1e-8

    def test_optimum_is_a_fixed_point(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            pose, intr, points, pixels, estimate = self._setup(rng, pixel_noise=1.0)
            estimate = replace(estimate, intrinsics=intr)
            inl = estimate.inlier_ids
            counters = {}
            refined = refine_pose(estimate, pixels[inl], points[inl], counters=counters)
            assert 1 <= counters["refine_iterations"] <= 50
            again = refine_pose(
                refined, pixels[inl], points[inl], max_iterations=3, counters=counters
            )
            assert again is refined
            assert 1 <= counters["refine_iterations"] <= 3

    def test_iteration_cap(self):
        rng = np.random.default_rng(24)
        pose, intr, points, pixels, estimate = self._setup(rng, pixel_noise=1.0)
        estimate = replace(estimate, intrinsics=intr)
        for cap in (1, 2):
            counters = {}
            refine_pose(estimate, pixels, points, max_iterations=cap, counters=counters)
            assert counters["refine_iterations"] == cap

    @staticmethod
    def _near_point_case(side, seed):
        """Forty points 4-12 m in front of the camera, plus one 5 cm in front
        whose observation lies 30 focal lengths to the `side`, and a start
        near the true pose with every point in front."""
        from scipy.spatial.transform import Rotation

        rng = np.random.default_rng(seed)
        cam_pts = np.column_stack(
            [rng.uniform(-4, 4, 40), rng.uniform(-3, 3, 40), rng.uniform(4, 12, 40)]
        )
        cam_pts[0] = [0.3, 0.2, 0.05]
        pixels = cam_pts[:, :2] / cam_pts[:, 2:] * 600.0 + [320.0, 240.0]
        pixels += rng.normal(scale=1.0, size=(40, 2))
        pixels[0] = [320.0 + side * 600.0 * 30.0, 240.0 + side * 600.0 * 4.0]
        start = CameraPose(
            Rotation.from_rotvec(rng.normal(scale=0.02, size=3)).as_matrix(),
            rng.normal(scale=0.02, size=3) + [0.0, 0.0, -0.03],
        )
        assert (cam_pts @ start.rotation.T + start.translation)[:, 2].min() > DEPTH_EPSILON
        return cam_pts, pixels, start

    @staticmethod
    def _refine_stays_in_front(cam_pts, pixels, start):
        from egoloc.pose import PoseEstimate

        intr = make_intrinsics()

        def residuals(pose):
            projected = project_with_matrix(projection_matrix(intr, pose), cam_pts)[0]
            return (projected - pixels).T.ravel()

        r = residuals(start)
        estimate = PoseEstimate(start, intr, np.arange(40), 40, pixel_distances(r).mean())
        refined = refine_pose(estimate, pixels, cam_pts)
        assert refined is not estimate
        assert np.all(np.isfinite(refined.pose.center))
        depths = (cam_pts @ refined.pose.rotation.T + refined.pose.translation)[:, 2]
        assert depths.min() > DEPTH_EPSILON
        r1 = residuals(refined.pose)
        assert r1 @ r1 <= r @ r
        assert refined.mean_reprojection_error <= estimate.mean_reprojection_error

    def test_gauss_newton_step_past_the_camera_is_rejected(self):
        """The undamped Gauss–Newton step from the start carries the near
        point behind the camera; the damped loop keeps it in front and still
        lowers the cost."""
        from scipy.spatial.transform import Rotation

        from egoloc.pose import _jacobian

        cam_pts, pixels, start = self._near_point_case(1.0, seed=0)
        cam = cam_pts @ start.rotation.T + start.translation
        jac = _jacobian(cam, make_intrinsics())
        r = (cam[:, :2] / cam[:, 2:] * 600.0 + [320.0, 240.0] - pixels).T.ravel()
        step = np.linalg.solve(jac.T @ jac, -jac.T @ r)
        turn = Rotation.from_rotvec(step[:3]).as_matrix()
        stepped = cam_pts @ (turn @ start.rotation).T + turn @ start.translation + step[3:]
        assert stepped[:, 2].min() < 0.0
        self._refine_stays_in_front(cam_pts, pixels, start)

    def test_optimum_behind_the_camera_is_not_reached(self):
        """The observation lies on the far side, so the unconstrained
        least-squares fit (scipy's LM from the same start) puts the near
        point behind the camera; `refine_pose` keeps it in front."""
        import scipy.optimize
        from scipy.spatial.transform import Rotation

        cam_pts, pixels, start = self._near_point_case(-1.0, seed=11)

        def residuals(x):
            cam = cam_pts @ Rotation.from_rotvec(x[:3]).as_matrix().T + x[3:]
            return (cam[:, :2] / cam[:, 2:] * 600.0 + [320.0, 240.0] - pixels).T.ravel()

        x0 = np.concatenate([Rotation.from_matrix(start.rotation).as_rotvec(), start.translation])
        x1 = scipy.optimize.least_squares(residuals, x0, method="lm").x
        assert (cam_pts @ Rotation.from_rotvec(x1[:3]).as_matrix().T + x1[3:])[:, 2].min() < 0.0
        self._refine_stays_in_front(cam_pts, pixels, start)

    @pytest.mark.parametrize("side,seed", [(1.0, 0), (-1.0, 11)])
    def test_cost_never_rises_with_more_iterations(self, side, seed):
        from egoloc.pose import PoseEstimate

        cam_pts, pixels, start = self._near_point_case(side, seed)
        intr = make_intrinsics()
        estimate = PoseEstimate(start, intr, np.arange(40), 40, 1e9)
        costs = []
        for cap in range(1, 30):
            pose = refine_pose(estimate, pixels, cam_pts, max_iterations=cap).pose
            projected = project_with_matrix(projection_matrix(intr, pose), cam_pts)[0]
            costs.append(float(np.sum((projected - pixels) ** 2)))
        assert all(b <= a for a, b in zip(costs, costs[1:]))
        assert costs[-1] < costs[0]

    def test_optimum_with_a_larger_mean_error_is_refused(self):
        """One observation is 60 px off and the rest are exact. The
        least-squares optimum spreads that error over every point, so its
        cost is lower but its mean pixel error is higher than the true
        pose's: refinement from the true pose must keep it."""
        from egoloc.pose import PoseEstimate

        rng = np.random.default_rng(26)
        pose = random_pose(rng, translation_scale=2.0)
        intr = make_intrinsics()
        points = front_facing_points(rng, pose, 40)
        pixels = correspondences_for(pose, intr, points)
        pixels[0] += [60.0, 0.0]
        estimate = PoseEstimate(pose, intr, np.arange(40), 40, 1.5)
        optimum = _scipy_refine(estimate, pixels, points)
        assert np.array_equal(optimum, pose.center)
        assert refine_pose(estimate, pixels, points) is estimate

    def test_start_with_a_point_behind_the_camera_is_kept(self):
        from egoloc.pose import PoseEstimate

        rng = np.random.default_rng(25)
        pose, intr, points, pixels, _ = self._setup(rng, pixel_noise=1.0)
        points = points.copy()
        # Mirror the first point through the camera centre.
        points[0] = 2 * pose.center - points[0]
        estimate = PoseEstimate(pose, intr, np.arange(40), 40, 1.0)
        counters = {}
        refined = refine_pose(estimate, pixels, points, counters=counters)
        assert refined is estimate
        assert np.all(np.isfinite(refined.pose.center))
        assert counters["refine_iterations"] == 0


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
        assert set(result.counters) == {
            "features_scanned",
            "words_evaluated",
            "ransac_hypotheses",
            "ransac_degenerate",
            "ransac_stop",
            "refine_iterations",
        }
        assert result.counters["features_scanned"] <= view.num_features
        assert result.counters["ransac_degenerate"] <= result.counters["ransac_hypotheses"]

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
        result = localize(view, index, MatchParams(), RansacParams(seed=11))
        assert result.intrinsics is view.intrinsics
        err = np.linalg.norm(result.pose.center - view.true_pose.center)
        assert err < 0.01 * scene.spec.scene_extent


def test_confusable_view_wrong_pose_fails_verify_or_is_close():
    """A deployed 8% k-cover model of the acceptance scene, queried with 40% of
    each structure's points carrying another point's descriptor (repeated
    facade texture). A returned pose must either fail verification or lie
    within 1 m. Held-out view 96 came back 146 cm off and still passed
    `verify` while the pose was refined under the intrinsics decomposed from
    the DLT; refined under the query's calibration it comes back close."""
    spec = SceneSpec(
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
        seed=0,
    )
    scene = generate_scene(spec)
    model = build_model(scene, 0.0, seed=0)
    labeling = detect_structures(model.xyz, DetectParams(seed=0))
    target = int(round(0.08 * model.num_points))
    _, served = tune_k(
        lambda k: compress_weighted_kcover(model, labeling, k), target, model.num_points, 0.02
    )
    rng = np.random.default_rng((0, 5))
    descriptors = scene.descriptors.copy()
    truth = scene.true_labeling
    for ids in [s.member_ids for s in truth.structures] + [truth.residual_ids]:
        if len(ids) < 2:
            continue
        positions = rng.choice(len(ids), size=int(round(0.4 * len(ids))), replace=False)
        twins = (positions + rng.integers(1, len(ids), size=len(positions))) % len(ids)
        descriptors[ids[positions]] = scene.descriptors[ids[twins]]
    scene = replace(scene, descriptors=descriptors)
    view = held_out_views(scene, 100, 0)[96]

    result = localize(view, build_index(served, None, seed=0), MatchParams(), RansacParams(seed=96))
    error = np.linalg.norm(result.pose.center - view.true_pose.center)
    assert not verify(result) or error <= 1.0, f"verified pose {error:.2f} m off"


def test_localize_calls_its_stages_through_the_module(loc_setup, monkeypatch):
    """Tracing rebinds `egoloc.pose.ransac_pose` and `refine_pose`; `localize`
    must reach both through those names, RANSAC once and refinement once or
    twice, or their spans go silent."""
    import egoloc.pose as pose_module

    calls = {"ransac_pose": 0, "refine_pose": 0}
    for name in calls:

        def counting(*args, _name=name, _original=getattr(pose_module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(pose_module, name, counting)
    scene, _, index = loc_setup
    localize(render_view(scene, 0, seed=3), index, MatchParams(), RansacParams(seed=4))
    assert calls["ransac_pose"] == 1
    assert 1 <= calls["refine_pose"] <= 2
