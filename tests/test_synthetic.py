"""Scene generator: determinism, geometry exactness, noise statistics."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from egoloc import (
    SceneSpec,
    assign_weights,
    build_model,
    generate_scene,
    render_view,
    resample_descriptors,
    synthetic,
)
from egoloc.bench import held_out_views
from egoloc.errors import ConfigError, InfeasibleSpecError, TooFewVisibleError
from egoloc.geometry import pose_looking_at, project_array

from conftest import saved_bytes


def same_visibility(a, b) -> bool:
    """Same point count and the same point ids in every camera."""
    return (
        a.num_points == b.num_points
        and len(a.points_in_camera) == len(b.points_in_camera)
        and all(np.array_equal(x, y) for x, y in zip(a.points_in_camera, b.points_in_camera))
    )


def scenes_equal(a, b) -> bool:
    return (
        np.array_equal(a.xyz, b.xyz)
        and np.array_equal(a.descriptors, b.descriptors)
        and same_visibility(a.visibility, b.visibility)
        and all(
            np.array_equal(pa.rotation, pb.rotation) and np.array_equal(pa.translation, pb.translation)
            for (pa, _), (pb, _) in zip(a.cameras, b.cameras)
        )
    )


class TestGenerateScene:
    def test_single_plane_points_on_plane(self):
        spec = SceneSpec(
            num_planes=1,
            num_lines=0,
            points_per_plane=100,
            num_clutter=0,
            num_cameras=4,
            descriptor_dim=8,
            seed=3,
        )
        scene = generate_scene(spec)
        assert scene.num_points == 100
        plane = scene.true_labeling.structures[0]
        assert np.all(np.abs(scene.xyz @ plane.normal - plane.offset) < 1e-9)

    def test_deterministic_under_seed(self):
        spec = SceneSpec(num_cameras=5, descriptor_dim=16, seed=21)
        assert scenes_equal(generate_scene(spec), generate_scene(spec))

    def test_different_seeds_differ(self):
        a = generate_scene(SceneSpec(num_cameras=5, descriptor_dim=16, seed=1))
        b = generate_scene(SceneSpec(num_cameras=5, descriptor_dim=16, seed=2))
        assert not scenes_equal(a, b)

    def test_spec_survives_json(self):
        spec = SceneSpec(num_planes=2, points_per_plane=[60, 30], num_cameras=4, seed=5)
        assert spec.points_per_plane == (60, 30)
        assert SceneSpec(**json.loads(json.dumps(asdict(spec)))) == spec

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("points_per_plane", 150.5, "points_per_plane"),
            ("points_per_plane", (150.5, 100), "points_per_plane"),
            ("points_per_line", True, "points_per_line"),
            ("points_per_line", None, "points_per_line"),
            pytest.param(
                "pixel_noise_sigma", float("nan"), "^pixel_noise_sigma ",
                id="pixel_noise_sigma-nan-sigmas",
            ),
            pytest.param(
                "descriptor_noise_sigma", float("nan"), "^descriptor_noise_sigma ",
                id="descriptor_noise_sigma-nan-sigmas",
            ),
            ("scene_extent", float("nan"), "scene_extent"),
            ("num_planes", 2.5, "num_planes"),
            ("num_lines", True, "num_lines"),
            ("num_clutter", "40", "num_clutter"),
            ("num_cameras", 5.5, "num_cameras"),
            ("descriptor_dim", None, "descriptor_dim"),
        ],
    )
    def test_bad_spec_value_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SceneSpec(**{field: value})

    def test_structure_proportions_via_weights(self):
        spec = SceneSpec(
            num_planes=3,
            num_lines=0,
            points_per_plane=(60, 30, 10),
            num_clutter=0,
            num_cameras=4,
            descriptor_dim=8,
            seed=5,
        )
        scene = generate_scene(spec)
        weights = assign_weights(scene.true_labeling, scene.num_points)
        for structure, share in zip(scene.true_labeling.structures, (0.6, 0.3, 0.1)):
            np.testing.assert_allclose(weights[structure.member_ids], share)

    def test_descriptors_unit_norm(self):
        scene = generate_scene(SceneSpec(num_cameras=4, descriptor_dim=64, seed=9))
        np.testing.assert_allclose(np.linalg.norm(scene.descriptors, axis=1), 1.0, atol=1e-9)

    def test_min_track_length(self):
        scene = generate_scene(SceneSpec(num_cameras=6, descriptor_dim=8, seed=13))
        assert scene.visibility.track_lengths().min() >= 2

    def test_infeasible_when_camera_minimum_unreachable(self):
        spec = SceneSpec(num_cameras=4, descriptor_dim=8, min_points_per_camera=10**6, seed=1)
        with pytest.raises(InfeasibleSpecError):
            generate_scene(spec)

    def test_labels_partition_points(self):
        scene = generate_scene(SceneSpec(num_cameras=5, descriptor_dim=8, seed=17))
        labels = scene.true_labeling.labels()
        total = sum(len(s.member_ids) for s in scene.true_labeling.structures)
        assert total + len(scene.true_labeling.residual_ids) == scene.num_points
        assert (labels >= -1).all()


@pytest.fixture(scope="module")
def noise_scene():
    return generate_scene(
        SceneSpec(
            num_planes=2,
            num_lines=0,
            points_per_plane=800,
            num_clutter=0,
            num_cameras=5,
            descriptor_dim=16,
            pixel_noise_sigma=1.0,
            seed=31,
        )
    )


def respecified(scene, **changes):
    """The scene with some spec fields changed; geometry, cameras and
    descriptors are kept."""
    return replace(scene, spec=replace(scene.spec, **changes))


class TestRenderView:
    def test_noise_free_pixels_exact(self, noise_scene):
        scene = respecified(noise_scene, pixel_noise_sigma=0.0, descriptor_noise_sigma=0.0)
        view = render_view(scene, 0, seed=1)
        pose, intr = noise_scene.cameras[0]
        expected, _ = project_array(pose, intr, noise_scene.xyz[view.true_point_ids])
        np.testing.assert_allclose(view.pixels, expected, atol=1e-12)

    def test_outlier_construction(self, noise_scene):
        scene = respecified(
            noise_scene, pixel_noise_sigma=0.0, descriptor_noise_sigma=0.0, outlier_fraction=0.5
        )
        view = render_view(scene, 1, seed=2)
        n_true = int((view.true_point_ids >= 0).sum())
        n_out = int((view.true_point_ids == -1).sum())
        assert n_out == n_true
        assert view.num_features == n_true + n_out

    def test_pixel_noise_statistics(self, noise_scene):
        assert noise_scene.spec.pixel_noise_sigma == 1.0
        view = render_view(noise_scene, 0, seed=3)
        pose, intr = noise_scene.cameras[0]
        assert view.num_features >= 1000
        deltas = view.pixels - project_array(pose, intr, noise_scene.xyz[view.true_point_ids])[0]
        assert 0.9 <= deltas[:, 0].std() <= 1.1
        assert 0.9 <= deltas[:, 1].std() <= 1.1

    def test_pixels_in_bounds(self, noise_scene):
        scene = respecified(noise_scene, pixel_noise_sigma=3.0, outlier_fraction=0.2)
        view = render_view(scene, 2, seed=4)
        _, intr = noise_scene.cameras[2]
        assert (view.pixels[:, 0] >= 0).all() and (view.pixels[:, 0] < intr.image_width).all()
        assert (view.pixels[:, 1] >= 0).all() and (view.pixels[:, 1] < intr.image_height).all()

    def test_ground_truth_consistent_with_visibility(self, noise_scene):
        view = render_view(noise_scene, 3, seed=5)
        visible = set(noise_scene.visibility.points_in_camera[3].tolist())
        for pid in view.true_point_ids:
            if pid >= 0:
                assert pid in visible

    def test_novel_pose_render(self, noise_scene):
        extent = noise_scene.spec.scene_extent
        pose = pose_looking_at(np.array([0.0, 1.4 * extent, 0.3 * extent]), np.zeros(3))
        view = render_view(noise_scene, pose, seed=6)
        assert view.num_features >= 6

    def test_too_few_visible(self, noise_scene):
        away = pose_looking_at(
            np.array([0.0, 1.5 * noise_scene.spec.scene_extent, 0.0]),
            np.array([0.0, 10.0 * noise_scene.spec.scene_extent, 0.0]),
        )
        with pytest.raises(TooFewVisibleError):
            render_view(noise_scene, away, seed=7)

    @pytest.mark.parametrize(
        "camera", [-1, 5, 99, np.int64(-1)], ids=["minus-one", "five", "99", "numpy-minus-one"]
    )
    def test_camera_outside_scene_rejected(self, noise_scene, camera):
        with pytest.raises(ConfigError):
            render_view(noise_scene, camera, seed=9)

    @pytest.mark.parametrize(
        "camera", [True, False, 1.0, "1"], ids=["true", "false", "float", "text"]
    )
    def test_camera_that_is_no_index_or_pose_rejected(self, noise_scene, camera):
        with pytest.raises(ConfigError, match="camera must be"):
            render_view(noise_scene, camera, seed=9)

    def test_numpy_integer_camera(self, noise_scene):
        a = render_view(noise_scene, np.int64(2), seed=9)
        b = render_view(noise_scene, 2, seed=9)
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.true_point_ids, b.true_point_ids)

    def test_deterministic(self, noise_scene):
        a = render_view(noise_scene, 0, seed=8)
        b = render_view(noise_scene, 0, seed=8)
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.descriptors, b.descriptors)
        assert np.array_equal(a.true_point_ids, b.true_point_ids)


class TestBuildModel:
    def test_zero_noise_positions_identical(self, noise_scene):
        model = build_model(noise_scene, reconstruction_noise_sigma=0.0, seed=1)
        assert np.array_equal(model.xyz, noise_scene.xyz)

    def test_descriptor_list_lengths_match_tracks(self, noise_scene):
        model = build_model(noise_scene, seed=2)
        tracks = noise_scene.visibility.track_lengths()
        assert np.array_equal(model.descriptor_counts, tracks)
        assert len(model.descriptors) == tracks.sum()

    def test_jitter_mean_displacement(self):
        # Mean norm of a 3D Gaussian is sigma * sqrt(8/pi) ~ 1.596 sigma.
        scene = generate_scene(
            SceneSpec(
                num_planes=1,
                num_lines=0,
                points_per_plane=1000,
                num_clutter=0,
                num_cameras=4,
                descriptor_dim=8,
                seed=41,
            )
        )
        model = build_model(scene, reconstruction_noise_sigma=0.01, seed=3)
        displacement = np.linalg.norm(model.xyz - scene.xyz, axis=1).mean()
        assert 0.012 <= displacement <= 0.020

    def test_deterministic(self, noise_scene):
        a = build_model(noise_scene, 0.01, seed=4)
        b = build_model(noise_scene, 0.01, seed=4)
        assert saved_bytes(a) == saved_bytes(b)

    @pytest.mark.parametrize("block_rows", [1, 7, 256])
    def test_blocked_draw_equals_one_draw(self, small_scene, monkeypatch, block_rows):
        """Descriptors drawn one block of rows at a time equal one draw over
        all rows, normalized per row in float64 and rounded once to float16."""
        monkeypatch.setattr(synthetic, "_NOISE_BLOCK_ROWS", block_rows)
        model = build_model(small_scene, 0.01, seed=5)
        rng = np.random.default_rng((5, 4))
        rng.normal(scale=0.01, size=small_scene.xyz.shape)  # the position jitter
        counts = small_scene.visibility.track_lengths()
        rows = np.repeat(small_scene.descriptors, counts, axis=0)
        assert len(rows) > block_rows and (block_rows == 1 or len(rows) % block_rows)
        rows += rng.normal(scale=small_scene.spec.descriptor_noise_sigma, size=rows.shape)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        assert model.descriptors.tobytes() == rows.astype(np.float16).tobytes()


class TestResampleDescriptors:
    def test_geometry_preserved_descriptors_replaced(self, noise_scene):
        other = resample_descriptors(noise_scene, regime_seed=99)
        assert np.array_equal(other.xyz, noise_scene.xyz)
        assert same_visibility(other.visibility, noise_scene.visibility)
        assert not np.array_equal(other.descriptors, noise_scene.descriptors)
        np.testing.assert_allclose(np.linalg.norm(other.descriptors, axis=1), 1.0, atol=1e-9)

    def test_same_regime_seed_reproduces(self, noise_scene):
        a = resample_descriptors(noise_scene, regime_seed=5)
        b = resample_descriptors(noise_scene, regime_seed=5)
        assert np.array_equal(a.descriptors, b.descriptors)


@pytest.mark.parametrize(
    "call",
    [
        lambda scene: build_model(scene, seed=-1),
        lambda scene: render_view(scene, 0, seed=-1),
        lambda scene: resample_descriptors(scene, regime_seed=-1),
        lambda scene: held_out_views(scene, 1, seed=-1),
    ],
    ids=["build_model", "render_view", "resample_descriptors", "held_out_views"],
)
def test_a_negative_seed_is_refused_by_name(noise_scene, call):
    with pytest.raises(ValueError, match=r"^(regime_)?seed must be in \[0, inf\), not -1$"):
        call(noise_scene)
