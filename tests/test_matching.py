"""Visual-word index construction and ratio-test correspondence search."""

import numpy as np
import pytest

from egoloc import (
    Correspondence,
    MatchParams,
    PointCloudModel,
    QueryView,
    VisibilityMatrix,
    build_index,
    match_features,
    render_view,
)
from egoloc.errors import EmptyQueryError, TooFewDescriptorsError
from egoloc.geometry import CameraPose

from conftest import unit_intrinsics


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def model_from_descriptors(descriptor_lists, dim):
    n = len(descriptor_lists)
    rng = np.random.default_rng(0)
    return PointCloudModel(
        xyz=rng.normal(size=(n, 3)),
        descriptors=[np.asarray(d, dtype=np.float64).reshape(-1, dim) for d in descriptor_lists],
        visibility=VisibilityMatrix(n, [np.arange(n)]),
        model_id="desc-model",
    )


def query_of(descriptors, dim):
    descriptors = np.asarray(descriptors, dtype=np.float64).reshape(-1, dim)
    pose = CameraPose(rotation=np.eye(3), translation=np.zeros(3))
    return QueryView(
        true_pose=pose,
        intrinsics=unit_intrinsics(),
        pixels=np.zeros((len(descriptors), 2)),
        descriptors=descriptors,
    )


class TestBuildIndex:
    def test_single_word_centroid_is_normalized_mean(self):
        rng = np.random.default_rng(1)
        lists = [rng.normal(size=(3, 8)) for _ in range(5)]
        model = model_from_descriptors(lists, 8)
        index = build_index(model, num_words=1, seed=2)
        stacked = np.vstack(lists)
        expected = stacked.mean(axis=0)
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(index.centroids[0], expected, atol=1e-12)
        assert sum(len(ids) for ids in index.word_point_ids) == 15

    def test_planted_clusters_pure(self):
        rng = np.random.default_rng(3)
        a, b = unit(rng.normal(size=16)), None
        b = unit(np.concatenate([-a[:8], a[8:]]))  # far from a
        lists = []
        owners = []
        for i in range(20):
            ref = a if i < 10 else b
            noisy = ref + rng.normal(scale=0.02, size=(2, 16))
            lists.append(noisy / np.linalg.norm(noisy, axis=1, keepdims=True))
            owners.append(0 if i < 10 else 1)
        model = model_from_descriptors(lists, 16)
        index = build_index(model, num_words=2, seed=4)
        for ids in index.word_point_ids:
            clusters = {owners[int(i)] for i in ids}
            assert len(clusters) == 1

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        lists = [rng.normal(size=(2, 12)) for _ in range(30)]
        model = model_from_descriptors(lists, 12)
        i1 = build_index(model, num_words=4, seed=6)
        i2 = build_index(model, num_words=4, seed=6)
        np.testing.assert_array_equal(i1.centroids, i2.centroids)
        for a, b in zip(i1.word_point_ids, i2.word_point_ids):
            np.testing.assert_array_equal(a, b)

    def test_too_few_descriptors(self):
        lists = [np.ones((1, 4))] * 3
        model = model_from_descriptors(lists, 4)
        with pytest.raises(TooFewDescriptorsError):
            build_index(model, num_words=10, seed=0)


class TestMatchFeatures:
    def test_exact_match_accepted_with_small_ratio(self):
        rng = np.random.default_rng(7)
        target = unit(rng.normal(size=16))
        far = unit(-target)
        model = model_from_descriptors([target, far], 16)
        index = build_index(model, num_words=1, seed=0)
        matches = match_features(query_of([target], 16), index, MatchParams())
        assert len(matches) == 1
        assert matches[0].point_id == 0
        assert matches[0].ratio < 0.1
        assert matches[0].distance == pytest.approx(0.0, abs=1e-12)

    def test_identical_descriptors_of_two_points_rejected(self):
        d = unit(np.arange(1, 9))
        model = model_from_descriptors([d, d], 8)
        index = build_index(model, num_words=1, seed=0)
        matches = match_features(query_of([d], 8), index, MatchParams())
        assert matches == []

    def test_all_matches_pass_ratio_and_are_unique(self, small_scene, small_model):
        index = build_index(small_model, num_words=16, seed=1)
        view = render_view(small_scene, 0, seed=2)
        params = MatchParams(ratio_threshold=0.7, max_matches=50)
        matches = match_features(view, index, params)
        assert 0 < len(matches) <= 50
        point_ids = [m.point_id for m in matches]
        assert len(point_ids) == len(set(point_ids))
        assert all(m.ratio < 0.7 for m in matches)

    def test_noise_free_view_matches_ground_truth(self, small_scene):
        from egoloc import build_model

        model = build_model(small_scene, 0.0, seed=9)
        index = build_index(model, num_words=16, seed=3)
        view = render_view(
            small_scene, 1, pixel_noise_sigma=0.0, descriptor_noise_sigma=0.0, seed=4
        )
        params = MatchParams(exact_mode=True, max_matches=10_000)
        matches = match_features(view, index, params)
        correct = sum(
            1 for m in matches if view.true_point_ids[m.feature_index] == m.point_id
        )
        assert len(matches) >= 0.9 * view.num_features
        assert correct >= 0.95 * len(matches)

    def test_exact_mode_invariant_to_word_count(self, small_scene, small_model):
        view = render_view(small_scene, 2, seed=5)
        params = MatchParams(exact_mode=True, max_matches=10_000)
        results = []
        for w in (4, 16, 64):
            index = build_index(small_model, num_words=w, seed=6)
            matches = match_features(view, index, params)
            results.append(sorted((m.feature_index, m.point_id) for m in matches))
        assert results[0] == results[1] == results[2]

    def test_early_termination_cap(self, small_scene, small_model):
        index = build_index(small_model, num_words=16, seed=7)
        view = render_view(small_scene, 3, seed=8)
        matches = match_features(view, index, MatchParams(max_matches=10))
        assert len(matches) <= 10

    def test_empty_query_raises(self, small_model):
        index = build_index(small_model, num_words=8, seed=9)
        empty = query_of(np.zeros((0, 32)), 32)
        with pytest.raises(EmptyQueryError):
            match_features(empty, index, MatchParams())

    def test_dimension_mismatch_rejected(self, small_model):
        index = build_index(small_model, num_words=8, seed=10)
        with pytest.raises(ValueError, match="dimension"):
            match_features(query_of(np.ones((2, 8)), 8), index, MatchParams())


def full_scan_match(view, index, params):
    """Reference search: every feature's nearest and second-nearest point in
    its word, computed for all features up front, then the priority walk.

    Each word's distances come from one product over all of its features, as
    in the index, so they are bit-identical to the index's own. Returns the
    correspondences, the number of features the walk visited and the number
    of distinct words of the view.
    """
    desc = np.asarray(view.descriptors, dtype=np.float64)
    n = len(desc)
    words = np.argmin(((desc[:, None, :] - index.centroids[None]) ** 2).sum(axis=2), axis=1)
    pid = np.zeros(n, dtype=np.int64)
    d1 = np.full(n, np.inf)
    d2 = np.full(n, np.inf)
    for word in set(words.tolist()):
        scope = index.word_scope(word)
        point_ids = np.unique(scope.point_ids)
        if len(point_ids) < 2:
            continue
        rows = np.flatnonzero(words == word)
        f = desc[rows]
        sq = (
            np.sum(f * f, axis=1)[:, None]
            - 2.0 * f @ scope.descriptors.T
            + np.sum(scope.descriptors * scope.descriptors, axis=1)[None, :]
        )
        np.maximum(sq, 0.0, out=sq)
        per_point = np.stack([sq[:, scope.point_ids == p].min(axis=1) for p in point_ids], 1)
        nearest = np.argmin(per_point, axis=1)
        best = per_point[np.arange(len(rows)), nearest]
        per_point[np.arange(len(rows)), nearest] = np.inf
        pid[rows] = point_ids[nearest]
        d1[rows] = np.sqrt(best)
        d2[rows] = np.sqrt(per_point.min(axis=1))

    lengths = [len(index.word_scope(w).point_ids) for w in words]
    order = sorted(range(n), key=lambda f: (lengths[f], f))
    best_by_point = {}
    visited = 0
    for f in order:
        visited += 1
        if not np.isfinite(d2[f]):
            continue
        ratio = 1.0 if d2[f] == 0.0 else float(d1[f] / d2[f])
        if ratio >= params.ratio_threshold:
            continue
        point_id = int(pid[f])
        distance = float(d1[f])
        existing = best_by_point.get(point_id)
        if existing is None or distance < existing.distance:
            best_by_point[point_id] = Correspondence(f, point_id, distance, ratio)
        if existing is None and len(best_by_point) >= params.max_matches:
            break
    matches = sorted(best_by_point.values(), key=lambda c: c.feature_index)
    return matches, visited, len(set(words.tolist()))


class TestPrioritizedSearchOracle:
    @pytest.mark.parametrize("num_words", [4, 16, 64])
    def test_matches_full_scan(self, small_scene, small_model, num_words):
        index = build_index(small_model, num_words=num_words, seed=11)
        for seed in range(50):
            view = render_view(small_scene, seed % small_scene.num_cameras, seed=100 + seed)
            n = view.num_features
            for max_matches in (6, 10, 50, 200, 10_000):
                params = MatchParams(max_matches=max_matches)
                counters = {}
                got = match_features(view, index, params, counters=counters)
                want, visited, num_view_words = full_scan_match(view, index, params)
                assert got == want
                scanned = counters["features_scanned"]
                if len(want) < max_matches:
                    assert scanned == n
                    assert counters["words_evaluated"] == num_view_words
                    continue
                # The walk evaluates up to the end of the block it stopped
                # in. These views have about 290 features, so a cap of at
                # most 50 stops long before the last block.
                assert visited <= scanned <= n
                if max_matches <= 50:
                    assert scanned < n
