"""Visual-word index construction and ratio-test correspondence search."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from egoloc import (
    MATCH_DTYPE,
    MatchParams,
    PointCloudModel,
    QueryView,
    VisibilityMatrix,
    build_index,
    match_features,
    render_view,
)
from egoloc import matching
from egoloc.matching import MatchIndex
from egoloc.errors import EmptyQueryError, TooFewDescriptorsError
from egoloc.geometry import CameraPose

from conftest import unit_intrinsics


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def model_from_descriptors(descriptor_lists, dim):
    n = len(descriptor_lists)
    rng = np.random.default_rng(0)
    lists = [np.asarray(d, dtype=np.float64).reshape(-1, dim) for d in descriptor_lists]
    return PointCloudModel(
        xyz=rng.normal(size=(n, 3)),
        descriptors=np.vstack(lists),
        descriptor_counts=[len(d) for d in lists],
        visibility=VisibilityMatrix(n, [np.arange(n)]),
        model_id="desc-model",
    )


def word_owners(index):
    """The point id of each row, cut into one array per word."""
    return np.split(index.owners, index.word_indptr[1:-1])


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
        assert sum(len(ids) for ids in word_owners(index)) == 5  # one row per point

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
        counters = {}
        index = build_index(model, num_words=2, seed=4, counters=counters)
        for ids in word_owners(index):
            clusters = {owners[int(i)] for i in ids}
            assert len(clusters) == 1
        assert counters["kmeans_converged"] is True
        assert 2 <= counters["kmeans_iterations"] < matching._KMEANS_ITERATIONS

    def test_kmeans_counters_at_the_cap(self):
        # 3,000 Gaussian samples in 60 words take 38 passes to settle, so
        # the run stops at the cap unconverged.
        rng = np.random.default_rng(3)
        model = model_from_descriptors([rng.normal(size=(2, 8)) for _ in range(1500)], 8)
        counters = {}
        index = build_index(model, num_words=60, seed=3, counters=counters)
        assert counters == {"kmeans_iterations": 20, "kmeans_converged": False}
        assert index.descriptors.tobytes() == build_index(model, 60, seed=3).descriptors.tobytes()

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        lists = [rng.normal(size=(2, 12)) for _ in range(30)]
        model = model_from_descriptors(lists, 12)
        i1 = build_index(model, num_words=4, seed=6)
        i2 = build_index(model, num_words=4, seed=6)
        np.testing.assert_array_equal(i1.centroids, i2.centroids)
        for a, b in zip(word_owners(i1), word_owners(i2)):
            np.testing.assert_array_equal(a, b)

    def test_empty_word_keeps_its_centroid(self):
        # Two of the three initial centroids coincide, so ties leave one
        # word without members from the first assignment on.
        a, b = unit(np.arange(1, 9)), unit(np.arange(8, 0, -1))
        model = model_from_descriptors([a, a, a, b, b, b], 8)
        index = build_index(model, num_words=3, seed=0)
        counts = np.diff(index.word_indptr)
        assert counts.tolist().count(0) == 1
        empty = index.centroids[counts == 0][0]
        assert np.array_equal(empty, a) or np.array_equal(empty, b)

    def test_too_few_descriptors(self):
        lists = [np.ones((1, 4))] * 3
        model = model_from_descriptors(lists, 4)
        with pytest.raises(TooFewDescriptorsError):
            build_index(model, num_words=10, seed=0)


class TestIndexLayout:
    # sha256 of the arrays of `build_index(small_model, 16, seed=1)`.
    GOLDEN = {
        "centroids": "dda5625e79f9e2dfa4bc06c0d328a5e4e3c5ddd04a5d5c1c55028aef7b727a23",
        "descriptors": "3796d1c9949496c5223200ad24e47bd63e4aceee6cba2c7149d1d1ebcf5ee4fc",
        "owners": "615395edd876cc4db9d0f7623c42511b859858b857218ef0f1051e4d85e3546f",
        "word_indptr": "66922094875ce5dee14fad037d39bef6a2dbce644f798acc91b45697cf0b7fd9",
    }

    def test_golden_arrays(self, small_model):
        index = build_index(small_model, num_words=16, seed=1)
        for name, digest in self.GOLDEN.items():
            array = np.ascontiguousarray(getattr(index, name))
            assert hashlib.sha256(array.tobytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_invariants(self, small_model, shuffled):
        if shuffled:  # point ids out of ascending order, as a subset's can be
            rows = np.random.default_rng(0).permutation(small_model.num_points)
            small_model = small_model.subset(rows)
        index = build_index(small_model, num_words=16, seed=1)
        owner = np.repeat(small_model.point_ids, small_model.descriptor_counts)
        assign = matching._nearest_centroid(small_model.descriptors, index.centroids)
        for ids in word_owners(index):
            assert np.all(np.diff(ids) > 0)
        np.testing.assert_array_equal(
            np.diff(index.word_indptr),
            [len(np.unique(owner[assign == w])) for w in range(index.num_words)],
        )
        # Each row is the mean of its point's samples assigned to its word.
        word = np.repeat(np.arange(index.num_words), np.diff(index.word_indptr))
        for w, point_id, row in zip(word, index.owners, index.descriptors):
            samples = small_model.descriptors[(assign == w) & (owner == point_id)]
            assert len(samples) > 0
            np.testing.assert_allclose(row, samples.mean(axis=0), rtol=0, atol=1e-12)

    def test_positions_of_matches_per_id_lookup(self, small_model):
        rows = np.random.default_rng(0).permutation(small_model.num_points)
        model = small_model.subset(rows)
        assert np.any(np.diff(model.point_ids) < 0)
        index = build_index(model, num_words=16, seed=1)
        ids = np.random.default_rng(1).choice(model.point_ids, size=50)
        want = np.stack([model.xyz[np.flatnonzero(model.point_ids == i)[0]] for i in ids])
        got = index.positions_of(ids)
        assert got.shape == (50, 3) and got.tobytes() == want.tobytes()

    def test_positions_of_rejects_ids_not_held(self, small_model):
        # Every third point only, so the held ids have gaps between them.
        model = small_model.subset(np.arange(0, small_model.num_points, 3))
        index = build_index(model, num_words=16, seed=1)
        held = np.sort(model.point_ids)
        gap = held[0] + 1
        assert gap not in held and gap < held[-1]
        for missing in (-5, gap, held[-1] + 1):
            ids = np.array([held[1], missing, held[2]])
            with pytest.raises(ValueError, match=f"point id {missing} "):
                index.positions_of(ids)


def exact_sq_distances(x, centroids):
    """Float64 squared distances from each row of x to each centroid."""
    return ((x[:, None, :] - centroids[None]) ** 2).sum(axis=2)


class TestWordSearch:
    """The float32 nearest-word search against exact float64 distances."""

    @pytest.mark.parametrize("seed", range(12))
    def test_chosen_word_is_nearest_within_float32_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.choice([4, 16, 32, 64]))
        k = int(rng.integers(2, 60))
        centroids = rng.normal(size=(k, dim))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        # Near-twins of the first centroids, closer than float32 resolves.
        twins = min(k // 2, 5)
        centroids[k - twins :] = centroids[:twins] * (1.0 + 1e-9 * rng.normal(size=(twins, 1)))
        x = np.vstack([
            rng.normal(scale=rng.uniform(0.1, 3.0), size=(int(rng.integers(1, 300)), dim)),
            centroids[:twins] + 1e-8 * rng.normal(size=(twins, dim)),
        ])
        sq = exact_sq_distances(x, centroids)
        tolerance = 1e-5 * (np.sum(x * x, axis=1) + np.max(np.sum(centroids**2, axis=1)))
        for got in (
            matching._nearest_centroid(x, centroids),
            np.concatenate([matching._nearest_centroid(row[None], centroids) for row in x]),
        ):
            chosen = sq[np.arange(len(x)), got]
            assert np.all(chosen - sq.min(axis=1) <= tolerance)

    @pytest.mark.parametrize("seed", range(6))
    def test_duplicate_centroids_tie_to_the_lowest_word(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(int(rng.integers(2, 40)), 32))
        source = np.concatenate([np.arange(len(base)), rng.integers(0, len(base), size=50)])
        source = rng.permutation(source)
        _, first = np.unique(source, return_index=True)
        x = rng.normal(size=(700, 32))
        for got in (
            matching._nearest_centroid(x, base[source]),
            np.concatenate([matching._nearest_centroid(row[None], base[source]) for row in x[:20]]),
        ):
            np.testing.assert_array_equal(got, first[source[got]])

    @pytest.mark.parametrize("rows, columns, dim", [(21, 37, 64), (30, 16, 32), (13, 400, 8)])
    def test_blocks_agree_with_one_block(self, monkeypatch, rows, columns, dim):
        # Blocks of 4 rows: 21 and 13 rows end in a one-row block, scored as
        # the first of two rows; 30 rows end in a two-row block.
        rng = np.random.default_rng(rows)
        x = rng.normal(size=(rows, dim))
        centroids = rng.normal(size=(columns, dim))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        one_block = matching._nearest_centroid(x, centroids)
        monkeypatch.setattr(matching, "_BLOCK_ELEMENTS", 4 * columns)
        blocked = matching._nearest_centroid(x, centroids)
        np.testing.assert_array_equal(blocked, one_block)
        np.testing.assert_array_equal(blocked, np.argmin(exact_sq_distances(x, centroids), axis=1))

    def test_model_descriptors_land_in_words_listing_their_point(self, small_model, monkeypatch):
        index = build_index(small_model, num_words=16, seed=1)
        query_words = []

        def recording(desc, centroids):
            words = nearest_centroid(desc, centroids)
            query_words.append(words)
            return words

        nearest_centroid = matching._nearest_centroid
        monkeypatch.setattr(matching, "_nearest_centroid", recording)
        query = query_of(small_model.descriptors, small_model.descriptor_dim)
        match_features(query, index, MatchParams(max_matches=10_000))
        [words] = query_words
        owner = np.repeat(small_model.point_ids, small_model.descriptor_counts)
        lists = word_owners(index)
        assert all(point in lists[w] for w, point in zip(words.tolist(), owner.tolist()))


class TestMatchFeatures:
    def test_exact_match_accepted_with_small_ratio(self):
        rng = np.random.default_rng(7)
        target = unit(rng.normal(size=16))
        far = unit(-target)
        model = model_from_descriptors([target, far], 16)
        index = build_index(model, num_words=1, seed=0)
        matches = match_features(query_of([target], 16), index, MatchParams())
        assert len(matches) == 1
        assert matches[0]["point_id"] == 0
        assert matches[0]["ratio"] < 0.1
        assert matches[0]["distance"] == pytest.approx(0.0, abs=1e-12)

    def test_identical_descriptors_of_two_points_rejected(self):
        d = unit(np.arange(1, 9))
        model = model_from_descriptors([d, d], 8)
        index = build_index(model, num_words=1, seed=0)
        matches = match_features(query_of([d], 8), index, MatchParams())
        assert len(matches) == 0

    def test_all_matches_pass_ratio_and_are_unique(self, small_scene, small_model):
        index = build_index(small_model, num_words=16, seed=1)
        view = render_view(small_scene, 0, seed=2)
        params = MatchParams(ratio_threshold=0.7, max_matches=50)
        matches = match_features(view, index, params)
        assert 0 < len(matches) <= 50
        assert len(np.unique(matches["point_id"])) == len(matches)
        assert np.all(matches["ratio"] < 0.7)

    def test_noise_free_view_matches_ground_truth(self, small_scene):
        from egoloc import build_model

        model = build_model(small_scene, 0.0, seed=9)
        index = build_index(model, num_words=16, seed=3)
        spec = replace(small_scene.spec, pixel_noise_sigma=0.0, descriptor_noise_sigma=0.0)
        view = render_view(replace(small_scene, spec=spec), 1, seed=4)
        params = MatchParams(max_matches=10_000)
        matches = match_features(view, index, params)
        correct = np.count_nonzero(
            view.true_point_ids[matches["feature_index"]] == matches["point_id"]
        )
        assert len(matches) >= 0.9 * view.num_features
        assert correct >= 0.95 * len(matches)

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
    matches as a `MATCH_DTYPE` array, the number of features the walk
    visited and the number of distinct words of the view.
    """
    desc = np.asarray(view.descriptors, dtype=np.float64)
    n = len(desc)
    words = np.argmin(((desc[:, None, :] - index.centroids[None]) ** 2).sum(axis=2), axis=1)
    pid = np.zeros(n, dtype=np.int64)
    d1 = np.full(n, np.inf)
    d2 = np.full(n, np.inf)
    for word in set(words.tolist()):
        lo, hi = index.word_indptr[word], index.word_indptr[word + 1]
        descriptors, owners = index.descriptors[lo:hi], index.owners[lo:hi]
        point_ids = np.unique(owners)
        if len(point_ids) < 2:
            continue
        rows = np.flatnonzero(words == word)
        f = desc[rows]
        sq = (
            np.sum(f * f, axis=1)[:, None]
            - 2.0 * f @ descriptors.T
            + np.sum(descriptors * descriptors, axis=1)[None, :]
        )
        np.maximum(sq, 0.0, out=sq)
        per_point = np.stack([sq[:, owners == p].min(axis=1) for p in point_ids], 1)
        nearest = np.argmin(per_point, axis=1)
        best = per_point[np.arange(len(rows)), nearest]
        per_point[np.arange(len(rows)), nearest] = np.inf
        pid[rows] = point_ids[nearest]
        d1[rows] = np.sqrt(best)
        d2[rows] = np.sqrt(per_point.min(axis=1))

    lengths = [index.word_indptr[w + 1] - index.word_indptr[w] for w in words]
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
        if existing is None or distance < existing[2]:
            best_by_point[point_id] = (f, point_id, distance, ratio)
        if existing is None and len(best_by_point) >= params.max_matches:
            break
    # A feature matches at most one point, so the rows sort by feature.
    matches = np.array(sorted(best_by_point.values()), dtype=MATCH_DTYPE)
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
                assert np.array_equal(got, want)
                scanned = counters["features_scanned"]
                if len(want) < max_matches:
                    assert scanned == n
                    assert counters["words_evaluated"] == num_view_words
                    continue
                # The walk evaluates up to the end of the length class it
                # stopped in. These views have about 290 features, so a cap
                # of at most 50 stops long before the last class.
                assert visited <= scanned <= n
                if max_matches <= 50:
                    assert scanned < n


class TestPrioritizedSearchMinimal:
    def test_evaluates_only_the_classes_reached(self, small_scene, small_model):
        """When the cap is hit, the walk has evaluated exactly the features
        whose words are no longer than that of the last feature it visited,
        and each of their words once."""
        shared_class_reached = False
        for num_words in (16, 64):
            index = build_index(small_model, num_words=num_words, seed=11)
            word_lengths = np.diff(index.word_indptr)
            for seed in range(20):
                view = render_view(small_scene, seed % small_scene.num_cameras, seed=100 + seed)
                desc = np.asarray(view.descriptors, dtype=np.float64)
                sq = ((desc[:, None, :] - index.centroids[None]) ** 2).sum(axis=2)
                words = np.argmin(sq, axis=1)
                lengths = word_lengths[words]
                order = sorted(range(len(desc)), key=lambda f: (lengths[f], f))
                for max_matches in (6, 10, 50):
                    params = MatchParams(max_matches=max_matches)
                    counters = {}
                    got = match_features(view, index, params, counters=counters)
                    want, visited, _ = full_scan_match(view, index, params)
                    assert np.array_equal(got, want) and len(want) == max_matches
                    reached = lengths <= lengths[order[visited - 1]]
                    reached_words = np.unique(words[reached])
                    assert counters["features_scanned"] == np.count_nonzero(reached)
                    assert counters["words_evaluated"] == len(reached_words)
                    # Some reached length class holds two or more words.
                    distinct_lengths = len(np.unique(word_lengths[reached_words]))
                    shared_class_reached |= distinct_lengths < len(reached_words)
        assert shared_class_reached


def hand_index(word_lengths, dim, rng):
    """An index whose word w lists `word_lengths[w]` points, each under one
    row near the word's centroid; the centroids are orthonormal."""
    k = len(word_lengths)
    centroids = np.linalg.qr(rng.normal(size=(dim, k)))[0].T.copy()
    rows = [centroids[w] + 0.1 * rng.normal(size=(n, dim)) for w, n in enumerate(word_lengths)]
    num_points = sum(word_lengths)
    return MatchIndex(
        centroids=centroids,
        descriptors=np.vstack(rows),
        owners=np.arange(num_points),
        word_indptr=np.concatenate([[0], np.cumsum(word_lengths)]),
        point_ids=np.arange(num_points),
        point_xyz=rng.normal(size=(num_points, 3)),
        build_seed=0,
    )


class TestClassWalkEdges:
    """Hand-made length classes against the full scan."""

    # Words 0-3 form the 3-point class with 4, 2, 1 and 3 features; word 2's
    # one feature takes the matrix-vector product. Words 4 and 5 form the
    # 1-point class and word 6 lists no point.
    WORD_LENGTHS = [3, 3, 3, 3, 1, 1, 0, 5, 2]
    FEATURES_PER_WORD = [4, 2, 1, 3, 2, 1, 1, 6, 3]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_full_scan(self, seed):
        rng = np.random.default_rng(seed)
        index = hand_index(self.WORD_LENGTHS, 16, rng)
        words = rng.permutation(np.repeat(np.arange(9), self.FEATURES_PER_WORD))
        # Each feature lies near one of its word's rows (or its centroid, if
        # the word lists none), so most features pass the ratio test.
        anchors = []
        for w in words:
            lo, hi = index.word_indptr[w], index.word_indptr[w + 1]
            anchor = index.descriptors[rng.integers(lo, hi)] if hi > lo else index.centroids[w]
            anchors.append(anchor)
        view = query_of(np.array(anchors) + 0.02 * rng.normal(size=(len(words), 16)), 16)
        for ratio_threshold in (0.7, 0.95):
            for max_matches in (6, 10_000):
                params = MatchParams(ratio_threshold=ratio_threshold, max_matches=max_matches)
                counters = {}
                got = match_features(view, index, params, counters=counters)
                want, visited, num_view_words = full_scan_match(view, index, params)
                assert np.array_equal(got, want)
                if len(want) < max_matches:
                    assert counters == {
                        "features_scanned": len(words),
                        "words_evaluated": num_view_words,
                    }
                else:
                    assert visited <= counters["features_scanned"]
        assert np.isin(got["feature_index"], np.flatnonzero(words == 2)).any()

    # Lengths 2 to 8 in six classes of 4, 3, 7, 4, 5 and 6 features, each
    # feature near its own point: every feature matches a new point, so a
    # cap of 7, 12 or 20 is reached in the first batch, which spans two,
    # three or five classes of different list lengths.
    BATCH_WORD_LENGTHS = [2, 2, 3, 4, 4, 5, 6, 8]
    BATCH_FEATURES_PER_WORD = [2, 2, 3, 3, 4, 4, 5, 6]

    @pytest.mark.parametrize("seed", range(8))
    def test_cap_inside_a_batch_of_several_classes(self, seed):
        rng = np.random.default_rng(seed)
        index = hand_index(self.BATCH_WORD_LENGTHS, 16, rng)
        lists = np.split(np.arange(len(index.descriptors)), index.word_indptr[1:-1])
        per_word = zip(lists, self.BATCH_FEATURES_PER_WORD)
        rows = rng.permutation(np.concatenate([rng.choice(r, f, replace=False) for r, f in per_word]))
        words = np.searchsorted(index.word_indptr, rows, side="right") - 1
        view = query_of(index.descriptors[rows] + 0.02 * rng.normal(size=(len(rows), 16)), 16)
        lengths = np.diff(index.word_indptr)[words]
        order = sorted(range(len(words)), key=lambda f: (lengths[f], f))
        for max_matches in (7, 12, 20):
            params = MatchParams(max_matches=max_matches)
            counters = {}
            got = match_features(view, index, params, counters=counters)
            want, visited, _ = full_scan_match(view, index, params)
            assert np.array_equal(got, want) and len(want) == visited == max_matches
            stop_length = lengths[order[visited - 1]]
            reached = lengths <= stop_length
            assert counters == {
                "features_scanned": np.count_nonzero(reached),
                "words_evaluated": len(np.unique(words[reached])),
            }
            assert len(np.unique(lengths[reached])) > 1

    def test_equal_distance_tie_goes_to_the_earlier_class(self):
        """Point 0 is matched at the same distance by feature 1, in the
        2-point class, and by feature 0, in the 3-point class; the walk
        reaches feature 1 first, so it wins."""
        e = np.eye(8)
        index = MatchIndex(
            centroids=e[:2],
            descriptors=np.array(
                [e[0] + e[3] / 2, e[0] - e[3] / 2, e[1] + e[4] / 2, e[1] - e[4] / 2, e[1] + e[5] / 2]
            ),
            owners=np.array([0, 1, 0, 2, 3]),
            word_indptr=np.array([0, 2, 5]),
            point_ids=np.arange(4),
            point_xyz=np.zeros((4, 3)),
            build_seed=0,
        )
        view = query_of([e[1] + 0.5 * e[4] + 0.25 * e[7], e[0] + 0.5 * e[3] + 0.25 * e[6]], 8)
        got = match_features(view, index, MatchParams())
        assert np.array_equal(got, full_scan_match(view, index, MatchParams())[0])
        want = np.array([(1, 0, 0.25, 0.25 / np.sqrt(1.0625))], MATCH_DTYPE)
        assert np.array_equal(got, want)

    def test_better_match_after_the_cap_is_ignored(self):
        """Features 0-5 match points 0-5 and reach the cap of 6; feature 6,
        in the same class, matches point 0 more closely but comes after the
        cap, so feature 0 keeps point 0."""
        e = np.eye(16)
        index = MatchIndex(
            centroids=e[:1],
            descriptors=np.array([e[0] + 0.5 * e[1 + j] for j in range(7)]),
            owners=np.arange(7),
            word_indptr=np.array([0, 7]),
            point_ids=np.arange(7),
            point_xyz=np.zeros((7, 3)),
            build_seed=0,
        )
        features = [e[0] + 0.5 * e[1 + j] + 0.25 * e[9] for j in range(6)]
        features.append(e[0] + 0.5 * e[1] + 0.125 * e[9])
        view = query_of(features, 16)
        params = MatchParams(max_matches=6)
        counters = {}
        got = match_features(view, index, params, counters=counters)
        assert np.array_equal(got, full_scan_match(view, index, params)[0])
        got_pairs = got[["feature_index", "point_id", "distance"]].tolist()
        assert got_pairs == [(j, j, 0.25) for j in range(6)]
        assert counters == {"features_scanned": 7, "words_evaluated": 1}
