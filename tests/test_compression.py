"""Weighted/unweighted set k-cover against naive full-scan reference oracles."""

import re

import numpy as np
import pytest

from egoloc import (
    METHODS,
    PointCloudModel,
    PlaneStructure,
    StructureLabeling,
    VisibilityMatrix,
    assign_weights,
    compress,
    compress_set_kcover,
    compress_top_visibility,
    compress_weighted_kcover,
)
from egoloc.errors import DegenerateModelError

from conftest import saved_bytes


def make_model(dense_visibility: np.ndarray) -> PointCloudModel:
    """Tiny model over a dense point-camera visibility mask."""
    n = dense_visibility.shape[0]
    rng = np.random.default_rng(0)
    return PointCloudModel(
        xyz=rng.normal(size=(n, 3)),
        descriptors=np.vstack([np.zeros((1, 2)) for _ in range(n)]),
        descriptor_counts=np.ones(n, dtype=np.int64),
        visibility=VisibilityMatrix.from_dense(dense_visibility),
        model_id="tiny",
    )


def make_labeling(group_of: list[int], num_points: int) -> StructureLabeling:
    """Labeling from per-point group indices; -1 marks residual points."""
    structures = []
    for g in sorted(set(g for g in group_of if g >= 0)):
        ids = np.array([i for i, gi in enumerate(group_of) if gi == g], dtype=np.int64)
        structures.append(
            PlaneStructure(normal=np.array([0.0, 0.0, 1.0]), offset=float(g), member_ids=ids)
        )
    residual = np.array([i for i, gi in enumerate(group_of) if gi < 0], dtype=np.int64)
    return StructureLabeling(structures=structures, residual_ids=residual, num_points=num_points)


# --- Naive reference implementations -------------------------------------
#
# Full rescan of the selection rule each iteration, plain loops; shares no
# code with the library implementation.


def naive_weighted_kcover(dense, group_of, k, trace=None):
    """With a list as `trace`, appends each pick's `selected`,
    `weights_before` and `weights_after_halving`, as the library does."""
    n, m = dense.shape
    group_sizes = {}
    for g in group_of:
        group_sizes[g] = group_sizes.get(g, 0) + 1
    w = np.array([group_sizes[g] / n for g in group_of], dtype=np.float64)

    counts = [0] * m
    selected = set()
    order = []
    while True:
        active = False
        for j in range(m):
            if counts[j] < k and any(
                dense[i, j] and i not in selected for i in range(n)
            ):
                active = True
        if not active:
            break
        under = [j for j in range(m) if counts[j] < k]
        best, best_score = None, 0.0
        for i in range(n):
            if i in selected:
                continue
            cover = sum(1 for j in under if dense[i, j])
            score = w[i] * float(cover)
            if best is None or score > best_score:
                best, best_score = i, score
        order.append(best)
        selected.add(best)
        for j in range(m):
            if dense[best, j]:
                counts[j] += 1
        before = w.copy()
        w[best] = 0.0
        if group_of[best] >= 0:
            for i in range(n):
                if i not in selected and group_of[i] == group_of[best]:
                    w[i] = w[i] / 2.0
        if trace is not None:
            trace.append(
                {"selected": best, "weights_before": before, "weights_after_halving": w.copy()}
            )
        under2 = [j for j in range(m) if counts[j] < k]
        for i in range(n):
            if i not in selected and not any(dense[i, j] for j in under2):
                w[i] = 0.0
        total = w.sum()
        if total > 0:
            w = w / total
    return order


def naive_set_kcover(dense, k):
    n, m = dense.shape
    counts = [0] * m
    selected = set()
    order = []
    while True:
        active = False
        for j in range(m):
            if counts[j] < k and any(
                dense[i, j] and i not in selected for i in range(n)
            ):
                active = True
        if not active:
            break
        under = [j for j in range(m) if counts[j] < k]
        best, best_cover = None, 0
        for i in range(n):
            if i in selected:
                continue
            cover = sum(1 for j in under if dense[i, j])
            if best is None or cover > best_cover:
                best, best_cover = i, cover
        order.append(best)
        selected.add(best)
        for j in range(m):
            if dense[best, j]:
                counts[j] += 1
    return order


def random_instance(rng):
    """A small random model + labeling + k for oracle comparison."""
    n = int(rng.integers(4, 13))
    m = int(rng.integers(1, 5))
    k = int(rng.integers(1, 3))
    dense = rng.random((n, m)) < 0.5
    num_groups = int(rng.integers(1, 4))
    group_of = [int(g) for g in rng.integers(-1, num_groups, size=n)]
    return make_model(dense), make_labeling(group_of, n), group_of, dense, k


def skewed_instance(rng):
    """One structure holding most points and a large k: the greedy halves
    that structure again and again, and cameras reach k mid-run."""
    n = int(rng.integers(25, 45))
    m = int(rng.integers(3, 7))
    k = int(rng.integers(4, 13))
    dense = rng.random((n, m)) < float(rng.uniform(0.3, 0.7))
    group_of = [0 if rng.random() < 0.8 else int(rng.integers(-1, 3)) for _ in range(n)]
    return make_model(dense), make_labeling(group_of, n), group_of, dense, k


class TestAssignWeights:
    def test_single_group_weight_one(self):
        labeling = make_labeling([0] * 7, 7)
        np.testing.assert_array_equal(assign_weights(labeling, 7), np.ones(7))

    def test_spec_shares(self):
        group_of = [0] * 6 + [1] * 3 + [-1]
        weights = assign_weights(make_labeling(group_of, 10), 10)
        np.testing.assert_allclose(weights[:6], 0.6)
        np.testing.assert_allclose(weights[6:9], 0.3)
        np.testing.assert_allclose(weights[9], 0.1)

    def test_group_mass_matches_counting_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(3, 30))
            num_groups = int(rng.integers(1, 5))
            group_of = [int(g) for g in rng.integers(-1, num_groups, size=n)]
            weights = assign_weights(make_labeling(group_of, n), n)
            sizes = {}
            for g in group_of:
                sizes[g] = sizes.get(g, 0) + 1
            expected = sum(s * s / n for s in sizes.values())
            assert weights.sum() == pytest.approx(expected, abs=1e-12)


class TestWeightedKCover:
    def test_single_camera_ordered_by_weight(self):
        # Ten points in groups of 5/3/2; the camera sees one point per group,
        # so selection follows the group weights 0.5 > 0.3 > 0.2.
        dense = np.zeros((10, 1), dtype=bool)
        dense[[0, 5, 8], 0] = True
        group_of = [0] * 5 + [1] * 3 + [2] * 2
        model = make_model(dense)
        labeling = make_labeling(group_of, 10)
        compressed = compress_weighted_kcover(model, labeling, k=2)
        assert compressed.selected_ids.tolist() == [0, 5]

    def test_disjoint_cameras(self):
        dense = np.zeros((4, 2), dtype=bool)
        dense[[0, 1], 0] = True
        dense[[2, 3], 1] = True
        model = make_model(dense)
        labeling = make_labeling([0, 0, 0, 0], 4)
        compressed = compress_weighted_kcover(model, labeling, k=1)
        assert compressed.num_points == 2
        assert len(set(compressed.selected_ids.tolist()) & {0, 1}) == 1
        assert len(set(compressed.selected_ids.tolist()) & {2, 3}) == 1

    def test_matches_naive_oracle_on_random_instances(self):
        rng = np.random.default_rng(1234)
        for _ in range(60):
            model, labeling, group_of, dense, k = random_instance(rng)
            got = compress_weighted_kcover(model, labeling, k).selected_ids.tolist()
            want = naive_weighted_kcover(dense, group_of, k)
            assert got == want

    def test_matches_naive_oracle_with_one_dominant_structure(self):
        rng = np.random.default_rng(1616)
        dominant_repicks = 0
        mid_run_crossings = 0
        for _ in range(12):
            model, labeling, group_of, dense, k = skewed_instance(rng)
            trace: list = []
            got = compress_weighted_kcover(model, labeling, k, trace=trace)
            want_trace: list = []
            want = naive_weighted_kcover(dense, group_of, k, trace=want_trace)
            assert got.selected_ids.tolist() == want
            assert len(trace) == len(want_trace)
            for step, ref in zip(trace, want_trace):
                assert step["selected"] == ref["selected"]
                for key in ("weights_before", "weights_after_halving"):
                    assert np.array_equal(step[key], ref[key]), key
            dominant_repicks += sum(group_of[i] == 0 for i in want) > 1
            # A camera that reaches k before the last pick.
            counts = np.cumsum(dense[want], axis=0)
            first_at_k = np.argmax(counts >= k, axis=0)
            mid_run_crossings += bool(((counts[-1] >= k) & (first_at_k < len(want) - 1)).any())
        # The instances exercise what they are for.
        assert dominant_repicks >= 10
        assert mid_run_crossings >= 6

    def test_degenerate_model_rejected(self):
        dense = np.zeros((3, 0), dtype=bool)
        model = PointCloudModel(
            xyz=np.zeros((3, 3)),
            descriptors=np.vstack([np.zeros((1, 2))] * 3),
            descriptor_counts=np.ones(3, dtype=np.int64),
            visibility=VisibilityMatrix(3, []),
        )
        with pytest.raises(DegenerateModelError):
            compress_weighted_kcover(model, make_labeling([0, 0, 0], 3), 1)

    def test_halving_schedule_exact(self):
        rng = np.random.default_rng(77)
        model, labeling, group_of, dense, k = random_instance(rng)
        trace: list = []
        compress_weighted_kcover(model, labeling, k, trace=trace)
        labels = labeling.labels()
        for step in trace:
            s = step["selected"]
            before = step["weights_before"]
            halved = step["weights_after_halving"]
            for i in range(model.num_points):
                if i == s:
                    assert halved[i] == 0.0
                elif labels[s] >= 0 and labels[i] == labels[s] and before[i] != 0.0:
                    assert halved[i] == before[i] / 2.0

    def test_no_useless_picks(self):
        rng = np.random.default_rng(88)
        for _ in range(30):
            model, labeling, group_of, dense, k = random_instance(rng)
            compressed = compress_weighted_kcover(model, labeling, k)
            counts = np.zeros(dense.shape[1], dtype=int)
            for row, pid in enumerate(compressed.selected_ids):
                covered = [j for j in range(dense.shape[1]) if dense[pid, j] and counts[j] < k]
                assert covered, f"pick {pid} covered no under-covered camera"
                counts[dense[pid]] += 1


class TestSetKCover:
    def test_disjoint_cameras(self):
        dense = np.zeros((4, 2), dtype=bool)
        dense[[0, 1], 0] = True
        dense[[2, 3], 1] = True
        compressed = compress_set_kcover(make_model(dense), k=1)
        assert compressed.num_points == 2

    def test_most_covering_first(self):
        dense = np.zeros((2, 5), dtype=bool)
        dense[0, [0, 1, 2]] = True  # A covers 3 cameras
        dense[1, [3, 4]] = True  # B covers 2
        compressed = compress_set_kcover(make_model(dense), k=1)
        assert compressed.selected_ids[0] == 0

    def test_matches_naive_oracle_on_random_instances(self):
        rng = np.random.default_rng(4321)
        for _ in range(60):
            model, labeling, group_of, dense, k = random_instance(rng)
            got = compress_set_kcover(model, k).selected_ids.tolist()
            want = naive_set_kcover(dense, k)
            assert got == want

    def test_tie_break_lowest_id(self):
        dense = np.ones((3, 2), dtype=bool)
        compressed = compress_set_kcover(make_model(dense), k=2)
        assert compressed.selected_ids.tolist() == [0, 1]


class TestCoverageInvariant:
    def test_non_saturated_cameras_reach_k(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            model, labeling, group_of, dense, k = random_instance(rng)
            for compressed in (
                compress_weighted_kcover(model, labeling, k),
                compress_set_kcover(model, k),
            ):
                covered = compressed.achieved_counts
                full = model.visibility.camera_counts()
                for j in range(model.num_cameras):
                    if full[j] >= k:
                        assert covered[j] >= k
                    else:
                        # Saturated cameras end with all their points selected.
                        assert covered[j] == full[j]

    def test_determinism(self):
        rng = np.random.default_rng(111)
        model, labeling, group_of, dense, k = random_instance(rng)
        a = compress_weighted_kcover(model, labeling, k).selected_ids
        b = compress_weighted_kcover(model, labeling, k).selected_ids
        assert np.array_equal(a, b)


class TestTopVisibility:
    def test_fraction_one_keeps_all(self):
        rng = np.random.default_rng(6)
        dense = rng.random((12, 3)) < 0.6
        model = make_model(dense)
        labeling = make_labeling([0] * 6 + [1] * 6, 12)
        compressed = compress_top_visibility(model, labeling, 1.0)
        assert set(compressed.selected_ids.tolist()) == set(range(12))

    def test_keeps_single_most_visible(self):
        dense = np.zeros((10, 5), dtype=bool)
        for i in range(10):
            dense[i, : min(i % 5, 4)] = True
        dense[7] = True  # point 7 uniquely visible everywhere
        model = make_model(dense)
        labeling = make_labeling([0] * 10, 10)
        compressed = compress_top_visibility(model, labeling, 0.1)
        assert compressed.selected_ids.tolist() == [7]

    def test_matches_sorting_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(6, 25))
            m = int(rng.integers(1, 6))
            dense = rng.random((n, m)) < 0.5
            num_groups = int(rng.integers(1, 4))
            group_of = [int(g) for g in rng.integers(-1, num_groups, size=n)]
            fraction = float(rng.uniform(0.1, 1.0))
            model = make_model(dense)
            labeling = make_labeling(group_of, n)
            got = set(compress_top_visibility(model, labeling, fraction).selected_ids.tolist())
            want = set()
            groups = [s.member_ids.tolist() for s in labeling.structures]
            if len(labeling.residual_ids):
                groups.append(labeling.residual_ids.tolist())
            for ids in groups:
                ranked = sorted(ids, key=lambda i: (-int(dense[i].sum()), i))
                want |= set(ranked[: int(np.ceil(fraction * len(ids)))])
            assert got == want


class TestStructureSpread:
    def test_weighted_spreads_across_equal_planes(self):
        # Two 50-point planes; five cameras each see ten points of each plane.
        dense = np.zeros((100, 5), dtype=bool)
        for j in range(5):
            dense[j * 10 : (j + 1) * 10, j] = True
            dense[50 + j * 10 : 50 + (j + 1) * 10, j] = True
        model = make_model(dense)
        labeling = make_labeling([0] * 50 + [1] * 50, 100)
        compressed = compress_weighted_kcover(model, labeling, k=4)
        a = int((compressed.selected_ids < 50).sum())
        b = int((compressed.selected_ids >= 50).sum())
        assert abs(a - b) <= 0.2 * max(a, b)

    def test_pure_visibility_ranking_concentrates(self):
        # Plane A's points are visible everywhere, plane B's in one camera
        # each; a global visibility sort (the motivating strawman) piles onto
        # plane A.
        dense = np.zeros((100, 10), dtype=bool)
        dense[:50, :] = True
        for i in range(50, 100):
            dense[i, (i - 50) % 10] = True
        track = dense.sum(axis=1)
        keep = sorted(range(100), key=lambda i: (-track[i], i))[:20]
        on_a = sum(1 for i in keep if i < 50)
        assert on_a >= 0.8 * len(keep)


class TestAchievedCounts:
    def test_full_model_counts(self):
        rng = np.random.default_rng(8)
        dense = rng.random((15, 4)) < 0.5
        model = make_model(dense)
        labeling = make_labeling([0] * 15, 15)
        compressed = compress_top_visibility(model, labeling, 1.0)
        np.testing.assert_array_equal(
            compressed.achieved_counts, model.visibility.camera_counts()
        )
        assert compressed.num_points == model.num_points

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            model, labeling, group_of, dense, k = random_instance(rng)
            compressed = compress_set_kcover(model, k)
            chosen = set(compressed.selected_ids.tolist())
            for j in range(dense.shape[1]):
                want = sum(1 for i in range(dense.shape[0]) if dense[i, j] and i in chosen)
                assert compressed.achieved_counts[j] == want


class TestCompress:
    def test_runs_each_method_as_its_own_function(self):
        rng = np.random.default_rng(10)
        model, labeling, _, _, k = random_instance(rng)
        assert METHODS == ("weighted_kcover", "set_kcover", "top_visibility")
        runs = {
            "weighted_kcover": (k, compress_weighted_kcover(model, labeling, k)),
            "set_kcover": (k, compress_set_kcover(model, k)),
            "top_visibility": (0.3, compress_top_visibility(model, labeling, 0.3)),
        }
        for method, (parameter, want) in runs.items():
            got = compress(model, labeling, method, parameter)
            assert saved_bytes(got) == saved_bytes(want), method
        # A k given as an integral float is the same k.
        got = compress(model, labeling, "set_kcover", float(k))
        assert saved_bytes(got) == saved_bytes(runs["set_kcover"][1])

    @pytest.mark.parametrize(
        "method, parameter",
        [("bogus", 3), ("full", 3), ("weighted_kcover", 2.5), ("set_kcover", float("nan"))],
        ids=["unknown", "full", "fractional-k", "nan-k"],
    )
    def test_rejects_unknown_method_or_fractional_k(self, method, parameter):
        rng = np.random.default_rng(11)
        model, labeling, _, _, _ = random_instance(rng)
        with pytest.raises(ValueError):
            compress(model, labeling, method, parameter)

    @pytest.mark.parametrize("k", [float("nan"), 2.5, True], ids=["nan", "fractional", "bool"])
    @pytest.mark.parametrize("method", ["weighted_kcover", "set_kcover"])
    def test_kcover_functions_refuse_a_k_that_is_no_integer(self, method, k):
        rng = np.random.default_rng(11)
        model, labeling, _, _, _ = random_instance(rng)
        with pytest.raises(ValueError, match=re.escape(f"not {k!r}")):
            if method == "set_kcover":
                compress_set_kcover(model, k)
            else:
                compress_weighted_kcover(model, labeling, k)

    def test_only_set_kcover_runs_without_a_labeling(self):
        rng = np.random.default_rng(12)
        model, _, _, _, k = random_instance(rng)
        got = compress(model, None, "set_kcover", k)
        assert saved_bytes(got) == saved_bytes(compress_set_kcover(model, k))
        for method, parameter in (("weighted_kcover", k), ("top_visibility", 0.5)):
            with pytest.raises(ValueError, match="labeling"):
                compress(model, None, method, parameter)
