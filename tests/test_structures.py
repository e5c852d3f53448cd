"""Plane/line RANSAC detection against planted ground truth."""

import dataclasses

import numpy as np
import pytest

from egoloc import (
    DetectParams,
    LineStructure,
    PlaneStructure,
    StructureLabeling,
    detect_structures,
)


def plane_points(rng, normal, offset, n, extent=5.0):
    normal = np.asarray(normal, dtype=np.float64)
    normal = normal / np.linalg.norm(normal)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(normal @ helper) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    u = np.cross(normal, helper)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    ab = rng.uniform(-extent, extent, size=(n, 2))
    return offset * normal + ab[:, :1] * u + ab[:, 1:] * v


def line_points(rng, anchor, direction, n, extent=5.0):
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    t = rng.uniform(-extent, extent, size=(n, 1))
    return np.asarray(anchor) + t * direction


def planes_found(points, params):
    """The planes of `detect_structures`: they are detected first, on every
    point, so they are the result of plane detection alone."""
    found = detect_structures(points, params).structures
    return [s for s in found if isinstance(s, PlaneStructure)]


def lines_found(points, params):
    """The lines of `detect_structures`, for point sets that hold no plane."""
    found = detect_structures(points, params).structures
    assert all(isinstance(s, LineStructure) for s in found)
    return found


def least_squares_plane_normal(points):
    centered = points - points.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return vt[-1]


def normal_angle_deg(a, b):
    cosine = min(abs(float(np.dot(a, b))), 1.0)
    return np.degrees(np.arccos(cosine))


@pytest.mark.parametrize("kind", ["plane", "line", "labeling"])
def test_arrays_are_read_only_copies(kind):
    unit, anchor, ids = np.array([0.0, 0.0, 1.0]), np.array([1.0, 2.0, 3.0]), np.array([2, 0, 1])
    if kind == "plane":
        value = PlaneStructure(normal=unit, offset=1.0, member_ids=ids)
        pairs = [(value.normal, unit), (value.member_ids, ids)]
    elif kind == "line":
        value = LineStructure(anchor=anchor, direction=unit, member_ids=ids)
        pairs = [(value.anchor, anchor), (value.direction, unit), (value.member_ids, ids)]
    else:
        value = StructureLabeling([], ids, 3)
        pairs = [(value.residual_ids, ids)]
    for stored, given in pairs:
        np.testing.assert_array_equal(stored, given)
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 3
        assert given.flags.writeable and not np.shares_memory(stored, given)


@pytest.mark.parametrize("name", ["structures", "residual_ids", "num_points"])
def test_labeling_fields_cannot_be_replaced(name):
    """A labeling keeps what its check accepted: no field can be reassigned
    and its structures cannot grow."""
    plane = PlaneStructure(normal=np.array([0.0, 0.0, 1.0]), offset=0.0, member_ids=[0])
    labeling = StructureLabeling([plane], np.array([1, 2]), 3)
    assert labeling.structures == (plane,)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(labeling, name, np.arange(1, 4))


class TestDetectPlanes:
    def test_single_exact_plane(self):
        rng = np.random.default_rng(0)
        pts = plane_points(rng, [0.0, 0.0, 1.0], 2.0, 100)
        planes = planes_found(pts, DetectParams(inlier_threshold=0.05, seed=1))
        assert len(planes) == 1
        assert len(planes[0].member_ids) == 100
        oracle_normal = least_squares_plane_normal(pts)
        assert normal_angle_deg(planes[0].normal, oracle_normal) < 0.5

    def test_three_points_exact_fit(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        planes = planes_found(pts, DetectParams(min_members=3, seed=2))
        assert len(planes) == 1
        assert len(planes[0].member_ids) == 3

    def test_two_parallel_planes_largest_first(self):
        rng = np.random.default_rng(3)
        big = plane_points(rng, [0.0, 0.0, 1.0], 0.0, 60)
        small = plane_points(rng, [0.0, 0.0, 1.0], 1.0, 30)
        pts = np.vstack([big, small])
        planes = planes_found(pts, DetectParams(inlier_threshold=0.05, seed=4))
        assert len(planes) == 2
        # Consensus counting: the first accepted plane is the 60-point one.
        assert len(planes[0].member_ids) == 60
        assert set(planes[0].member_ids.tolist()) == set(range(60))

    def test_member_distances_within_threshold(self):
        rng = np.random.default_rng(5)
        pts = plane_points(rng, [1.0, 2.0, 0.5], 1.0, 200)
        pts = pts + rng.normal(scale=0.01, size=pts.shape)
        params = DetectParams(inlier_threshold=0.05, seed=6)
        for plane in planes_found(pts, params):
            members = pts[plane.member_ids]
            assert np.all(np.abs(members @ plane.normal - plane.offset) <= params.inlier_threshold)


class TestDetectLines:
    def test_collinear_points_single_line(self):
        rng = np.random.default_rng(7)
        pts = line_points(rng, [0.0, 1.0, 2.0], [1.0, 1.0, 0.0], 50)
        lines = lines_found(pts, DetectParams(seed=8))
        assert len(lines) == 1
        assert len(lines[0].member_ids) == 50

    def test_two_perpendicular_lines(self):
        rng = np.random.default_rng(9)
        a = line_points(rng, [0.0, 0.0, 0.0], [1.0, 0.0, 0.0], 30)
        b = line_points(rng, [0.0, 3.0, 2.0], [0.0, 1.0, 0.0], 30)
        pts = np.vstack([a, b])
        lines = lines_found(pts, DetectParams(seed=10))
        assert len(lines) == 2
        sizes = sorted(len(l.member_ids) for l in lines)
        assert sizes == [30, 30]
        first = set(lines[0].member_ids.tolist())
        assert first == set(range(30)) or first == set(range(30, 60))

    def test_pure_clutter_rarely_forms_lines(self):
        # 30 uniform points in a 10 m cube almost never put 20 within 1 cm of
        # a line; Monte-Carlo over 100 seeds.
        empty = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(-5, 5, size=(30, 3))
            lines = lines_found(
                pts, DetectParams(inlier_threshold=0.01, min_members=20, seed=seed)
            )
            empty += not lines
        assert empty >= 99


class TestDetectStructures:
    def test_plane_line_clutter_partition(self):
        rng = np.random.default_rng(11)
        plane = plane_points(rng, [0.2, 0.1, 1.0], 0.5, 100)
        line = line_points(rng, [3.0, -2.0, 4.0], [0.0, 1.0, 0.3], 40)
        # Clutter kept clear of both planted structures so the expected
        # partition is unambiguous.
        clutter = []
        while len(clutter) < 10:
            c = rng.uniform(-30, 30, size=3)
            near_plane = np.vstack([plane, c])
            d_plane = abs(
                (c - plane.mean(axis=0)) @ least_squares_plane_normal(near_plane[:-1])
            )
            rel = c - np.array([3.0, -2.0, 4.0])
            direction = np.array([0.0, 1.0, 0.3]) / np.linalg.norm([0.0, 1.0, 0.3])
            d_line = np.linalg.norm(rel - (rel @ direction) * direction)
            if d_plane > 0.5 and d_line > 0.5:
                clutter.append(c)
        clutter = np.asarray(clutter)
        pts = np.vstack([plane, line, clutter])
        labeling = detect_structures(pts, DetectParams(inlier_threshold=0.05, seed=12))
        assert labeling.num_structures == 2
        assert len(labeling.residual_ids) == 10
        assert set(labeling.residual_ids.tolist()) == set(range(140, 150))

    def test_all_clutter(self):
        rng = np.random.default_rng(13)
        pts = rng.uniform(-20, 20, size=(60, 3))
        labeling = detect_structures(
            pts, DetectParams(inlier_threshold=0.005, min_members=20, seed=14)
        )
        assert labeling.num_structures == 0
        assert len(labeling.residual_ids) == 60

    def test_single_plane_empty_residual(self):
        rng = np.random.default_rng(15)
        pts = plane_points(rng, [0.0, 1.0, 0.0], 1.0, 80)
        labeling = detect_structures(pts, DetectParams(seed=16))
        assert labeling.num_structures == 1
        assert len(labeling.residual_ids) == 0

    def test_partition_invariant(self):
        rng = np.random.default_rng(17)
        pts = np.vstack(
            [
                plane_points(rng, [0.0, 0.0, 1.0], 0.0, 120),
                line_points(rng, [1.0, 1.0, 1.0], [1.0, -1.0, 0.0], 40),
                rng.uniform(-20, 20, size=(25, 3)),
            ]
        )
        labeling = detect_structures(pts, DetectParams(seed=18))
        seen = np.concatenate(
            [s.member_ids for s in labeling.structures] + [labeling.residual_ids]
        )
        assert sorted(seen.tolist()) == list(range(len(pts)))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(19)
        pts = np.vstack(
            [plane_points(rng, [0.3, 0.3, 1.0], 0.0, 90), rng.uniform(-10, 10, size=(20, 3))]
        )
        a = detect_structures(pts, DetectParams(seed=20))
        b = detect_structures(pts, DetectParams(seed=20))
        assert len(a.structures) == len(b.structures)
        for sa, sb in zip(a.structures, b.structures):
            assert np.array_equal(sa.member_ids, sb.member_ids)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            detect_structures(np.zeros((0, 3)))

    def test_accepted_plane_has_maximum_valid_consensus(self):
        # Replay round 0 as a sequential loop on the round's one stream: its
        # hypotheses through `draw_distinct`, then a collinearity probe for
        # each that would become the new best. The accepted plane must carry
        # the best inlier count of that loop, which is what makes the batched
        # evaluation reproduce a sequential best-of-N search.
        from egoloc.structures import (
            _fit_planes,
            _members_collinear,
            _plane_distances,
            draw_distinct,
        )

        rng = np.random.default_rng(23)
        pts = np.vstack(
            [
                plane_points(rng, [0.1, 0.4, 1.0], 1.0, 80),
                plane_points(rng, [1.0, 0.0, 0.2], -2.0, 50),
                rng.uniform(-8, 8, size=(30, 3)),
            ]
        )
        params = DetectParams(inlier_threshold=0.05, min_members=30, seed=24, max_iterations_per_structure=300)
        planes = planes_found(pts, params)
        assert planes
        num = params.max_iterations_per_structure
        round_rng = np.random.default_rng((params.seed, 0))
        picks = draw_distinct(round_rng, len(pts), num, 3)
        assert picks.shape == (num, 3)
        assert all(len(set(row)) == 3 for row in picks.tolist())
        best_valid = 0
        for pick in picks:
            normals, offsets, valid = _fit_planes(pts[pick][None])
            if not valid[0]:
                continue
            mask = _plane_distances(pts, normals, offsets)[:, 0] <= params.inlier_threshold
            if mask.sum() <= best_valid:
                continue
            if _members_collinear(pts[mask], params.inlier_threshold, round_rng):
                continue
            best_valid = int(mask.sum())
        assert len(planes[0].member_ids) == best_valid

    def test_each_round_draws_from_one_stream(self, monkeypatch):
        # One `default_rng`, seeded (seed, round), per detection round: the
        # collinearity probes take no generator of their own.
        import egoloc.structures as structures_module

        rng = np.random.default_rng(29)
        pts = np.vstack(
            [
                plane_points(rng, [0.0, 0.0, 1.0], 0.0, 120),
                plane_points(rng, [1.0, 0.0, 0.0], 3.0, 90),
                line_points(rng, [0.0, 2.0, 5.0], [0.0, 1.0, 0.0], 40),
                rng.uniform(-8, 8, size=(30, 3)),
            ]
        )
        rounds, built = [], []
        detect_one, default_rng = structures_module._detect_one, np.random.default_rng

        def counting_round(*args):
            rounds.append(args[4])
            return detect_one(*args)

        def counting_rng(*args):
            built.append(args)
            return default_rng(*args)

        monkeypatch.setattr(structures_module, "_detect_one", counting_round)
        monkeypatch.setattr(np.random, "default_rng", counting_rng)
        labeling = detect_structures(pts, DetectParams(min_members=30, seed=5))
        assert labeling.num_structures >= 3
        assert built == [((5, r),) for r in rounds]
