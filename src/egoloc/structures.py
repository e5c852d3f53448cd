"""Sequential RANSAC detection of planes and lines in a 3D point cloud.

Planes are detected first, one at a time; each accepted structure removes its
member points from the pool before the next round. Lines are then detected on
whatever the planes left behind, and the leftovers form a single residual
category. The resulting labeling drives the structure-aware compression
weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import check_fields
from .geometry import _store_read_only


@dataclass(frozen=True)
class PlaneStructure:
    """Plane ``normal . x = offset`` with its member point ids."""

    normal: np.ndarray
    offset: float
    member_ids: np.ndarray

    def __post_init__(self):
        n = _store_read_only(self, "normal", np.float64, 3)
        if abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise ValueError("plane normal must be unit length")
        _store_read_only(self, "member_ids", np.int64, -1)


@dataclass(frozen=True)
class LineStructure:
    """Line through `anchor` along unit `direction` with member point ids."""

    anchor: np.ndarray
    direction: np.ndarray
    member_ids: np.ndarray

    def __post_init__(self):
        d = _store_read_only(self, "direction", np.float64, 3)
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise ValueError("line direction must be unit length")
        _store_read_only(self, "anchor", np.float64, 3)
        _store_read_only(self, "member_ids", np.int64, -1)


Structure = PlaneStructure | LineStructure


@dataclass(frozen=True)
class StructureLabeling:
    """Partition of point ids into detected structures plus a residual group.

    Frozen, with the structures kept as a tuple, so a labeling keeps what
    its check accepted."""

    structures: tuple[Structure, ...]
    residual_ids: np.ndarray
    num_points: int

    def __post_init__(self):
        object.__setattr__(self, "structures", tuple(self.structures))
        residual = _store_read_only(self, "residual_ids", np.int64, -1)
        ids = np.concatenate([*(s.member_ids for s in self.structures), residual])
        outside = ids[(ids < 0) | (ids >= self.num_points)]
        if len(outside):
            raise ValueError(f"point id {outside[0]} is outside 0..{self.num_points - 1}")
        if not np.all(np.bincount(ids, minlength=self.num_points) == 1):
            raise ValueError("structures and residual must partition the point ids")

    def labels(self) -> np.ndarray:
        """Per-point structure index; residual points get -1."""
        lab = -np.ones(self.num_points, dtype=np.int64)
        for idx, s in enumerate(self.structures):
            lab[s.member_ids] = idx
        return lab

    @property
    def num_structures(self) -> int:
        return len(self.structures)


@dataclass(frozen=True)
class DetectParams:
    """RANSAC parameters for structure detection.

    `min_members` of None applies the default policy max(20, 1% of N);
    a given count must be at least 3, the points a plane sample needs.
    """

    inlier_threshold: float = 0.05
    min_members: int | None = None
    max_iterations_per_structure: int = 1000
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if not self.inlier_threshold > 0:
            raise ValueError("inlier_threshold must be positive")
        if self.max_iterations_per_structure < 1:
            raise ValueError("max_iterations_per_structure must be positive")
        if self.min_members is not None and self.min_members < 3:
            raise ValueError("min_members must be at least 3")


# Detection rounds per structure kind.
_MAX_STRUCTURES = 50

# Points x hypotheses evaluated per block when scoring a round; keeps the
# temporaries cache-sized and the memory bounded for any model size.
_SCORE_BLOCK = 1 << 16


def draw_distinct(rng: np.random.Generator, n: int, num: int, size: int) -> np.ndarray:
    """(num, size) indices below n, distinct within each row, from `size`
    doubles per row, so row h is the same whatever the batch sizes. The j-th
    double picks among the n - j indices its row does not hold yet: it is
    scaled to that range, then shifted past each held index it reaches, in
    increasing order, so memory stays O(num * size) for any n. Every RANSAC
    in the package draws its samples here."""
    j = np.arange(size)
    picks = np.minimum((rng.random((num, size)) * (n - j)).astype(np.int64), n - 1 - j)
    for k in range(1, size):
        column = picks[:, k]
        for used in np.sort(picks[:, :k], axis=1).T:
            column += column >= used
    return picks


def _fit_planes(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares planes through each point set of an (H, k, 3) stack.

    Returns unit normals (H, 3), offsets (H,) and a validity mask: a
    collinear set has a vanishing second singular value and no unique plane.
    """
    centroids = samples.mean(axis=1)
    _, s, vt = np.linalg.svd(samples - centroids[:, None], full_matrices=False)
    valid = s[:, 1] > 1e-12 * np.maximum(s[:, 0], 1e-300)
    normals = vt[:, -1] / np.linalg.norm(vt[:, -1], axis=1, keepdims=True)
    return normals, (normals * centroids).sum(axis=1), valid


def _fit_lines(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares lines through each point set of an (H, k, 3) stack.

    Returns anchors (H, 3), unit directions (H, 3) and a validity mask that
    rejects sets whose points coincide.
    """
    centroids = samples.mean(axis=1)
    _, s, vt = np.linalg.svd(samples - centroids[:, None], full_matrices=False)
    directions = vt[:, 0] / np.linalg.norm(vt[:, 0], axis=1, keepdims=True)
    return centroids, directions, s[:, 0] > 1e-12


# The distances are evaluated elementwise rather than by a BLAS product, so a
# hypothesis's column is bit-identical however many hypotheses share the call:
# batched inlier counts and the winner's member mask always agree.
def _plane_distances(points: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n, H) distances from n points to H planes ``normal . x = offset``."""
    d = points[:, 0:1] * normals[:, 0]
    d += points[:, 1:2] * normals[:, 1]
    d += points[:, 2:3] * normals[:, 2]
    d -= offsets
    return np.abs(d, out=d)


def _line_distances(points: np.ndarray, anchors: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """(n, H) distances from n points to H lines through `anchors`."""
    rel = [points[:, i : i + 1] - anchors[:, i] for i in range(3)]
    along = rel[0] * directions[:, 0]
    along += rel[1] * directions[:, 1]
    along += rel[2] * directions[:, 2]
    sq = np.zeros_like(along)
    for i in range(3):
        rel[i] -= along * directions[:, i]
        sq += rel[i] * rel[i]
    return np.sqrt(sq, out=sq)


def _inlier_counts(
    points: np.ndarray, distances, a: np.ndarray, b: np.ndarray, threshold: float
) -> np.ndarray:
    """Inliers of each of the H hypotheses (a, b), scored in point blocks."""
    counts = np.zeros(len(a), dtype=np.int64)
    rows = max(1, _SCORE_BLOCK // max(len(a), 1))
    for start in range(0, len(points), rows):
        near = distances(points[start : start + rows], a, b) <= threshold
        counts += np.count_nonzero(near, axis=0)
    return counts


def _members_collinear(points: np.ndarray, threshold: float, rng: np.random.Generator) -> bool:
    """True when most points lie within `threshold` of one line.

    Guards plane detection against a degenerate consensus: any line plus a
    few stray points spans a perfect plane, which would swallow planted
    lines before line detection ever runs. Probes with eight 2-point
    member lines (a least-squares fit would be dragged off by the strays);
    a genuine plane has only a few percent of its members near any one line,
    so the 0.8 bar is conservative.
    """
    if len(points) < 3:
        return True
    probes = points[draw_distinct(rng, len(points), 8, 2)]
    anchors, directions, valid = _fit_lines(probes)
    near = _line_distances(points, anchors[valid], directions[valid]) <= threshold
    return bool(np.any(near.mean(axis=0) >= 0.8))


def _detect_one(
    points: np.ndarray,
    candidate_ids: np.ndarray,
    params: DetectParams,
    kind: str,
    round_index: int,
    min_members: int,
):
    """One RANSAC round over the remaining candidates, evaluated as a batch.

    The round draws from one generator seeded by (seed, round): all its
    hypotheses at once through `draw_distinct`, then the collinearity probes
    in hypothesis order. The hypotheses are fitted with one stacked SVD and
    scored in point blocks, then replayed in index order, so ties in inlier
    count go to the lowest index, exactly as a sequential loop would pick.
    Degenerate samples (collinear plane draws, coincident line draws) never
    win but still count against the budget; a plane that would become the
    new best is first checked for a collinear consensus and skipped if it
    fails. Returns the structure or None.
    """
    sample_size = 3 if kind == "plane" else 2
    if kind == "plane":
        fit, distances = _fit_planes, _plane_distances
    else:
        fit, distances = _fit_lines, _line_distances
    threshold = params.inlier_threshold
    cand_pts = points[candidate_ids]
    n = len(candidate_ids)
    if n < sample_size:
        return None

    rng = np.random.default_rng((params.seed, round_index))
    picks = draw_distinct(rng, n, params.max_iterations_per_structure, sample_size)
    a, b, valid = fit(cand_pts[picks])
    counts = np.full(len(picks), -1, dtype=np.int64)
    counts[valid] = _inlier_counts(cand_pts, distances, a[valid], b[valid], threshold)

    best_count = 0
    best_mask = None
    best_model = None
    for h, count in enumerate(counts.tolist()):
        if count <= best_count:
            continue
        mask = distances(cand_pts, a[h : h + 1], b[h : h + 1])[:, 0] <= threshold
        if kind == "plane" and _members_collinear(cand_pts[mask], threshold, rng):
            continue
        best_count = count
        best_mask = mask
        best_model = (a[h], b[h])

    if best_count < min_members or best_mask is None:
        return None
    member_ids = candidate_ids[best_mask]
    members = points[member_ids]

    # Refit on the members for accuracy; keep the hypothesis parameters if the
    # refit would push any member outside the inlier threshold.
    ra, rb, rvalid = fit(members[None])
    model = best_model
    if rvalid[0] and np.all(distances(members, ra, rb) <= threshold):
        model = (ra[0], rb[0])
    if kind == "plane":
        return PlaneStructure(normal=model[0], offset=float(model[1]), member_ids=member_ids)
    return LineStructure(anchor=model[0], direction=model[1], member_ids=member_ids)


def detect_structures(points: np.ndarray, params: DetectParams | None = None) -> StructureLabeling:
    """Detect planes, then lines on the remaining points; leftovers are residual.

    Each kind runs up to `_MAX_STRUCTURES` rounds and stops at the first that
    finds nothing. Plane rounds are numbered from 0 and line rounds from
    `_MAX_STRUCTURES`.
    """
    params = params or DetectParams()
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(pts) == 0:
        raise ValueError("point set must be non-empty")
    min_members = params.min_members or max(20, int(np.ceil(0.01 * len(pts))))
    found: list[Structure] = []
    remaining = np.arange(len(pts))
    for i, kind in enumerate(("plane", "line")):
        for r in range(i * _MAX_STRUCTURES, (i + 1) * _MAX_STRUCTURES):
            structure = _detect_one(pts, remaining, params, kind, r, min_members)
            if structure is None:
                break
            found.append(structure)
            remaining = remaining[~np.isin(remaining, structure.member_ids)]
    return StructureLabeling(structures=found, residual_ids=remaining, num_points=len(pts))
