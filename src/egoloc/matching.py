"""2D-to-3D correspondence search over a visual-word index.

Model descriptors are clustered into visual words (seeded k-means); a query
feature searches only its nearest word's candidate list. Features are
visited cheapest-word-first and the search stops once `max_matches` distinct
points are matched, the vocabulary-based prioritized search of Li, Snavely &
Huttenlocher (ECCV 2010) and Sattler, Leibe & Kobbelt (ICCV 2011).

Distances are computed lazily along that order, in blocks that double in
size, so the early stop skips the words it never reaches. A block always
ends at the end of a candidate-list length class, so each word is evaluated
once, on all of its features: the same rows and the same matrix product as
a full scan, hence bit-identical distances whatever the block sizes. A
match is accepted when the nearest and second-nearest candidates from
*distinct* 3D points pass the ratio test; this is evaluated on per-point
minimum distances, which is equivalent and vectorizes over a word's whole
candidate list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .compression import CompressedModel
from .errors import EmptyQueryError, TooFewDescriptorsError
from .model import PointCloudModel

if TYPE_CHECKING:
    from .synthetic import QueryView

# Row block size for the large distance computations.
_CHUNK = 4096
# Features in the first block of the prioritized search; later blocks double.
_FIRST_BLOCK = 64


@dataclass(frozen=True)
class MatchParams:
    """Correspondence search parameters.

    `exact_mode` bypasses the word index and scans every model descriptor;
    it is the oracle the quantized search is validated against.
    """

    ratio_threshold: float = 0.7
    max_matches: int = 200
    exact_mode: bool = False

    def __post_init__(self):
        if not 0.0 < self.ratio_threshold < 1.0:
            raise ValueError("ratio threshold must be in (0, 1)")
        if self.max_matches < 6:
            raise ValueError("max_matches must be at least 6")


@dataclass(frozen=True)
class Correspondence:
    """An accepted 2D-3D match."""

    feature_index: int
    point_id: int
    distance: float
    ratio: float


class _Scope:
    """A candidate set: descriptors grouped contiguously by 3D point."""

    def __init__(self, descriptors: np.ndarray, point_ids: np.ndarray):
        order = np.argsort(point_ids, kind="stable")
        self.descriptors = descriptors[order]
        self.point_ids = point_ids[order]
        if len(self.point_ids):
            self.group_ids, self.group_starts = np.unique(self.point_ids, return_index=True)
        else:
            self.group_ids = np.zeros(0, dtype=np.int64)
            self.group_starts = np.zeros(0, dtype=np.int64)
        self.sq_norms = np.sum(self.descriptors * self.descriptors, axis=1)

    @property
    def num_points(self) -> int:
        return len(self.group_ids)

    def nearest_two_points(self, features: np.ndarray):
        """Per feature: (nearest point id, its distance, distance to the
        nearest *other* point). Rows with fewer than two candidate points
        get distances of +inf."""
        f = np.asarray(features, dtype=np.float64)
        n = len(f)
        best_pid = np.zeros(n, dtype=np.int64)
        best_d = np.full(n, np.inf)
        second_d = np.full(n, np.inf)
        if self.num_points < 2:
            return best_pid, best_d, second_d
        for start in range(0, n, _CHUNK):
            rows = slice(start, min(start + _CHUNK, n))
            d2 = (
                np.sum(f[rows] * f[rows], axis=1)[:, None]
                - 2.0 * f[rows] @ self.descriptors.T
                + self.sq_norms[None, :]
            )
            np.maximum(d2, 0.0, out=d2)
            per_point = np.minimum.reduceat(d2, self.group_starts, axis=1)
            nearest = np.argmin(per_point, axis=1)
            best_pid[rows] = self.group_ids[nearest]
            two = np.partition(per_point, 1, axis=1)[:, :2]
            best_d[rows] = np.sqrt(two[:, 0])
            second_d[rows] = np.sqrt(two[:, 1])
        return best_pid, best_d, second_d


@dataclass
class MatchIndex:
    """Visual-word index over all descriptors of a model.

    Every model descriptor is assigned to exactly one word (nearest centroid,
    ties to the lowest word id); within a word, entries are grouped by their
    3D point. Point positions ride along so localization needs only the
    index. Immutable after build; concurrent queries are safe.
    """

    centroids: np.ndarray
    word_point_ids: list[np.ndarray]
    word_descriptors: list[np.ndarray]
    point_ids: np.ndarray
    point_xyz: np.ndarray
    build_seed: int

    @property
    def num_words(self) -> int:
        return len(self.centroids)

    @property
    def descriptor_dim(self) -> int:
        return self.centroids.shape[1]

    def position_of(self, point_id: int) -> np.ndarray:
        row = np.searchsorted(self._sorted_ids, point_id)
        return self.point_xyz[self._sorted_rows[row]]

    def __post_init__(self):
        order = np.argsort(self.point_ids)
        self._sorted_ids = self.point_ids[order]
        self._sorted_rows = order
        self._word_scopes = [
            _Scope(d, p) for d, p in zip(self.word_descriptors, self.word_point_ids)
        ]
        self._word_entries = np.array([len(p) for p in self.word_point_ids], dtype=np.int64)
        self._exact: _Scope | None = None

    def word_scope(self, word: int) -> _Scope:
        return self._word_scopes[word]

    def exact_scope(self) -> _Scope:
        """All descriptors as one scope, cached for exact mode."""
        if self._exact is None:
            self._exact = _Scope(
                np.vstack(self.word_descriptors), np.concatenate(self.word_point_ids)
            )
        return self._exact


def default_num_words(num_points: int) -> int:
    """max(16, points/50), capped at points/2 so words hold multiple points
    (a single-point word can never certify a ratio test)."""
    return max(1, min(max(16, num_points // 50), num_points // 2))


def _nearest_centroid(desc: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid per row; ties go to the lowest word id."""
    out = np.empty(len(desc), dtype=np.int64)
    c_sq = np.sum(centroids * centroids, axis=1)
    for start in range(0, len(desc), _CHUNK):
        rows = slice(start, min(start + _CHUNK, len(desc)))
        d2 = (
            np.sum(desc[rows] * desc[rows], axis=1)[:, None]
            - 2.0 * desc[rows] @ centroids.T
            + c_sq[None, :]
        )
        out[rows] = np.argmin(d2, axis=1)
    return out


def _kmeans(
    data: np.ndarray, k: int, seed: int, max_iterations: int, train_cap: int
) -> np.ndarray:
    """Seeded Lloyd iterations; centroids renormalized to unit length."""
    rng = np.random.default_rng((seed, 0))
    train = data
    if len(data) > train_cap:
        rows = np.sort(rng.choice(len(data), size=train_cap, replace=False))
        train = data[rows]
    init_rows = np.sort(rng.choice(len(train), size=k, replace=False))
    centroids = train[init_rows].copy()

    assign = None
    for _ in range(max_iterations):
        new_assign = _nearest_centroid(train, centroids)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for w in range(k):
            members = train[assign == w]
            if len(members) == 0:
                continue  # keep the previous centroid for empty words
            c = members.mean(axis=0)
            norm = np.linalg.norm(c)
            centroids[w] = c / norm if norm > 0 else c
    return centroids


def build_index(
    model: PointCloudModel | CompressedModel,
    num_words: int | None = None,
    seed: int = 0,
    *,
    max_iterations: int = 20,
    train_cap: int = 20000,
) -> MatchIndex:
    """Cluster all model descriptors into visual words.

    k-means is initialized from randomly chosen distinct descriptor rows and
    capped at `max_iterations` Lloyd steps; with more than `train_cap`
    descriptors the centroids are fit on a seeded subsample and all
    descriptors are then assigned. Deterministic under (inputs, seed).

    Raises:
        TooFewDescriptorsError: model holds fewer descriptors than words.
    """
    if isinstance(model, CompressedModel):
        model = model.model
    w = default_num_words(model.num_points) if num_words is None else num_words
    if w < 1:
        raise ValueError("num_words must be positive")

    all_desc = np.vstack(model.descriptors)
    owner = np.repeat(model.point_ids, [d.shape[0] for d in model.descriptors])
    if len(all_desc) < w:
        raise TooFewDescriptorsError(f"{len(all_desc)} descriptors for {w} words")

    centroids = _kmeans(all_desc, w, seed, max_iterations, train_cap)
    assign = _nearest_centroid(all_desc, centroids)
    word_point_ids = []
    word_descriptors = []
    for word in range(w):
        rows = np.flatnonzero(assign == word)
        word_point_ids.append(owner[rows])
        word_descriptors.append(all_desc[rows])
    return MatchIndex(
        centroids=centroids,
        word_point_ids=word_point_ids,
        word_descriptors=word_descriptors,
        point_ids=model.point_ids.copy(),
        point_xyz=model.xyz.copy(),
        build_seed=seed,
    )


def _prioritized_walk(
    desc: np.ndarray, index: MatchIndex, params: MatchParams, tally: dict[str, int]
):
    """Yield (feature, nearest point id, d1, d2) in priority order, computing
    distances one block at a time, only when the walk reaches the block.

    Blocks start at `_FIRST_BLOCK` features and double, each extended to the
    end of its length class so that a word's features are never split across
    blocks. Exact mode is one block of every feature in feature order.
    `tally` counts the features and words evaluated so far.
    """
    n = len(desc)
    if params.exact_mode:
        tally["features_scanned"] = n
        yield from zip(range(n), *index.exact_scope().nearest_two_points(desc))
        return
    words = _nearest_centroid(desc, index.centroids)
    lengths = index._word_entries[words]
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    start, size = 0, _FIRST_BLOCK
    while start < n:
        last_length = sorted_lengths[min(start + size, n) - 1]
        stop = int(np.searchsorted(sorted_lengths, last_length, side="right"))
        features = order[start:stop]
        block_words = words[features]
        pid = np.zeros(len(features), dtype=np.int64)
        d1 = np.empty(len(features))
        d2 = np.empty(len(features))
        for word in np.unique(block_words):
            rows = np.flatnonzero(block_words == word)
            pid[rows], d1[rows], d2[rows] = index.word_scope(int(word)).nearest_two_points(
                desc[features[rows]]
            )
            tally["words_evaluated"] += 1
        tally["features_scanned"] += len(features)
        yield from zip(features, pid, d1, d2)
        start, size = stop, 2 * size


def match_features(
    query: "QueryView",
    index: MatchIndex,
    params: MatchParams | None = None,
    *,
    counters: dict[str, int] | None = None,
) -> list[Correspondence]:
    """Match query features against the index.

    Features are processed in ascending order of their word's candidate-list
    length (ties by feature index). At most one correspondence is kept per 3D
    point (the smallest descriptor distance wins) and the search stops once
    `max_matches` points are matched. Distances are computed lazily, one block
    of that order at a time, so the words past the stop are never evaluated.
    Each word is evaluated once, on all of its features, so every distance
    equals the one a full scan computes and the result does not depend on the
    block sizes. In exact mode every feature scans the full descriptor set in
    feature order.

    If `counters` is given, it receives `features_scanned` (features whose
    distances were computed) and `words_evaluated` (0 in exact mode).

    Raises:
        EmptyQueryError: the query has no features.
    """
    params = params or MatchParams()
    desc = np.asarray(query.descriptors, dtype=np.float64)
    if desc.ndim != 2 or len(desc) == 0:
        raise EmptyQueryError("query has no features")
    if desc.shape[1] != index.descriptor_dim:
        raise ValueError("query descriptor dimension does not match the index")

    tally = {"features_scanned": 0, "words_evaluated": 0}
    best_by_point: dict[int, Correspondence] = {}
    for f, nearest, d1, d2 in _prioritized_walk(desc, index, params, tally):
        if not np.isfinite(d2):
            continue  # fewer than two distinct points in scope
        ratio = 1.0 if d2 == 0.0 else float(d1 / d2)
        if ratio >= params.ratio_threshold:
            continue
        point_id = int(nearest)
        distance = float(d1)
        existing = best_by_point.get(point_id)
        if existing is None or distance < existing.distance:
            best_by_point[point_id] = Correspondence(
                feature_index=int(f), point_id=point_id, distance=distance, ratio=ratio
            )
        if existing is None and len(best_by_point) >= params.max_matches:
            break
    if counters is not None:
        counters.update(tally)

    matches = list(best_by_point.values())
    matches.sort(key=lambda c: c.feature_index)
    return matches
