"""2D-to-3D correspondence search over a visual-word index.

Model descriptors are clustered into visual words (seeded k-means), and
each word lists every point with a sample in it once, under the mean of
those samples (Sattler, Leibe & Kobbelt, ICCV 2011). A query feature
searches only its nearest word's list. Features are visited
cheapest-word-first and the search stops once `max_matches` distinct points
are matched, the vocabulary-based prioritized search of Li, Snavely &
Huttenlocher (ECCV 2010).

Distances are computed lazily along that order, one candidate-list length
class (the features whose words have lists of one length) at a time, so the
early stop skips every class after the one it stops in. A class holds whole
words, so each word is evaluated once, on all of its features: the same
rows and the same matrix product as a full scan, hence bit-identical
distances. A match is accepted when the nearest and second-nearest points
of the word pass the ratio test; as each point has one row per word, these
are the two smallest distances of the feature's row.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from .compression import CompressedModel
from .errors import EmptyQueryError, TooFewDescriptorsError
from .model import PointCloudModel

if TYPE_CHECKING:
    from .synthetic import QueryView

# Distance elements (block rows x candidate columns) per block of the large
# distance computations: 8 MB per distance buffer.
_BLOCK_ELEMENTS = 1 << 20
# k-means runs at most this many Lloyd steps, on a seeded subsample of at
# most this many descriptors.
_KMEANS_ITERATIONS = 20
_KMEANS_TRAIN_CAP = 20000


@dataclass(frozen=True)
class MatchParams:
    """Correspondence search parameters: the ratio test's threshold and the
    number of distinct points after which the search stops."""

    ratio_threshold: float = 0.7
    max_matches: int = 200

    def __post_init__(self):
        if not 0.0 < self.ratio_threshold < 1.0:
            raise ValueError("ratio threshold must be in (0, 1)")
        if self.max_matches < 6:
            raise ValueError("max_matches must be at least 6")


@dataclass(frozen=True)
class Correspondence:
    """An accepted 2D-3D match; `distance` is to the point's mean
    descriptor in the feature's word."""

    feature_index: int
    point_id: int
    distance: float
    ratio: float


def _row_blocks(rows: int, columns: int) -> list[slice]:
    """Row slices holding about `_BLOCK_ELEMENTS` distance elements each.

    A block has at least two rows, and a lone last row joins the block
    before it: a one-row product takes BLAS's matrix-vector path, whose sums
    round differently, so only a one-row input is computed that way.
    """
    if rows * columns <= _BLOCK_ELEMENTS:
        return [slice(0, rows)]
    step = max(2, _BLOCK_ELEMENTS // columns)
    stops = [*range(step, rows - 1, step), rows]
    return [slice(a, b) for a, b in zip([0, *stops], stops)]


def _block_buffer(blocks: list[slice], columns: int) -> np.ndarray:
    """One distance buffer that fits the largest of `blocks`; a lone last
    row makes the last block one row longer than the others."""
    return np.empty((max(b.stop - b.start for b in blocks), columns))


def _sq_distances(x: np.ndarray, y: np.ndarray, y_sq: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared distances `(|x|² - 2.0·x@yᵀ) + |y|²` from each row of x to each
    row of y, computed in place in the leading rows of `out`.

    The operands and the order of operations are those of the out-of-place
    expression, so every element is bit-identical to it; writing into one
    reused buffer saves allocating and faulting in three block-sized arrays
    per block. Returns the view of `out` holding the result.
    """
    d2 = out[: len(x)]
    np.matmul(2.0 * x, y.T, out=d2)
    np.subtract(np.sum(x * x, axis=1)[:, None], d2, out=d2)
    d2 += y_sq
    return d2


def _nearest_two_points(
    features: np.ndarray, descriptors: np.ndarray, sq_norms: np.ndarray, owners: np.ndarray
):
    """Per feature: (nearest point id, its distance, distance to the
    second-nearest point) over candidate rows of distinct points.

    `owners` is the point id of each row of `descriptors`. With fewer than
    two candidate points every distance is +inf.
    """
    f = np.asarray(features, dtype=np.float64)
    n = len(f)
    best_pid = np.zeros(n, dtype=np.int64)
    best_d = np.full(n, np.inf)
    second_d = np.full(n, np.inf)
    if len(owners) < 2:
        return best_pid, best_d, second_d
    blocks = _row_blocks(n, len(descriptors))
    buf = _block_buffer(blocks, len(descriptors))
    for rows in blocks:
        d2 = _sq_distances(f[rows], descriptors, sq_norms, buf)
        np.maximum(d2, 0.0, out=d2)
        best_pid[rows] = owners[np.argmin(d2, axis=1)]
        two = np.partition(d2, 1, axis=1)[:, :2]
        best_d[rows] = np.sqrt(two[:, 0])
        second_d[rows] = np.sqrt(two[:, 1])
    return best_pid, best_d, second_d


@dataclass
class MatchIndex:
    """Visual-word index over a model's descriptors, as an inverted file.

    Every model descriptor is assigned to exactly one word (nearest centroid,
    ties to the lowest word id). Each word holds one row per point with
    samples in it: the mean of those samples. `descriptors` holds the rows
    word-major, rows `word_indptr[w]:word_indptr[w + 1]` for word w, and
    `owners` is the point id of each row, strictly increasing within a word.
    Point positions ride along so localization needs only the index.
    Immutable after build; concurrent queries are safe.
    """

    centroids: np.ndarray
    descriptors: np.ndarray
    owners: np.ndarray
    word_indptr: np.ndarray
    point_ids: np.ndarray
    point_xyz: np.ndarray
    build_seed: int

    @property
    def num_words(self) -> int:
        return len(self.centroids)

    @property
    def descriptor_dim(self) -> int:
        return self.centroids.shape[1]

    def positions_of(self, point_ids: np.ndarray) -> np.ndarray:
        """The (n, 3) positions of the points with the given ids."""
        rows = np.searchsorted(self._sorted_ids, point_ids)
        return self.point_xyz[self._sorted_rows[rows]]

    def __post_init__(self):
        order = np.argsort(self.point_ids)
        self._sorted_ids = self.point_ids[order]
        self._sorted_rows = order
        self._sq_norms = np.empty(len(self.descriptors))
        for rows in _row_blocks(len(self.descriptors), self.descriptor_dim):
            block = self.descriptors[rows]
            self._sq_norms[rows] = np.sum(block * block, axis=1)

    def _word_candidates(self, word: int):
        """Arguments of `_nearest_two_points` for one word's candidates."""
        rows = slice(self.word_indptr[word], self.word_indptr[word + 1])
        return self.descriptors[rows], self._sq_norms[rows], self.owners[rows]


def default_num_words(num_points: int) -> int:
    """max(16, points/50), capped at points/2 so words hold multiple points
    (a single-point word can never certify a ratio test)."""
    return max(1, min(max(16, num_points // 50), num_points // 2))


def _nearest_centroid(desc: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid per row; ties go to the lowest word id."""
    out = np.empty(len(desc), dtype=np.int64)
    c_sq = np.sum(centroids * centroids, axis=1)
    blocks = _row_blocks(len(desc), len(centroids))
    buf = _block_buffer(blocks, len(centroids))
    for rows in blocks:
        out[rows] = np.argmin(_sq_distances(desc[rows], centroids, c_sq, buf), axis=1)
    return out


def _label_sums(labels: np.ndarray, num_labels: int, rows: np.ndarray) -> np.ndarray:
    """The sum of the rows of each label, added in row order: one product
    with the (num_labels, n) membership matrix."""
    n = len(labels)
    members = sparse.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(num_labels, n))
    return members @ rows


def _kmeans(data: np.ndarray, k: int, seed: int) -> np.ndarray:
    """Seeded Lloyd iterations; centroids renormalized to unit length."""
    rng = np.random.default_rng((seed, 0))
    train = data
    if len(data) > _KMEANS_TRAIN_CAP:
        rows = np.sort(rng.choice(len(data), size=_KMEANS_TRAIN_CAP, replace=False))
        train = data[rows]
    init_rows = np.sort(rng.choice(len(train), size=k, replace=False))
    centroids = train[init_rows].copy()

    assign = None
    for _ in range(_KMEANS_ITERATIONS):
        new_assign = _nearest_centroid(train, centroids)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        sums = _label_sums(assign, k, train)
        filled = counts > 0  # empty words keep their previous centroid
        c = sums[filled] / counts[filled, None]
        # The per-row dot product rounds as `np.linalg.norm` of one row does.
        norms = np.sqrt(c[:, None, :] @ c[:, :, None])[:, 0]
        centroids[filled] = np.divide(c, norms, out=c, where=norms > 0)
    return centroids


def build_index(
    model: PointCloudModel | CompressedModel,
    num_words: int | None = None,
    seed: int = 0,
) -> MatchIndex:
    """Cluster all model descriptors into visual words and list each point
    once per word it has samples in, under the mean of those samples.

    `num_words` is a positive integer, or None for `default_num_words`.
    k-means is initialized from randomly chosen distinct descriptor rows and
    capped at `_KMEANS_ITERATIONS` Lloyd steps; with more than
    `_KMEANS_TRAIN_CAP` descriptors the centroids are fit on a seeded
    subsample and all descriptors are then assigned. Deterministic under
    (inputs, seed).

    Raises:
        TooFewDescriptorsError: model holds fewer descriptors than words.
    """
    if isinstance(model, CompressedModel):
        model = model.model
    w = default_num_words(model.num_points) if num_words is None else num_words
    if isinstance(w, bool) or not isinstance(w, Integral) or w < 1:
        raise ValueError(f"num_words must be a positive integer or None, not {w!r}")

    all_desc = model.descriptors
    if len(all_desc) < w:
        raise TooFewDescriptorsError(f"{len(all_desc)} descriptors for {w} words")

    centroids = _kmeans(all_desc, w, seed)
    assign = _nearest_centroid(all_desc, centroids)
    # Number each (word, point) pair word-major, by point id within a word.
    ids, rank = np.unique(model.point_ids, return_inverse=True)
    pair = assign * len(ids) + np.repeat(rank, model.descriptor_counts)
    pairs, group, sizes = np.unique(pair, return_inverse=True, return_counts=True)
    words, ranks = np.divmod(pairs, len(ids))
    word_indptr = np.zeros(w + 1, dtype=np.int64)
    np.cumsum(np.bincount(words, minlength=w), out=word_indptr[1:])
    return MatchIndex(
        centroids=centroids,
        descriptors=_label_sums(group, len(pairs), all_desc) / sizes[:, None],
        owners=ids[ranks],
        word_indptr=word_indptr,
        point_ids=model.point_ids.copy(),
        point_xyz=model.xyz.copy(),
        build_seed=seed,
    )


def _prioritized_walk(desc: np.ndarray, index: MatchIndex, tally: dict[str, int]):
    """Yield (feature, nearest point id, d1, d2) in priority order, computing
    distances one length class at a time, only when the walk reaches it.

    The features are grouped once: a stable sort by (list length, word)
    makes each word's features one run, and the runs of a length class are
    contiguous and end where the class ends in the priority order. Each
    word is evaluated once, on all of its features, into per-feature
    arrays; the class is then yielded. `tally` counts the features and words
    evaluated so far.
    """
    n = len(desc)
    words = _nearest_centroid(desc, index.centroids)
    lengths = np.diff(index.word_indptr)[words]
    order = np.argsort(lengths, kind="stable")
    by_word = np.lexsort((words, lengths))
    sorted_words = words[by_word]
    starts = np.flatnonzero(np.diff(sorted_words, prepend=-1))
    stops = np.append(starts[1:], n)
    # A run ends its class when the next run's words are longer.
    ends_class = np.append(np.diff(lengths[by_word[starts]]) != 0, True)
    pid = np.zeros(n, dtype=np.int64)
    d1 = np.empty(n)
    d2 = np.empty(n)
    done = 0
    for start, stop, word, last in zip(
        starts.tolist(), stops.tolist(), sorted_words[starts].tolist(), ends_class.tolist()
    ):
        rows = by_word[start:stop]
        pid[rows], d1[rows], d2[rows] = _nearest_two_points(
            desc[rows], *index._word_candidates(word)
        )
        tally["words_evaluated"] += 1
        if last:
            tally["features_scanned"] = stop
            features = order[done:stop]
            yield from zip(features, pid[features], d1[features], d2[features])
            done = stop


def match_features(
    query: "QueryView",
    index: MatchIndex,
    params: MatchParams | None = None,
    *,
    counters: dict[str, int] | None = None,
) -> list[Correspondence]:
    """Match query features against the index.

    Features are processed in ascending order of their word's candidate-list
    length (ties by feature index). A feature's distance to a point is to
    the point's mean descriptor in the feature's word. At most one
    correspondence is kept per 3D point (the smallest distance wins) and the
    search stops once `max_matches` points are matched. Distances are
    computed lazily, one length class (the features whose words have lists
    of one length) at a time, so no word past the class the search stops in
    is evaluated. Each word is evaluated once, on all of its features, so
    every distance equals the one a full scan computes.

    If `counters` is given, it receives `features_scanned` (features whose
    distances were computed) and `words_evaluated`.

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
    for f, nearest, d1, d2 in _prioritized_walk(desc, index, tally):
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
