"""2D-to-3D correspondence search over a visual-word index.

Model descriptors are clustered into visual words (seeded k-means), and
each word lists every point with a sample in it once, under the mean of
those samples (Sattler, Leibe & Kobbelt, ICCV 2011). A query feature
searches only its nearest word's list. Features are visited
cheapest-word-first and the search stops once `max_matches` distinct points
are matched, the vocabulary-based prioritized search of Li, Snavely &
Huttenlocher (ECCV 2010).

The nearest word is found in float32, by one product per block of rows
(`_nearest_centroid`); k-means, the index's assignment of model descriptors
and each query's word lookup share that one function. The centroid update,
the index's mean rows and every ratio-test distance stay float64.

Distances are computed lazily along the priority order, one batch of
candidate-list length classes (the features whose words have lists of one
length) at a time. A feature adds at most one point, so while D points are
matched, every class before the first one whose live features (those whose
word lists two points or more) reach `max_matches - D` is surely reached.
A batch is those classes and the one that crosses the line, so the early
stop can only fall in a batch's last class and skips every class after it.
A class holds whole words, and each word's distance product runs once, on
all of its features, into its block of the batch's buffer: the same rows
and the same matrix product as a full scan, hence bit-identical distances.
The elementwise steps and the ratio test then run once over the whole
batch. A match is accepted when the nearest and second-nearest points of
the word pass the ratio test; as each point has one row per word, these
are the two smallest distances of the feature's row. The passing features
are kept as arrays: the distinct points are counted, the walk is cut at
the `max_matches`-th point and each point's winner is picked by sorting.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy import sparse

from .compression import CompressedModel
from .errors import EmptyQueryError, TooFewDescriptorsError, is_integer
from .geometry import MIN_CORRESPONDENCES
from .model import PointCloudModel

if TYPE_CHECKING:
    from .synthetic import QueryView

# Elements (block rows x columns) per block of the row-blocked loops: 1 MB
# of float32 word scores, which stays in cache between its product and its
# argmin.
_BLOCK_ELEMENTS = 1 << 18
# k-means runs at most this many Lloyd steps, on a seeded subsample of at
# most this many descriptors.
_KMEANS_ITERATIONS = 20
_KMEANS_TRAIN_CAP = 20000


@dataclass(frozen=True)
class MatchParams:
    """The correspondence search's parameters: the ratio test's threshold and the
    number of distinct points after which the search stops."""

    ratio_threshold: float = 0.7
    max_matches: int = 200

    def __post_init__(self):
        if not 0.0 < self.ratio_threshold < 1.0:
            raise ValueError("ratio threshold must be in (0, 1)")
        if self.max_matches < MIN_CORRESPONDENCES:
            raise ValueError(f"max_matches must be at least {MIN_CORRESPONDENCES}")


# One accepted 2D-3D match per row of `match_features`'s result: the query
# feature, the matched point, the distance to the point's mean descriptor in
# the feature's word, and the ratio of that distance to the second nearest.
MATCH_DTYPE = np.dtype(
    [("feature_index", "i8"), ("point_id", "i8"), ("distance", "f8"), ("ratio", "f8")]
)


@dataclass
class MatchIndex:
    """Visual-word index over a model's descriptors, as an inverted file.

    Every model descriptor is assigned to exactly one word by
    `_nearest_centroid`, the function that also finds a query feature's
    word, so a model descriptor sent as a query feature lands in a word that
    lists its point. Each word holds one row per point with
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
        """The (n, 3) positions of the points with the given ids.

        Raises:
            ValueError: an id is not a point of the index.
        """
        point_ids = np.asarray(point_ids)
        rows = np.minimum(np.searchsorted(self._sorted_ids, point_ids), len(self._sorted_ids) - 1)
        missing = self._sorted_ids[rows] != point_ids
        if missing.any():
            raise ValueError(f"point id {point_ids[missing][0]} is not in the index")
        return self.point_xyz[self._sorted_rows[rows]]

    def __post_init__(self):
        order = np.argsort(self.point_ids)
        self._sorted_ids = self.point_ids[order]
        self._sorted_rows = order
        self._sq_norms = np.empty(len(self.descriptors))
        step = max(1, _BLOCK_ELEMENTS // self.descriptor_dim)
        for start in range(0, len(self.descriptors), step):
            block = self.descriptors[start : start + step]
            self._sq_norms[start : start + step] = np.sum(block * block, axis=1)


def default_num_words(num_points: int) -> int:
    """max(16, points/50), capped at points/2 so words hold multiple points
    (a single-point word can never certify a ratio test)."""
    return max(1, min(max(16, num_points // 50), num_points // 2))


def _nearest_centroid(desc: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid per row; ties go to the lowest word id.

    The nearest centroid c minimizes |x - c|², and so `0.5·|c|² - x·c`,
    which is scored in float32: per block of rows, one product and one
    subtract. A float32 near-tie (about 1e-6 of |x|² + |c|²) can pick a
    word whose float64 distance is a hair above the minimum.
    """
    c = centroids.astype(np.float32)
    half_sq = 0.5 * np.sum(c * c, axis=1)
    step = max(2, _BLOCK_ELEMENTS // len(c))
    # A one-row product takes BLAS's matrix-vector path, which can round
    # equal centroids' scores differently; a lone row is scored as the
    # first of two, so that ties always go to the lowest word id.
    x = np.zeros((max(2, min(step, len(desc))), c.shape[1]), dtype=np.float32)
    scores = np.empty((len(x), len(c)), dtype=np.float32)
    out = np.empty(len(desc), dtype=np.int64)
    for start in range(0, len(desc), step):
        stop = min(start + step, len(desc))
        x[: stop - start] = desc[start:stop]
        rows = max(2, stop - start)
        products = np.matmul(x[:rows], c.T, out=scores[:rows])
        np.subtract(half_sq, products, out=products)
        out[start:stop] = np.argmin(products[: stop - start], axis=1)
    return out


def _label_sums(labels: np.ndarray, num_labels: int, rows: np.ndarray) -> np.ndarray:
    """The sum of the rows of each label, added in row order: one product
    with the (num_labels, n) membership matrix."""
    n = len(labels)
    members = sparse.csr_matrix((np.ones(n), (labels, np.arange(n))), shape=(num_labels, n))
    return members @ rows


def _kmeans(data: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, int, bool]:
    """Seeded Lloyd iterations; centroids renormalized to unit length.

    Returns the centroids, the number of assignment passes run and whether
    the last pass left every assignment unchanged (converged).
    """
    rng = np.random.default_rng((seed, 0))
    train = data
    if len(data) > _KMEANS_TRAIN_CAP:
        rows = np.sort(rng.choice(len(data), size=_KMEANS_TRAIN_CAP, replace=False))
        train = data[rows]
    init_rows = np.sort(rng.choice(len(train), size=k, replace=False))
    centroids = train[init_rows].copy()

    assign = None
    for iteration in range(1, _KMEANS_ITERATIONS + 1):
        new_assign = _nearest_centroid(train, centroids)
        if assign is not None and np.array_equal(new_assign, assign):
            return centroids, iteration, True
        assign = new_assign
        counts = np.bincount(assign, minlength=k)
        sums = _label_sums(assign, k, train)
        filled = counts > 0  # empty words keep their previous centroid
        c = sums[filled] / counts[filled, None]
        # The per-row dot product rounds as `np.linalg.norm` of one row does.
        norms = np.sqrt(c[:, None, :] @ c[:, :, None])[:, 0]
        centroids[filled] = np.divide(c, norms, out=c, where=norms > 0)
    return centroids, _KMEANS_ITERATIONS, False


def build_index(
    model: PointCloudModel | CompressedModel,
    num_words: int | None = None,
    seed: int = 0,
    *,
    counters: dict[str, int] | None = None,
) -> MatchIndex:
    """Cluster all model descriptors into visual words and list each point
    once per word it has samples in, under the mean of those samples.

    `num_words` is a positive integer, or None for `default_num_words`.
    k-means is initialized from randomly chosen distinct descriptor rows and
    capped at `_KMEANS_ITERATIONS` Lloyd steps; with more than
    `_KMEANS_TRAIN_CAP` descriptors the centroids are fit on a seeded
    subsample and all descriptors are then assigned. Deterministic under
    (inputs, seed).

    If `counters` is given, it receives `kmeans_iterations` (assignment
    passes run, at most `_KMEANS_ITERATIONS`) and `kmeans_converged`
    (whether a pass left every assignment unchanged before the cap).

    Raises:
        TooFewDescriptorsError: model holds fewer descriptors than words.
    """
    if isinstance(model, CompressedModel):
        model = model.model
    w = default_num_words(model.num_points) if num_words is None else num_words
    if not is_integer(w) or w < 1:
        raise ValueError(f"num_words must be a positive integer or None, not {w!r}")

    all_desc = model.descriptors
    if len(all_desc) < w:
        raise TooFewDescriptorsError(f"{len(all_desc)} descriptors for {w} words")

    centroids, iterations, converged = _kmeans(all_desc, w, seed)
    if counters is not None:
        counters.update(kmeans_iterations=iterations, kmeans_converged=converged)
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


def _batch_passes(
    desc: np.ndarray,
    index: MatchIndex,
    by_word: np.ndarray,
    runs: list[tuple[int, int, int, int]],
    ratio_threshold: float,
) -> tuple[np.ndarray, ...]:
    """The features of one batch that pass the ratio test, with the column
    of their nearest point in their word's list, its distance and the ratio.

    `runs` are the batch's words, (start, stop, first row, list length) with
    positions in `by_word`, the widest list last. Each word's product is
    one matrix product over its features, of a full scan's shapes (hence
    its distance bits), into its rows and first `length` columns of one
    buffer as wide as the widest list. The columns past a word's list hold
    product 0 and norm +inf, so they never hold one of the two smallest
    distances.
    """
    lo = runs[0][0]
    features = by_word[lo : runs[-1][1]]
    x = desc[features]
    x_sq = np.sum(x * x, axis=1)
    x *= 2.0
    sq = np.zeros((len(features), runs[-1][3]))
    norms = np.full(sq.shape, np.inf)
    for a, b, row, length in runs:
        word_rows = index.descriptors[row : row + length]
        np.matmul(x[a - lo : b - lo], word_rows.T, out=sq[a - lo : b - lo, :length])
        norms[a - lo : b - lo, :length] = index._sq_norms[row : row + length]
    np.subtract(x_sq[:, None], sq, out=sq)
    sq += norms
    np.maximum(sq, 0.0, out=sq)
    # The second smallest distance is the smallest once the first (the
    # earliest, on a tie) is set aside.
    nearest = np.argmin(sq, axis=1)
    rows = np.arange(len(features))
    d1 = np.sqrt(sq[rows, nearest])
    sq[rows, nearest] = np.inf
    d2 = np.sqrt(np.min(sq, axis=1))
    # A second distance of zero (a tie at zero) or not finite gets ratio 1,
    # which fails the test.
    ratio = np.divide(d1, d2, out=np.ones_like(d1), where=np.isfinite(d2) & (d2 > 0.0))
    passed = np.flatnonzero(ratio < ratio_threshold)
    return features[passed], nearest[passed], d1[passed], ratio[passed]


def match_features(
    query: "QueryView",
    index: MatchIndex,
    params: MatchParams | None = None,
    *,
    counters: dict[str, int] | None = None,
) -> np.ndarray:
    """Match query features against the index.

    Returns one `MATCH_DTYPE` row per accepted match, in ascending feature
    order; a zero-length array when nothing matches.

    Features are processed in ascending order of their word's candidate-list
    length (ties by feature index). A feature's distance to a point is to
    the point's mean descriptor in the feature's word. At most one
    correspondence is kept per 3D point (the smallest distance wins, the
    earliest on a tie) and the search stops once `max_matches` points are
    matched. Distances are computed lazily, one batch of length classes at
    a time, and equal a full scan's (see the module docstring).

    If `counters` is given, it receives `features_scanned` (the features
    of every class reached, through the one the search stops in) and
    `words_evaluated` (their words).

    Raises:
        EmptyQueryError: the query has no features.
    """
    params = params or MatchParams()
    desc = np.asarray(query.descriptors, dtype=np.float64)
    if desc.ndim != 2 or len(desc) == 0:
        raise EmptyQueryError("query has no features")
    if desc.shape[1] != index.descriptor_dim:
        raise ValueError("query descriptor dimension does not match the index")

    n = len(desc)
    words = _nearest_centroid(desc, index.centroids)
    first_row = index.word_indptr[words]
    lengths = index.word_indptr[words + 1] - first_row
    # A stable sort by (length, word) makes each word's features one run
    # and each length class one span of runs, with ties by feature index.
    by_word = np.argsort(lengths * index.num_words + words, kind="stable")
    sorted_lengths = lengths[by_word]
    run_starts = np.flatnonzero(np.diff(words[by_word], prepend=-1))
    class_starts = np.flatnonzero(np.diff(sorted_lengths, prepend=-1))
    class_ends = [*class_starts[1:].tolist(), n]
    class_runs = [*np.searchsorted(run_starts, class_starts).tolist(), len(run_starts)]
    run_lengths = sorted_lengths[run_starts].tolist()
    run_rows = first_row[by_word[run_starts]].tolist()
    runs = list(zip(run_starts.tolist(), [*run_starts[1:].tolist(), n], run_rows, run_lengths))
    # Only a class whose lists hold two points or more has live features,
    # ones that can pass the ratio test; the others come first.
    first_live_run = bisect_left(run_lengths, 2)
    live_sizes = np.subtract(class_ends, class_starts) * (sorted_lengths[class_starts] >= 2)
    live_before = [0, *np.cumsum(live_sizes).tolist()]

    cap = params.max_matches
    batches = []
    num_passes = found = start = 0
    while True:
        target = live_before[start] + cap - found
        last = min(bisect_left(live_before, target) - 1, len(class_ends) - 1)
        batch_runs = runs[max(class_runs[start], first_live_run) : class_runs[last + 1]]
        if batch_runs:
            f, column, distance, ratio = _batch_passes(
                desc, index, by_word, batch_runs, params.ratio_threshold
            )
            if len(f):
                batches.append((f, index.owners[first_row[f] + column], distance, ratio))
            num_passes += len(f)
            # A pass adds at most one point, so until the passes reach the
            # cap their count stands in for the points matched.
            found = num_passes
            if num_passes >= cap:
                found = len(np.unique(np.concatenate([batch[1] for batch in batches])))
        if found >= cap or last == len(class_ends) - 1:
            break
        start = last + 1
    if counters is not None:
        counters.update(features_scanned=class_ends[last], words_evaluated=class_runs[last + 1])
    if not batches:
        return np.zeros(0, MATCH_DTYPE)

    f, points, distance, ratio = (np.concatenate(column) for column in zip(*batches))
    walk = lengths[f] * n + f  # ascending in the order the walk visits features
    if found >= cap:
        # Cut after the pass that matched the cap-th distinct point.
        in_walk = np.argsort(walk)
        first_seen = np.unique(points[in_walk], return_index=True)[1]
        kept = in_walk[: np.partition(first_seen, cap - 1)[cap - 1] + 1]
        f, points, distance, ratio, walk = (a[kept] for a in (f, points, distance, ratio, walk))
    # Each point's winner: its smallest distance, the earliest on a tie.
    by_point = np.lexsort((walk, distance, points))
    ordered = points[by_point]
    winners = by_point[np.flatnonzero(np.diff(ordered, prepend=ordered[0] - 1))]
    winners = winners[np.argsort(f[winners])]
    matches = np.empty(len(winners), MATCH_DTYPE)
    for name, column in zip(MATCH_DTYPE.names, (f, points, distance, ratio)):
        matches[name] = column[winners]
    return matches
