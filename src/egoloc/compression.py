"""Structure-preserving model compression via weighted set k-cover.

The weighted greedy selects, at each step, the point maximizing
``weight * (number of under-covered cameras seeing it)``. Selecting a point
halves the weights of its plane/line's remaining points so later picks spread
across the scene's structures, zeroes the weights of points that can no
longer help any under-covered camera, and renormalizes. Two baselines are
provided for comparison: the unweighted set k-cover greedy, which is the same
loop over one group of equal weights, and per-structure top-visibility
ranking.

All selection is deterministic: score ties break to the lowest point id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, is_integer
from .model import PointCloudModel
from .structures import StructureLabeling

# The compression methods `compress` runs, by name.
METHODS = ("weighted_kcover", "set_kcover", "top_visibility")


@dataclass
class CompressedModel:
    """Subset of a source model selected by a compression strategy.

    `model` is the materialized sub-model: its points are the selected
    source points in selection order, with their descriptor rows unchanged
    and visibility over the source model's cameras. The selection is read
    from it: `selected_ids` are the selected source point ids in selection
    order, and `achieved_counts[j]` is the number of selected points
    visible in camera j.
    """

    model: PointCloudModel
    source_model_id: str
    method: str
    parameter: float

    @property
    def selected_ids(self) -> np.ndarray:
        return self.model.point_ids

    @property
    def achieved_counts(self) -> np.ndarray:
        return self.model.visibility.camera_counts()

    @property
    def num_points(self) -> int:
        return self.model.num_points


def assign_weights(labeling: StructureLabeling, num_points: int) -> np.ndarray:
    """Initial weights: each point gets its group's share of the cloud.

    A point in a plane/line with ``n`` members gets ``n / N``; residual points
    get ``|residual| / N``. Larger structures therefore start with more
    selection mass.
    """
    if labeling.num_points != num_points:
        raise ValueError("labeling does not cover the requested number of points")
    w = np.empty(num_points, dtype=np.float64)
    for s in labeling.structures:
        w[s.member_ids] = len(s.member_ids) / num_points
    w[labeling.residual_ids] = len(labeling.residual_ids) / num_points
    return w


def _finalize(
    model: PointCloudModel, order: list[int], method: str, parameter: float
) -> CompressedModel:
    return CompressedModel(
        model=model.subset(np.asarray(order, dtype=np.int64), f"{model.model_id}/{method}"),
        source_model_id=model.model_id,
        method=method,
        parameter=float(parameter),
    )


def _greedy_kcover(
    model: PointCloudModel,
    k: int,
    labeling: StructureLabeling,
    trace: list | None = None,
) -> list[int]:
    """Greedy loop of both k-cover methods.

    Runs until every camera has k selected points or has had all of its
    visible points selected (saturated). Weights start at `assign_weights`
    and follow the adaptive halving / zeroing / renormalization schedule
    after each pick. Over a labeling with no structures every live point
    shares one weight c, and ``c * cover`` orders points exactly as the
    small-integer ``cover`` does, ties included: the unweighted greedy.

    `cover[i]` counts the under-covered cameras seeing point i and is
    maintained incrementally: when a camera reaches k its visibility column
    is subtracted. All cover arithmetic is small integers in float64, so the
    scores equal a full per-iteration rescan bit for bit.

    A selected point's weight is 0 and stays 0 (halving and renormalizing
    keep it there), so its score cannot win while a useful point is left and
    needs no mask; halving rewrites only the picked point's structure,
    through member arrays built once; and weights are zeroed where `cover`
    is 0 only after the first pick and after a pick that brings a camera to
    k, the only times `cover` changes (a zeroed weight stays 0). Each step
    leaves exactly the weights of the full per-pick rescan.
    """
    n, m = model.num_points, model.num_cameras
    if n == 0 or m == 0:
        raise DegenerateModelError("model must have at least one point and one camera")
    if not is_integer(k) or k < 1:
        raise ValueError(f"k must be an integer of at least 1, not {k!r}")
    vis = model.visibility.to_dense()

    counts = np.zeros(m, dtype=np.int64)
    # A camera is done once it has k selected points or all of its visible
    # points (saturated); it is under-covered while it has fewer than k.
    target = np.minimum(model.visibility.camera_counts(), k)
    cover = vis.sum(axis=1, dtype=np.float64)
    w = assign_weights(labeling, n)
    labels = labeling.labels()
    members = [s.member_ids for s in labeling.structures]
    order: list[int] = []

    while (counts < target).any():
        scores = w * cover
        best = int(np.argmax(scores))
        if scores[best] <= 0:
            raise AssertionError("greedy invariant violated: no useful candidate")

        order.append(best)
        seen_by = vis[best]
        counts[seen_by] += 1
        crossed = seen_by & (counts == k)
        cover_changed = len(order) == 1
        if crossed.any():
            cover = cover - vis[:, crossed].sum(axis=1, dtype=np.float64)
            cover_changed = True

        step = {"selected": best, "weights_before": w.copy()} if trace is not None else None
        w[best] = 0.0
        if labels[best] >= 0:
            ids = members[labels[best]]
            w[ids] = w[ids] / 2.0
        if step is not None:
            step["weights_after_halving"] = w.copy()
            trace.append(step)
        if cover_changed:
            w[cover == 0] = 0.0
        total = w.sum()
        if total > 0:
            w /= total
    return order


def compress_weighted_kcover(
    model: PointCloudModel,
    labeling: StructureLabeling,
    k: int,
    *,
    trace: list | None = None,
) -> CompressedModel:
    """Adaptive weighted set k-cover selection.

    Pass a list as `trace` to capture the per-iteration weight schedule
    (used by the oracle and invariant tests).
    """
    order = _greedy_kcover(model, k, labeling, trace)
    return _finalize(model, order, "weighted_kcover", k)


def compress_set_kcover(model: PointCloudModel, k: int) -> CompressedModel:
    """Unweighted set k-cover greedy (Li, Snavely & Huttenlocher, ECCV 2010):
    pick the point covering the most under-covered cameras; ties go to the
    lowest point id. It is the weighted greedy over one group of equal
    weights."""
    one_group = StructureLabeling([], np.arange(model.num_points), model.num_points)
    order = _greedy_kcover(model, k, one_group)
    return _finalize(model, order, "set_kcover", k)


def compress_top_visibility(
    model: PointCloudModel, labeling: StructureLabeling, fraction: float
) -> CompressedModel:
    """Keep the most-visible ``ceil(fraction * size)`` points of each
    structure group (planes, lines, and the residual group)."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if labeling.num_points != model.num_points:
        raise ValueError("labeling does not match the model")
    track = model.visibility.track_lengths()
    order: list[int] = []
    groups = [s.member_ids for s in labeling.structures]
    if len(labeling.residual_ids):
        groups.append(labeling.residual_ids)
    for ids in groups:
        keep = int(np.ceil(fraction * len(ids)))
        # Sort by descending visibility, ties by lowest id.
        ranked = ids[np.lexsort((ids, -track[ids]))]
        order.extend(int(i) for i in ranked[:keep])
    return _finalize(model, order, "top_visibility", fraction)


def compress(
    model: PointCloudModel, labeling: StructureLabeling | None, method: str, parameter: float
) -> CompressedModel:
    """Compress `model` by one of `METHODS`: top visibility at the fraction
    `parameter`, a k-cover method at the integer k = `parameter`. Only set
    k-cover runs without a `labeling`. An unknown method, a missing labeling
    or a fractional k raises ValueError."""
    if method not in METHODS:
        raise ValueError(f"unknown compression method {method!r}; methods: {METHODS}")
    if labeling is None and method != "set_kcover":
        raise ValueError(f"{method} needs a structure labeling")
    if method == "top_visibility":
        return compress_top_visibility(model, labeling, parameter)
    if not float(parameter).is_integer():
        raise ValueError(f"{method} needs an integer k, not {parameter!r}")
    if method == "set_kcover":
        return compress_set_kcover(model, int(parameter))
    return compress_weighted_kcover(model, labeling, int(parameter))

