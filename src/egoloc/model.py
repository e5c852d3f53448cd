"""Point-cloud positioning model: 3D points, flat multi-view descriptors, visibility."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import VisibilityMatrix
from .structures import StructureLabeling, _encode_structure


@dataclass
class PointCloudModel:
    """A reconstructed scene model used for localization.

    Each point carries the descriptor samples from the cameras that observed
    it. All samples sit in one `(D, dim)` array, `descriptors`, with rows
    grouped by point in point order: the first `descriptor_counts[0]` rows
    belong to point 0, the next `descriptor_counts[1]` to point 1, and so
    on. Every count is at least 1 and the counts sum to D. `point_ids` are
    stable global ids so compressed sub-models keep referring to the source
    points.
    """

    xyz: np.ndarray
    descriptors: np.ndarray
    descriptor_counts: np.ndarray
    visibility: VisibilityMatrix
    point_ids: np.ndarray = field(default=None)  # type: ignore[assignment]
    model_id: str = "model"
    labeling: StructureLabeling | None = None

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.xyz)):
            raise ValueError("point coordinates must be finite")
        n = len(self.xyz)
        if self.point_ids is None:
            self.point_ids = np.arange(n, dtype=np.int64)
        else:
            self.point_ids = np.asarray(self.point_ids, dtype=np.int64).reshape(-1)
        if len(self.point_ids) != n or len(np.unique(self.point_ids)) != n:
            raise ValueError("point_ids must be unique and match the point count")
        self.descriptors = np.asarray(self.descriptors, dtype=np.float64)
        self.descriptor_counts = np.asarray(self.descriptor_counts, dtype=np.int64).reshape(-1)
        if self.descriptors.ndim != 2:
            raise ValueError("descriptors must be one (rows, dim) array")
        if len(self.descriptor_counts) != n:
            raise ValueError("one descriptor count required per point")
        if np.any(self.descriptor_counts < 1):
            raise ValueError("each point needs at least one descriptor sample")
        if self.descriptor_counts.sum() != len(self.descriptors):
            raise ValueError("descriptor counts must sum to the descriptor row count")
        if self.visibility.num_points != n:
            raise ValueError("visibility matrix size must match the point count")

    @property
    def num_points(self) -> int:
        return len(self.xyz)

    @property
    def num_cameras(self) -> int:
        return self.visibility.num_cameras

    @property
    def descriptor_dim(self) -> int:
        return self.descriptors.shape[1] if len(self.descriptors) else 0

    @property
    def num_descriptors(self) -> int:
        return len(self.descriptors)

    def subset(self, rows: np.ndarray, model_id: str | None = None) -> "PointCloudModel":
        """Sub-model over the given rows (selection order preserved).

        Each kept point's descriptor rows are carried over unchanged;
        visibility is restricted to the kept points with the camera count
        preserved.
        """
        rows = np.asarray(rows, dtype=np.int64)
        counts = self.descriptor_counts[rows]
        source_starts = np.cumsum(self.descriptor_counts) - self.descriptor_counts
        kept_starts = np.cumsum(counts) - counts
        gather = np.repeat(source_starts[rows] - kept_starts, counts) + np.arange(counts.sum())
        return PointCloudModel(
            xyz=self.xyz[rows].copy(),
            descriptors=self.descriptors[gather],
            descriptor_counts=counts,
            visibility=self.visibility.restrict_points(rows),
            point_ids=self.point_ids[rows].copy(),
            model_id=model_id if model_id is not None else self.model_id,
        )

    def equals(self, other: "PointCloudModel") -> bool:
        """Field-by-field exact equality (used by serialization round trips)."""
        if (
            self.model_id != other.model_id
            or not np.array_equal(self.xyz, other.xyz)
            or not np.array_equal(self.point_ids, other.point_ids)
            or self.visibility != other.visibility
            or not np.array_equal(self.descriptor_counts, other.descriptor_counts)
            or not np.array_equal(self.descriptors, other.descriptors)
        ):
            return False
        if self.labeling is None or other.labeling is None:
            return self.labeling is other.labeling
        return _labeling_equal(self.labeling, other.labeling)


def _labeling_equal(a: StructureLabeling, b: StructureLabeling) -> bool:
    """Equal point counts, residuals, and encoded (kind, parameters, members)
    of every structure in order."""
    if a.num_points != b.num_points or len(a.structures) != len(b.structures):
        return False
    if not np.array_equal(a.residual_ids, b.residual_ids):
        return False
    for sa, sb in zip(a.structures, b.structures):
        (kind_a, params_a), (kind_b, params_b) = _encode_structure(sa), _encode_structure(sb)
        if kind_a != kind_b or not np.array_equal(params_a, params_b):
            return False
        if not np.array_equal(sa.member_ids, sb.member_ids):
            return False
    return True
