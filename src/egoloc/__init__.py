"""Vision-based outdoor localization at desk scale.

Pipeline: synthesize (or load) a point-cloud scene model, detect its planar
and linear structure, compress it with a structure-preserving weighted set
k-cover, localize query views by 2D-3D matching plus calibrated 3-point
RANSAC pose estimation, smooth video tracks, and keep models current over long time
spans with a verification-driven model pool.
"""

from .compression import (
    METHODS,
    CompressedModel,
    assign_weights,
    compress,
    compress_set_kcover,
    compress_top_visibility,
    compress_weighted_kcover,
)
from .geometry import CameraIntrinsics, CameraPose, VisibilityMatrix
from .matching import MATCH_DTYPE, MatchIndex, MatchParams, build_index, match_features
from .model import PointCloudModel
from .model_io import load_model, load_pool, save_model, save_pool
from .pool import (
    ModelPool,
    ModelRecord,
    PoolParams,
    SessionBatch,
    SessionOutcome,
    ingest_session,
    prune,
    score_model,
    verify,
)
from .pose import (
    LocalizationResult,
    PoseEstimate,
    RansacParams,
    decompose,
    dlt_pose,
    localize,
    ransac_pose,
    refine_pose,
)
from .structures import (
    DetectParams,
    LineStructure,
    PlaneStructure,
    StructureLabeling,
    detect_structures,
)
from .synthetic import (
    GroundTruthScene,
    QueryView,
    SceneSpec,
    build_model,
    generate_scene,
    render_view,
    resample_descriptors,
)
from .tracking import TrackParams, TrackState, smooth_trajectory

__version__ = "0.1.0"

__all__ = [
    "MATCH_DTYPE",
    "METHODS",
    "CameraIntrinsics",
    "CameraPose",
    "CompressedModel",
    "DetectParams",
    "GroundTruthScene",
    "LineStructure",
    "LocalizationResult",
    "MatchIndex",
    "MatchParams",
    "ModelPool",
    "ModelRecord",
    "PlaneStructure",
    "PointCloudModel",
    "PoolParams",
    "PoseEstimate",
    "QueryView",
    "RansacParams",
    "SceneSpec",
    "SessionBatch",
    "SessionOutcome",
    "StructureLabeling",
    "TrackParams",
    "TrackState",
    "VisibilityMatrix",
    "assign_weights",
    "build_index",
    "build_model",
    "compress",
    "compress_set_kcover",
    "compress_top_visibility",
    "compress_weighted_kcover",
    "decompose",
    "detect_structures",
    "dlt_pose",
    "generate_scene",
    "ingest_session",
    "load_model",
    "load_pool",
    "localize",
    "match_features",
    "prune",
    "ransac_pose",
    "refine_pose",
    "render_view",
    "resample_descriptors",
    "save_model",
    "save_pool",
    "score_model",
    "smooth_trajectory",
    "verify",
]
