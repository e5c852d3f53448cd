"""Shared fixtures and helpers for the test suite."""

import struct
import zlib

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from egoloc import (
    CameraIntrinsics,
    CameraPose,
    CompressedModel,
    SceneSpec,
    build_model,
    generate_scene,
)
from egoloc.model_io import _HEADER_SIZE


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0, np.pi)
    return Rotation.from_rotvec(axis * angle).as_matrix()


def random_pose(rng: np.random.Generator, translation_scale: float = 5.0) -> CameraPose:
    return CameraPose(
        rotation=random_rotation(rng),
        translation=rng.uniform(-translation_scale, translation_scale, size=3),
    )


def compressed_equal(a: CompressedModel, b: CompressedModel) -> bool:
    """Exact equality of compressed models (round-trip checks)."""
    return (
        a.model.equals(b.model)
        and np.array_equal(a.selected_ids, b.selected_ids)
        and a.source_model_id == b.source_model_id
        and a.method == b.method
        and a.parameter == b.parameter
        and np.array_equal(a.achieved_counts, b.achieved_counts)
    )


def with_payload(data: bytes, payload: bytes) -> bytes:
    """`data`'s header declaring `payload`, with both CRCs made to match."""
    head = bytearray(data[:_HEADER_SIZE])
    struct.pack_into("<QI", head, _HEADER_SIZE - 16, len(payload), zlib.crc32(payload))
    struct.pack_into("<I", head, _HEADER_SIZE - 4, zlib.crc32(bytes(head[:-4])))
    return bytes(head) + payload


def unit_intrinsics() -> CameraIntrinsics:
    """Focal 1, principal at origin: projection in normalized coordinates."""
    return CameraIntrinsics(
        focal_x=1.0, focal_y=1.0, principal_x=0.0, principal_y=0.0, image_width=2, image_height=2
    )


@pytest.fixture(scope="session")
def small_scene():
    spec = SceneSpec(
        num_planes=2,
        num_lines=1,
        points_per_plane=150,
        points_per_line=50,
        num_clutter=40,
        num_cameras=6,
        descriptor_dim=32,
        descriptor_noise_sigma=0.03,
        pixel_noise_sigma=0.5,
        seed=11,
    )
    return generate_scene(spec)


@pytest.fixture(scope="session")
def small_model(small_scene):
    return build_model(small_scene, reconstruction_noise_sigma=0.0, seed=5)
