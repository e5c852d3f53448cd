"""Model and pool persistence.

The model file is a little-endian, magic-prefixed, versioned binary format
with CRC-protected header and payload, so truncation and bit corruption
surface as typed errors instead of garbage models. Format version 2 stores
the descriptors as float32, as the model holds them; a version-1 file, whose
descriptors are float64, is refused. Round trips are bit exact. Saving
writes the arrays' own buffers, and loading makes one read into one buffer
per load; the loaded arrays are views of it. Reported sizes use decimal
megabytes (10^6 bytes).

A model pool persists as a manifest JSON next to one model file per record.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
import zlib
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .compression import CompressedModel
from .errors import (
    CorruptHeaderError,
    ModelIOError,
    TruncatedPayloadError,
    VersionMismatchError,
    is_finite_number,
    is_integer,
)
from .geometry import VisibilityMatrix
from .matching import build_index
from .model import PointCloudModel
from .pool import ModelPool, ModelRecord, PoolParams, _check_record_ids
from .structures import LineStructure, PlaneStructure, StructureLabeling

MAGIC = b"EGLM"
FORMAT_VERSION = 2
_HEADER_FMT = "<4sIIQIIIQII"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

_FLAG_COMPRESSED = 1
_FLAG_LABELING = 2

BYTES_PER_MB = 10**6


class _Writer:
    """Payload chunks, kept as buffers and never joined."""

    def __init__(self):
        self.chunks: list[bytes | memoryview] = []
        self.size = 0

    def raw(self, data: bytes | memoryview):
        self.chunks.append(data)
        self.size += len(data)

    def array(self, arr: np.ndarray, dtype: str):
        # Raveled first: memoryview cannot cast an array with a zero-length axis.
        self.raw(memoryview(np.ascontiguousarray(arr, dtype=dtype).ravel()).cast("B"))

    def u32(self, value: int):
        self.raw(struct.pack("<I", value))

    def f64(self, value: float):
        self.raw(struct.pack("<d", value))

    def string(self, text: str):
        data = text.encode("utf-8")
        self.u32(len(data))
        self.raw(data)


class _Reader:
    """Reads the payload, held in one buffer, through memoryview slices:
    each array is a view of the buffer, copied only where it lands
    misaligned for its dtype."""

    def __init__(self, data: memoryview):
        self.data = data
        self.offset = 0

    def take(self, n: int) -> memoryview:
        if self.offset + n > len(self.data):
            raise TruncatedPayloadError(
                f"payload ends at byte {len(self.data)}; needed {self.offset + n}"
            )
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def array(self, count: int, dtype: str) -> np.ndarray:
        item = np.dtype(dtype).itemsize
        arr = np.frombuffer(self.take(count * item), dtype=dtype)
        return arr if arr.flags.aligned else arr.copy()

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def string(self) -> str:
        return str(self.take(self.u32()), "utf-8")

    def done(self):
        if self.offset != len(self.data):
            raise TruncatedPayloadError(
                f"{len(self.data) - self.offset} unread trailing payload bytes"
            )


# A labeling's structure is a kind byte and 7 float64 parameters, the unused
# ones zero: kind 0 is a plane (normal, offset), kind 1 a line (anchor,
# direction). Its member ids follow.
def _write_labeling(w: _Writer, labeling: StructureLabeling):
    w.u32(len(labeling.structures))
    for s in labeling.structures:
        if isinstance(s, PlaneStructure):
            kind, params = 0, np.concatenate([s.normal, [s.offset], np.zeros(3)])
        else:
            kind, params = 1, np.concatenate([s.anchor, s.direction, np.zeros(1)])
        w.raw(struct.pack("<B", kind))
        w.array(params, "<f8")
        w.u32(len(s.member_ids))
        w.array(s.member_ids, "<i8")
    w.u32(len(labeling.residual_ids))
    w.array(labeling.residual_ids, "<i8")


def _read_labeling(r: _Reader, num_points: int) -> StructureLabeling:
    structures = []
    for _ in range(r.u32()):
        kind = struct.unpack("<B", r.take(1))[0]
        params = r.array(7, "<f8")
        members = r.array(r.u32(), "<i8")
        if kind == 0:
            s = PlaneStructure(normal=params[:3], offset=float(params[3]), member_ids=members)
        elif kind == 1:
            s = LineStructure(anchor=params[:3], direction=params[3:6], member_ids=members)
        else:
            raise ModelIOError(f"unknown structure kind {kind}")
        structures.append(s)
    residual = r.array(r.u32(), "<i8")
    return StructureLabeling(structures=structures, residual_ids=residual, num_points=num_points)


def _write_payload(
    model: PointCloudModel | CompressedModel,
) -> tuple[PointCloudModel, int, _Writer]:
    """The point cloud model of `model`, its header flags and its payload,
    the one place that lays the payload out.

    Raises:
        ValueError: the model's labeling covers another number of points.
    """
    compressed = model if isinstance(model, CompressedModel) else None
    pcm = compressed.model if compressed is not None else model
    if pcm.labeling is not None and pcm.labeling.num_points != pcm.num_points:
        raise ValueError(
            f"labeling covers {pcm.labeling.num_points} points; the model has {pcm.num_points}"
        )

    w = _Writer()
    w.string(pcm.model_id)
    w.array(pcm.point_ids, "<i8")
    w.array(pcm.xyz, "<f8")
    w.array(pcm.descriptor_counts, "<u4")
    w.array(pcm.descriptors, "<f4")
    for ids in pcm.visibility.points_in_camera:
        w.u32(len(ids))
        w.array(ids, "<i8")

    flags = 0
    if pcm.labeling is not None:
        flags |= _FLAG_LABELING
        _write_labeling(w, pcm.labeling)
    if compressed is not None:
        flags |= _FLAG_COMPRESSED
        w.string(compressed.method)
        w.f64(compressed.parameter)
        w.string(compressed.source_model_id)
        w.array(compressed.achieved_counts, "<i8")
    return pcm, flags, w


def _saved_size(model: PointCloudModel | CompressedModel) -> int:
    """The byte count `save_model` writes for `model`, without writing it."""
    return _HEADER_SIZE + _write_payload(model)[2].size


def save_model(model: PointCloudModel | CompressedModel, path: str | Path) -> int:
    """Serialize a model (or compressed model) to `path`; returns byte count.

    Raises:
        ValueError: the model's labeling covers another number of points;
            no file is opened.
    """
    pcm, flags, w = _write_payload(model)
    payload_crc = 0
    for chunk in w.chunks:
        payload_crc = zlib.crc32(chunk, payload_crc)
    header_head = struct.pack(
        _HEADER_FMT[:-1],  # all but the header's own CRC
        MAGIC,
        FORMAT_VERSION,
        flags,
        pcm.num_points,
        pcm.num_cameras,
        pcm.descriptor_dim,
        len(pcm.model_id.encode("utf-8")),
        w.size,
        payload_crc,
    )
    header = header_head + struct.pack("<I", zlib.crc32(header_head))
    with open(path, "wb") as f:
        f.write(header)
        f.writelines(w.chunks)
    return len(header) + w.size


def _read_payload(f: BinaryIO, payload_len: int, descriptors_at: int) -> memoryview:
    """The `payload_len` bytes left in `f`, read once into one buffer placed
    so that payload offset `descriptors_at` starts on an 8-byte boundary."""
    buffer = np.empty(payload_len + 7, dtype=np.uint8)
    start = -(buffer.ctypes.data + descriptors_at) % 8
    payload = memoryview(buffer[start : start + payload_len])
    filled = 0
    while filled < payload_len:
        n = f.readinto(payload[filled:])
        if not n:
            raise TruncatedPayloadError(f"payload ends at byte {filled}; expected {payload_len}")
        filled += n
    return payload


def load_model(path: str | Path) -> PointCloudModel | CompressedModel:
    """Load a model file written by `save_model`.

    The payload is read once, into one buffer per load; the loaded arrays
    are writeable views of it and share no memory with another load.

    Raises:
        TruncatedPayloadError: the file is shorter or longer than its header
            declares.
        CorruptHeaderError: bad magic or a failed CRC check.
        VersionMismatchError: unsupported format version.
        ModelIOError: the payload decodes to an inconsistent model or labeling.
    """
    with open(path, "rb") as f:
        head = f.read(_HEADER_SIZE)
        if len(head) < _HEADER_SIZE:
            raise TruncatedPayloadError(
                f"file holds {len(head)} bytes; header needs {_HEADER_SIZE}"
            )
        (
            magic,
            version,
            flags,
            num_points,
            num_cameras,
            descriptor_dim,
            model_id_len,
            payload_len,
            payload_crc,
            header_crc,
        ) = struct.unpack(_HEADER_FMT, head)
        if magic != MAGIC:
            raise CorruptHeaderError("bad magic prefix")
        if zlib.crc32(head[:-4]) != header_crc:
            raise CorruptHeaderError("header CRC mismatch")
        if version != FORMAT_VERSION:
            raise VersionMismatchError(f"format version {version}; supported {FORMAT_VERSION}")
        file_payload = os.fstat(f.fileno()).st_size - _HEADER_SIZE
        if file_payload != payload_len:
            raise TruncatedPayloadError(
                f"payload holds {file_payload} bytes; header declares {payload_len}"
            )
        # The model id's length prefix, the id, then 8 + 24 + 4 bytes per point.
        payload = _read_payload(f, payload_len, 4 + model_id_len + 36 * num_points)
    if zlib.crc32(payload) != payload_crc:
        raise CorruptHeaderError("payload CRC mismatch")

    r = _Reader(payload)
    model_id = r.string()
    point_ids = r.array(num_points, "<i8")
    xyz = r.array(num_points * 3, "<f8").reshape(num_points, 3)
    desc_counts = r.array(num_points, "<u4")
    num_descriptors = int(desc_counts.sum())
    descriptors = r.array(num_descriptors * descriptor_dim, "<f4").reshape(
        num_descriptors, descriptor_dim
    )
    cam_lists = [r.array(r.u32(), "<i8") for _ in range(num_cameras)]

    try:
        labeling = _read_labeling(r, num_points) if flags & _FLAG_LABELING else None
        visibility = VisibilityMatrix(num_points, cam_lists)
        pcm = PointCloudModel(
            xyz=xyz,
            descriptors=descriptors,
            descriptor_counts=desc_counts,
            visibility=visibility,
            point_ids=point_ids,
            model_id=model_id,
            labeling=labeling,
        )
    except ValueError as exc:
        raise ModelIOError(f"payload is internally inconsistent: {exc}") from exc

    if not flags & _FLAG_COMPRESSED:
        r.done()
        return pcm
    method = r.string()
    parameter = r.f64()
    source_model_id = r.string()
    achieved = r.array(num_cameras, "<i8")
    r.done()
    compressed = CompressedModel(
        model=pcm, source_model_id=source_model_id, method=method, parameter=parameter
    )
    if not np.array_equal(achieved, compressed.achieved_counts):
        raise ModelIOError("stored per-camera counts disagree with the visibility")
    return compressed


def _pool_file(directory: Path, name: object) -> Path | None:
    """`directory / name` when `name` is a model file directly in the pool
    directory (a string ending in ".eglm" with no directory part), else None:
    the one rule for every pool file written, read or deleted."""
    if isinstance(name, str) and Path(name).name == name and name.endswith(".eglm"):
        return directory / name
    return None


def save_pool(pool: ModelPool, directory: str | Path) -> Path:
    """Persist a pool as manifest.json plus one `<record_id>.eglm` per record.

    Match indexes are not stored; they are rebuilt deterministically from the
    recorded (num_words, seed) on load. The model files that the directory's
    previous manifest names and this pool no longer uses, such as a pruned
    record's, are deleted by those names; an unreadable previous manifest
    deletes nothing. The manifest text is made before any file is written.

    Raises:
        ModelIOError: a record id that would put its file outside
            `directory`; nothing is written then.
    """
    directory = Path(directory)
    paths = [_pool_file(directory, f"{r.record_id}.eglm") for r in pool.records]
    if None in paths:
        bad = pool.records[paths.index(None)].record_id
        raise ModelIOError(f"record id {bad!r} names no file in the pool directory")
    records = [
        {
            "record_id": r.record_id,
            "file": path.name,
            "created": r.created,
            "last_used": r.last_used,
            "condition": r.condition,
            "index_num_words": r.index.num_words,
            "index_seed": r.index.build_seed,
        }
        for r, path in zip(pool.records, paths)
    ]
    policy = dataclasses.asdict(pool.params)
    if policy["ttl"] == float("inf"):
        policy["ttl"] = None  # JSON has no infinity
    manifest = {"format_version": 1, "active_id": pool.active_id, **policy, "records": records}
    text = json.dumps(manifest, indent=2)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / "manifest.json"
    try:
        previous = [r["file"] for r in json.loads(manifest_path.read_text())["records"]]
    except (OSError, ValueError, KeyError, TypeError):
        previous = []
    for r, path in zip(pool.records, paths):
        save_model(r.model, path)
    manifest_path.write_text(text)
    kept = {r["file"] for r in records}
    for name in previous:
        path = _pool_file(directory, name)
        if path is not None and name not in kept:
            path.unlink(missing_ok=True)
    return manifest_path


# The fields of a pool manifest's record, by what each must be.
_RECORD_FIELDS = (
    (("record_id", "file", "condition"), lambda value: isinstance(value, str), "a string"),
    (("created", "last_used"), is_finite_number, "a finite number"),
    (("index_num_words", "index_seed"), is_integer, "an integer"),
)


def _read_pool_manifest(directory: Path) -> tuple[list[tuple[dict, int, int]], str, PoolParams]:
    """All that `load_pool` reads of the pool in `directory` but the match
    indexes: per record, its `ModelRecord` fields but the index (its model
    loaded) with the index's word count and seed; the active id, checked
    with the record ids by the pool's id rule; and the policy.

    Raises:
        VersionMismatchError: unsupported manifest version.
        ModelIOError: as `load_pool`.
    """
    try:
        manifest = json.loads((directory / "manifest.json").read_text())
    except ValueError as exc:  # not UTF-8 or not JSON
        raise ModelIOError(f"pool manifest is not a JSON file: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ModelIOError("pool manifest must be a JSON object")
    if manifest.get("format_version") != 1:
        raise VersionMismatchError("unsupported pool manifest version")
    try:
        records = []
        for entry in manifest["records"]:
            entry = {"condition": "", **entry}
            for keys, fits, kind in _RECORD_FIELDS:
                for key in keys:
                    if not fits(entry[key]):
                        raise TypeError(f"record field {key} must be {kind}, not {entry[key]!r}")
            fields = {key: entry[key] for key in ("record_id", "created", "last_used", "condition")}
            path = _pool_file(directory, entry["file"])
            if path is None:
                raise ValueError(f"record file {entry['file']!r} is not in the pool directory")
            fields["model"] = load_model(path)
            records.append((fields, entry["index_num_words"], entry["index_seed"]))
        active_id = manifest["active_id"]
        _check_record_ids([fields["record_id"] for fields, _, _ in records], active_id)
        policy = {f.name: manifest[f.name] for f in dataclasses.fields(PoolParams)}
        if policy["ttl"] is None:
            policy["ttl"] = float("inf")
        return records, active_id, PoolParams(**policy)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelIOError(f"bad pool manifest: {exc!r}") from exc


def load_pool(directory: str | Path) -> ModelPool:
    """Load a pool written by `save_pool`, rebuilding each record's index.

    Raises:
        VersionMismatchError: unsupported manifest version.
        ModelIOError: a manifest that is not JSON or not an object, misses a
            key, holds a bad value, names a file outside `directory`, gives
            two records one id, or whose `active_id` names no record.
    """
    records, active_id, params = _read_pool_manifest(Path(directory))
    try:
        pool_records = [
            ModelRecord(**fields, index=build_index(fields["model"], num_words, seed))
            for fields, num_words, seed in records
        ]
        return ModelPool(pool_records, active_id, params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelIOError(f"bad pool manifest: {exc!r}") from exc
