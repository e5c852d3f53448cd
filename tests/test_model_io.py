"""Binary model format: exact round trips, typed corruption errors, sizes."""

import hashlib
import json
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from egoloc import (
    CompressedModel,
    PointCloudModel,
    SceneSpec,
    VisibilityMatrix,
    build_index,
    build_model,
    compress_top_visibility,
    compress_weighted_kcover,
    generate_scene,
    load_model,
    load_pool,
    save_model,
    save_pool,
)
from egoloc.errors import (
    CorruptHeaderError,
    ModelIOError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from egoloc.model_io import _HEADER_SIZE, FORMAT_VERSION, _saved_size
from egoloc.pool import ModelPool, ModelRecord, PoolParams
from egoloc.structures import DetectParams, StructureLabeling, detect_structures

from conftest import compressed_equal, with_payload


def random_model(rng: np.random.Generator, with_labeling=False, num_points=None) -> PointCloudModel:
    n = int(rng.integers(3, 30)) if num_points is None else num_points
    m = int(rng.integers(1, 5))
    dim = int(rng.integers(2, 17))
    dense = rng.random((n, m)) < 0.6
    descriptors = [rng.normal(size=(int(rng.integers(1, 4)), dim)) for _ in range(n)]
    model = PointCloudModel(
        xyz=rng.normal(size=(n, 3)) * 10,
        descriptors=np.vstack(descriptors),
        descriptor_counts=[len(d) for d in descriptors],
        visibility=VisibilityMatrix.from_dense(dense),
        model_id=f"rand-{rng.integers(0, 10_000)}",
    )
    if with_labeling and n >= 6:
        pts = model.xyz.copy()
        pts[: n // 2, 2] = 0.0  # force a detectable plane
        model.xyz = pts
        model.labeling = detect_structures(
            pts, DetectParams(inlier_threshold=0.01, min_members=3, seed=int(rng.integers(1e6)))
        )
    return model


class TestRoundTrip:
    def test_plain_model(self, tmp_path):
        rng = np.random.default_rng(1)
        model = random_model(rng)
        path = tmp_path / "m.eglm"
        nbytes = save_model(model, path)
        assert nbytes == path.stat().st_size
        loaded = load_model(path)
        assert isinstance(loaded, PointCloudModel)
        assert loaded.equals(model)

    def test_model_with_labeling(self, tmp_path):
        rng = np.random.default_rng(2)
        model = random_model(rng, with_labeling=True)
        path = tmp_path / "m.eglm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.equals(model)

    @pytest.mark.parametrize("num_points", [7, 8])
    @pytest.mark.parametrize("id_bytes", range(8))
    def test_bit_exact_at_every_alignment(self, tmp_path, num_points, id_bytes):
        """The point count and the model id's length move where each array
        starts in the payload. Every round trip is bit exact, and every array
        the load hands out is aligned and contiguous; the model's own arrays
        are writeable and the descriptors a view of the load's buffer."""
        rng = np.random.default_rng(8 * num_points + id_bytes)
        model = random_model(rng, with_labeling=True, num_points=num_points)
        model.model_id = "m" * id_bytes
        path, again = tmp_path / "m.eglm", tmp_path / "again.eglm"
        assert save_model(model, path) == _saved_size(model) == path.stat().st_size
        loaded = load_model(path)
        assert loaded.equals(model)
        save_model(loaded, again)
        assert again.read_bytes() == path.read_bytes()
        owned = [loaded.point_ids, loaded.xyz, loaded.descriptor_counts, loaded.descriptors]
        for array in owned:
            assert array.flags.aligned and array.flags.c_contiguous and array.flags.writeable
        base = loaded.descriptors
        while isinstance(base.base, np.ndarray):
            base = base.base
        assert not base.flags.owndata  # a view of the load's buffer, not a copy
        frozen = [*loaded.visibility.points_in_camera, loaded.labeling.residual_ids]
        frozen += [s.member_ids for s in loaded.labeling.structures]
        for array in frozen:
            assert array.flags.aligned and array.flags.c_contiguous

    def test_labeling_of_another_point_count_is_refused(self, tmp_path):
        model = random_model(np.random.default_rng(7))
        n = model.num_points + 1
        model.labeling = StructureLabeling([], np.arange(n), n)
        path = tmp_path / "m.eglm"
        with pytest.raises(ValueError, match=f"labeling covers {n} points"):
            save_model(model, path)
        assert not path.exists()

    def test_compressed_model(self, tmp_path, small_model):
        from egoloc import detect_structures as ds

        labeling = ds(small_model.xyz)
        compressed = compress_top_visibility(small_model, labeling, 0.2)
        path = tmp_path / "c.eglm"
        save_model(compressed, path)
        loaded = load_model(path)
        assert isinstance(loaded, CompressedModel)
        assert compressed_equal(loaded, compressed)

    def test_pool_round_trip(self, tmp_path, small_model):
        index = build_index(small_model, 16, seed=3)
        record = ModelRecord(
            record_id="r1",
            model=small_model,
            index=index,
            created=1.0,
            last_used=2.0,
            condition="sunny",
        )
        pool = ModelPool(records=[record], active_id="r1", params=PoolParams(ttl=100.0))
        save_pool(pool, tmp_path / "pool")
        loaded = load_pool(tmp_path / "pool")
        assert loaded.active_id == "r1"
        assert loaded.params == PoolParams(ttl=100.0)
        assert loaded.records[0].condition == "sunny"
        assert loaded.records[0].model.equals(small_model)
        np.testing.assert_array_equal(loaded.records[0].index.centroids, index.centroids)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("record_id", 7),
            ("file", ["r1.eglm"]),
            ("condition", None),
            ("created", "a"),
            ("created", True),
            ("last_used", float("nan")),
            ("last_used", float("inf")),
            ("last_used", 10**400),
            ("index_num_words", 16.0),
            ("index_seed", True),
        ],
        ids=[
            "int-record-id",
            "list-file",
            "null-condition",
            "text-created",
            "bool-created",
            "nan-last-used",
            "inf-last-used",
            "huge-int-last-used",
            "float-num-words",
            "bool-seed",
        ],
    )
    def test_pool_record_field_of_the_wrong_type(self, tmp_path, small_model, key, value):
        record = ModelRecord("r1", small_model, build_index(small_model, 16, seed=3), 1.0, 2.0)
        save_pool(ModelPool(records=[record], active_id="r1"), tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["records"][0][key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ModelIOError, match=f"record field {key} must be"):
            load_pool(tmp_path)


class TestGoldenBytes:
    """`save_model` output is pinned by sha256, so neither the in-memory
    layout nor the writer can drift from format v1 unnoticed."""

    GOLDEN = {
        "plain": "77d4b243a03564999b128f6e04c0e79f6fe31ac87d714985d7031142b3fb53ee",
        "labelled": "69598565ade4cedcbc762a54f47869c2e7c9746c92be1683c4c24b54ed666b36",
        "compressed": "fd1ad0ed34bd7de599037571f9aa5c0785adeb5574a31eeadb55c8f6f5e3761f",
    }

    @pytest.mark.parametrize("kind", sorted(GOLDEN))
    def test_sha256(self, tmp_path, small_scene, kind):
        model = build_model(small_scene, 0.01, seed=21)
        if kind == "labelled":
            model.labeling = small_scene.true_labeling
        elif kind == "compressed":
            model = compress_weighted_kcover(model, small_scene.true_labeling, 20)
        path = tmp_path / "m.eglm"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN[kind]


class TestSubset:
    def test_rows_follow_their_points(self):
        rng = np.random.default_rng(17)
        model = random_model(rng)
        while len(np.unique(model.descriptor_counts)) < 2:
            model = random_model(rng)
        starts = np.concatenate([[0], np.cumsum(model.descriptor_counts)[:-1]])
        rows = rng.permutation(model.num_points)[: model.num_points // 2 + 1]
        sub = model.subset(rows)
        assert np.array_equal(sub.descriptor_counts, model.descriptor_counts[rows])
        assert sub.num_descriptors == model.descriptor_counts[rows].sum()
        offset = 0
        for r in rows:
            count = model.descriptor_counts[r]
            assert np.array_equal(
                sub.descriptors[offset : offset + count],
                model.descriptors[starts[r] : starts[r] + count],
            )
            offset += count
        assert np.array_equal(sub.point_ids, model.point_ids[rows])
        assert np.array_equal(sub.xyz, model.xyz[rows])


class TestCorruption:
    @pytest.fixture()
    def saved(self, tmp_path):
        rng = np.random.default_rng(3)
        model = random_model(rng)
        path = tmp_path / "m.eglm"
        save_model(model, path)
        return path, path.read_bytes()

    def test_truncated_header(self, saved):
        path, data = saved
        path.write_bytes(data[: _HEADER_SIZE // 2])
        with pytest.raises(TruncatedPayloadError):
            load_model(path)

    def test_truncated_payload(self, saved):
        path, data = saved
        path.write_bytes(data[:-7])
        with pytest.raises(TruncatedPayloadError):
            load_model(path)

    @pytest.mark.parametrize("kind", ["one-byte-past", "huge-declared-payload", "not-a-model"])
    def test_refused_before_the_payload_is_read(self, saved, kind):
        """A file one byte longer than its header declares, a header declaring
        far more payload than the file holds, and a file that is no model are
        refused without the payload's memory."""
        path, data = saved
        error = TruncatedPayloadError
        if kind == "one-byte-past":
            path.write_bytes(data + b"\0")
        elif kind == "huge-declared-payload":
            head = bytearray(data[:_HEADER_SIZE])
            struct.pack_into("<Q", head, _HEADER_SIZE - 16, 1 << 40)
            struct.pack_into("<I", head, _HEADER_SIZE - 4, zlib.crc32(bytes(head[:-4])))
            path.write_bytes(bytes(head) + data[_HEADER_SIZE:])
        else:
            path.write_bytes(bytes(8 << 20))
            error = CorruptHeaderError
        tracemalloc.start()
        try:
            with pytest.raises(error):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bad_magic(self, saved):
        path, data = saved
        path.write_bytes(b"NOPE" + data[4:])
        with pytest.raises(CorruptHeaderError):
            load_model(path)

    def test_unsupported_version(self, saved):
        path, data = saved
        head = bytearray(data[:_HEADER_SIZE])
        struct.pack_into("<I", head, 4, FORMAT_VERSION + 1)
        struct.pack_into("<I", head, _HEADER_SIZE - 4, zlib.crc32(bytes(head[:-4])))
        path.write_bytes(bytes(head) + data[_HEADER_SIZE:])
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_header_bit_flips_are_typed_errors(self, saved):
        path, data = saved
        rng = np.random.default_rng(4)
        for _ in range(60):
            byte = int(rng.integers(0, _HEADER_SIZE))
            bit = int(rng.integers(0, 8))
            corrupted = bytearray(data)
            corrupted[byte] ^= 1 << bit
            path.write_bytes(bytes(corrupted))
            with pytest.raises(ModelIOError):
                load_model(path)

    def test_payload_bit_flips_detected(self, saved):
        path, data = saved
        rng = np.random.default_rng(5)
        for _ in range(20):
            byte = int(rng.integers(_HEADER_SIZE, len(data)))
            bit = int(rng.integers(0, 8))
            corrupted = bytearray(data)
            corrupted[byte] ^= 1 << bit
            path.write_bytes(bytes(corrupted))
            with pytest.raises(ModelIOError):
                load_model(path)


class TestZeroCopyLoad:
    """`load_model` reads the payload into one buffer per load; the arrays
    it returns are views of it, and no two loads share memory."""

    @pytest.fixture()
    def saved(self, tmp_path, small_scene):
        model = build_model(small_scene, 0.01, seed=21)
        compressed = compress_weighted_kcover(model, small_scene.true_labeling, 20)
        compressed.model.labeling = detect_structures(
            compressed.model.xyz, DetectParams(min_members=3, seed=22)
        )
        assert compressed.model.labeling.num_structures > 0
        path = tmp_path / "m.eglm"
        save_model(compressed, path)
        return path, compressed

    @staticmethod
    def arrays(loaded: CompressedModel) -> list[np.ndarray]:
        """The model's own arrays, read from the payload. The labeling, its
        structures and the visibility matrix freeze the id arrays they are
        given."""
        pcm = loaded.model
        return [
            pcm.point_ids,
            pcm.xyz,
            pcm.descriptor_counts,
            pcm.descriptors,
            loaded.selected_ids,
            loaded.achieved_counts,
        ]

    @staticmethod
    def frozen_ids(loaded: CompressedModel) -> list[np.ndarray]:
        labeling = loaded.model.labeling
        return [labeling.residual_ids, *(s.member_ids for s in labeling.structures)]

    def test_arrays_contiguous_and_writeable(self, saved):
        path, _ = saved
        loaded = load_model(path)
        for array in self.arrays(loaded):
            assert array.flags.c_contiguous and array.flags.writeable
        for ids in self.frozen_ids(loaded):
            assert ids.flags.c_contiguous and not ids.flags.writeable

    def test_loads_share_no_memory(self, saved):
        path, original = saved
        first, second = load_model(path), load_model(path)
        for a, b in zip(self.arrays(first), self.arrays(second)):
            assert not np.shares_memory(a, b)
        for a, b in zip(self.frozen_ids(first), self.frozen_ids(second)):
            assert not np.shares_memory(a, b)
        for array in self.arrays(first):
            array[...] = 0
        assert compressed_equal(second, original)
        assert compressed_equal(load_model(path), original)

    def test_peak_memory_is_one_file(self, tmp_path):
        """The payload is read once, into the buffer the arrays view, so a
        load holds little more than one file's bytes at its peak."""
        rng = np.random.default_rng(6)
        counts = rng.integers(1, 5, size=2000)
        model = PointCloudModel(
            xyz=rng.normal(size=(len(counts), 3)),
            descriptors=rng.normal(size=(counts.sum(), 64)),
            descriptor_counts=counts,
            visibility=VisibilityMatrix.from_dense(rng.random((len(counts), 8)) < 0.5),
        )
        path = tmp_path / "m.eglm"
        size = save_model(model, path)
        load_model(path)  # first-call set-up is not the load's memory
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * size

    def test_payload_cut_in_model_id(self, saved):
        path, original = saved
        data = path.read_bytes()
        id_len = len(original.model.model_id.encode("utf-8"))
        assert id_len > 2
        cut = 4 + id_len // 2
        path.write_bytes(with_payload(data, data[_HEADER_SIZE : _HEADER_SIZE + cut]))
        with pytest.raises(TruncatedPayloadError):
            load_model(path)

    def test_payload_cut_in_camera_list(self, saved):
        path, original = saved
        data = path.read_bytes()
        pcm = original.model
        lists = pcm.visibility.points_in_camera
        assert len(lists) > 1 and len(lists[1]) > 1
        # model id, point ids, xyz, descriptor counts, descriptors, camera 0
        start = (
            4
            + len(pcm.model_id.encode("utf-8"))
            + pcm.num_points * (8 + 24 + 4)
            + pcm.descriptors.nbytes
            + 4
            + 8 * len(lists[0])
        )
        assert data[_HEADER_SIZE + start : _HEADER_SIZE + start + 4] == len(lists[1]).to_bytes(
            4, "little"
        )
        for cut in (start + 2, start + 4 + 8 * len(lists[1]) - 3):
            path.write_bytes(with_payload(data, data[_HEADER_SIZE : _HEADER_SIZE + cut]))
            with pytest.raises(TruncatedPayloadError):
                load_model(path)


    def test_stored_counts_must_match_visibility(self, saved):
        path, original = saved
        data = path.read_bytes()
        payload = bytearray(data[_HEADER_SIZE:])
        # A compressed model's payload ends with its per-camera counts.
        at = len(payload) - 8 * original.model.num_cameras
        counts = np.frombuffer(payload[at:], dtype="<i8").copy()
        assert np.array_equal(counts, original.achieved_counts)
        counts[0] += 1
        payload[at:] = counts.tobytes()
        path.write_bytes(with_payload(data, bytes(payload)))
        with pytest.raises(ModelIOError, match="per-camera counts"):
            load_model(path)

    @staticmethod
    def labeling_offset(pcm: PointCloudModel) -> int:
        """Where the labeling starts in the payload: after the model id,
        point ids, xyz, descriptor counts, descriptors and camera lists."""
        return (
            4
            + len(pcm.model_id.encode("utf-8"))
            + pcm.num_points * (8 + 24 + 4)
            + pcm.descriptors.nbytes
            + sum(4 + 8 * len(ids) for ids in pcm.visibility.points_in_camera)
        )

    def test_labeling_ids_stay_as_checked(self, saved):
        path, original = saved
        n = original.num_points
        original.model.labeling = StructureLabeling([], np.arange(n), n)
        with pytest.raises(ValueError, match="read-only"):
            original.model.labeling.residual_ids[0] = n
        save_model(original, path)
        assert compressed_equal(load_model(path), original)

    @pytest.mark.parametrize("where", ["past-the-end", "negative"])
    def test_labeling_id_outside_the_points(self, saved, where):
        path, original = saved
        n = original.num_points
        original.model.labeling = StructureLabeling([], np.arange(n), n)
        save_model(original, path)
        data = path.read_bytes()
        payload = bytearray(data[_HEADER_SIZE:])
        # No structure, the residual count, then the residual ids.
        at = self.labeling_offset(original.model) + 8
        assert np.frombuffer(payload, "<i8", n, at).tolist() == list(range(n))
        bad = n if where == "past-the-end" else -1
        payload[at : at + 8] = np.array([bad], dtype="<i8").tobytes()
        path.write_bytes(with_payload(data, bytes(payload)))
        with pytest.raises(ModelIOError, match=f"point id {bad} is outside"):
            load_model(path)

    def test_labeling_that_fails_to_decode(self, saved):
        path, original = saved
        data = path.read_bytes()
        payload = bytearray(data[_HEADER_SIZE:])
        pcm = original.model
        # The structure count, then the first structure's kind and normal.
        at = self.labeling_offset(pcm) + 4
        assert payload[at] == 0  # a plane
        assert np.frombuffer(payload, "<f8", 3, at + 1).tolist() == (
            pcm.labeling.structures[0].normal.tolist()
        )
        payload[at + 1 : at + 9] = np.array([2.0], dtype="<f8").tobytes()
        path.write_bytes(with_payload(data, bytes(payload)))
        with pytest.raises(ModelIOError, match="unit length"):
            load_model(path)


class TestSizes:
    def test_compressed_file_size_ratio(self, tmp_path):
        scene = generate_scene(
            SceneSpec(
                num_planes=2,
                num_lines=0,
                points_per_plane=1000,
                num_clutter=0,
                num_cameras=8,
                descriptor_dim=64,
                seed=12,
            )
        )
        model = build_model(scene, 0.0, seed=1)
        model.labeling = scene.true_labeling
        compressed = compress_top_visibility(model, scene.true_labeling, 0.05)
        full_path = tmp_path / "full.eglm"
        comp_path = tmp_path / "comp.eglm"
        full_bytes = save_model(model, full_path)
        comp_bytes = save_model(compressed, comp_path)
        ratio = comp_bytes / full_bytes
        assert 0.03 <= ratio <= 0.20
