"""CLI subcommands: end-to-end flows and byte-reproducible outputs."""

import argparse
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from egoloc import (
    METHODS,
    CompressedModel,
    DetectParams,
    ModelPool,
    ModelRecord,
    PoolParams,
    StructureLabeling,
    build_index,
    detect_structures,
    load_model,
    load_pool,
    save_pool,
)
from egoloc import model_io
from egoloc.cli import MAX_MESSAGE_CHARS, build_parser, main

from conftest import saved_bytes, with_payload

SCENE_CFG = {
    "scene": {
        "num_planes": 2,
        "num_lines": 0,
        "points_per_plane": 150,
        "num_clutter": 30,
        "num_cameras": 5,
        "descriptor_dim": 16,
        "descriptor_noise_sigma": 0.02,
        "pixel_noise_sigma": 0.3,
        "seed": 9,
    }
}


# sha256 of the JSONL files `bench` and `sessions` write under the CFGs of
# TestBenchCommand and TestSessionsCommand, at one or two BLAS threads. A
# refactor keeps these bytes; a change that alters them on purpose updates
# the hashes and says why.
GOLDEN_SHA256 = {
    "bench.jsonl": "3bdb7c7983aee27b98b85b64a4a0bf7df12da6dd84eb32f0ba676f3c2f297431",
    "sessions.jsonl": "d3194073ce8126a7725c41e654a0a7dc4ead249374b0b2906a10598bad117814",
    "events.jsonl": "b2ac825bef57d3c3b4c3a438980d26d7659039f58196d24d71e7037c3abd1819",
}

# sha256 of the files the gen -> build (--seed 1) -> detect (--seed 2) ->
# compress -> localize (--seed 3) pipeline of TestPipelineCommands writes on
# SCENE_CFG, at one or two BLAS threads; pinned like GOLDEN_SHA256.
PIPELINE_SHA256 = {
    "build": "63a43c112ed67d2cfc67499891064847d92fc6ebe2e134aab1311f01697c6623",
    "detect": "26a2cc808bec95e313ff2a3d8890d1cc0b1b52bb36011fbb89265c69ce07b91d",
    "compress": "5d6906b581f3cd0454e5cec6953379e55770afad83e1ea45b1d2c8403ae41a47",
    "localize": "dcf9b0ad2fab1adf998387f7a3aa927bd450e602c3367f3a3fac5a2e7c31bad5",
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_jsonl(path: Path) -> list[dict]:
    """The records of a JSONL file the CLI wrote, read strictly: a NaN or an
    infinity, which JSON does not have, fails the test."""

    def reject(token):
        raise AssertionError(f"{path.name} holds {token}, which is not JSON")

    return [json.loads(line, parse_constant=reject) for line in path.read_text().splitlines()]


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def scene_file(tmp_path):
    cfg = write_cfg(tmp_path, SCENE_CFG)
    out = tmp_path / "gen"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    return out / "scene.json"


@pytest.fixture()
def model_file(tmp_path, scene_file):
    out = tmp_path / "build"
    assert main(["build", "--scene", str(scene_file), "--out", str(out), "--seed", "1"]) == 0
    return out / "model.eglm"


class TestPipelineCommands:
    def test_gen_build_detect_compress_localize(self, tmp_path, scene_file, model_file):
        detected = tmp_path / "detected"
        assert (
            main(["detect", "--model", str(model_file), "--out", str(detected), "--seed", "2"])
            == 0
        )
        compressed = tmp_path / "compressed"
        assert (
            main(
                [
                    "compress",
                    "--model",
                    str(detected / "model.eglm"),
                    "--method",
                    "weighted_kcover",
                    "--parameter",
                    "25",
                    "--out",
                    str(compressed),
                ]
            )
            == 0
        )
        loc = tmp_path / "loc"
        rc = main(
            [
                "localize",
                "--model",
                str(compressed / "compressed.eglm"),
                "--scene",
                str(scene_file),
                "--view",
                "0",
                "--out",
                str(loc),
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        (record,) = read_jsonl(loc / "localization.jsonl")
        assert record["error_m"] < 0.5
        assert record["n_inliers"] >= 6
        assert record["features_scanned"] >= record["n_correspondences"]
        assert record["words_evaluated"] >= 1
        assert record["ransac_stop"] >= 1
        assert 0 <= record["ransac_degenerate"] < record["ransac_hypotheses"]
        written = {
            "build": model_file,
            "detect": detected / "model.eglm",
            "compress": compressed / "compressed.eglm",
            "localize": loc / "localization.jsonl",
        }
        assert {k: sha256(path) for k, path in written.items()} == PIPELINE_SHA256

    def test_scene_file_is_a_gen_config(self, tmp_path, scene_file):
        written = json.loads(scene_file.read_text())
        assert list(written) == ["scene"]
        assert written["scene"].items() >= SCENE_CFG["scene"].items()
        again = tmp_path / "again"
        assert main(["gen", "--config", str(scene_file), "--out", str(again)]) == 0
        assert (again / "scene.json").read_bytes() == scene_file.read_bytes()

    def test_compress_set_kcover(self, tmp_path, model_file):
        out = tmp_path / "sk"
        assert (
            main(
                [
                    "compress",
                    "--model",
                    str(model_file),
                    "--method",
                    "set_kcover",
                    "--parameter",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert (out / "compressed.eglm").exists()

    @pytest.fixture()
    def compressed_file(self, tmp_path, model_file):
        args = ["compress", "--model", str(model_file), "--parameter", "25"]
        assert main(args + ["--out", str(tmp_path / "c")]) == 0
        return tmp_path / "c" / "compressed.eglm"

    def test_detect_keeps_a_compressed_model(self, tmp_path, compressed_file):
        source = load_model(compressed_file)
        assert source.model.labeling is None
        out = tmp_path / "d"
        assert main(["detect", "--model", str(compressed_file), "--out", str(out)]) == 0
        detected = load_model(out / "model.eglm")
        assert isinstance(detected, CompressedModel)
        np.testing.assert_array_equal(detected.selected_ids, source.selected_ids)
        assert detected.source_model_id == source.source_model_id
        assert detected.method == source.method == "weighted_kcover"
        assert detected.parameter == source.parameter
        assert detected.model.labeling is not None

    def test_compress_refuses_a_compressed_model(self, tmp_path, capsys, compressed_file):
        capsys.readouterr()
        args = ["compress", "--model", str(compressed_file), "--parameter", "5"]
        assert main(args + ["--out", str(tmp_path / "e")]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error[ConfigError]") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "e" / "compressed.eglm").exists()

    def test_method_choices_are_the_compression_methods(self):
        commands = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        method = next(a for a in commands.choices["compress"]._actions if a.dest == "method")
        assert tuple(method.choices) == METHODS
        assert method.default in METHODS

    @pytest.mark.parametrize("parameter", ["2.5", "k"])
    def test_compress_bad_k_fails_cleanly(self, tmp_path, capsys, model_file, parameter):
        args = ["compress", "--model", str(model_file), "--parameter", parameter]
        assert main(args + ["--method", "set_kcover", "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ValueError]") and err.count("\n") == 1

    def test_localize_failure_is_tagged_with_its_stage(
        self, tmp_path, capsys, scene_file, model_file
    ):
        cfg = write_cfg(tmp_path, {"match": {"ratio_threshold": 0.01}})
        args = ["localize", "--model", str(model_file), "--scene", str(scene_file)]
        assert main(args + ["--config", cfg, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[matching]: registration failed") and err.count("\n") == 1

    def test_detect_keeps_config_seed_without_flag(self, tmp_path, model_file):
        cfg = write_cfg(tmp_path, {"detect": {"seed": 8}})
        out = tmp_path / "detected"
        assert main(["detect", "--model", str(model_file), "--config", cfg, "--out", str(out)]) == 0
        model = load_model(model_file)
        model.labeling = detect_structures(model.xyz, DetectParams(seed=8))
        assert saved_bytes(load_model(out / "model.eglm")) == saved_bytes(model)


class TestTrackCommand:
    def test_smooths_measurements(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = []
        for i in range(50):
            t = 0.1 * i
            if i == 25:
                rows.append([t, None])
            else:
                pos = [1.0 * t + rng.normal(0, 0.1), 0.0, 0.0]
                rows.append([t, pos])
        meas = tmp_path / "meas.json"
        meas.write_text(json.dumps(rows))
        out = tmp_path / "track"
        assert main(["track", "--measurements", str(meas), "--out", str(out)]) == 0
        records = read_jsonl(out / "track.jsonl")
        assert len(records) == 50
        assert not any(r["gated"] or r["restarted"] for r in records)


    def test_non_finite_position_fails_cleanly(self, tmp_path, capsys):
        meas = tmp_path / "meas.json"
        meas.write_text(json.dumps([[0, [float("nan"), 2, 3]], [1, [1, 2, 3]]]))
        out = tmp_path / "track"
        assert main(["track", "--measurements", str(meas), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ValueError]: measurement row 0") and err.count("\n") == 1
        assert not (out / "track.jsonl").exists()

    @pytest.mark.parametrize(
        "t",
        [
            "NaN",
            "Infinity",
            "-Infinity",
            pytest.param(str(10**400), id="huge-int"),
            pytest.param('"0.5"', id="string"),
            pytest.param("true", id="bool"),
        ],
    )
    def test_non_finite_timestamp_fails_cleanly(self, tmp_path, capsys, t):
        meas = tmp_path / "meas.json"
        meas.write_text(f"[[0, [0, 0, 0]], [{t}, [1, 1, 1]], [0.2, [2, 2, 2]]]")
        out = tmp_path / "track"
        assert main(["track", "--measurements", str(meas), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ValueError]: measurement row 1") and err.count("\n") == 1
        assert len(err) <= len("error[ValueError]: \n") + MAX_MESSAGE_CHARS
        assert not (out / "track.jsonl").exists()


class TestBenchCommand:
    CFG = {
        "scene": {
            "num_planes": 2,
            "num_lines": 0,
            "points_per_plane": 150,
            "num_clutter": 20,
            "num_cameras": 5,
            "descriptor_dim": 16,
            "descriptor_noise_sigma": 0.02,
            "pixel_noise_sigma": 0.3,
            "seed": 5,
        },
        "methods": ["full", "weighted_kcover"],
        "target_fraction": 0.25,
        "num_queries": 4,
        "num_words": 16,
        "detect": {"min_members": 30},
        "seed": 5,
    }

    def test_bench_runs_and_is_reproducible(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        assert main(["bench", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["bench", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "bench.jsonl").read_bytes() == (out2 / "bench.jsonl").read_bytes()
        rows = read_jsonl(out1 / "bench.jsonl")
        assert {r["method"] for r in rows} == {"full", "weighted_kcover"}
        full = next(r for r in rows if r["method"] == "full")
        assert full["registration_rate"] == 1.0

    def test_no_registered_view_writes_null(self, tmp_path, capsys):
        payload = {**self.CFG, "methods": ["full"], "ransac": {"inlier_threshold": 1e-9}}
        cfg = write_cfg(tmp_path, payload)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 0
        (row,) = read_jsonl(tmp_path / "bench.jsonl")
        assert row["registration_rate"] == 0.0
        assert row["mean_error_cm"] is None and row["stdev_error_cm"] is None
        printed = capsys.readouterr().out.splitlines()[2].split()
        assert printed[0] == "full" and printed[4:6] == ["-", "-"]

    def test_bench_output_matches_golden(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        assert main(["bench", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert sha256(tmp_path / "bench.jsonl") == GOLDEN_SHA256["bench.jsonl"]


class TestSessionsCommand:
    CFG = {
        "scene": {
            "num_planes": 2,
            "num_lines": 0,
            "points_per_plane": 150,
            "num_clutter": 20,
            "num_cameras": 5,
            "descriptor_dim": 16,
            "descriptor_noise_sigma": 0.02,
            "pixel_noise_sigma": 0.3,
            "seed": 6,
        },
        "pool_regimes": [1, 2],
        "schedule": [1, 2],
        "views_per_session": 8,
        "num_words": 16,
        "seed": 6,
    }

    def test_sessions_run_and_reproduce(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["sessions", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sessions", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "sessions.jsonl").read_bytes() == (out2 / "sessions.jsonl").read_bytes()
        rows = read_jsonl(out1 / "sessions.jsonl")
        assert rows[0]["triggers"] == 0  # first session matches the active model
        assert rows[1]["active_after"] == "regime-2"
        # The fixed regime-1 model registers no regime-2 view: no mean error.
        assert rows[1]["fixed_registered"] == 0 and rows[1]["fixed_mean_cm"] is None
        assert read_jsonl(out1 / "events.jsonl")

    def test_sessions_output_matches_golden(self, tmp_path):
        cfg = write_cfg(tmp_path, self.CFG)
        assert main(["sessions", "--config", cfg, "--out", str(tmp_path)]) == 0
        for name in ("sessions.jsonl", "events.jsonl"):
            assert sha256(tmp_path / name) == GOLDEN_SHA256[name], name


class TestErrorPaths:
    @pytest.mark.parametrize(
        "command, payload, error",
        [
            ("gen", {"scene": {"num_planes": -1}}, "ConfigError"),
            ("gen", {"scene": {"bogus": 1}}, "ConfigError"),
            ("localize", {"match": {"exact_mode": True}}, "ConfigError"),
            ("gen", [1], "ConfigError"),
            ("bench", [1], "ConfigError"),
            ("bench", {"num_words": "16"}, "ConfigError"),
            ("localize", {"num_words": "16"}, "ValueError"),
            ("bench", {"reconstruction_noise": "x"}, "ConfigError"),
            ("build", {"reconstruction_noise": "x"}, "ValueError"),
            ("detect", {"detect": {"min_members": 2}}, "ConfigError"),
            ("gen", {"scene": {"outlier_fraction": 1.0}}, "ConfigError"),
            ("gen", {"scene": {"max_features_per_view": 1200}}, "ConfigError"),
            ("detect", {"detect": {"max_structures": 50}}, "ConfigError"),
            ("bench", {"count_tolerance": 0.05}, "ConfigError"),
            ("localize", {"ransac": {"max_iterations": 10.5}}, "ConfigError"),
            ("gen", {"scene": {"num_cameras": 5.5}}, "ConfigError"),
            ("detect", {"detect": {"max_iterations_per_structure": 10.5}}, "ConfigError"),
            ("localize", {"num_words": True}, "ValueError"),
            ("detect", {"detect": {"min_members": 30.5}}, "ConfigError"),
            ("gen", {"scene": {"points_per_plane": [150.5, 100]}}, "ConfigError"),
            ("gen", {"scene": {"points_per_plane": 150.5}}, "ConfigError"),
            ("gen", {"scene": {"points_per_plane": True}}, "ConfigError"),
            ("track", {"track": {"gate_threshold": True}}, "ConfigError"),
            ("build", {"reconstruction_noise": True}, "ValueError"),
            ("bench", {"reconstruction_noise": True}, "ConfigError"),
            ("sessions", {"pool_regimes": [1.5]}, "ConfigError"),
            ("sessions", {"ttl": 100.0}, "ConfigError"),
            ("track", {"track": {"process_noise": float("nan")}}, "ConfigError"),
            ("track", {"track": {"process_noise": float("inf")}}, "ConfigError"),
            ("build", {"reconstruction_noise": 10**400}, "ValueError"),
            ("localize", {"ransac": {"inlier_threshold": float("nan")}}, "ConfigError"),
            ("gen", {"scene": {"pixel_noise_sigma": float("nan")}}, "ConfigError"),
            ("gen", {"scene": {"scene_extent": float("nan")}}, "ConfigError"),
            ("detect", {"detect": {"inlier_threshold": float("nan")}}, "ConfigError"),
            ("sessions", {"pool": {"ttl": float("nan")}}, "ConfigError"),
            ("gen", {"scene": {"seed": "7"}}, "ConfigError"),
            ("gen", {"scene": {"seed": None}}, "ConfigError"),
            ("sessions", {"pool": {"t1": "50"}}, "ConfigError"),
            ("sessions", {"pool_regimes": ["a"]}, "ConfigError"),
            ("sessions", {"score_views": [10]}, "ConfigError"),
            ("sessions", {"score_views": 0}, "ConfigError"),
            ("sessions", {"pool": {"swap_threshold": 1.5}}, "ConfigError"),
            ("gen", {"scene": {"scene_extent": 10**400}}, "ConfigError"),
            ("localize", {"ransac": {"inlier_threshold": 10**400}}, "ConfigError"),
            (
                "sessions",
                {**TestSessionsCommand.CFG, "pool": {"invalid_window": 10**30}},
                "ConfigError",
            ),
        ],
        ids=[
            "gen-bad-value",
            "gen-unknown-key",
            "localize-exact-mode",
            "gen-not-object",
            "bench-not-object",
            "bench-num-words",
            "localize-num-words",
            "bench-reconstruction-noise",
            "build-reconstruction-noise",
            "detect-min-members",
            "gen-outlier-fraction",
            "gen-max-features-per-view",
            "detect-max-structures",
            "bench-count-tolerance",
            "localize-fractional-max-iterations",
            "gen-fractional-num-cameras",
            "detect-fractional-max-iterations",
            "localize-bool-num-words",
            "detect-fractional-min-members",
            "gen-fractional-plane-counts",
            "gen-fractional-plane-count",
            "gen-bool-plane-count",
            "track-bool-gate-threshold",
            "build-bool-reconstruction-noise",
            "bench-bool-reconstruction-noise",
            "sessions-fractional-regime",
            "sessions-top-level-ttl",
            "track-nan-process-noise",
            "track-infinite-process-noise",
            "build-huge-int-reconstruction-noise",
            "localize-nan-inlier-threshold",
            "gen-nan-pixel-noise",
            "gen-nan-scene-extent",
            "detect-nan-inlier-threshold",
            "sessions-nan-ttl",
            "gen-string-seed",
            "gen-null-seed",
            "sessions-string-t1",
            "sessions-string-regime",
            "sessions-list-score-views",
            "sessions-zero-score-views",
            "sessions-swap-threshold-above-one",
            "gen-huge-int-scene-extent",
            "localize-huge-int-inlier-threshold",
            "sessions-huge-invalid-window",
        ],
    )
    def test_bad_config_fails_cleanly(self, tmp_path, request, capsys, command, payload, error):
        cfg = write_cfg(tmp_path, payload, name="bad.json")
        args = [command, "--config", cfg, "--out", str(tmp_path / "x")]
        if command == "track":
            args += ["--measurements", write_cfg(tmp_path, [[0.0, [0, 0, 0]]], name="meas.json")]
        if command in ("build", "localize"):
            args += ["--scene", str(request.getfixturevalue("scene_file"))]
        if command in ("detect", "localize"):
            args += ["--model", str(request.getfixturevalue("model_file"))]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error[{error}]") and err.count("\n") == 1
        assert len(err) <= len(f"error[{error}]: \n") + MAX_MESSAGE_CHARS
        if request.node.callspec.id == "sessions-huge-invalid-window":
            assert "invalid_window" in err

    @pytest.mark.parametrize(
        "command, scene",
        [
            ("build", b"[1]"),
            ("build", b'{"scene": {"bogus": 1}}'),
            ("localize", b'{"scene": {"outlier_fraction": 1.0}}'),
            ("build", b"PK\x03\x04\x14\x00\x00\x00\x08\x00\xa1\x9b"),
        ],
        ids=["build-not-object", "build-unknown-key", "localize-bad-value", "build-not-json"],
    )
    def test_bad_scene_file_fails_cleanly(self, tmp_path, request, capsys, command, scene):
        path = tmp_path / "bad.json"
        path.write_bytes(scene)
        args = [command, "--scene", str(path), "--out", str(tmp_path / "x")]
        if command == "localize":
            args += ["--model", str(request.getfixturevalue("model_file"))]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ConfigError]") and err.count("\n") == 1

    @pytest.mark.parametrize("view", ["99", "5", "-1", pytest.param(str(10**400), id="huge-int")])
    def test_view_outside_scene_fails_cleanly(self, tmp_path, scene_file, model_file, capsys, view):
        args = ["localize", "--scene", str(scene_file), "--model", str(model_file)]
        assert main(args + ["--view", view, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ConfigError]") and err.count("\n") == 1
        assert len(err) <= len("error[ConfigError]: \n") + MAX_MESSAGE_CHARS

    @pytest.mark.parametrize(
        "rows",
        [
            [1, 2],
            [[0.0, [1.0, 0.0, 0.0]], [0.1]],
            [[0.0, None, 3]],
            {"t": 0},
            [[None, [0, 0, 0]], [0.1, [0, 0, 0]]],
            [[0.0, {"a": 1}], [0.1, [0, 0, 0]]],
        ],
        ids=["bare-numbers", "short-row", "long-row", "not-list", "null-time", "object-position"],
    )
    def test_malformed_measurements_fail_cleanly(self, tmp_path, capsys, rows):
        meas = tmp_path / "meas.json"
        meas.write_text(json.dumps(rows))
        assert main(["track", "--measurements", str(meas), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ValueError]") and err.count("\n") == 1

    def test_labeling_id_outside_the_model_fails_cleanly(self, tmp_path, capsys, model_file):
        model = load_model(model_file)
        n = model.num_points
        model.labeling = StructureLabeling([], np.arange(n), n)
        path = tmp_path / "bad.eglm"
        model_io.save_model(model, path)
        data = path.read_bytes()
        # A full model's payload ends with its labeling's residual ids.
        assert data[-8:] == (n - 1).to_bytes(8, "little")
        bad = data[model_io._HEADER_SIZE : -8] + n.to_bytes(8, "little")
        path.write_bytes(with_payload(data, bad))
        args = ["compress", "--model", str(path), "--parameter", "5", "--out", str(tmp_path / "x")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ModelIOError]") and err.count("\n") == 1
        assert f"point id {n} is outside" in err

    def test_missing_model_file(self, tmp_path):
        rc = main(
            [
                "detect",
                "--model",
                str(tmp_path / "missing.eglm"),
                "--out",
                str(tmp_path / "y"),
            ]
        )
        assert rc == 1


class TestPoolCommand:
    @pytest.fixture()
    def pool_dir(self, tmp_path, small_model):
        index = build_index(small_model, 16, seed=1)
        records = [
            ModelRecord("old", small_model, index, created=0.0, last_used=5.0, condition="sunny"),
            ModelRecord("live", small_model, index, created=1.0, last_used=900.0, condition="rain"),
        ]
        pool_dir = tmp_path / "pool"
        save_pool(ModelPool(records, "live", PoolParams(ttl=100.0)), pool_dir)
        return pool_dir

    def test_show_then_prune(self, capsys, pool_dir):
        assert main(["pool", "--pool-dir", str(pool_dir), "--action", "show"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "old: created 0.0, last used 5.0, condition 'sunny'",
            "live [active]: created 1.0, last used 900.0, condition 'rain'",
        ]

        prune = ["pool", "--pool-dir", str(pool_dir), "--action", "prune", "--now", "1000"]
        assert main(prune) == 0
        assert capsys.readouterr().out == "pruned: ['old']\n"
        manifest = json.loads((pool_dir / "manifest.json").read_text())
        assert manifest["active_id"] == "live"
        assert manifest["ttl"] == 100.0
        assert [r["record_id"] for r in manifest["records"]] == ["live"]
        assert manifest["records"][0]["index_num_words"] == 16
        assert manifest["records"][0]["index_seed"] == 1

        assert main(prune) == 0
        assert capsys.readouterr().out == "pruned: nothing\n"

    @pytest.mark.parametrize(
        "change",
        [
            lambda m: {k: v for k, v in m.items() if k != "t1"},
            lambda m: {k: v for k, v in m.items() if k != "ttl"},
            lambda m: {**m, "ttl": float("nan")},
            lambda m: {**m, "active_id": "gone"},
            lambda m: {**m, "records": [r | {"record_id": "live"} for r in m["records"]]},
            lambda m: {**m, "records": 5},
            lambda m: [m],
            lambda m: json.dumps(m)[:-1],
        ],
        ids=[
            "missing-key",
            "missing-ttl",
            "nan-ttl",
            "unknown-active-id",
            "repeated-record-id",
            "records-not-list",
            "not-object",
            "not-json",
        ],
    )
    def test_bad_manifest_fails_cleanly(self, capsys, pool_dir, change):
        path = pool_dir / "manifest.json"
        manifest = change(json.loads(path.read_text()))
        path.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
        assert main(["pool", "--pool-dir", str(pool_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ModelIOError]") and err.count("\n") == 1

    def test_prune_writes_nothing_outside_the_pool(self, capsys, tmp_path, pool_dir):
        path = pool_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["records"][1]["record_id"] = manifest["active_id"] = "../escaped"
        path.write_text(json.dumps(manifest))
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        args = ["pool", "--pool-dir", str(pool_dir), "--action", "prune", "--now", "1000"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ModelIOError]") and err.count("\n") == 1
        after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert after == before

    @pytest.mark.parametrize("action", ["show", "prune"])
    def test_record_field_of_the_wrong_type_fails_cleanly(self, capsys, pool_dir, action):
        path = pool_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["records"][0].update(created="a", last_used="b")
        path.write_text(json.dumps(manifest))
        args = ["pool", "--pool-dir", str(pool_dir), "--action", action, "--now", "5"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error[ModelIOError]") and captured.err.count("\n") == 1

    def test_show_builds_no_index(self, capsys, monkeypatch, pool_dir):
        def no_index(*args, **kwargs):
            raise AssertionError("show built a match index")

        monkeypatch.setattr(model_io, "build_index", no_index)
        assert main(["pool", "--pool-dir", str(pool_dir), "--action", "show"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "old: created 0.0, last used 5.0, condition 'sunny'",
            "live [active]: created 1.0, last used 900.0, condition 'rain'",
        ]

    def test_show_reads_every_model_file(self, capsys, pool_dir):
        path = pool_dir / "old.eglm"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        assert main(["pool", "--pool-dir", str(pool_dir), "--action", "show"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[") and err.count("\n") == 1

    def test_prune_deletes_the_pruned_model_file(self, pool_dir):
        prune = ["pool", "--pool-dir", str(pool_dir), "--action", "prune", "--now", "1000"]
        assert main(prune) == 0
        assert sorted(p.name for p in pool_dir.iterdir()) == ["live.eglm", "manifest.json"]
        pool = load_pool(pool_dir)
        assert [r.record_id for r in pool.records] == ["live"]
        assert pool.records[0].model.num_points > 0

    def test_save_deletes_only_model_files_named_in_this_directory(self, tmp_path, pool_dir):
        outside = tmp_path / "outside.eglm"
        outside.write_bytes(b"keep")
        (pool_dir / "notes.txt").write_text("keep")
        pool = load_pool(pool_dir)
        path = pool_dir / "manifest.json"
        manifest = json.loads(path.read_text())
        extra = [{**manifest["records"][0], "file": f} for f in ("../outside.eglm", "notes.txt")]
        path.write_text(json.dumps({**manifest, "records": manifest["records"] + extra}))
        save_pool(pool, pool_dir)
        assert outside.read_bytes() == b"keep"
        assert (pool_dir / "notes.txt").read_text() == "keep"
        assert (pool_dir / "old.eglm").exists() and (pool_dir / "live.eglm").exists()
