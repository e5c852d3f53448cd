"""CLI subcommands: end-to-end flows and byte-reproducible outputs."""

import json
from pathlib import Path

import numpy as np
import pytest

from egoloc.cli import main

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


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def scene_file(tmp_path):
    cfg = write_cfg(tmp_path, SCENE_CFG)
    out = tmp_path / "gen"
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    return out / "scene.npz"


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
        record = json.loads((loc / "localization.jsonl").read_text().strip())
        assert record["error_m"] < 0.5
        assert record["n_inliers"] >= 6
        assert record["features_scanned"] >= record["n_correspondences"]
        assert record["words_evaluated"] >= 1

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
        lines = (out / "track.jsonl").read_text().strip().splitlines()
        assert len(lines) == 50


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
        rows = [json.loads(l) for l in (out1 / "bench.jsonl").read_text().splitlines()]
        assert {r["method"] for r in rows} == {"full", "weighted_kcover"}
        full = next(r for r in rows if r["method"] == "full")
        assert full["registration_rate"] == 1.0


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
        rows = [json.loads(l) for l in (out1 / "sessions.jsonl").read_text().splitlines()]
        assert rows[0]["triggers"] == 0  # first session matches the active model
        assert rows[1]["active_after"] == "regime-2"


class TestErrorPaths:
    def test_bad_config_fails_cleanly(self, tmp_path):
        cfg = write_cfg(tmp_path, {"scene": {"num_planes": -1}})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "x")]) == 1

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
