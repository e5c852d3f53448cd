"""Tests of the benchmark's own code.

    python3 -m pytest -q egobench/selftest.py

The smoke tests run every workload once at a tiny size. The file is not
named test_*.py, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from egobench import layers, workloads  # noqa: E402
from egobench.report import Tally, percentile, result_line, table  # noqa: E402
from egobench.run import SETUP_MAX_REPEATS, end_to_end_metrics, measure  # noqa: E402
from egobench.speed import Stopwatch  # noqa: E402
from egobench.trace import Tracer, self_times  # noqa: E402
from egoloc import SceneSpec  # noqa: E402


def tiny_spec(seed: int) -> SceneSpec:
    return SceneSpec(
        num_planes=2,
        num_lines=0,
        points_per_plane=1000,
        num_clutter=60,
        num_cameras=8,
        descriptor_dim=32,
        descriptor_noise_sigma=0.03,
        seed=seed,
    )


def no_mark(op: str):
    pass


# --- percentiles and sample counts ------------------------------------------


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == pytest.approx(4.6)
    hundred = [float(v) for v in range(1, 101)]
    assert percentile(hundred, 50) == statistics.median(hundred)
    assert percentile(hundred, 90) == pytest.approx(90.1)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_metrics_carry_their_sample_counts():
    tally = Tally(
        rounds=2,
        attempted=4,
        latencies_s=[0.1, 0.2, 0.3, 0.4],
        views=4,
        view_time_s=1.0,
        errors_cm=[10.0, 20.0, 30.0],
    )
    metrics = {m.name: m for m in end_to_end_metrics(tally, [1.0, 3.0, 2.0], 2_500_000)}
    assert metrics["setup_s"].value == 2.0 and metrics["setup_s"].samples == 3
    assert metrics["latency_ms_p50"].value == pytest.approx(250.0)
    assert metrics["latency_ms_p50"].samples == 4
    assert metrics["views_per_s"].value == 4.0
    assert metrics["position_error_cm_mean"].value == 20.0
    assert metrics["position_error_cm_mean"].samples == 3
    assert metrics["model_mb"].value == 2.5
    listing = table(list(metrics.values()))
    assert "latency_ms_p50" in listing and "n=4" in listing and "1/s" in listing


# --- failure counting -------------------------------------------------------


class Flaky:
    """Three operations per round; the second always fails."""

    model_bytes = 1

    def prepare(self):
        pass

    def setup(self):
        return "state"

    def run_round(self, state, tally, mark, watch):
        for i in range(3):
            mark(f"op-{i}")
            tally.attempted += 1
            tally.latencies_s.append(0.001)
            if i == 1:
                tally.failed += 1


def test_failures_are_counted_in_whole_rounds():
    tally, setups = measure(Flaky(), seconds=0.0, mark=no_mark)
    assert (tally.rounds, tally.attempted, tally.failed) == (1, 3, 1)
    assert len(setups) == SETUP_MAX_REPEATS  # an instant set-up repeats up to the cap
    tally, _ = measure(Flaky(), seconds=0.05, mark=no_mark)
    assert tally.attempted == 3 * tally.rounds
    assert tally.failed == tally.rounds


def test_result_line_reports_checks_and_counts():
    tally = Tally(attempted=3, failed=1)
    line = json.loads(result_line(tally, []))
    assert line == {"correct": True, "attempted": 3, "failed": 1, "metrics": {}}
    tally.check(False, "wrong answer")
    tally.check(True, "right answer")
    assert json.loads(result_line(tally, []))["correct"] is False
    assert tally.violations == ["wrong answer"]


# --- tracing ----------------------------------------------------------------


def test_tracer_rebinds_records_nested_spans_and_restores():
    module = types.SimpleNamespace()

    def inner(x):
        return [x] * x

    def outer(x):
        return module.inner(x) + module.inner(x)

    module.inner, module.outer = inner, outer
    tracer = Tracer()
    tracer.install(module, "inner", "inner", lambda r: {"length": len(r)})
    tracer.install(module, "outer", "outer")
    tracer.op = "view-0"
    assert module.outer(3) == [3] * 6
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer

    names = [s.name for s in sorted(tracer.spans, key=lambda s: s.span_id)]
    assert names == ["outer", "inner", "inner"]
    top = next(s for s in tracer.spans if s.name == "outer")
    children = [s for s in tracer.spans if s.name == "inner"]
    assert all(s.parent == top.span_id and s.op == "view-0" for s in children)
    assert all(s.counts == {"length": 3} for s in children)
    own = self_times(tracer.spans)
    covered = sum(s.duration for s in children)
    assert own[top.span_id] == pytest.approx(top.duration - covered)
    assert tracer.bookkeeping_s > 0


def test_tracer_records_a_span_when_the_call_raises():
    module = types.SimpleNamespace(fail=lambda: 1 / 0)
    tracer = Tracer()
    tracer.install(module, "fail", "fail")
    with pytest.raises(ZeroDivisionError):
        module.fail()
    tracer.uninstall()
    assert [(s.name, s.raised) for s in tracer.spans] == [("fail", True)]


# --- smoke runs of every workload at a tiny size ----------------------------


def run_traced(workload, out_dir: Path):
    tracer = Tracer()
    layers.install(tracer)

    def mark(op):
        tracer.op = op

    try:
        tally, setups = measure(workload, seconds=0.0, mark=mark)
    finally:
        tracer.uninstall()
        workload.cleanup()
    metrics = {m.name: m.value for m in layers.per_layer_metrics(tracer, tally, workload, 1.0)}
    tracer.write(out_dir / "spans.jsonl")
    assert tally.rounds == 1
    assert tally.failed == 0, tally.violations
    assert tally.violations == []
    end_to_end = end_to_end_metrics(tally, setups, workload.model_bytes)
    assert all(m.value > 0 for m in end_to_end), end_to_end
    return tally, metrics


def test_query_full_smoke(tmp_path):
    w = workloads.QueryWorkload("query_full", 1, tmp_path, tiny_spec(1), num_views=6)
    tally, metrics = run_traced(w, tmp_path)
    assert tally.attempted == 6
    assert metrics["matching.match_ms"] > 0 and metrics["pose.ransac_ms"] > 0
    assert metrics["model_io.load_s"] > 0 and metrics["matching.build_index_s"] > 0
    assert metrics["compression.tune_k_s"] == 0
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert {"view-0", "setup", "prepare"} <= {s["op"] for s in spans}
    assert not list(tmp_path.glob("*.eglm"))


def test_query_confusable_smoke(tmp_path):
    w = workloads.QueryWorkload(
        "query_confusable", 1, tmp_path, tiny_spec(1), num_views=100, confusable_share=0.2
    )
    tally, metrics = run_traced(w, tmp_path)
    assert tally.attempted == 100
    assert metrics["compression.compress_calls"] >= 1
    assert metrics["tracking.smooth_ms"] > 0 and metrics["tracking.track_error_cm_mean"] > 0
    assert 0 < metrics["pose.inlier_ratio"] <= 1


def test_build_smoke(tmp_path):
    w = workloads.BuildWorkload(2, tmp_path, tiny_spec(2), probe_views=3)
    tally, metrics = run_traced(w, tmp_path)
    assert (tally.attempted, tally.views) == (1, 3)
    assert metrics["structures.found"] >= 1 and metrics["model_io.save_s"] > 0
    assert metrics["compression.points_kept"] > 0


def test_sessions_smoke(tmp_path):
    w = workloads.SessionsWorkload(
        3, tmp_path, workloads.session_spec(3), schedule=(1, 3, 2), views_per_session=6
    )
    tally, metrics = run_traced(w, tmp_path)
    assert tally.attempted == 3
    assert metrics["pool.new_models"] == 1
    assert metrics["pool.score_calls"] > 0 and metrics["pool.views_verified"] > 0


def test_session_ending_on_the_wrong_record_fails(tmp_path):
    w = workloads.SessionsWorkload(
        3, tmp_path, workloads.session_spec(3), schedule=(1, 2), views_per_session=6
    )
    w.prepare()
    seeded = w.setup()
    # Give regime 2's views to a session labelled regime 1: the pool serves
    # them from regime-2, which is the wrong record for that label.
    w.sessions = [(1, w.sessions[1][1])]
    tally = Tally()
    w.run_round(seeded, tally, no_mark, Stopwatch())
    w.cleanup()
    assert (tally.attempted, tally.failed) == (1, 1)


def test_run_without_the_program_exits_nonzero(tmp_path):
    shutil.copytree(ROOT / "egobench", tmp_path / "egobench", ignore=shutil.ignore_patterns("out"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "egobench/run.py", "--workload", "build", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
