"""Command-line entry points.

Subcommands: gen, build, detect, compress, localize, track, pool, bench,
sessions. All accept --seed, --config <file>, --out <dir>. Configs are JSON;
machine-readable outputs are JSON records, reproducible byte-for-byte under
a fixed seed. Exit code is 0 on success and 1 with a stage-tagged diagnostic
on failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import model_io
from .compression import METHODS, compress
from .errors import ConfigError, EgolocError, RegistrationFailedError, parse_config
from .matching import MatchParams, build_index
from .model import PointCloudModel
from .pool import prune
from .pose import RansacParams, localize
from .structures import DetectParams, StructureLabeling, detect_structures
from .synthetic import GroundTruthScene, SceneSpec, build_model, generate_scene, render_view
from .tracking import TrackParams, smooth_trajectory

# The most characters of a failure message `main` prints. A message may
# repeat a value from outside, of any length, after the field or row it names.
MAX_MESSAGE_CHARS = 200


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text())
    except ValueError as exc:  # not UTF-8 or not JSON, such as a binary file
        raise ConfigError(f"{path} is not a JSON file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    return cfg


def _seed(args) -> dict:
    """`--seed` as a config-section override; none when it is not given."""
    return {} if args.seed is None else {"seed": args.seed}


def _load_scene(path: str) -> GroundTruthScene:
    """Regenerate the scene of a scene file (the `scene` section `gen` writes)."""
    return generate_scene(parse_config(SceneSpec, _load_config(path).get("scene", {})))


def _detect(model: PointCloudModel, cfg: dict, args) -> StructureLabeling:
    """Label `model` with the structures found under the config's `detect` section."""
    params = parse_config(DetectParams, cfg.get("detect", {}), **_seed(args))
    model.labeling = detect_structures(model.xyz, params)
    return model.labeling


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_records(path: Path, records: list[dict]):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def cmd_gen(args) -> int:
    cfg = _load_config(args.config)
    spec = parse_config(SceneSpec, cfg.get("scene", {}), **_seed(args))
    scene = generate_scene(spec)
    out = _out_dir(args)
    (out / "scene.json").write_text(json.dumps({"scene": dataclasses.asdict(spec)}, indent=2))
    print(
        f"scene: {scene.num_points} points, {scene.num_cameras} cameras, "
        f"{scene.true_labeling.num_structures} structures -> {out / 'scene.json'}"
    )
    return 0


def cmd_build(args) -> int:
    cfg = _load_config(args.config)
    scene = _load_scene(args.scene)
    model = build_model(
        scene,
        reconstruction_noise_sigma=cfg.get("reconstruction_noise", 0.0),
        seed=args.seed or 0,
    )
    out = _out_dir(args)
    n = model_io.save_model(model, out / "model.eglm")
    print(
        f"model: {model.num_points} points, {model.num_descriptors} descriptors, "
        f"{n / model_io.BYTES_PER_MB:.3f} MB -> {out / 'model.eglm'}"
    )
    return 0


def cmd_detect(args) -> int:
    cfg = _load_config(args.config)
    model = model_io.load_model(Path(args.model))
    # A compressed model keeps its selection; its sample-level model is labeled.
    labeling = _detect(model if isinstance(model, PointCloudModel) else model.model, cfg, args)
    out = _out_dir(args)
    model_io.save_model(model, out / "model.eglm")
    sizes = ", ".join(str(len(s.member_ids)) for s in labeling.structures)
    print(
        f"structures: {labeling.num_structures} (sizes: {sizes}); "
        f"residual {len(labeling.residual_ids)} -> {out / 'model.eglm'}"
    )
    return 0


def cmd_compress(args) -> int:
    cfg = _load_config(args.config)
    model = model_io.load_model(Path(args.model))
    if not isinstance(model, PointCloudModel):
        raise ConfigError(f"{args.model} is already compressed; compress expects a full model")
    labeling = model.labeling
    if labeling is None and args.method != "set_kcover":
        labeling = _detect(model, cfg, args)
    compressed = compress(model, labeling, args.method, float(args.parameter))
    out = _out_dir(args)
    n = model_io.save_model(compressed, out / "compressed.eglm")
    print(
        f"{args.method}: kept {compressed.num_points}/{model.num_points} points "
        f"({n / model_io.BYTES_PER_MB:.3f} MB) -> {out / 'compressed.eglm'}"
    )
    return 0


def cmd_localize(args) -> int:
    cfg = _load_config(args.config)
    model = model_io.load_model(Path(args.model))
    view = render_view(_load_scene(args.scene), args.view, seed=args.seed or 0)
    index = build_index(model, cfg.get("num_words"), seed=args.seed or 0)
    match_params = parse_config(MatchParams, cfg.get("match", {}))
    ransac_params = parse_config(RansacParams, cfg.get("ransac", {}), **_seed(args))
    result = localize(view, index, match_params, ransac_params)
    record = {
        "center": [round(x, 9) for x in result.pose.center.tolist()],
        "true_center": [round(x, 9) for x in view.true_pose.center.tolist()],
        "error_m": round(float(np.linalg.norm(result.pose.center - view.true_pose.center)), 9),
        "n_correspondences": result.n_correspondences,
        "n_inliers": result.n_inliers,
        "mean_reprojection_error_px": round(result.mean_reprojection_error, 9),
        **result.counters,
    }
    out = _out_dir(args)
    _write_records(out / "localization.jsonl", [record])
    print(json.dumps(record, sort_keys=True))
    return 0


def cmd_track(args) -> int:
    cfg = _load_config(args.config)
    raw = json.loads(Path(args.measurements).read_text())
    if not isinstance(raw, list):
        raise ValueError("measurements must be a JSON list of [t, z] rows")
    measurements = []
    for i, row in enumerate(raw):
        try:
            t, z = row if isinstance(row, list) else ()
            measurements.append((float(t), z))
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"measurement row {i} is not a [t, z] pair: {row!r}") from None
    params = parse_config(TrackParams, cfg.get("track", {}))
    states = smooth_trajectory(measurements, params)
    records = [
        {
            "t": measurements[i][0],
            "position": [round(x, 9) for x in s.position.tolist()],
            "velocity": [round(x, 9) for x in s.velocity.tolist()],
            "gated": s.gated,
            "restarted": s.restarted,
        }
        for i, s in enumerate(states)
    ]
    out = _out_dir(args)
    _write_records(out / "track.jsonl", records)
    print(f"smoothed {len(states)} frames -> {out / 'track.jsonl'}")
    return 0


def cmd_pool(args) -> int:
    if args.action == "show":
        # Shows the manifest and loads each model file, but builds no index.
        records, active_id, _ = model_io._read_pool_manifest(Path(args.pool_dir))
        for r, _, _ in records:
            tag = " [active]" if r["record_id"] == active_id else ""
            print(
                f"{r['record_id']}{tag}: created {r['created']}, last used {r['last_used']}, "
                f"condition '{r['condition']}'"
            )
        return 0
    pool = model_io.load_pool(Path(args.pool_dir))
    removed = prune(pool, now=float(args.now))
    model_io.save_pool(pool, Path(args.pool_dir))
    print(f"pruned: {removed if removed else 'nothing'}")
    return 0


def cmd_bench(args) -> int:
    config = parse_config(bench_mod.BenchConfig, _load_config(args.config), **_seed(args))
    records, wall_times = bench_mod.run_benchmark(config)
    out = _out_dir(args)
    _write_records(out / "bench.jsonl", records)
    rows = [{**r, "time_s": t} for r, t in zip(records, wall_times)]
    print(bench_mod.table(bench_mod.BENCH_COLUMNS, rows))
    return 0


def cmd_sessions(args) -> int:
    config = parse_config(bench_mod.SessionSimConfig, _load_config(args.config), **_seed(args))
    records, events = bench_mod.run_session_sim(config)
    out = _out_dir(args)
    _write_records(out / "sessions.jsonl", records)
    _write_records(out / "events.jsonl", events)
    print(bench_mod.table(bench_mod.SESSION_COLUMNS, records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="egoloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default=".", help="output directory")

    p = sub.add_parser("gen", help="generate a synthetic scene")
    common(p)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("build", help="build a model from a scene")
    common(p)
    p.add_argument("--scene", required=True, help="scene.json written by gen")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("detect", help="detect planes/lines in a model")
    common(p)
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("compress", help="compress a model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--method", default="weighted_kcover", choices=METHODS)
    p.add_argument("--parameter", required=True, help="k for k-cover, fraction for top_visibility")
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("localize", help="localize a rendered view against a model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--scene", required=True, help="scene.json written by gen")
    p.add_argument("--view", type=int, default=0, help="scene camera index to render")
    p.set_defaults(fn=cmd_localize)

    p = sub.add_parser("track", help="smooth a measured trajectory")
    common(p)
    p.add_argument("--measurements", required=True, help="JSON [[t, [x,y,z]|null], ...]")
    p.set_defaults(fn=cmd_track)

    p = sub.add_parser("pool", help="inspect or prune a persisted model pool")
    common(p)
    p.add_argument("--pool-dir", required=True)
    p.add_argument("--action", default="show", choices=["show", "prune"])
    p.add_argument("--now", type=float, default=0.0)
    p.set_defaults(fn=cmd_pool)

    p = sub.add_parser("bench", help="run the compression trade-off benchmark")
    common(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("sessions", help="run the model-update session simulation")
    common(p)
    p.set_defaults(fn=cmd_sessions)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. Every failure is reported here, as one
    `error[<tag>]: <message>` line on stderr and exit code 1; the tag is the
    stage of a `RegistrationFailedError`, else the exception's class. A
    number too large for the code that reads it is an `OverflowError`. A
    longer message is cut to `MAX_MESSAGE_CHARS`, ending in `...`."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (EgolocError, OSError, ValueError, OverflowError) as exc:
        tag = exc.stage if isinstance(exc, RegistrationFailedError) else type(exc).__name__
        message = str(exc)
        if len(message) > MAX_MESSAGE_CHARS:
            message = message[: MAX_MESSAGE_CHARS - 3] + "..."
        print(f"error[{tag}]: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
