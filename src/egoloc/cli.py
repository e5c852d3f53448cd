"""Command-line entry points.

Subcommands: gen, build, detect, compress, localize, track, pool, bench,
sessions. All accept --seed, --config <file>, --out <dir>. Configs are JSON;
machine-readable outputs are JSON records, reproducible byte-for-byte under
a fixed seed. Exit code is 0 on success and 1 with a stage-tagged diagnostic
on failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import model_io
from .compression import (
    compress_set_kcover,
    compress_top_visibility,
    compress_weighted_kcover,
)
from .errors import EgolocError, RegistrationFailedError
from .matching import MatchParams, build_index
from .model import PointCloudModel
from .pose import RansacParams, localize
from .structures import DetectParams, detect_structures
from .synthetic import SceneSpec, build_model, generate_scene, render_view
from .tracking import TrackParams, smooth_trajectory


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    return json.loads(Path(path).read_text())


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_records(path: Path, records: list[dict]):
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def cmd_gen(args) -> int:
    cfg = _load_config(args.config)
    spec_args = dict(cfg.get("scene", {}))
    if args.seed is not None:
        spec_args["seed"] = args.seed
    spec = SceneSpec(**spec_args)
    scene = generate_scene(spec)
    out = _out_dir(args)
    model_io.save_scene(scene, out / "scene.npz")
    print(
        f"scene: {scene.num_points} points, {scene.num_cameras} cameras, "
        f"{scene.true_labeling.num_structures} structures -> {out / 'scene.npz'}"
    )
    return 0


def cmd_build(args) -> int:
    cfg = _load_config(args.config)
    scene = model_io.load_scene(Path(args.scene))
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
    if not isinstance(model, PointCloudModel):
        model = model.model
    params = DetectParams(**{**cfg.get("detect", {}), "seed": args.seed or 0})
    labeling = detect_structures(model.xyz, params)
    model.labeling = labeling
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
        print("error: compress expects an uncompressed model file", file=sys.stderr)
        return 1
    labeling = model.labeling
    if labeling is None and args.method != "set_kcover":
        params = DetectParams(**{**cfg.get("detect", {}), "seed": args.seed or 0})
        labeling = detect_structures(model.xyz, params)
        model.labeling = labeling
    if args.method == "weighted_kcover":
        compressed = compress_weighted_kcover(model, labeling, int(args.parameter))
    elif args.method == "set_kcover":
        compressed = compress_set_kcover(model, int(args.parameter))
    elif args.method == "top_visibility":
        compressed = compress_top_visibility(model, labeling, float(args.parameter))
    else:
        print(f"error: unknown method {args.method}", file=sys.stderr)
        return 1
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
    scene = model_io.load_scene(Path(args.scene))
    index = build_index(model, cfg.get("num_words"), seed=args.seed or 0)
    match_params = MatchParams(**cfg.get("match", {}))
    ransac_params = RansacParams(**{**cfg.get("ransac", {}), "seed": args.seed or 0})
    view = render_view(scene, args.view, seed=args.seed or 0)
    try:
        result = localize(view, index, match_params, ransac_params)
    except RegistrationFailedError as exc:
        print(f"error[{exc.stage}]: {exc}", file=sys.stderr)
        return 1
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
    measurements = [
        (float(t), None if z is None else np.asarray(z, dtype=np.float64)) for t, z in raw
    ]
    params = TrackParams(**cfg.get("track", {}))
    states = smooth_trajectory(measurements, params)
    records = [
        {
            "t": measurements[i][0],
            "position": [round(x, 9) for x in s.position.tolist()],
            "velocity": [round(x, 9) for x in s.velocity.tolist()],
        }
        for i, s in enumerate(states)
    ]
    out = _out_dir(args)
    _write_records(out / "track.jsonl", records)
    print(f"smoothed {len(states)} frames -> {out / 'track.jsonl'}")
    return 0


def cmd_pool(args) -> int:
    pool = model_io.load_pool(Path(args.pool_dir))
    if args.action == "show":
        for r in pool.records:
            tag = " [active]" if r.record_id == pool.active_id else ""
            print(
                f"{r.record_id}{tag}: created {r.created}, last used {r.last_used}, "
                f"condition '{r.condition}'"
            )
        return 0
    if args.action == "prune":
        from .pool import prune

        removed = prune(pool, now=float(args.now))
        model_io.save_pool(pool, Path(args.pool_dir))
        print(f"pruned: {removed if removed else 'nothing'}")
        return 0
    print(f"error: unknown pool action {args.action}", file=sys.stderr)
    return 1


def cmd_bench(args) -> int:
    raw = _load_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    config = bench_mod.BenchConfig.from_dict(raw)
    report = bench_mod.run_benchmark(config)
    out = _out_dir(args)
    _write_records(out / "bench.jsonl", report.records())
    print(report.table())
    return 0


def cmd_sessions(args) -> int:
    raw = _load_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    config = bench_mod.SessionSimConfig.from_dict(raw)
    report = bench_mod.run_session_sim(config)
    out = _out_dir(args)
    _write_records(out / "sessions.jsonl", report.records())
    _write_records(out / "events.jsonl", report.events)
    print(report.table())
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
    p.add_argument("--scene", required=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("detect", help="detect planes/lines in a model")
    common(p)
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_detect)

    p = sub.add_parser("compress", help="compress a model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument(
        "--method",
        default="weighted_kcover",
        choices=["weighted_kcover", "set_kcover", "top_visibility"],
    )
    p.add_argument("--parameter", required=True, help="k for k-cover, fraction for top_visibility")
    p.set_defaults(fn=cmd_compress)

    p = sub.add_parser("localize", help="localize a rendered view against a model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--scene", required=True)
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
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (EgolocError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
