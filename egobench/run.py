"""Run one egoloc benchmark workload and print its metrics.

    python3 egobench/run.py --workload query_full --seed 0 --seconds 12 --trace 0

Makes the workload's inputs from the seed, sets up several times, then runs
whole rounds of the workload's operations until `--seconds` have passed
(at least one round). It prints a table of the metrics and, as its last
line, one JSON object: `correct`, `attempted`, `failed` and `metrics`.
Without tracing the metrics are the end-to-end ones; with `--trace 1` they
are the per-layer ones, and the spans are written to
`egobench/out/spans-<workload>-<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / "egobench" / "out"
# Set-up runs at least this often, and more while it has taken under
# SETUP_SECONDS in all, so that a set-up of a tenth of a second is the
# median of many samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 20
WORKLOADS = ("query_full", "query_confusable", "build", "sessions")


def _limit_blas_threads():
    """One BLAS thread, the single client's core, so that the figures do not
    depend on how many cores the machine has. Must run before numpy is
    imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float, mark):
    """Prepare inputs, set up at least SETUP_REPEATS times and for at least
    SETUP_SECONDS, then run whole rounds until `seconds` have passed.
    Returns the tally and the set-up times."""
    from egobench.report import Tally
    from egobench.speed import Stopwatch

    mark("prepare")
    workload.prepare()
    watch = Stopwatch()
    setup_times: list[float] = []
    state = None
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        mark("setup")
        state = None  # release the previous set-up before timing the next
        watch.start()
        state = workload.setup()
        setup_times.append(watch.stop())
    tally = Tally()
    start = time.perf_counter()
    while tally.rounds == 0 or time.perf_counter() - start < seconds:
        workload.run_round(state, tally, mark, watch)
        tally.rounds += 1
    tally.references_s = watch.references
    return tally, setup_times


def end_to_end_metrics(tally, setup_times, model_bytes: int):
    from egobench.report import Metric, percentile

    errors = tally.errors_cm
    latencies = tally.latencies_s
    return [
        Metric("setup_s", "s", statistics.median(setup_times), len(setup_times)),
        Metric("latency_ms_p50", "ms", percentile(latencies, 50) * 1e3, len(latencies)),
        Metric("views_per_s", "1/s", tally.views / tally.view_time_s, tally.views),
        Metric("position_error_cm_mean", "cm", statistics.fmean(errors), len(errors)),
        Metric("model_mb", "MB", model_bytes / 1e6, 1),
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    _limit_blas_threads()
    source = ROOT / "src"
    if not (source / "egoloc" / "__init__.py").is_file():
        print(f"egobench: no egoloc package under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]
    from egobench import layers, workloads
    from egobench.report import result_line, table
    from egobench.speed import REFERENCE_S
    from egobench.trace import Tracer

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, args.seed, OUT_DIR)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install(tracer)

    def mark(op: str):
        if tracer is not None:
            tracer.op = op

    started = time.perf_counter()
    try:
        tally, setup_times = measure(workload, args.seconds, mark)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.cleanup()
    wall_s = time.perf_counter() - started

    end_to_end = end_to_end_metrics(tally, setup_times, workload.model_bytes)
    if tracer is None:
        metrics = end_to_end
    else:
        metrics = layers.per_layer_metrics(tracer, tally, workload, wall_s)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        print(layers.self_time_table(tracer))
        print("end-to-end figures of this traced run, to compare with an untraced one:")
        print(table(end_to_end))
    print(f"{args.workload} seed {args.seed}: {tally.rounds} rounds, "
          f"{tally.attempted} operations, {tally.failed} failed, {wall_s:.1f} s; "
          f"reference {1e3 * statistics.median(tally.references_s):.3f} ms "
          f"(times are scaled to {1e3 * REFERENCE_S:.3f} ms)")
    for violation in tally.violations:
        print(f"check failed: {violation}")
    print(table(metrics))
    print(result_line(tally, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
