#!/usr/bin/env python3
"""atrig benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload certify --seed 0 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout this file sits in.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The line before it records
provenance; the full record, and the spans of a traced run, go to
``bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = ROOT / "bench_results"

WORKLOADS = ("certify", "roundtrip", "pointwise")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 15  # fresh processes timed for setup_s, after one warm-up
OVERHEAD_ROUNDS = 3  # untraced and traced passes compared in a traced run

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_p99_us": "us",
    "tol_headroom_digits": "digits",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads() -> None:
    """One BLAS and OpenMP thread, set before numpy is imported.

    The workloads are single callers on matrices of order at most 32, which
    BLAS does not split across threads; idle pool threads that spin on a
    shared machine of a few cores only add noise.  One is within the cap of
    nproc in every case.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_atrig():
    sys.path.insert(0, str(SRC))
    import atrig
    import atrig.cli  # the CLI module is not imported by the package itself

    where = Path(atrig.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"atrig was imported from {where}, not from {SRC}")
    return atrig


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        blas = None
    return {
        "python": sys.version,
        "platform": platform.platform(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": nproc(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": workload.sizes(),
    }


def setup_probe(args) -> int:
    """Time importing atrig, raw, and generating the first pass's inputs,
    scaled like every timed interval of a run.

    The import is bound by loading files, which the reference kernel does
    not track; generating the pointwise stream is arithmetic (root finding,
    exponentials), which it does.
    """
    started = time.perf_counter()
    atrig = import_atrig()
    import workloads

    workload = workloads.make(atrig, args.workload, args.seed, args.scale)
    imported = time.perf_counter() - started
    from speed import SpeedMeter

    with SpeedMeter() as meter:
        t0 = meter.now()
        workload.inputs(0)
        generated = meter.elapsed(t0)
    print(json.dumps([imported, generated]))
    return 0


def measure_setup(args) -> list[float]:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
    ]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return times[1:]  # [import, scaled input generation] pairs


def p99(values) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(0.99 * len(ordered))) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(atrig, args) -> None:
    """One pass of the same workload and seed at the tiny size, untimed, so
    that lazy imports and the package's caches are filled before timing."""
    import workloads

    warm = workloads.make(atrig, args.workload, args.seed, "tiny")
    warm.run_pass(warm.inputs(0))


def run_passes(workload, seconds: float, clock):
    """Whole passes while the next one fits in ``seconds`` of wall time; at
    least one.

    Also returns the peak resident memory after the first pass, so that it
    does not depend on how many passes fit in the run.
    """
    passes = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(workload.run_pass(workload.inputs(len(passes)), clock=clock))
        if len(passes) == 1:
            first_pass_rss = peak_rss_mb()
        cycle = time.perf_counter() - t0
        if time.perf_counter() - started + cycle > seconds:
            return passes, first_pass_rss


def end_to_end(args, atrig, workload) -> tuple[dict, list, dict]:
    import workloads

    from speed import SpeedMeter

    setup = measure_setup(args)
    with SpeedMeter() as meter:
        warm_up(atrig, args)
        passes, rss = run_passes(workload, args.seconds, meter)
    latencies = [r[3] for p in passes for r in p.requests]
    attempted = sum(p.attempted for p in passes)
    acceptable = sum(p.count("ok") + p.count("refused") for p in passes)
    values = {
        "setup_s": statistics.median(a + b for a, b in setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "ops_per_s": statistics.median(p.units / p.busy_s for p in passes),
        "op_p50_us": 1e6 * statistics.median(latencies),
        "op_p99_us": 1e6 * p99(latencies),
        "tol_headroom_digits": statistics.median(
            workloads.headroom_digits(p.accuracy) if p.accuracy else 0.0 for p in passes
        ),
        "ok_ratio": acceptable / max(1, attempted),
        "peak_rss_mb": rss,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    record = {
        "setup_runs_s": setup,
        "mean_slowdown": meter.mean_slowdown(),
        "speed_samples": len(meter.stamps),
        "passes": [summarize(p) for p in passes],
    }
    return metrics, passes, record


def summarize(p) -> dict:
    return {
        "wall_s": p.wall_s,
        "busy_s": p.busy_s,
        "units": p.units,
        "requests": len(p.requests),
        "outcomes": {f"{op}:{status}": n for (op, status), n in sorted(p.outcomes.items())},
        "accuracy": {k: {"worst_residual": w, "tol": t} for k, (w, t) in p.accuracy.items()},
        "suite_s": p.suite_s,
        "notes": p.notes,
    }


def per_layer(args, atrig, workload) -> tuple[dict, list, dict]:
    """Pass 1, always on the same inputs: once to warm up, then
    ``OVERHEAD_ROUNDS`` rounds of an untraced and a traced pass, and a last
    untraced pass.

    The per-layer figures come from the first traced pass.  The tracing
    overhead is the median time inside the entry points of the traced
    passes over that of the untraced ones; interleaving them keeps a drift
    in the machine's speed from favouring either side.
    """
    import workloads
    from tracer import Tracer

    inputs = workload.inputs(1)

    workload.run_pass(inputs)
    plain, traced, tracer = [], [], None
    for _ in range(OVERHEAD_ROUNDS):
        plain.append(workload.run_pass(inputs))
        current = Tracer(atrig)
        current.install()
        try:
            traced.append(workload.run_pass(inputs, current))
        finally:
            current.uninstall()
        tracer = tracer or current
    plain.append(workload.run_pass(inputs))

    values: dict[str, float] = dict(tracer.summary())
    values["spectral.find_roots.repeat_ratio"] = tracer.repeat_ratio()
    # Latencies per operation and degree come from the untraced pass; they
    # read 0 on the suite workloads, which make no single library calls.
    calls = plain[0].requests if args.workload == "pointwise" else []
    for op in workloads.OPS:
        values[f"pointwise.{op}.p50_us"] = median_us(r[3] for r in calls if r[0] == op)
    for n in workloads.DEGREES:
        values[f"pointwise.n{n}.p50_us"] = median_us(r[3] for r in calls if r[1] == n)
    for op in workloads.OPS:
        values[f"pointwise.{op}.inaccurate"] = (
            traced[0].outcomes[(op, "inaccurate")] + traced[0].outcomes[(op, "nonfinite")]
        )
    values["trace_overhead_ratio"] = statistics.median(
        p.busy_s for p in traced
    ) / statistics.median(p.busy_s for p in plain)

    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans)
    metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    record = {
        "spans": str(spans.relative_to(ROOT)),
        "span_count": len(tracer.spans),
        "passes": {
            "untraced": [summarize(p) for p in plain],
            "traced": [summarize(p) for p in traced],
        },
    }
    return metrics, plain + traced, record


def median_us(seconds) -> float:
    seconds = list(seconds)
    return 1e6 * statistics.median(seconds) if seconds else 0.0


def per_layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "atrig" / "__init__.py").is_file():
        print(f"error: no atrig package under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    if args.setup_probe:
        return setup_probe(args)

    atrig = import_atrig()
    import workloads

    workload = workloads.make(atrig, args.workload, args.seed, args.scale)
    if args.trace:
        metrics, passes, record = per_layer(args, atrig, workload)
    else:
        metrics, passes, record = end_to_end(args, atrig, workload)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.count("failed") for p in passes)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record.update(provenance=provenance(args, workload), result=result)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, allow_nan=False) + "\n")
    print(json.dumps({"provenance": record["provenance"]}, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
