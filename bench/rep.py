"""One repetition of a benchmark workload in a fresh interpreter.

    python3 bench/rep.py --workload NAME --seed N --mode setup|time|trace \
        --spawned MONOTONIC_SECONDS

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` covers interpreter start, importing
``subdepth`` and writing the seeded inputs.  Mode ``setup`` stops there;
``time`` runs the workload; ``trace`` runs it with per-layer tracing.  The
last line of stdout is one JSON object with the measurements.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    import tracing
    import workloads

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        steps, reference = workloads.build(args.workload, workdir, args.seed)
        result = {"setup_s": time.monotonic() - args.spawned}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        tracer = None
        if args.mode == "trace":
            tracer = tracing.Tracer()
            tracing.install(tracer)
        t0 = time.perf_counter()
        outcome = workloads.run_steps(steps, reference)
        wall = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        wall_s=wall,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=outcome.attempted, failed=outcome.failed,
        errors=outcome.errors[:10])
    if tracer is not None:
        layers, calls = tracing.layer_metrics(tracer, wall)
        result["layers"] = layers
        result["probes"] = tracing.scalar_probes()
        by_module: dict[str, int] = {}
        for prefix, n in calls.items():
            module = prefix.split(".")[0]
            by_module[module] = by_module.get(module, 0) + n
        result["calls_by_module"] = by_module
        result["bypass_violations"] = sorted(
            prefix for prefix, n in calls.items()
            if n and prefix.split(".")[0] in workloads.BYPASSED[args.workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
