"""Benchmark entry point for subdepth.

    python3 bench/run.py [--workload sweep16|group_pairs|quantum_hopf]
        [--seed N] [--seconds S] [--trace 0|1]

Without --workload it measures all three, one after another.  The seed
defaults to 1, --seconds to 30 and --trace to 0.

Every repetition runs in a fresh interpreter (bench/rep.py), so the corpus
caches start cold as they do for a CLI user.  Repetitions run one after
another; the harness starts whole repetitions while the next one is expected
to end within --seconds, and always runs at least one.

--trace 0 reports the end-to-end metrics: wall_s and peak_rss_mb as medians
over the repetitions, and setup_s as the median over those repetitions plus
SETUP_PROBES start-ups that stop after set-up.  --trace 1 runs one untraced
and one traced repetition and reports the per-layer self-times, call counts,
scalar probes and the tracing overhead.

The last stdout line of a workload is one JSON object with correct, attempted, failed and
metrics.  An operation whose output differs from the reference in
bench/reference counts as failed, and the command then exits 1; a
repetition that cannot run at all exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import PROBES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")

WORKLOADS = ("sweep16", "group_pairs", "quantum_hopf")
SETUP_PROBES = 10
DEADLINE_S = 170            # the command must end within 180 s

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class HarnessError(Exception):
    pass


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_frac"):
        return "fraction"
    return "s"


def spawn(mode: str, workload: str, args, started: float) -> dict:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise HarnessError(f"no time left for a {mode} repetition")
    spawned = time.monotonic()
    cmd = [sys.executable, REP, "--workload", workload, "--seed", str(args.seed),
           "--mode", mode, "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} repetition passed the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise HarnessError(f"{mode} repetition exited with {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = time.monotonic() - spawned
    return result


def measure(workload: str, args) -> tuple[list[dict], list[float], dict | None]:
    started = time.monotonic()
    setups = []
    if not args.trace:
        setups = [spawn("setup", workload, args, started)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        reps.append(spawn("time", workload, args, started))
        expected = statistics.median(r["process_s"] for r in reps)
        if args.trace or time.monotonic() - started + expected > args.seconds:
            break
    traced = spawn("trace", workload, args, started) if args.trace else None
    return reps, setups + [r["setup_s"] for r in reps], traced


def report(workload: str, args) -> int:
    """Measure one workload and print its metrics; the last line is the
    JSON result.  Returns the exit code."""
    try:
        reps, setups, traced = measure(workload, args)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runs = reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for err in r["errors"]:
            print(f"FAILED {err}", file=sys.stderr)

    wall = statistics.median(r["wall_s"] for r in reps)
    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    print(f"workload {workload}, seed {args.seed}: {len(reps)} timed "
          f"repetition(s), {len(setups)} set-ups")
    for name, value in end_to_end.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    print(f"fail_rate = {failed / attempted:.6g} fraction "
          f"({failed} failed of {attempted} attempted)")

    metrics = end_to_end
    if traced:
        metrics = dict(traced["layers"])
        for name in PROBES:
            metrics[name] = traced["probes"][name]
        metrics["trace.overhead_frac"] = traced["wall_s"] / wall - 1
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {unit_of(name)}")
        print(f"for scale: Fraction multiply {traced['probes']['fraction_mul_us']:.4g} us, "
              f"int multiply {traced['probes']['int_mul_us']:.4g} us")
        print("calls by module: " + ", ".join(
            f"{m}={n}" for m, n in traced["calls_by_module"].items()))
        bypass = traced["bypass_violations"]
        print("bypassed modules stayed uncalled" if not bypass
              else "calls into bypassed modules: " + ", ".join(bypass))

    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload; all of them, one after another, if omitted")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "subdepth", "__init__.py")):
        print(f"error: no subdepth package under {ROOT}/src", file=sys.stderr)
        return 2
    code = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        code = max(code, report(workload, args))
        if code == 2:
            break
    return code


if __name__ == "__main__":
    sys.exit(main())
