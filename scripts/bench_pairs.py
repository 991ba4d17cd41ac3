#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --out BENCH_<n>.json

PARENT and CHANGE are git revisions of this repository.  Each is taken with
`git archive` into the sibling directories `parent` and `change` of one
temporary directory, so the two checkout paths have equal length (the peak
RSS moves with the path length while `src/` compiles).  Each pair runs

    python3 bench/run.py --workload W --seconds S --trace 0

in both checkouts with PYTHONDONTWRITEBYTECODE=1, for every workload W of
BENCHMARK.json at its `run_seconds` S: PAIRS pairs per workload, the parent
first in even pairs and the change first in odd ones.  The output holds, per
workload and end-to-end metric, the median and inclusive quartiles of each
side, in how many pairs the change read lower and higher, and the
[parent, change] values of every pair.  As a host calibration, it also
holds the min, median and max of 10 bare `python3 -c pass` start-ups taken
before the first run and after the last, so a summary read on a slow
stretch of the host says so.

    --seed-set W@N    PAIRS more pairs of workload W with --seed N (repeatable)
    --trace [N]       N `--trace 1` runs per side and workload (3 when N is
                      left out), alternating sides as the pairs do, right
                      after that workload's pairs, so both read the host in
                      the same stretch; the median of each per-layer metric
                      is stored beside the pairs, and a `.calls` count that
                      differs between the runs of one side is an error
    --claim W:METRIC  the claimed gain, checked on every set of W: the change
                      lower in at least 9 of 10 pairs, and the parent median
                      minus the change median above the parent's quartile gap

Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PAIRS = 10
STARTUPS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(rev: str, dest: str) -> None:
    """The committed files of rev, written under dest."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run_once(checkout_dir: str, workload: str, seconds: int, seed: int = 1,
             trace: int = 0) -> dict:
    """The JSON result line of one bench/run.py run; exit status 1 (failed
    operations) still has one, anything else is an error."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=checkout_dir, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{checkout_dir}: bench/run.py --workload {workload} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def startup_seconds() -> list[float]:
    """The wall time of each of STARTUPS bare interpreter start-ups."""
    out = []
    for _ in range(STARTUPS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        out.append(time.perf_counter() - t0)
    return out


def calibration(seconds: list[float]) -> dict:
    """The min, median and max of the start-up times, in seconds."""
    return {"min": round(min(seconds), 4), "median": round(statistics.median(seconds), 4),
            "max": round(max(seconds), 4)}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def summarize(runs: dict[str, list[dict]], metrics: list[str]) -> dict:
    """One workload's entry: runs["parent"][i] and runs["change"][i] are the
    result lines of pair i."""
    out: dict = {}
    for name in metrics:
        before, after = ([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES)
        parent, change = quartiles(before), quartiles(after)
        out[name] = {
            "parent": parent,
            "change": change,
            "median_change_frac": round(change["median"] / parent["median"] - 1, 4),
            "pairs_change_lower": sum(c < p for p, c in zip(before, after)),
            "pairs_change_higher": sum(c > p for p, c in zip(before, after)),
            "pairs": len(before),
            "pair_values": [[p, c] for p, c in zip(before, after)],
        }
    out["failed_operations"] = sum(r["failed"] for side in SIDES for r in runs[side])
    out["attempted_operations"] = sum(r["attempted"] for side in SIDES for r in runs[side])
    return out


def trace_medians(runs: list[dict]) -> dict:
    """The median of each metric over the traced runs of one side, given
    as their "metrics" objects.  Call counts do not depend on timing, so a
    `.calls` metric that differs between the runs raises RuntimeError."""
    out = {}
    for name in runs[0]:
        values = [r[name]["value"] for r in runs]
        if name.endswith(".calls") and len(set(values)) > 1:
            raise RuntimeError(f"{name} differs between traced runs: {values}")
        out[name] = round(statistics.median(values), 6)
    return out


def measure(dirs: dict[str, str], sets: list[tuple[str, int]], seconds: int,
            metrics: list[str], trace: int) -> tuple[dict, dict]:
    """The summaries of PAIRS alternating pairs for each (workload, seed)
    set, keyed "W@seedN", and the traced medians of each side, keyed
    "W@seed1".  The sets of one workload run together, in the order of
    their first appearance, and its `trace` traced runs per side (seed 1)
    follow them at once."""
    summaries: dict = {}
    traces: dict = {}
    for workload in dict.fromkeys(w for w, _ in sets):
        for seed in (s for w, s in sets if w == workload):
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i in range(PAIRS):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    runs[side].append(run_once(dirs[side], workload, seconds, seed))
                print(f"{workload}@seed{seed}: pair {i + 1} of {PAIRS}", file=sys.stderr)
            summaries[f"{workload}@seed{seed}"] = summarize(runs, metrics)
        if trace:
            traced: dict[str, list[dict]] = {side: [] for side in SIDES}
            for i in range(trace):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    traced[side].append(
                        run_once(dirs[side], workload, seconds, trace=1)["metrics"])
            traces[f"{workload}@seed1"] = {side: trace_medians(traced[side])
                                           for side in SIDES}
    return summaries, traces


def claim_holds(entry: dict) -> bool:
    """Whether a summarized metric shows a gain (lower is better): the
    change lower in at least nine tenths of the pairs, and the medians
    further apart than the parent's quartiles."""
    parent, change = entry["parent"], entry["change"]
    return (10 * entry["pairs_change_lower"] >= 9 * entry["pairs"]
            and parent["median"] - change["median"] > parent["q3"] - parent["q1"])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--seed-set", action="append", default=[], metavar="W@N",
                    help="PAIRS more pairs of workload W at seed N")
    ap.add_argument("--trace", type=int, nargs="?", const=3, default=0, metavar="N",
                    help="N traced runs per side and workload (3 when N is left out)")
    ap.add_argument("--claim", metavar="W:METRIC", help="the claimed gain")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    revs = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}

    result = {
        "change": git("log", "-1", "--format=%s", revs["change"]),
        "machine": f"{os.cpu_count()}-core {platform.machine()}, "
                   f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "revisions": {
            "parent_commit": revs["parent"],
            "change_commit": revs["change"],
            "parent_src_tree": git("rev-parse", f"{revs['parent']}:src"),
            "change_src_tree": git("rev-parse", f"{revs['change']}:src"),
        },
        "method": f"python3 bench/run.py --workload W --seconds {seconds} --trace 0 "
                  "(seed 1, or N in a set named W@seedN) with PYTHONDONTWRITEBYTECODE=1, parent and change each from "
                  "git archive into sibling directories of equal name length; "
                  f"{PAIRS} pairs per workload, pair i runs the parent first when i is "
                  "even and the change first when i is odd; median and quartiles "
                  f"(inclusive method) over the {PAIRS} runs of each side",
        "claim": None,
        "host_calibration": {"command": "python3 -c pass", "runs": STARTUPS,
                             "before": calibration(startup_seconds())},
        "workloads": {},
    }
    sets = [(w["name"], 1) for w in bench["workloads"]]
    for spec in args.seed_set:
        workload, _, seed = spec.partition("@")
        sets.append((workload, int(seed)))
    with tempfile.TemporaryDirectory() as tmp:
        dirs = {side: os.path.join(tmp, side) for side in SIDES}
        for side in SIDES:
            checkout(revs[side], dirs[side])
        result["workloads"], traces = measure(dirs, sets, seconds, metrics, args.trace)
    if args.trace:
        result["method"] += (f"; {args.trace} runs per side and workload with --trace 1, "
                             "alternating sides, right after that workload's pairs, "
                             "whose per-layer medians are under 'trace'")
        result["trace"] = traces
    result["host_calibration"]["after"] = calibration(startup_seconds())
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        result["claim"] = {
            "workload": workload, "metric": metric,
            "holds": {key: claim_holds(entry[metric])
                      for key, entry in result["workloads"].items()
                      if key.startswith(workload + "@")},
        }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
