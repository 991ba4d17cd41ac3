"""Capture the reference outputs and the uq2 input from the current code.

    python3 bench/make_reference.py

Writes bench/inputs/uq2.json (the 8-dim small quantum group with its R1, R2
and B subalgebras) and bench/reference/{sweep16,group_pairs,quantum_hopf}.json
from unrelabeled inputs.  Run it only on a commit whose outputs are trusted:
every later benchmark run is checked against these files.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from subdepth.hopfcore import build_small_quantum_group  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    os.makedirs(os.path.dirname(workloads.UQ2_INPUT), exist_ok=True)
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    H, subs = build_small_quantum_group(2)
    with open(workloads.UQ2_INPUT, "w") as fh:
        json.dump(H.to_json(subalgebras=subs), fh, indent=1)
        fh.write("\n")
    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workloads.sweep16_steps(workdir, None, {})[0].run()
        shutil.copyfile(os.path.join(workdir, "sweep16.json"),
                        os.path.join(workloads.REFERENCE_DIR, "sweep16.json"))
        for name in ("group_pairs", "quantum_hopf"):
            reference = {}
            for step in workloads.STEPS[name](workdir, None, {}):
                reference.update(step.run())
            with open(os.path.join(workloads.REFERENCE_DIR, name + ".json"), "w") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
