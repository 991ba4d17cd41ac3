"""The three benchmark workloads: seeded inputs, the timed steps, and the
reference checks.

A workload is built by ``build(name, workdir, seed)``, which writes the
seeded input files (this is set-up) and returns the steps to time.  A step
calls ``subdepth`` and returns, for each operation it covers, a value that is
compared with the stored reference; see NOTES.md for why each workload
exists.  The seed only relabels inputs, so every reference is seed-free.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

# Library functions are looked up on their modules at call time, so that
# the wrappers the traced run installs see these calls.
from subdepth import cli, hopfcore

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
UQ2_INPUT = os.path.join(HERE, "inputs", "uq2.json")

WORKLOADS = ("sweep16", "group_pairs", "quantum_hopf")

# modules a workload never calls; the traced run reports any call into them
BYPASSED = {
    "sweep16": ("hopfcore", "mackey"),
    "group_pairs": (),
    "quantum_hopf": ("chartab", "depthmat", "permgroup"),
}

# group-pair files: degree, generators of G, generators of H (image arrays)
_S4 = [[2, 1, 3, 4], [2, 3, 4, 1]]
_A5 = [[2, 3, 4, 5, 1], [2, 3, 1, 4, 5]]
PAIRS = {
    "D8<S4": (4, _S4, [[2, 3, 4, 1], [3, 2, 1, 4]]),
    "A4<A5": (5, _A5, [[2, 3, 1, 4, 5], [2, 1, 4, 3, 5]]),
    "C5<A5": (5, _A5, [[2, 3, 4, 5, 1]]),
}

# (operation key, CLI mode, pair, power)
REQUESTS = (
    ("group-pair D8<S4", "group-pair", "D8<S4", 2),
    ("group-pair A4<A5", "group-pair", "A4<A5", 2),
    ("mackey --power 4 C5<A5", "mackey", "C5<A5", 4),
    ("mackey --power 6 A4<A5", "mackey", "A4<A5", 6),
    ("hecke A4<A5", "hecke", "A4<A5", 2),
)

SUBALGEBRAS = ("B", "R1", "R2")


@dataclass
class Step:
    keys: tuple[str, ...]               # the operations this step covers
    run: Callable[[], dict]             # key -> output value


@dataclass
class Outcome:
    attempted: int
    failed: int
    errors: list[str]


def run_steps(steps: list[Step], reference: dict) -> Outcome:
    """Run every step; an operation fails when its step raises or its value
    differs from the reference."""
    out = Outcome(0, 0, [])
    for step in steps:
        out.attempted += len(step.keys)
        try:
            got = json.loads(json.dumps(step.run()))
        except Exception as exc:  # one failing operation must not stop the run
            out.failed += len(step.keys)
            out.errors.append(f"{step.keys[0]}: {type(exc).__name__}: {exc}")
            continue
        for key in step.keys:
            if key not in got or got[key] != reference.get(key):
                out.failed += 1
                out.errors.append(f"{key}: output differs from the reference")
    return out


def load_reference(name: str) -> dict:
    if name == "sweep16":
        with open(os.path.join(REFERENCE_DIR, "sweep16.json"), "rb") as fh:
            return sweep_operations(fh.read())
    with open(os.path.join(REFERENCE_DIR, name + ".json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# seeded relabeling
# ---------------------------------------------------------------------------

def seeded_permutation(n: int, seed: int) -> list[int]:
    """A permutation of range(n) determined by the seed."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def relabel_points(images: list[int], sigma: list[int]) -> list[int]:
    """The conjugate of a 1-based image array by the point map
    i -> sigma[i-1] + 1, so g'(sigma(i)) = sigma(g(i))."""
    out = [0] * len(images)
    for i, gi in enumerate(images):
        out[sigma[i]] = sigma[gi - 1] + 1
    return out


def pair_file_data(pair: str, sigma: list[int] | None) -> dict:
    degree, gens, sub = PAIRS[pair]
    if sigma is not None:
        gens = [relabel_points(g, sigma) for g in gens]
        sub = [relabel_points(g, sigma) for g in sub]
    return {"degree": degree, "generators": gens, "subgroups": {"H": sub}}


def permute_hopf_basis(data: dict, pi: list[int]) -> dict:
    """The same Hopf algebra with basis element i renamed pi[i], applied to
    labels, unit, mult, comult, counit, antipode and subalgebra rows."""
    d = data["dim"]

    def reorder(seq):
        out = [None] * d
        for i, x in enumerate(seq):
            out[pi[i]] = x
        return out

    out = dict(data)
    out["labels"] = reorder(data["labels"])
    out["unit"] = {str(pi[int(k)]): v for k, v in data["unit"].items()}
    for key in ("mult", "comult"):
        out[key] = sorted([pi[i], pi[j], pi[k], s] for i, j, k, s in data[key])
    out["counit"] = reorder(data["counit"])
    out["antipode"] = reorder([reorder(row) for row in data["antipode"]])
    out["subalgebras"] = {name: [reorder(row) for row in rows]
                          for name, rows in data["subalgebras"].items()}
    return out


# ---------------------------------------------------------------------------
# seed-invariant views of the outputs
# ---------------------------------------------------------------------------

def sweep_operations(raw: bytes) -> dict:
    """One entry per sweep row plus the byte digest of the whole file."""
    data = json.loads(raw)
    ops = {f"{r['group']}#{r['subgroup_index']}": r for r in data["rows"]}
    ops["sweep16.json sha256"] = hashlib.sha256(raw).hexdigest()
    return ops


def pair_invariants(mode: str, data: dict) -> dict:
    """The parts of a CLI report that do not depend on how points are
    labeled: orderings of classes, characters and double cosets are dropped
    or sorted."""
    if mode == "group-pair":
        full = data["depth"]
        depth = {k: v for k, v in full.items() if k not in ("M", "B", "C", "mckay_edges")}
        depth["M_row_multisets"] = sorted(sorted(row) for row in full["M"])
        keep = ("order", "subgroup_order", "class_formula", "core",
                "combinatorial", "hecke_dimension", "dim_end_q")
        return {"depth": depth, **{k: data[k] for k in keep}}
    if mode == "mackey":
        return {"power": data["power"],
                "summands": sorted([s["index"], s["multiplicity"]]
                                   for s in data["summands"]),
                "character": sorted(data["character"])}
    return {"dimension": data["dimension"], "indices": sorted(data["indices"]),
            "mu_values": sorted(mu[3] for mu in data["mu"])}


def uq3_report(H, emb) -> dict:
    Q = hopfcore.quotient_module(H, emb)
    rep = hopfcore.integrals_and_modular(H, emb, Q)
    chain = hopfcore.annihilator_chain(Q)
    ir = hopfcore.idealizer_and_endQ(H, emb, Q)
    return {
        "dim_R": emb.dim, "dim_Q": Q.dim_q,
        "ann_dims": [i.dim for i in chain.ideals], "ell_Q": chain.ell_q,
        "hopf_core_dim": chain.hopf_core.dim if chain.hopf_core else None,
        "dim_T": ir.dim_T, "dim_end_q": ir.dim_end_q, "normal": ir.normal,
        "frobenius": rep.frobenius, "has_q_integral": bool(rep.q_integral_basis),
        "semisimple_extension": rep.semisimple_extension,
    }


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

def cli_request(**fields) -> str:
    """One CLI request with stdout captured; returns its JSON report path."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.run(cli.AnalysisRequest(**fields))
    if rc != 0:
        raise RuntimeError(f"exit code {rc}")
    return fields["json_path"]


def cli_json(**fields) -> dict:
    with open(cli_request(**fields)) as fh:
        return json.load(fh)


def _write_json(path: str, data: dict) -> str:
    with open(path, "w") as fh:
        json.dump(data, fh)
    return path


def sweep16_steps(workdir: str, seed: int | None, reference: dict) -> list[Step]:
    del seed  # the catalog sweep has no input to relabel
    out = os.path.join(workdir, "sweep16.json")

    def sweep():
        path = cli_request(mode="sweep", max_order=16, conjecture=True, json_path=out)
        with open(path, "rb") as fh:
            return sweep_operations(fh.read())

    return [Step(tuple(reference), sweep)]


def group_pairs_steps(workdir: str, seed: int | None, reference: dict) -> list[Step]:
    """seed None writes the pairs unrelabeled (used for the reference)."""
    paths = {}
    for pair, (degree, _, _) in PAIRS.items():
        sigma = None if seed is None else seeded_permutation(degree, seed)
        name = pair.replace("<", "_in_") + ".json"
        paths[pair] = _write_json(os.path.join(workdir, name),
                                  pair_file_data(pair, sigma))
    steps = []
    for i, (key, mode, pair, power) in enumerate(REQUESTS):
        def request(key=key, mode=mode, pair=pair, power=power, i=i):
            data = cli_json(mode=mode, input_path=paths[pair], power=power,
                            json_path=os.path.join(workdir, f"out{i}.json"))
            return {key: pair_invariants(mode, data)}
        steps.append(Step((key,), request))
    return steps


def quantum_hopf_steps(workdir: str, seed: int | None, reference: dict) -> list[Step]:
    """seed None writes the uq2 basis unpermuted (used for the reference)."""
    with open(UQ2_INPUT) as fh:
        uq2 = json.load(fh)
    if seed is not None:
        uq2 = permute_hopf_basis(uq2, seeded_permutation(uq2["dim"], seed))
    uq2_path = _write_json(os.path.join(workdir, "uq2.json"), uq2)
    built = {}

    def uq3():
        if "uq3" not in built:
            built["uq3"] = hopfcore.build_small_quantum_group(3)
        return built["uq3"]

    steps = []
    for name in SUBALGEBRAS:
        def report(name=name):
            H, subs = uq3()
            return {f"uq3 {name}": uq3_report(H, subs[name])}
        steps.append(Step((f"uq3 {name}",), report))

    def uq2_pairs():
        data = cli_json(mode="hopf-pair", input_path=uq2_path,
                        json_path=os.path.join(workdir, "uq2.out.json"))
        return {f"uq2 {name}": data["pairs"][name] for name in data["pairs"]}

    steps.append(Step(tuple(f"uq2 {name}" for name in SUBALGEBRAS), uq2_pairs))
    return steps


STEPS = {
    "sweep16": sweep16_steps,
    "group_pairs": group_pairs_steps,
    "quantum_hopf": quantum_hopf_steps,
}


def build(name: str, workdir: str, seed: int | None) -> tuple[list[Step], dict]:
    """Write the seeded inputs of a workload into workdir; returns its steps
    and its reference."""
    reference = load_reference(name)
    return STEPS[name](workdir, seed, reference), reference
