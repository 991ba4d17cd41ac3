"""Per-layer tracing from outside the package.

``install`` replaces each traced public function of ``subdepth`` with a
wrapper that records a span (name, start, end, parent).  Module-level
functions are replaced under every ``subdepth.*`` module attribute that *is*
the function, so re-imports such as ``from .corpus import run_sweep`` are
traced too; methods are replaced in their class.  A target that cannot be
found raises ``LookupError``, so a rename never reads as zero time.

``layer_metrics`` turns the spans into self-times: a span's duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
import timeit
from fractions import Fraction

# metric prefix -> (module under subdepth, attribute or Class.method, report calls)
TARGETS: dict[str, tuple[str, str, bool]] = {
    "permgroup.enumerate_group": ("permgroup", "enumerate_group", True),
    "permgroup.subgroups": ("permgroup", "GroupHandle.subgroups", False),
    "permgroup.conjugacy_classes": ("permgroup", "GroupHandle.conjugacy_classes", False),
    "permgroup.double_cosets": ("permgroup", "double_cosets", True),
    "permgroup.core_and_witness": ("permgroup", "core_and_witness", False),
    "chartab.compute_character_table": ("chartab", "compute_character_table", True),
    "chartab.verify": ("chartab", "CharacterTable.verify", False),
    "chartab.inclusion_matrix": ("chartab", "inclusion_matrix", False),
    "chartab.class_fusion": ("chartab", "class_fusion", False),
    "chartab.permutation_character": ("chartab", "permutation_character", True),
    "depthmat.depth_report": ("depthmat", "depth_report", False),
    "depthmat.eigenvalues_via_class_formula": ("depthmat", "eigenvalues_via_class_formula", False),
    "depthmat.mckay_quiver": ("depthmat", "mckay_quiver", False),
    "exactalg.pattern_stabilization_index": ("exactalg", "pattern_stabilization_index", True),
    "exactalg.minimal_polynomial": ("exactalg", "minimal_polynomial", True),
    "exactalg.kernel_of_sparse_columns": ("exactalg", "kernel_of_sparse_columns", True),
    "exactalg.rref": ("exactalg", "rref", False),
    "exactalg.solve_kernel": ("exactalg", "solve_kernel", False),
    "exactalg.factor_rational_roots": ("exactalg", "factor_rational_roots", False),
    "mackey.q_tensor_decomposition": ("mackey", "q_tensor_decomposition", False),
    "mackey.merged": ("mackey", "QSummandMultiset.merged", True),
    "mackey.hecke_algebra": ("mackey", "hecke_algebra", False),
    "mackey.core_depth_bound": ("mackey", "core_depth_bound", False),
    "mackey.combinatorial_bound_check": ("mackey", "combinatorial_bound_check", False),
    "hopfcore.verify": ("hopfcore", "HopfAlgebraData.verify", True),
    "hopfcore.build_group_algebra": ("hopfcore", "build_group_algebra", False),
    "hopfcore.build_small_quantum_group": ("hopfcore", "build_small_quantum_group", False),
    "hopfcore.from_json": ("hopfcore", "HopfAlgebraData.from_json", False),
    "hopfcore.quotient_module": ("hopfcore", "quotient_module", False),
    "hopfcore.integrals_and_modular": ("hopfcore", "integrals_and_modular", False),
    "hopfcore.annihilator_chain": ("hopfcore", "annihilator_chain", False),
    "hopfcore.trace_ideals": ("hopfcore", "trace_ideals", False),
    "hopfcore.tensor_power_action": ("hopfcore", "tensor_power_action", False),
    "hopfcore.module_hom_basis": ("hopfcore", "module_hom_basis", False),
    "hopfcore.idealizer_and_endQ": ("hopfcore", "idealizer_and_endQ", False),
    "corpus.run_sweep": ("corpus", "run_sweep", False),
    "corpus.catalog": ("corpus", "catalog", False),
    "cli.run": ("cli", "run", False),
}

PROBES = ("exactalg.cyc_mul_rational_us", "exactalg.cyc_mul_cyclotomic_us")
SUMMARY = ("trace.unattributed_s", "trace.overhead_frac")


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in report order."""
    names = []
    for prefix, (_, _, calls) in TARGETS.items():
        names.append(prefix + ".s")
        if calls:
            names.append(prefix + ".calls")
    return names + list(PROBES) + list(SUMMARY)


class Tracer:
    """Records one span per call of a wrapped function, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced


def _resolve(module: str, attr: str):
    """(owner, name, raw attribute) for a target; raises LookupError."""
    mod = importlib.import_module("subdepth." + module)
    owner, _, name = attr.rpartition(".")
    owner = getattr(mod, owner, None) if owner else mod
    raw = vars(owner).get(name) if owner is not None else None
    if raw is None or not callable(getattr(raw, "__func__", raw)):
        raise LookupError(f"trace target subdepth.{module}.{attr} not found")
    return owner, name, raw


def install(tracer: Tracer, targets: dict = TARGETS) -> list[tuple]:
    """Wrap every target; returns (owner, name, original) records for undo."""
    resolved = [(prefix, *_resolve(module, attr))
                for prefix, (module, attr, _) in targets.items()]
    modules = [m for n, m in list(sys.modules.items())
               if n == "subdepth" or n.startswith("subdepth.")]
    undo = []
    for prefix, owner, name, raw in resolved:
        if isinstance(owner, type):
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(tracer.wrap(prefix, raw.__func__))
            else:
                wrapped = tracer.wrap(prefix, raw)
            undo.append((owner, name, raw))
            setattr(owner, name, wrapped)
            continue
        wrapped = tracer.wrap(prefix, raw)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is raw:
                    undo.append((mod, key, raw))
                    setattr(mod, key, wrapped)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append((end - start) - covered)
    return out


def layer_metrics(tracer: Tracer, traced_wall: float) -> tuple[dict, dict[str, int]]:
    """Self-time and call metrics plus trace.unattributed_s; also returns the
    call count of every target."""
    seconds = {prefix: 0.0 for prefix in TARGETS}
    calls = {prefix: 0 for prefix in TARGETS}
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        seconds[span[0]] += own
        calls[span[0]] += 1
    metrics = {}
    for prefix, (_, _, with_calls) in TARGETS.items():
        metrics[prefix + ".s"] = seconds[prefix]
        if with_calls:
            metrics[prefix + ".calls"] = calls[prefix]
    metrics["trace.unattributed_s"] = traced_wall - sum(seconds.values())
    return metrics, calls


def _per_call_us(stmt: str, env: dict, number: int = 20000, repeat: int = 7) -> float:
    times = timeit.Timer(stmt, globals=env).repeat(repeat=repeat, number=number)
    return statistics.median(times) / number * 1e6


def scalar_probes() -> dict[str, float]:
    """Cost of one multiply on fixed operands, in microseconds: Cyc over Q,
    Cyc over Q(zeta_3) (the field of the 27-dim quantum group), and Fraction
    and int for scale."""
    from subdepth.exactalg import Cyc
    env = {
        "ra": Cyc.rational(Fraction(3, 7)), "rb": Cyc.rational(Fraction(-5, 11)),
        "za": Cyc(3, (Fraction(2, 3), Fraction(-1, 5))),
        "zb": Cyc(3, (Fraction(1, 2), Fraction(3, 4))),
        "fa": Fraction(3, 7), "fb": Fraction(-5, 11), "ia": 12345, "ib": -6789,
    }
    return {
        "exactalg.cyc_mul_rational_us": _per_call_us("ra * rb", env),
        "exactalg.cyc_mul_cyclotomic_us": _per_call_us("za * zb", env),
        "fraction_mul_us": _per_call_us("fa * fb", env),
        "int_mul_us": _per_call_us("ia * ib", env),
    }
