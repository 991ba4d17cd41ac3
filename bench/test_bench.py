"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_nested_spans():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
             ["c", 5.0, 9.0, 0], ["d", 6.0, 7.0, 2]]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_self_times_clip_and_merge_children():
    # overlapping children are counted once, and only inside the parent
    spans = [["a", 2.0, 8.0, -1], ["b", 1.0, 4.0, 0], ["c", 3.0, 5.0, 0],
             ["d", 7.0, 9.0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)


def test_layer_metrics_from_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("exactalg.rref", lambda: None)
    outer = tracer.wrap("depthmat.depth_report", lambda: (inner(), inner()))
    outer()
    metrics, calls = tracing.layer_metrics(tracer, traced_wall=10.0)
    assert metrics["depthmat.depth_report.s"] == 5.0 - 2.0
    assert metrics["exactalg.rref.s"] == 2.0
    assert calls["exactalg.rref"] == 2
    assert metrics["trace.unattributed_s"] == 10.0 - 5.0


def test_install_patches_reimported_names_and_undoes():
    from subdepth import cli, corpus, hopfcore
    original, original_run = corpus.run_sweep, cli.run
    undo = tracing.install(tracing.Tracer())
    try:
        assert cli.run_sweep is corpus.run_sweep is not original
        assert workloads.cli.run is not original_run
        assert isinstance(vars(hopfcore.HopfAlgebraData)["from_json"], staticmethod)
    finally:
        tracing.uninstall(undo)
    assert cli.run_sweep is corpus.run_sweep is original


def test_missing_target_fails_loudly():
    with pytest.raises(LookupError, match="renamed_away"):
        tracing.install(tracing.Tracer(), {"exactalg.rref": ("exactalg", "renamed_away", False)})
    with pytest.raises(LookupError, match="CharacterTable.no_such"):
        tracing.install(tracing.Tracer(),
                        {"chartab.verify": ("chartab", "CharacterTable.no_such", False)})


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [m["name"] for m in spec["per_layer"]] == tracing.metric_names()


def test_mismatch_and_exception_count_as_failures():
    reference = {"a": 1, "b": [1, 2], "c": 3}
    steps = [workloads.Step(("a", "b"), lambda: {"a": 1, "b": (1, 2)}),
             workloads.Step(("c",), lambda: {"c": 4})]
    assert workloads.run_steps(steps, reference).failed == 1

    def boom():
        raise AssertionError("check failed")
    out = workloads.run_steps([workloads.Step(("a", "b"), boom)], reference)
    assert (out.attempted, out.failed) == (2, 2)
    assert "check failed" in out.errors[0]


def test_relabeling_is_a_conjugation():
    sigma = [2, 0, 1]                               # 1->3, 2->1, 3->2
    # the transposition (1 2) becomes (sigma(1) sigma(2)) = (3 1)
    assert workloads.relabel_points([2, 1, 3], sigma) == [3, 2, 1]


@pytest.mark.parametrize("seed", [1, 2])
def test_relabeled_inputs_keep_the_reference(tmp_path, seed):
    """The cheap operations of group_pairs and quantum_hopf under two seeds;
    the A4<A5 group-pair report and the uq3 reports are left to the
    benchmark itself (about 30 s)."""
    cheap = {"group-pair D8<S4", "mackey --power 6 A4<A5", "hecke A4<A5",
             "uq2 B", "uq2 R1", "uq2 R2"}
    for name in ("group_pairs", "quantum_hopf"):
        steps, reference = workloads.build(name, str(tmp_path), seed)
        steps = [s for s in steps if set(s.keys) <= cheap]
        out = workloads.run_steps(steps, reference)
        assert out.attempted > 0 and out.failed == 0, out.errors
    assert json.loads((tmp_path / "D8_in_S4.json").read_text())["generators"] != \
        workloads.PAIRS["D8<S4"][1]
