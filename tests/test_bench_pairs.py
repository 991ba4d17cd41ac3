import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(wall, failed=0):
    return {"attempted": 100, "failed": failed,
            "metrics": {"wall_s": {"value": wall, "unit": "s"}}}


def test_summary_of_fixed_pairs():
    runs = {"parent": [_line(w) for w in (1.0, 2.0, 3.0, 4.0, 5.0)],
            "change": [_line(w, failed=int(w == 1.5)) for w in (1.5, 1.0, 2.0, 4.0, 4.5)]}
    got = _bench_pairs().summarize(runs, ["wall_s"])
    assert got == {
        "wall_s": {
            # inclusive quartiles of 1..5 sit at 2 and 4; of 1, 1.5, 2, 4,
            # 4.5 at 1.5 and 4
            "parent": {"median": 3.0, "q1": 2.0, "q3": 4.0},
            "change": {"median": 2.0, "q1": 1.5, "q3": 4.0},
            "median_change_frac": -0.3333,
            # pair by pair: 1.5 > 1, 1 < 2, 2 < 3, 4 = 4, 4.5 < 5
            "pairs_change_lower": 3,
            "pairs_change_higher": 1,
            "pairs": 5,
            "pair_values": [[1.0, 1.5], [2.0, 1.0], [3.0, 2.0], [4.0, 4.0], [5.0, 4.5]],
        },
        "failed_operations": 1,
        "attempted_operations": 1000,
    }


def _entry(lower, parent, change):
    return {"parent": dict(zip(("q1", "median", "q3"), parent)),
            "change": dict(zip(("q1", "median", "q3"), change)),
            "pairs_change_lower": lower, "pairs": 10}


def test_claim_needs_nine_of_ten_pairs_and_a_gap_above_the_parent_spread():
    claim_holds = _bench_pairs().claim_holds
    assert claim_holds(_entry(9, (1.0, 1.1, 1.2), (0.7, 0.8, 0.9)))
    # 8 of 10 pairs lower
    assert not claim_holds(_entry(8, (1.0, 1.1, 1.2), (0.7, 0.8, 0.9)))
    # the medians differ by 0.1, less than the parent's quartile gap 0.2
    assert not claim_holds(_entry(10, (1.0, 1.1, 1.2), (0.9, 1.0, 1.1)))


def _traced(seconds, calls):
    return {"hopfcore.verify.s": {"value": seconds, "unit": "s"},
            "hopfcore.verify.calls": {"value": calls, "unit": "count"}}


def test_trace_medians_take_each_metric_over_the_runs():
    runs = [_traced(0.062, 8), _traced(0.041, 8), _traced(0.05, 8)]
    assert _bench_pairs().trace_medians(runs) == {"hopfcore.verify.s": 0.05,
                                                  "hopfcore.verify.calls": 8}


def test_trace_medians_refuse_call_counts_that_differ():
    runs = [_traced(0.04, 8), _traced(0.04, 9), _traced(0.04, 8)]
    with pytest.raises(RuntimeError, match=r"hopfcore.verify.calls differs"):
        _bench_pairs().trace_medians(runs)


def test_calibration_takes_min_median_and_max_of_the_startups():
    got = _bench_pairs().calibration([0.05, 0.041234, 0.06, 0.044, 0.0456])
    assert got == {"min": 0.0412, "median": 0.0456, "max": 0.06}
