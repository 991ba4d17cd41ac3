"""Byte-identical JSON reports against the frozen outputs in tests/golden.

The group-pair, matrix and sweep reports were written by the CLI before the
integer sweep kernels replaced the Cyc-based inner products and power scans;
the `subdepth hopf` reports on the small quantum groups (inputs written by
`scripts/make_hopf_input.py`) were written before the quotient-module checks
moved to algebra generators, the uq3 report before the trace ideals came
from the closed form of the maps into H, and both still hold now that the
annihilator and trace chains build no tensor power; the `subdepth chartab`
tables of S4 and A5 before the Dixon-Schneider and minimal-polynomial
kernels were reworked; the `subdepth mackey` reports (JSON and stdout) on
A4<A5 at power 6, and at power 4 with the restriction of a subgroup K of
order 6, before the tensor powers were kept as counted multisets; the
`subdepth hopf` report on uq5 (dim 125, over Q(zeta_5)) before `Cyc`
arithmetic was cached.
Every later change must reproduce them exactly.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from subdepth.cli import _emit_json, main
from subdepth.exactalg import Cyc
from subdepth.hopfcore import HopfAlgebraData

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("pair", ["s2_s3", "a4_a5", "d8_s4"])
def test_depth_group_json_is_golden(pair, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["depth", "group", str(GOLDEN / f"{pair}.json"),
                 "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"depth_group_{pair}.json").read_bytes()


def test_depth_matrix_json_is_golden(tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["depth", "matrix", str(GOLDEN / "path_matrix.json"),
                 "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "depth_matrix_path.json").read_bytes()


def test_sweep24_json_is_golden(sweep24, tmp_path):
    # `subdepth sweep --max-order 24 --conjecture --json` writes exactly this
    out = tmp_path / "sweep.json"
    _emit_json(sweep24.to_json(), str(out))
    assert out.read_bytes() == (GOLDEN / "sweep24.json").read_bytes()


@pytest.mark.parametrize("algebra", ["uq2", "uq3"])
def test_hopf_json_is_golden(algebra, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["hopf", str(GOLDEN / f"{algebra}.json"),
                 "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"hopf_{algebra}.json").read_bytes()


def test_explicit_zero_entries_leave_the_hopf_report_unchanged(tmp_path, capsys):
    # from_json drops zero scalars, so verify's exact == on the contracted
    # structure constants sees the same algebra as without them
    data = json.loads((GOLDEN / "uq2.json").read_text())
    assert [0, 0, 5, "1"] not in data["mult"] and [0, 1, 2, "1"] not in data["comult"]
    data["mult"].append([0, 0, 5, "0"])
    data["comult"].append([0, 1, 2, "0"])
    data["unit"]["3"] = "0"
    path, out = tmp_path / "uq2_zeros.json", tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    H, _ = HopfAlgebraData.from_json(data)
    assert H.mult[0][0] == {0: Cyc.one()} and H.comult[0] == {(0, 0): Cyc.one()}
    assert H.unit == {0: Cyc.one()}
    assert main(["hopf", str(path), "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "hopf_uq2.json").read_bytes()


@pytest.mark.parametrize("n", ["2", "3"])
def test_make_hopf_input_is_golden(n, tmp_path):
    # the inputs of the `hopf` reports above, with their echelon subalgebra rows
    out = tmp_path / f"uq{n}.json"
    script = GOLDEN.parent.parent / "scripts" / "make_hopf_input.py"
    subprocess.run([sys.executable, str(script), n, str(out)],
                   check=True, capture_output=True)
    assert out.read_bytes() == (GOLDEN / f"uq{n}.json").read_bytes()


def test_hopf_uq5_json_is_golden(tmp_path, capsys):
    # the 2.3 MB input is built by the script rather than stored; its
    # SHA-256 pins the script's output as well
    data = tmp_path / "uq5.json"
    script = GOLDEN.parent.parent / "scripts" / "make_hopf_input.py"
    subprocess.run([sys.executable, str(script), "5", str(data)],
                   check=True, capture_output=True)
    assert hashlib.sha256(data.read_bytes()).hexdigest() == (
        "33833be46b0985f4b04086eee7d3c7cbecd9624568eb743224840710d702bda6")
    out = tmp_path / "rep.json"
    assert main(["hopf", str(data), "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "hopf_uq5.json").read_bytes()


@pytest.mark.parametrize("group, golden", [
    ("d8_s4", "chartab_s4"),
    ("a4_a5", "chartab_a5"),
])
def test_chartab_json_is_golden(group, golden, tmp_path, capsys):
    # pins the Dixon-Schneider values and the irreducible ordering
    out = tmp_path / "tab.json"
    assert main(["chartab", str(GOLDEN / f"{group}.json"),
                 "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{golden}.json").read_bytes()


@pytest.mark.parametrize("pair, power", [("a4_a5", 6), ("a4_a5_k", 4)])
def test_mackey_report_is_golden(pair, power, tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert main(["mackey", str(GOLDEN / f"{pair}.json"), "--power", str(power),
                 "--json", str(out)]) == 0
    stem = f"mackey_{pair}_p{power}"
    assert out.read_bytes() == (GOLDEN / f"{stem}.json").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"{stem}.txt").read_text()
