"""Byte-identical JSON reports against the frozen outputs in tests/golden.

The golden files were written by the CLI before the integer sweep kernels
replaced the Cyc-based inner products and power scans; every later change
must reproduce them exactly.
"""

from pathlib import Path

import pytest

from subdepth.cli import _emit_json, main

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
