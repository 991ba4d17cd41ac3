import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from subdepth import chartab, cli, mackey
from subdepth.cli import AnalysisRequest, main, run
from subdepth.mackey import BudgetExceededError
from subdepth.permgroup import GroupHandle

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture()
def s2s3_file(tmp_path):
    path = tmp_path / "s2s3.json"
    path.write_text(json.dumps({
        "degree": 3,
        "generators": [[2, 1, 3], [2, 3, 1]],
        "subgroups": {"H": [[2, 1, 3]], "K": [[2, 3, 1]]},
    }))
    return str(path)


def test_depth_group_mode(s2s3_file, tmp_path, capsys):
    out_json = tmp_path / "rep.json"
    out_dot = tmp_path / "rep.dot"
    rc = main(["depth", "group", s2s3_file, "--json", str(out_json),
               "--dot", str(out_dot)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "d_odd = 3  d_ev = 4  d_0 = 3  d_h = 5" in text
    data = json.loads(out_json.read_text())
    assert data["depth"]["d_0"] == 3 and data["depth"]["d_h"] == 5
    assert data["depth"]["M"] == [[1, 1, 0], [0, 1, 1]]
    assert data["hecke_dimension"] == data["dim_end_q"] == 2
    dot = out_dot.read_text()
    assert "fillcolor=white" in dot and "digraph mckay" in dot


def test_depth_matrix_mode(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0],
                                           [0, 0, 0, 1, 0], [0, 0, 0, 1, 1],
                                           [0, 0, 0, 0, 1]]}))
    rc = main(["depth", "matrix", str(path)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "d_odd = 5  d_ev = 4  d_0 = 4  d_h = 5" in text
    assert "C indecomposable: False" in text


def test_depth_matrix_mode_with_large_entries(tmp_path):
    # B = M M^t has the eigenvalues (k - 1)^2 and (k + 1)^2, and minpoly(B)
    # has a constant term near 10^24, out of reach of a divisor search
    k = 10 ** 6
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[k, 1], [1, k]]}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "subdepth.cli", "depth", "matrix", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (f"eigenvalues of B: {(k - 1) ** 2} (x1), {(k + 1) ** 2} (x1); residual 1"
            in proc.stdout)


@pytest.mark.parametrize("grid, minpoly_b, minpoly_c, pf_value", [
    ([[2, 1], [1, 1], [0, 1]], "X^3 - 8*X^2 + 6*X", "X^2 - 8*X + 6", None),
    ([[1, 0], [1, 1], [0, 1]], "X^3 - 4*X^2 + 3*X", "X^2 - 4*X + 3", "3"),
], ids=["irrational", "s2_s3-transposed"])
def test_depth_matrix_mode_with_more_rows_than_columns(grid, minpoly_b, minpoly_c,
                                                      pf_value, tmp_path):
    # B = M M^t is singular and C = M^t M is not; both are symmetric with the
    # same nonzero eigenvalues, so minpoly(C) = minpoly(B) / X
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": grid}))
    out = tmp_path / "rep.json"
    assert main(["depth", "matrix", str(path), "--json", str(out)]) == 0
    depth = json.loads(out.read_text())["depth"]
    assert (depth["minpoly_B"], depth["minpoly_C"]) == (minpoly_b, minpoly_c)
    assert depth["pf_value"] == pf_value


def test_matrix_mode_rejects_zero_column(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"matrix": [[1, 0], [1, 0]]}))
    rc = main(["depth", "matrix", str(path)])
    assert rc == 1
    assert "column 1" in capsys.readouterr().err


def test_parse_error_names_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"degree\": 3,\n  oops\n}")
    rc = main(["depth", "group", str(path)])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_mackey_mode(s2s3_file, tmp_path, capsys):
    out = tmp_path / "mk.json"
    rc = main(["mackey", s2s3_file, "--power", "3", "--json", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["character"] == [27, 1, 0]
    assert sum(d["multiplicity"] for d in data["summands"]) == 5


def test_group_pair_mackey_and_hecke_build_no_cayley_table(monkeypatch, capsys):
    # the table serves the subgroup lattice of the sweep; the pair modes
    # never build it
    def refuse(self):
        raise AssertionError("Cayley table built")

    monkeypatch.setattr(GroupHandle, "_cayley_columns", refuse)
    a4_a5 = str(ROOT / "tests" / "golden" / "a4_a5.json")
    assert main(["depth", "group", a4_a5]) == 0
    assert main(["mackey", a4_a5, "--power", "4"]) == 0
    assert main(["hecke", a4_a5]) == 0


def test_hecke_mode(s2s3_file, tmp_path):
    out = tmp_path / "hk.json"
    assert main(["hecke", s2s3_file, "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dimension"] == 2


def test_chartab_mode_with_import(s2s3_file, tmp_path, capsys):
    out = tmp_path / "tab.json"
    assert main(["chartab", s2s3_file, "--json", str(out)]) == 0
    assert main(["chartab", s2s3_file, "--import", str(out)]) == 0
    text = capsys.readouterr().out
    assert "agrees up to row permutation: True" in text


def test_chartab_import_of_a_value_written_at_another_order(tmp_path, capsys):
    # "8:[1,0,0,0]" is 1 written in Q(zeta_8); 8 does not divide the exponent
    # 12 of S4, so the comparison must not lift values to a common order
    data = json.loads((ROOT / "tests" / "golden" / "chartab_s4.json").read_text())
    data["irreducibles"][0][1] = "8:[1,0,0,0]"
    path = tmp_path / "tab.json"
    path.write_text(json.dumps(data))
    group = str(ROOT / "tests" / "golden" / "d8_s4.json")
    assert main(["chartab", group, "--import", str(path)]) == 0
    assert "agrees up to row permutation: True" in capsys.readouterr().out


def test_failed_check_exits_nonzero_under_python_O():
    # python -O skips assert statements; the checks of a run must not be
    # asserts, or a disagreeing imported table would exit 0
    golden = ROOT / "tests" / "golden"
    code = ("import sys\n"
            "from subdepth import cli\n"
            "cli.tables_agree_up_to_row_permutation = lambda *args: False\n"
            f"sys.exit(cli.main(['chartab', {str(golden / 'd8_s4.json')!r}, "
            f"'--import', {str(golden / 'chartab_s4.json')!r}]))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1, proc.stdout
    assert "error: imported table disagrees with the computed table" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_hopf_mode(tmp_path, capsys, uq2):
    H8, subs8 = uq2
    path = tmp_path / "uq2.json"
    path.write_text(json.dumps(H8.to_json(subalgebras={"R": subs8["R2"]})))
    out = tmp_path / "hopf.json"
    rc = main(["hopf", str(path), "--json", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    pair = data["pairs"]["R"]
    assert pair["dim_Q"] == 2
    assert pair["dim_T"] == 7 and pair["dim_end_q"] == 1
    assert pair["normal"] is False
    assert "d_h" not in json.dumps(data)


@pytest.mark.parametrize("field", ["counit", "antipode", "unit"])
def test_hopf_mode_names_a_missing_field(field, tmp_path, capsys, uq2):
    H8, subs8 = uq2
    data = H8.to_json(subalgebras={"R": subs8["R2"]})
    del data[field]
    path = tmp_path / "uq2.json"
    path.write_text(json.dumps(data))
    assert main(["hopf", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: Hopf JSON is missing the field '{field}'")
    assert "Traceback" not in err


def _set(field, value):
    def corrupt(data):
        data[field] = value
    return corrupt


def _set_first(field, value):
    def corrupt(data):
        data[field][0] = value
    return corrupt


def _bad_index(data, field, value):
    if field == "unit":
        data["unit"] = {str(value): "1"}
    else:
        data[field][0][1] = value


def _bad_length(data, field):
    if field == "antipode":
        data["antipode"][3] = data["antipode"][3][:-1]
    elif field == "subalgebras":
        data["subalgebras"]["R"][0].append("0")
    else:
        data[field] = data[field][:-1]


def _zeta3_at(field):
    # a scalar of Q(zeta_3) in the first scalar slot of the field
    def corrupt(data):
        if field in ("mult", "comult"):
            data[field][0][3] = "3:[0,1]"
        elif field == "counit":
            data[field][0] = "3:[0,1]"
        elif field == "antipode":
            data[field][0][0] = "3:[0,1]"
        elif field == "unit":
            data[field] = {"0": "3:[0,1]"}
        else:
            data[field]["R"][0][0] = "3:[0,1]"
    return corrupt


@pytest.mark.parametrize("field, corrupt", [
    ("mult", lambda data: _bad_index(data, "mult", 8)),
    ("mult", lambda data: _bad_index(data, "mult", -1)),
    ("comult", lambda data: _bad_index(data, "comult", 9)),
    ("comult", lambda data: _bad_index(data, "comult", -1)),
    ("unit", lambda data: _bad_index(data, "unit", 8)),
    ("antipode", lambda data: _bad_length(data, "antipode")),
    ("counit", lambda data: _bad_length(data, "counit")),
    ("subalgebras", lambda data: _bad_length(data, "subalgebras")),
    ("field_order", _set("field_order", 0)),
    *((field, _zeta3_at(field))
      for field in ("mult", "comult", "counit", "antipode", "unit", "subalgebras")),
], ids=["mult-8", "mult-neg", "comult-9", "comult-neg", "unit-8",
        "antipode-row", "counit-length", "subalgebras-row", "field-order-zero",
        "mult-zeta3", "comult-zeta3", "counit-zeta3", "antipode-zeta3", "unit-zeta3",
        "subalgebras-zeta3"])
def test_hopf_mode_rejects_out_of_range_data(field, corrupt, tmp_path, capsys, uq2):
    H8, subs8 = uq2
    data = H8.to_json(subalgebras={"R": subs8["R2"]})
    corrupt(data)
    path = tmp_path / "uq2.json"
    path.write_text(json.dumps(data))
    assert main(["hopf", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: Hopf JSON field '{field}'")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, corrupt", [
    ("counit", _set("counit", 5)),
    ("labels", _set("labels", 7)),
    ("mult", _set("mult", 3)),
    ("unit", _set("unit", ["1"])),
    ("antipode", _set_first("antipode", 4)),
    ("comult", _set_first("comult", [0, 0, 0])),
    ("counit", _set_first("counit", 1)),
    ("dim", _set("dim", [8])),
    ("subalgebras", _set("subalgebras", 5)),
    ("dim", _set("dim", "8")),
    ("dim", _set("dim", 8.5)),
    ("field_order", _set("field_order", True)),
    ("mult", lambda data: _bad_index(data, "mult", True)),
], ids=["counit-int", "labels-int", "mult-int", "unit-list", "antipode-row-int",
        "comult-short-entry", "counit-scalar-int", "dim-list", "subalgebras-int",
        "dim-str", "dim-float", "field-order-bool", "mult-index-bool"])
def test_hopf_mode_rejects_wrong_json_types(field, corrupt, tmp_path, capsys, uq2):
    H8, subs8 = uq2
    data = H8.to_json(subalgebras={"R": subs8["R2"]})
    corrupt(data)
    path = tmp_path / "uq2.json"
    path.write_text(json.dumps(data))
    assert main(["hopf", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: Hopf JSON field '{field}'")
    assert "Traceback" not in err


def test_hopf_mode_rejects_uq3_declared_over_q(tmp_path, capsys):
    # the constants of uq3 lie in Q(zeta_3), not in Q
    data = json.loads((ROOT / "tests" / "golden" / "uq3.json").read_text())
    data["field_order"] = 1
    path = tmp_path / "uq3.json"
    path.write_text(json.dumps(data))
    assert main(["hopf", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Hopf JSON field 'mult': ")
    assert err.endswith(" does not lie in Q(zeta_1) for field_order 1\n")
    assert "Traceback" not in err


def test_character_table_failure_is_an_error(s2s3_file, monkeypatch, capsys):
    # S3 is nonabelian, so its table goes through Dixon-Schneider at one
    # prime; a square root mod p that is never found fails the degree check
    monkeypatch.setattr(chartab, "_sqrt_modp", lambda a, p: None)
    assert main(["chartab", s2s3_file]) == 1
    err = capsys.readouterr().err
    assert err == "error: degree square root does not exist\n"


def test_mackey_budget_is_an_error(s2s3_file, monkeypatch, capsys):
    def over_budget(G, H, n):
        raise BudgetExceededError("|H\\G/H|^(n-1) = 10 exceeds the budget 1")
    monkeypatch.setattr(mackey, "q_tensor_decomposition", over_budget)
    assert main(["mackey", s2s3_file, "--power", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: |H\\G/H|^(n-1) = 10 exceeds the budget")
    assert "Traceback" not in err


def test_make_hopf_input_script_feeds_hopf_mode(tmp_path):
    path = tmp_path / "uq2.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_hopf_input.py"),
                    "2", str(path), "--subalgebras", "R2"],
                   check=True, capture_output=True, env=env)
    proc = subprocess.run([sys.executable, "-m", "subdepth.cli", "hopf", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "axioms verified" in proc.stdout
    assert "tau(Q) = H t_R H: True" in proc.stdout


def test_caps_only_on_the_subcommands_that_read_them():
    # neither `sweep` nor `hopf` reads a tensor cap: the flag is a usage
    # error, not a no-op
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for args in (["sweep"], ["hopf", str(ROOT / "tests" / "golden" / "uq3.json")]):
        proc = subprocess.run([sys.executable, "-m", "subdepth.cli", *args,
                               "--cap-tensor-dim", "9"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2, args
        assert "usage:" in proc.stderr and "--cap-tensor-dim" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_sweep_loads_neither_hopfcore_nor_mackey(tmp_path):
    # the CLI imports hopfcore and mackey inside the subcommands that use them
    code = ("import contextlib, io, sys\n"
            "from subdepth import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = cli.main(['sweep', '--max-order', '8', '--json', {str(tmp_path / 's.json')!r}])\n"
            "print(rc, sorted(m for m in sys.modules if m.startswith('subdepth')))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, _, loaded = proc.stdout.strip().partition(" ")
    assert rc == "0" and "'subdepth.corpus'" in loaded
    assert "subdepth.hopfcore" not in loaded and "subdepth.mackey" not in loaded
    assert json.loads((tmp_path / "s.json").read_text())["rows"]


def test_cap_order_counts_the_generators(tmp_path, capsys):
    # C2 has order 2: a cap of 1 refuses it although the closure loop never
    # meets a product that is not a generator
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({"degree": 2, "generators": [[2, 1]],
                                "subgroups": {"H": [[1, 2]]}}))
    assert main(["hecke", str(path), "--cap-order", "1"]) == 1
    assert capsys.readouterr().err == "error: group enumeration exceeded the cap of 1\n"
    assert main(["hecke", str(path), "--cap-order", "2"]) == 0


def test_sweep_mode_deterministic(tmp_path, capsys):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    assert main(["sweep", "--max-order", "8", "--conjecture",
                 "--json", str(out1)]) == 0
    first = capsys.readouterr().out
    assert main(["sweep", "--max-order", "8", "--conjecture",
                 "--json", str(out2)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert out1.read_text() == out2.read_text()
    data = json.loads(out1.read_text())
    assert data["violations"] == []
    assert "conjecture d_0 <= d_h: 0 violations" in first


def test_run_rejects_missing_subgroup(tmp_path, capsys):
    path = tmp_path / "nosub.json"
    path.write_text(json.dumps({"degree": 3, "generators": [[2, 1, 3]]}))
    assert main(["depth", "group", str(path)]) == 1
    assert "subgroup named 'H'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("command", [
    ["depth", "group"], ["depth", "matrix"], ["mackey"], ["hecke"], ["chartab"],
    ["hopf"],
], ids=["depth-group", "depth-matrix", "mackey", "hecke", "chartab", "hopf"])
def test_unreadable_input_is_an_error(command, kind, tmp_path, capsys):
    path = tmp_path / "absent.json" if kind == "missing" else tmp_path
    assert main([*command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("args", [
    ["chartab", "{pair}", "--import", "{dir}"],
    ["depth", "group", "{pair}", "--json", "{dir}"],
    ["depth", "group", "{pair}", "--dot", "{dir}"],
], ids=["import", "json", "dot"])
def test_unusable_side_file_is_an_error(args, s2s3_file, tmp_path, capsys):
    assert main([a.format(pair=s2s3_file, dir=tmp_path) for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, mode", [
    (["depth", "group", "in.json"], "group-pair"),
    (["depth", "matrix", "in.json"], "matrix-only"),
    (["mackey", "in.json"], "mackey"),
    (["hecke", "in.json"], "hecke"),
    (["chartab", "in.json"], "chartab"),
    (["hopf", "in.json"], "hopf-pair"),
    (["sweep"], "sweep"),
])
def test_each_subcommand_without_options_takes_the_request_defaults(argv, mode,
                                                                    monkeypatch):
    # every default is written once, in AnalysisRequest
    seen = []
    monkeypatch.setattr(cli, "run", lambda req: seen.append(req) or 0)
    assert main(argv) == 0
    input_path = "in.json" if len(argv) > 1 else None
    assert seen == [AnalysisRequest(mode=mode, input_path=input_path)]


def test_options_set_their_request_fields(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", lambda req: seen.append(req) or 0)
    assert main(["mackey", "in.json", "--power", "3", "--cap-order", "50",
                 "--json", "out.json"]) == 0
    assert main(["sweep", "--max-order", "8", "--conjecture"]) == 0
    assert main(["chartab", "in.json", "--import", "t.json"]) == 0
    assert main(["depth", "matrix", "in.json", "--dot", "g.dot"]) == 0
    assert seen == [
        AnalysisRequest(mode="mackey", input_path="in.json", power=3, cap_order=50,
                        json_path="out.json"),
        AnalysisRequest(mode="sweep", max_order=8, conjecture=True),
        AnalysisRequest(mode="chartab", input_path="in.json", import_path="t.json"),
        AnalysisRequest(mode="matrix-only", input_path="in.json", dot_path="g.dot"),
    ]


def test_analysis_request_direct():
    req = AnalysisRequest(mode="sweep", max_order=6, conjecture=True)
    assert run(req) == 0


def _group(**fields):
    data = {"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]],
            "subgroups": {"H": [[2, 1, 3]]}}
    data.update(fields)
    return data


@pytest.mark.parametrize("data, field", [
    ([1, 2], "(top level)"),
    (_group(degree=[3]), "degree"),
    (_group(generators=5), "generators"),
    (_group(generators=[5]), "generators"),
    (_group(generators=[[2, "1", 3]]), "generators"),
    (_group(subgroups=5), "subgroups"),
    (_group(subgroups={"H": 7}), "subgroups"),
    (_group(degree="3"), "degree"),
    (_group(degree=3.5), "degree"),
    (_group(generators=[[2, True, 3]]), "generators"),
], ids=["top-list", "degree-list", "generators-int", "generator-int",
        "image-str", "subgroups-int", "subgroup-int", "degree-str", "degree-float",
        "image-bool"])
def test_group_loader_rejects_wrong_json_types(data, field, tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    assert main(["depth", "group", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: group JSON field '{field}'")
    assert "Traceback" not in err


@pytest.mark.parametrize("data, field", [
    ([[1]], "(top level)"),
    ({"matrix": 5}, "matrix"),
    ({"matrix": [5]}, "matrix"),
    ({"matrix": [[True]]}, "matrix"),
], ids=["top-list", "matrix-int", "row-int", "entry-bool"])
def test_matrix_loader_rejects_wrong_json_types(data, field, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["depth", "matrix", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} field '{field}'")
    assert "Traceback" not in err


def _set_class(key, value):
    def corrupt(data):
        data["classes"][0][key] = value
    return corrupt


def _set_irreducible(value):
    def corrupt(data):
        data["irreducibles"][0][0] = value
    return corrupt


@pytest.mark.parametrize("field, corrupt", [
    ("exponent", _set("exponent", [6])),
    ("exponent", _set("exponent", 0)),
    ("classes", _set("classes", 5)),
    ("classes", _set_first("classes", 3)),
    ("classes", _set_class("rep", 5)),
    ("classes", _set_class("size", None)),
    ("irreducibles", _set("irreducibles", 5)),
    ("irreducibles", _set_first("irreducibles", 1)),
    ("irreducibles", _set_irreducible(1)),
    ("exponent", _set("exponent", "6")),
    ("exponent", _set("exponent", 6.5)),
    ("classes", _set_class("size", "1")),
], ids=["exponent-list", "exponent-zero", "classes-int", "class-int", "rep-int",
        "size-null", "irreducibles-int", "irreducible-int", "value-int", "exponent-str",
        "exponent-float", "size-str"])
def test_table_loader_rejects_wrong_json_types(field, corrupt, s2s3_file, tmp_path,
                                               capsys):
    table = tmp_path / "t.json"
    assert main(["chartab", s2s3_file, "--json", str(table)]) == 0
    data = json.loads(table.read_text())
    corrupt(data)
    table.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["chartab", s2s3_file, "--import", str(table)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: character table JSON field '{field}'")
    assert "Traceback" not in err
