"""Command-line front end: file ingestion, report emission, sweep harness.

Exit status 0 means every assertion made during the run passed; any assertion
failure, parse error or cap violation exits nonzero with a message naming the
offending input.  `hopfcore` and `mackey` are imported inside the
subcommands that use them, so `sweep`, `chartab` and `depth matrix` never
load them.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from typing import Optional

from .chartab import (InclusionMatrix, compute_character_table, load_table_file,
                      tables_agree_up_to_row_permutation)
from .corpus import analyze_pair, run_sweep
from .depthmat import DepthReport, bipartite_dot, depth_report
from .exactalg import (json_int, json_kind, load_json_file, poly_to_string,
                       scalar_to_string)
from .permgroup import DEFAULT_ORDER_CAP, load_group_file


@dataclass
class AnalysisRequest:
    mode: str                       # group-pair | matrix-only | hopf-pair | sweep
                                    # | mackey | hecke | chartab
    input_path: Optional[str] = None
    power: int = 2
    import_path: Optional[str] = None
    max_order: int = 24
    conjecture: bool = False
    cap_order: int = DEFAULT_ORDER_CAP
    json_path: Optional[str] = None
    dot_path: Optional[str] = None


def _print_matrix(title: str, grid) -> None:
    print(f"{title}:")
    width = max((len(str(x)) for row in grid for x in row), default=1)
    for row in grid:
        print("  " + " ".join(str(x).rjust(width) for x in row))


def _emit_json(data: dict, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=False)
            fh.write("\n")


def _emit_dot(rep: DepthReport, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(bipartite_dot(rep.M) + "\n" + rep.mckay.dot() + "\n")


def _load_pair(req: AnalysisRequest):
    """G, H and every named subgroup of a group-pair file, which must name H."""
    G, subs = load_group_file(req.input_path, cap=req.cap_order)
    if "H" not in subs:
        raise ValueError(f"{req.input_path}: needs a subgroup named 'H'")
    return G, subs["H"], subs


def _load_matrix_file(path: str) -> InclusionMatrix:
    data = load_json_file(path)
    if "matrix" not in json_kind(path, "(top level)", data, dict):
        raise ValueError(f"{path}: missing the field 'matrix'")
    rows = json_kind(path, "matrix", data["matrix"], list)
    for row in rows:
        json_kind(path, "matrix", row, list)
    p = len(rows)
    q = len(rows[0]) if p else 0
    if p == 0 or q == 0 or any(len(r) != q for r in rows):
        raise ValueError(f"{path}: 'matrix' must be a nonempty rectangular grid")
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            if json_int(path, "matrix", x) < 0:
                raise ValueError(f"{path}: matrix entry ({i},{j}) must be a "
                                 "nonnegative integer")
    M = InclusionMatrix(p, q, tuple(tuple(r) for r in rows))
    for i in range(p):
        if not any(M.entries[i]):
            raise ValueError(f"{path}: row {i} of the matrix is zero; "
                             "not an inclusion matrix")
    for j in range(q):
        if not any(M.entries[i][j] for i in range(p)):
            raise ValueError(f"{path}: column {j} of the matrix is zero; "
                             "not an inclusion matrix")
    return M


def _depth_text(rep: DepthReport) -> None:
    _print_matrix("M", rep.M.to_lists())
    _print_matrix("B = M M^t", rep.B)
    _print_matrix("C = M^t M", rep.C)
    print(f"minpoly(B) = {poly_to_string(rep.minpoly_B)}")
    print(f"minpoly(C) = {poly_to_string(rep.minpoly_C)}")
    print(f"d_odd = {rep.d_odd}  d_ev = {rep.d_ev}  d_0 = {rep.d_0}  d_h = {rep.d_h}")
    eig = ", ".join(f"{v} (x{m})" for v, m in sorted(rep.eigen_B.values.items()))
    print(f"eigenvalues of B: {eig}; residual {poly_to_string(rep.eigen_B.residual)}")
    print(f"C indecomposable: {rep.mckay.indecomposable}")
    if rep.pf_check is not None:
        print(f"Perron-Frobenius check (root = index): {rep.pf_check}")


def _run_group_pair(req: AnalysisRequest) -> int:
    from .hopfcore import (build_group_algebra, idealizer_and_endQ, quotient_module,
                           subgroup_embedding)
    from .mackey import combinatorial_bound_check, core_depth_bound, hecke_algebra
    G, H, _ = _load_pair(req)
    a = analyze_pair(G, H)
    rep, es = a.depth, a.eigen
    print(f"group of order {G.order}, subgroup of order {H.order}, "
          f"index {G.order // H.order}")
    _depth_text(rep)
    print("class-formula eigenvalues: {"
          + ", ".join(str(v) for v in sorted(es.value_set()))
          + f"}} (t = {es.t}, d_0 <= {es.depth_bound})")
    if not a.eigen_ok:
        raise AssertionError("class formula disagrees with minpoly roots")
    if not rep.pf_check:
        raise AssertionError("minpoly(C) does not have the index as its Perron-Frobenius root")
    cb = core_depth_bound(G, H, d_h=rep.d_h)
    print(f"core witness r = {cb.r}; bounds d(Q) <= {cb.bound_dQ}, d_h <= {cb.bound_dh}")
    comb = combinatorial_bound_check(G, H, d_h=rep.d_h)
    print(f"d_c_ev = {comb.d_c_ev}, bracket {comb.d_c_bracket}, "
          f"d_c = 1: {comb.d_c_is_one}")
    hk = hecke_algebra(G, H)
    HG = build_group_algebra(G)
    emb = subgroup_embedding(HG, G, H)
    ir = idealizer_and_endQ(HG, emb, quotient_module(HG, emb))
    print(f"Hecke dimension = {hk.dimension}; dim End Q = {ir.dim_end_q}; "
          f"normal = {ir.normal}")
    if hk.dimension != ir.dim_end_q:
        raise AssertionError("Hecke dimension differs from dim End Q")
    data = {
        "order": G.order, "subgroup_order": H.order,
        "depth": rep.to_json(),
        "class_formula": {"values": [str(v) for v in sorted(es.value_set())],
                          "t": es.t, "bound": es.depth_bound,
                          "all_classes_restrict_to_one": H.order == G.order},
        "core": {"r": cb.r, "bound_dQ": cb.bound_dQ, "bound_dh": cb.bound_dh},
        "combinatorial": {"d_c_ev": comb.d_c_ev, "bracket": list(comb.d_c_bracket),
                          "d_c_is_one": comb.d_c_is_one},
        "hecke_dimension": hk.dimension,
        "dim_end_q": ir.dim_end_q,
    }
    _emit_json(data, req.json_path)
    _emit_dot(rep, req.dot_path)
    return 0


def _run_matrix(req: AnalysisRequest) -> int:
    rep = depth_report(_load_matrix_file(req.input_path))
    _depth_text(rep)
    _emit_json({"depth": rep.to_json()}, req.json_path)
    _emit_dot(rep, req.dot_path)
    return 0


def _run_mackey(req: AnalysisRequest) -> int:
    from .mackey import mackey_restrict, q_tensor_decomposition
    G, H, subs = _load_pair(req)
    ms = q_tensor_decomposition(G, H, req.power)
    print(f"Q^(x{req.power}) of index-{G.order // H.order} subgroup decomposes as:")
    merged = ms.merged()
    for rep_sub, mult in merged:
        print(f"  {mult} x Q_S with |S| = {rep_sub.order} "
              f"(index {G.order // rep_sub.order})")
    char = ms.character()
    print(f"character = {list(char)} = (induced trivial)^{req.power}")
    data = {"power": req.power, "summands": ms.to_json(merged),
            "character": list(char)}
    if "K" in subs:
        mr = mackey_restrict(G, subs["K"], H)
        data["restriction_of_K"] = mr.to_json(mr.merged())
        orders = sorted(s.order for s, m in mr.counts.items() for _ in range(m))
        print(f"Q_K restricted to H: summand subgroup orders {orders}")
    _emit_json(data, req.json_path)
    return 0


def _run_hecke(req: AnalysisRequest) -> int:
    from .mackey import hecke_algebra
    G, H, _ = _load_pair(req)
    hk = hecke_algebra(G, H)
    print(f"Hecke algebra of the pair: dimension {hk.dimension}, "
          f"commutative: {hk.is_commutative()}")
    print(f"double-coset indices: {list(hk.indices)}")
    _emit_json(hk.to_json(), req.json_path)
    return 0


def _run_chartab(req: AnalysisRequest) -> int:
    G, _ = load_group_file(req.input_path, cap=req.cap_order)
    tab = compute_character_table(G)
    print(f"character table of a group of order {G.order}: "
          f"{len(tab.classes)} classes, degrees {tab.degrees}")
    print("classes (representative, size): "
          + ", ".join(f"({r.rep!r}, {r.size})" for r in tab.classes))
    for i, row in enumerate(tab.irreducibles):
        print(f"  chi_{i}: " + " ".join(scalar_to_string(v) for v in row))
    if req.import_path:
        imported = load_table_file(G, req.import_path)
        ok = tables_agree_up_to_row_permutation(tab, imported)
        print(f"imported table agrees up to row permutation: {ok}")
        if not ok:
            raise AssertionError("imported table disagrees with the computed table")
    _emit_json(tab.to_json(), req.json_path)
    return 0


def _run_hopf(req: AnalysisRequest) -> int:
    from .hopfcore import (HopfAlgebraData, annihilator_chain, idealizer_and_endQ,
                           integrals_and_modular, quotient_module, trace_ideals)
    H, subs = HopfAlgebraData.from_json(load_json_file(req.input_path))
    print(f"Hopf algebra of dimension {H.dim} over Q(zeta_{H.field_order}); "
          f"axioms verified")
    if not subs:
        raise ValueError(f"{req.input_path}: needs at least one entry under "
                         "'subalgebras'")
    out = {"dim": H.dim, "pairs": {}}
    for name, emb in sorted(subs.items()):
        Q = quotient_module(H, emb)
        rep = integrals_and_modular(H, emb, Q)
        chain = annihilator_chain(Q)
        taus = trace_ideals(H, rep, chain)
        ir = idealizer_and_endQ(H, emb, Q)
        print(f"pair {name}: dim R = {emb.dim}, dim Q = {Q.dim_q}")
        print(f"  Ann Q dims: {[i.dim for i in chain.ideals]}; "
              f"ell_Q = {chain.ell_q}; Hopf core dim = "
              f"{chain.hopf_core.dim}")
        # trace_ideals raises unless tau(Q) = H t_R H; L_Q = ell_Q by its proof
        print(f"  trace ideal dims: {[i.dim for i in taus]}; L_Q = {chain.ell_q}; "
              f"tau(Q) = H t_R H: True")
        print(f"  dim T = {ir.dim_T}; dim End Q = {ir.dim_end_q}; "
              f"normal: {ir.normal}")
        print(f"  Frobenius extension: {rep.frobenius}; "
              f"integral in Q: {bool(rep.q_integral_basis)}; "
              f"semisimple extension: {rep.semisimple_extension}")
        print("  t_R = " + " + ".join(f"({scalar_to_string(v)})*{H.labels[k]}"
                                      for k, v in sorted(rep.t_R.items())))
        out["pairs"][name] = {
            "dim_R": emb.dim, "dim_Q": Q.dim_q,
            "ann_dims": [i.dim for i in chain.ideals],
            "ell_Q": chain.ell_q,
            "hopf_core_dim": chain.hopf_core.dim,
            "trace_dims": [i.dim for i in taus],
            "L_Q": chain.ell_q,
            "tau_matches_HtRH": True,
            "dim_T": ir.dim_T, "dim_end_q": ir.dim_end_q, "normal": ir.normal,
            "frobenius": rep.frobenius,
            "has_q_integral": bool(rep.q_integral_basis),
            "semisimple_extension": rep.semisimple_extension,
        }
    _emit_json(out, req.json_path)
    return 0


def _run_sweep(req: AnalysisRequest) -> int:
    report = run_sweep(req.max_order)
    print(f"sweep over catalog groups of order <= {req.max_order}: "
          f"{len(report.rows)} subgroup pairs")
    for row in report.rows:
        print(f"  {row.group} #{row.subgroup_index} |H|={row.subgroup_order} "
              f"index={row.index} d_0={row.d_0} d_h={row.d_h} "
              f"eigen_ok={row.eigen_ok} pf_ok={row.pf_ok}")
    if req.conjecture:
        print(f"conjecture d_0 <= d_h: {len(report.violations)} violations")
    _emit_json(report.to_json(), req.json_path)
    if report.violations:
        for v in report.violations:
            print(f"VIOLATION: {v.group} subgroup #{v.subgroup_index}", file=sys.stderr)
        return 1
    return 0


def run(req: AnalysisRequest) -> int:
    handlers = {
        "group-pair": _run_group_pair,
        "matrix-only": _run_matrix,
        "mackey": _run_mackey,
        "hecke": _run_hecke,
        "chartab": _run_chartab,
        "hopf-pair": _run_hopf,
        "sweep": _run_sweep,
    }
    return handlers[req.mode](req)


def _build_parser() -> argparse.ArgumentParser:
    """The parser; each subcommand sets its ``mode``, and an option left out
    stays out of the namespace, so its default is the `AnalysisRequest`
    field's."""
    ap = argparse.ArgumentParser(
        prog="subdepth",
        description="Exact depth invariants of subgroup and Hopf-subalgebra pairs")
    sub = ap.add_subparsers(dest="command", required=True)

    def parser(subparsers, name: str, mode: str, help: str):
        p = subparsers.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        p.set_defaults(mode=mode)
        return p

    def common(p, dot=False, cap_order=False):
        # each subcommand gets only the caps it reads
        p.add_argument("--json", dest="json_path", metavar="PATH",
                       help="write a JSON report to PATH")
        if dot:
            p.add_argument("--dot", dest="dot_path", metavar="PATH",
                           help="write Graphviz output to PATH")
        if cap_order:
            p.add_argument("--cap-order", type=int, help="group enumeration cap")

    p_depth = sub.add_parser("depth", help="depth invariants of a pair")
    dsub = p_depth.add_subparsers(dest="depth_mode", required=True)
    p_dg = parser(dsub, "group", "group-pair", "from a group-pair JSON file")
    p_dg.add_argument("input_path", metavar="file")
    common(p_dg, dot=True, cap_order=True)
    p_dm = parser(dsub, "matrix", "matrix-only", "from a bare inclusion matrix")
    p_dm.add_argument("input_path", metavar="file")
    common(p_dm, dot=True)

    p_mackey = parser(sub, "mackey", "mackey", "tensor-power decompositions")
    p_mackey.add_argument("input_path", metavar="file")
    p_mackey.add_argument("--power", type=int)
    common(p_mackey, cap_order=True)

    p_hecke = parser(sub, "hecke", "hecke", "double-coset Hecke algebra")
    p_hecke.add_argument("input_path", metavar="file")
    common(p_hecke, cap_order=True)

    p_chartab = parser(sub, "chartab", "chartab", "exact character table")
    p_chartab.add_argument("input_path", metavar="file")
    p_chartab.add_argument("--import", dest="import_path", metavar="TABLE",
                           help="cross-validate against an imported table")
    common(p_chartab, cap_order=True)

    p_hopf = parser(sub, "hopf", "hopf-pair", "Hopf-subalgebra pair report")
    p_hopf.add_argument("input_path", metavar="file")
    common(p_hopf)

    p_sweep = parser(sub, "sweep", "sweep", "corpus sweep")
    p_sweep.add_argument("--max-order", type=int)
    p_sweep.add_argument("--conjecture", action="store_true",
                         help="report d_0 <= d_h violations")
    common(p_sweep)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = vars(_build_parser().parse_args(argv))
    req = AnalysisRequest(**{f.name: args[f.name] for f in fields(AnalysisRequest)
                             if f.name in args})
    try:
        return run(req)
    except (OSError, ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
