import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (corpus_pairs_reps, evaluate_matrix, from_roots, group_table,
                     pair_report, perm, reference_bipartite_diameters,
                     reference_class_formula, reference_minimal_polynomial)
from subdepth import chartab, corpus, depthmat
from subdepth.chartab import InclusionMatrix, class_fusion, compute_character_table, inclusion_matrix
from subdepth.corpus import analyze_pair, catalog
from subdepth.depthmat import (bipartite_dot, depth_report,
                               eigenvalues_via_class_formula,
                               ell_from_trivial_row, mckay_quiver)
from subdepth.exactalg import ExactMatrix, factor_rational_roots, minimal_polynomial
from subdepth.permgroup import SubgroupHandle

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_s2_s3_full_report(s3):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    M, rep = pair_report(s3, H)
    assert rep.B == [[2, 1], [1, 2]]
    assert rep.C == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    assert rep.minpoly_B == from_roots([1, 3])
    assert rep.minpoly_C == from_roots([0, 1, 3])
    assert (rep.d_0, rep.d_h, rep.d_odd, rep.d_ev) == (3, 5, 3, 4)
    assert rep.pf_check and rep.pf_value == 3
    assert rep.mckay.indecomposable


def test_a4_a5_report(a5):
    A4 = a5.subgroup_generated([perm(5, (1, 2, 3)), perm(5, (1, 2), (3, 4))])
    M, rep = pair_report(a5, A4)
    assert rep.d_0 == 5 and rep.d_h == 5
    assert set(rep.eigen_B.values) == {0, 1, 2, 5}
    # (M M^t)^2 and (M^t M)^2 entrywise positive
    Bx, Cx = ExactMatrix.from_rows(rep.B), ExactMatrix.from_rows(rep.C)
    B2 = Bx @ Bx
    C2 = Cx @ Cx
    assert all(x.as_fraction() > 0 for x in B2.entries)
    assert all(x.as_fraction() > 0 for x in C2.entries)


def test_d8_s4_report(s4):
    D8 = s4.subgroup_generated([perm(4, (1, 2, 3, 4)), perm(4, (1, 3))])
    M, rep = pair_report(s4, D8)
    assert (rep.d_0, rep.d_odd, rep.d_h) == (4, 5, 5)
    assert not rep.mckay.indecomposable


def test_identity_inclusion(s3):
    tab = compute_character_table(s3)
    M = inclusion_matrix(tab, tab, class_fusion(s3, SubgroupHandle(s3, s3.elements)))
    rep = depth_report(M, group_data=(s3, SubgroupHandle(s3, s3.elements)))
    assert rep.d_h == 1 and rep.d_0 == 1 and rep.d_odd == 1 and rep.d_ev == 2


@pytest.mark.parametrize("name", ["S4", "Q8"])
def test_full_subgroup_pair_reuses_the_group_table(name):
    # the pair H = G takes tabG as its subgroup table; the report is the one
    # a freshly computed table of H gives
    G = dict(catalog(24))[name]
    H = SubgroupHandle(G, G.elements)
    tabG = compute_character_table(G)
    fresh = inclusion_matrix(tabG, compute_character_table(H.as_group()),
                             class_fusion(G, H))
    want = depth_report(fresh, group_data=(G, H)).to_json()
    assert analyze_pair(G, H, tabG).depth.to_json() == want
    assert analyze_pair(G, H).depth.to_json() == want


def test_sweep_computes_one_table_per_group_and_proper_subgroup(monkeypatch):
    calls = []
    dixon_calls = []
    dixon_schneider = chartab._dixon_schneider

    def counted(G):
        calls.append(G.order)
        return compute_character_table(G)

    def counted_dixon(G, *args):
        dixon_calls.append(G.order)
        return dixon_schneider(G, *args)

    monkeypatch.setattr(corpus, "_TABLES", {})
    monkeypatch.setattr(corpus, "compute_character_table", counted)
    monkeypatch.setattr(chartab, "_dixon_schneider", counted_dixon)
    report = corpus.run_sweep(16)
    # 30 group tables, and one per class of subgroups except the 30 classes
    # {G}
    assert len(report.rows) == 215
    assert len(calls) == 174
    # the 157 abelian tables are written down in closed form
    assert len(dixon_calls) == 17


@st.composite
def inclusion_matrices(draw):
    """Nonnegative integer matrices up to 7 x 7 with no zero row or column:
    a zero row i gets a 1 at column i mod q, then a zero column j one at row
    j mod p."""
    p, q = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    grid = [draw(st.lists(st.integers(0, 3), min_size=q, max_size=q)) for _ in range(p)]
    for i, row in enumerate(grid):
        if not any(row):
            row[i % q] = 1
    for j in range(q):
        if not any(row[j] for row in grid):
            grid[j % p][j] = 1
    return InclusionMatrix(p, q, tuple(map(tuple, grid)))


@given(inclusion_matrices())
@example(InclusionMatrix(4, 4, ((0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0))))
@example(InclusionMatrix(5, 4, ((1, 1, 0, 0), (0, 1, 0, 0), (0, 2, 0, 0),
                                (0, 0, 1, 0), (0, 0, 1, 1))))
@settings(max_examples=150, deadline=None)
def test_diameters_from_the_scans_equal_the_bfs_reference(M):
    rep = depth_report(M)
    assert ((rep.white_diameter_plus_one, rep.black_diameter_plus_one)
            == reference_bipartite_diameters(M))


def test_diameters_from_the_scans_equal_the_bfs_reference_on_the_sweep():
    pairs = [(name, G, H) for name, G in catalog(24) for H in G.subgroups()]
    assert len(pairs) == 365
    for name, G, H in pairs:
        rep = analyze_pair(G, H, corpus.cached_table(name, G)).depth
        assert ((rep.white_diameter_plus_one, rep.black_diameter_plus_one)
                == reference_bipartite_diameters(rep.M))


def test_depth_one_gating():
    # <(12)> inside <(12)> x <(34)>: adjoint action trivial, d_0 = 1
    from subdepth.permgroup import enumerate_group
    G = enumerate_group([perm(4, (1, 2)), perm(4, (3, 4))])
    H = G.subgroup_generated([perm(4, (1, 2))])
    M, rep = pair_report(G, H)
    assert rep.d_0 == 1 and rep.d_odd == 1
    assert rep.d_h > 1  # H != G


def test_matrix_only_reports_start_at_two_three():
    M = InclusionMatrix(2, 3, ((1, 1, 0), (0, 1, 1)))
    rep = depth_report(M)
    assert rep.d_odd >= 3 and rep.d_ev >= 2
    assert rep.pf_check is None


def test_cmc_relation_and_minpoly_shape(s4):
    for H in s4.subgroups()[::3]:
        M, rep = pair_report(s4, H)
        x_m = (0,) + rep.minpoly_B
        assert evaluate_matrix(x_m, ExactMatrix.from_rows(rep.C)).is_zero()
        assert rep.minpoly_C in (rep.minpoly_B, x_m)


def _divide_by_linear(m: tuple, r: int) -> tuple:
    """m / (X - r) by synthetic division; m(r) must be 0."""
    acc, quotient = 0, []
    for c in reversed(m[1:]):
        acc = acc * r + c
        quotient.append(acc)
    assert acc * r + m[0] == 0
    return tuple(reversed(quotient))


def test_cmc_check_fails_on_a_minpoly_missing_a_linear_factor(monkeypatch, s4, a5):
    # the index r = |G:H| is a root of minpoly(B) with an eigenvector v, and
    # m'(B) v = m'(r) v != 0 for m' = minpoly(B) / (X - r), as the roots of
    # the minimal polynomial of the symmetric B are simple, so the check
    # must fire on every pair
    A4 = a5.subgroup_generated([perm(5, (1, 2, 3)), perm(5, (1, 2), (3, 4))])
    pairs = [(s4, H) for H in s4.subgroups()] + [(a5, A4)]
    for G, H in pairs:
        index = G.order // H.order
        monkeypatch.setattr(depthmat, "minimal_polynomial",
                            lambda A: _divide_by_linear(minimal_polynomial(A), index))
        with pytest.raises(AssertionError, match=r"^m\(B\) != 0 for m = minpoly\(B\)$"):
            pair_report(G, H)


def test_minpolys_of_b_and_c_agree_with_the_reference_on_the_catalog():
    for name, G, H in corpus_pairs_reps(12):
        M, rep = pair_report(G, H, tabG=group_table(name, G))
        for grid, m in ((rep.B, rep.minpoly_B), (rep.C, rep.minpoly_C)):
            assert m == minimal_polynomial(grid)
            assert m == reference_minimal_polynomial(ExactMatrix.from_rows(grid))


@pytest.mark.parametrize("rows", [
    ((2, 1, 0), (0, 1, 1)),     # minpoly(C) = X m, and m has no rational root
    ((1, 1, 0), (0, 1, 1)),     # minpoly(C) = X m with rational roots
    ((1, 1), (1, 0)),           # minpoly(C) = m, no rational root
    ((1, 1, 1), (1, 1, 1)),     # minpoly(C) = m, which has the root 0
])
def test_depth_report_factors_only_minpoly_b(rows, monkeypatch):
    # the roots of minpoly(C) are those of m = minpoly(B), plus 0 for X m
    calls = []

    def counted(p):
        calls.append(p)
        return factor_rational_roots(p)

    monkeypatch.setattr(depthmat, "factor_rational_roots", counted)
    rep = depth_report(InclusionMatrix(len(rows), len(rows[0]), rows))
    assert calls == [rep.minpoly_B]
    roots_c, _ = factor_rational_roots(rep.minpoly_C)
    assert rep.pf_value == (max(roots_c) if roots_c else None)


def _assert_int_depth_values(rep):
    for p in (rep.minpoly_B, rep.minpoly_C, rep.eigen_B.residual):
        assert type(p) is tuple and all(type(c) is int for c in p) and p[-1] == 1
    assert all(type(r) is int for r in rep.eigen_B.values)


def test_depth_layer_values_are_ints_on_the_sweep_and_the_path_matrix(sweep24):
    # B and C are integer matrices, so every polynomial is monic in Z[X] and
    # every rational root is an integer; so is every class-formula value
    path = json.loads((GOLDEN / "path_matrix.json").read_text())["matrix"]
    _assert_int_depth_values(depth_report(
        InclusionMatrix(len(path), len(path[0]), tuple(map(tuple, path)))))
    pairs = [(name, si, G, H) for name, G in catalog(24)
             for si, H in enumerate(G.subgroups())]
    assert [(r.group, r.subgroup_index) for r in sweep24.rows] == [p[:2] for p in pairs]
    for name, _, G, H in pairs:
        a = analyze_pair(G, H, corpus.cached_table(name, G))
        _assert_int_depth_values(a.depth)
        assert type(a.depth.pf_value) is int
        assert all(type(v) is int for v in a.eigen.values)
        pi = chartab.permutation_character(G, H)
        assert a.eigen.value_set() == {v for v in pi if v > 0}


def test_class_formula_examples(s3, a5):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    es = eigenvalues_via_class_formula(s3, H)
    assert es.value_set() == {Fraction(1), Fraction(3)}
    assert es.t == 2 and es.depth_bound == 5
    whole = eigenvalues_via_class_formula(s3, SubgroupHandle(s3, s3.elements))
    assert whole.value_set() == {Fraction(1)}
    assert whole.depth_bound == 1
    A4 = a5.subgroup_generated([perm(5, (1, 2, 3)), perm(5, (1, 2), (3, 4))])
    es2 = eigenvalues_via_class_formula(a5, A4)
    assert es2.value_set() == {Fraction(5), Fraction(2), Fraction(1)}


def test_class_formula_equals_the_element_scan_reference_on_the_sweep():
    # the 365 pairs of the sweep to order 24
    pairs = [(G, H) for _, G in catalog(24) for H in G.subgroups()]
    assert len(pairs) == 365
    seen = set()
    for G, H in pairs:
        got = eigenvalues_via_class_formula(G, H)
        want, restrict_one = reference_class_formula(G, H)
        assert vars(got) == vars(want)
        assert list(got.values.items()) == list(want.values.items())
        # every class of G meets H in a single H-class exactly when H = G
        assert restrict_one == (H.order == G.order)
        seen.add(restrict_one)
    assert seen == {True, False}


def test_class_formula_pf_is_index(s4):
    for H in s4.subgroups()[::4]:
        es = eigenvalues_via_class_formula(s4, H)
        assert max(es.values) == Fraction(s4.order, H.order)


def test_mckay_quiver_s2_s3(s3):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    M, rep = pair_report(s3, H)
    q = rep.mckay
    loops = {i: w for i, j, w in q.edges if i == j}
    assert loops == {0: 1, 1: 2, 2: 1}
    assert rep.pf_value == 3
    assert q.indecomposable
    dot = q.dot()
    assert dot.startswith("digraph") and "v0 -> v1" in dot


def test_mckay_identity_matrix():
    q = mckay_quiver([[int(i == j) for j in range(4)] for i in range(4)])
    assert len(q.edges) == 4
    assert all(i == j for i, j, _ in q.edges)


def test_mckay_pf_mismatch_raises(s3):
    # the S2 < S3 matrix, whose C has Perron-Frobenius root 3, given the
    # group data of 1 < S3, of index 6
    M = InclusionMatrix(2, 3, ((1, 1, 0), (0, 1, 1)))
    with pytest.raises(AssertionError, match="Perron-Frobenius root 3 does not "
                                             "match dim H / dim R = 6"):
        depth_report(M, (s3, s3.trivial_subgroup()))


def test_ell_from_trivial_row(s3, s4):
    for G in (s3, s4):
        tab = compute_character_table(G)
        for H in G.subgroups():
            M, rep = pair_report(G, H, tabG=tab)
            ell = ell_from_trivial_row(rep.C, tab.trivial_index())
            if rep.d_h == 1:
                assert ell == 1
            else:
                assert rep.d_h == 2 * ell + 1


def test_bipartite_diameter_cross_check(s3, s4, a5):
    cases = [
        (s3, s3.subgroup_generated([perm(3, (1, 2))])),
        (s4, s4.subgroup_generated([perm(4, (1, 2, 3, 4)), perm(4, (1, 3))])),
        (a5, a5.subgroup_generated([perm(5, (1, 2, 3)), perm(5, (1, 2), (3, 4))])),
    ]
    for G, H in cases:
        M, rep = pair_report(G, H)
        assert rep.white_diameter_plus_one == rep.d_odd
        assert rep.black_diameter_plus_one == rep.d_h


def test_bipartite_dot_s2_s3(s3):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    M, rep = pair_report(s3, H)
    dot = bipartite_dot(M)
    assert dot.count("fillcolor=white") == 2
    assert dot.count("fillcolor=black") == 3
    assert dot.count(" -- ") == 4


def test_bipartite_dot_identity_is_matching(s3):
    tab = compute_character_table(s3)
    M = inclusion_matrix(tab, tab, class_fusion(s3, SubgroupHandle(s3, s3.elements)))
    dot = bipartite_dot(M)
    assert dot.count(" -- ") == 3


def test_report_json_round_trip(s3):
    import json
    H = s3.subgroup_generated([perm(3, (1, 2))])
    M, rep = pair_report(s3, H)
    data = json.loads(json.dumps(rep.to_json()))
    assert data["d_0"] == 3 and data["d_h"] == 5
    assert data["M"] == [[1, 1, 0], [0, 1, 1]]
    assert data["eigen_B"]["values"] == {"1": 1, "3": 1}
