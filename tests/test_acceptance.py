"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Every tolerance is exact (integer or rational equality); there are no
floating-point comparisons anywhere.
"""

import json
import time
from fractions import Fraction

from helpers import (augmentation_core_ideal, cached_group_algebra,
                     corpus_pairs_reps, equal_up_to_row_col_permutation,
                     from_roots, group_table, ideal_from_span, pair_report, perm,
                     reference_ideal_flags)
from subdepth.chartab import permutation_character
from subdepth.cli import AnalysisRequest, run
from subdepth.corpus import catalog
from subdepth.exactalg import Cyc, ExactMatrix, factor_rational_roots
from subdepth.hopfcore import (annihilator_chain, idealizer_and_endQ,
                               integrals_and_modular, quotient_module,
                               subgroup_embedding, trace_ideals)
from subdepth.mackey import hecke_algebra, q_tensor_decomposition
from subdepth.permgroup import core_and_witness, double_cosets


def report(num, detail):
    print(f"\nCRITERION {num}: PASS - {detail}", flush=True)


EXPECTED_M_A4_A5 = [[1, 1, 0, 0, 0],
                 [0, 0, 1, 0, 0],
                 [0, 0, 1, 0, 0],
                 [0, 1, 1, 1, 1]]

EXPECTED_M_D8_S4 = [[1, 1, 0, 0, 0],
                 [0, 1, 1, 0, 0],
                 [0, 0, 0, 1, 0],
                 [0, 0, 0, 1, 1],
                 [0, 0, 0, 0, 1]]


def test_criterion_01_s2_s3_exact(s3):
    t0 = time.monotonic()
    H = s3.subgroup_generated([perm(3, (1, 2))])
    M, rep = pair_report(s3, H)
    assert M.to_lists() == [[1, 1, 0], [0, 1, 1]]
    assert rep.B == [[2, 1], [1, 2]]
    assert rep.C == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    assert rep.minpoly_B == from_roots([1, 3])
    assert rep.minpoly_C == from_roots([0, 1, 3])
    assert rep.d_0 == 3 and rep.d_h == 5
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"S2<=S3 M, B, C, minpolys, d_0=3, d_h=5 exact ({elapsed:.3f}s)")


def test_criterion_02_a4_a5(a5):
    t0 = time.monotonic()
    A4 = a5.subgroup_generated([perm(5, (1, 2, 3)), perm(5, (1, 2), (3, 4))])
    M, rep = pair_report(a5, A4)
    assert equal_up_to_row_col_permutation(M.to_lists(), EXPECTED_M_A4_A5)
    roots_c, resid = factor_rational_roots(rep.minpoly_C)
    assert resid == (1,)
    assert set(roots_c) == {Fraction(0), Fraction(1), Fraction(2), Fraction(5)}
    assert rep.d_0 == 5
    Bx = ExactMatrix.from_rows(rep.B)
    B2 = Bx @ Bx
    assert all(x.as_fraction() > 0 for x in B2.entries)
    assert rep.d_h == 5
    Cx = ExactMatrix.from_rows(rep.C)
    C2 = Cx @ Cx
    assert all(x.as_fraction() > 0 for x in C2.entries)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(2, f"A4<A5 matrix, eigenvalues {{0,1,2,5}}, d_0=d_h=5 ({elapsed:.2f}s)")


def test_criterion_03_d8_s4(s4):
    t0 = time.monotonic()
    D8 = s4.subgroup_generated([perm(4, (1, 2, 3, 4)), perm(4, (1, 3))])
    assert D8.order == 8
    M, rep = pair_report(s4, D8)
    assert equal_up_to_row_col_permutation(M.to_lists(), EXPECTED_M_D8_S4)
    assert rep.d_0 == 4 and rep.d_odd == 5 and rep.d_h == 5
    assert not rep.mckay.indecomposable
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(3, f"D8<S4 two-block matrix, d_0=4, d_odd=5, d_h=5, "
              f"C decomposable ({elapsed:.2f}s)")


def test_criterion_04_class_formula_oracle(sweep24):
    bad = [r for r in sweep24.rows if not (r.eigen_ok and r.pf_ok)]
    assert bad == []
    assert sweep24.elapsed < 120.0
    report(4, f"class-formula eigenvalues = nonzero minpoly(B) roots and "
              f"PF root = index on all {len(sweep24.rows)} pairs of order <= 24 "
              f"({sweep24.elapsed:.1f}s)")


def test_criterion_05_symmetric_chain(s3, s4, s5):
    expected = {3: 5, 4: 7, 5: 9}
    for n, G in ((3, s3), (4, s4), (5, s5)):
        gens = [perm(n, (1, 2))]
        if n > 3:
            gens.append(perm(n, tuple(range(1, n))))
        H = G.subgroup_generated(gens)
        assert H.order == __import__("math").factorial(n - 1)
        M, rep = pair_report(G, H)
        assert rep.d_h == expected[n]
        cw = core_and_witness(G, H)
        assert cw.r == n - 2
        assert 2 * cw.r + 3 == rep.d_h   # the bound is tight
    report(5, "S_{n-1}<=S_n for n=3,4,5: d_h = 5,7,9, witness r = n-2, "
              "bound 2r+3 attained")


def test_criterion_06_mackey_character_cross_validation():
    pairs = corpus_pairs_reps(24)
    checked = 0
    for name, G, H in pairs:
        pc = permutation_character(G, H)
        for n in (1, 2, 3):
            ms = q_tensor_decomposition(G, H, n)
            assert ms.character() == tuple(v ** n for v in pc), (name, H.order, n)
            checked += 1
    report(6, f"tensor-power characters equal (induced trivial)^n for n<=3 on "
              f"{checked} decompositions over {len(pairs)} pair classes")


def test_criterion_07_hecke_dimensions():
    pairs = corpus_pairs_reps(24)
    for name, G, H in pairs:
        hk = hecke_algebra(G, H)   # associativity and unit verified inside
        n_dc = len(double_cosets(G, H, H).reps)
        HG = cached_group_algebra(G)
        emb = subgroup_embedding(HG, G, H)
        ir = idealizer_and_endQ(HG, emb, quotient_module(HG, emb))
        assert hk.dimension == n_dc == ir.dim_end_q, (name, H.order)
    report(7, f"Hecke dim = #double cosets = dim End Q on {len(pairs)} "
              f"pair classes, mu associative with unit")


def test_criterion_08_eight_dim_values(uq2, tmp_path):
    t0 = time.monotonic()
    H8, subs8 = uq2
    R = subs8["R2"]
    Q = quotient_module(H8, R)
    assert Q.dim_q == 2
    rep = integrals_and_modular(H8, R, Q)
    # t_R = E(1+K) up to scalar (E - KE in the normal-ordered basis)
    assert set(rep.t_R) == {2, 6} and (rep.t_R[2] + rep.t_R[6]).is_zero()
    chain = annihilator_chain(Q)
    EH = ideal_from_span(H8, [H8.mult_vec({2: Cyc.one()}, H8.basis_vec(i))
                              for i in range(8)])
    # EH passes the Hopf-ideal test and is the Hopf core ideal
    assert EH.rank == 4 and reference_ideal_flags(H8, EH)[1]
    assert chain.hopf_core.space.equals(EH)
    ti = trace_ideals(H8, rep, chain)
    assert ti[0].dim == 3
    ir = idealizer_and_endQ(H8, R, Q)
    assert ir.dim_T == 7 and ir.dim_end_q == 1 and not ir.normal
    # the artifact must not assert any d_h for this pair: the hopf-pair
    # report schema carries no d_h field at all
    data = H8.to_json(subalgebras={"R": R})
    path = tmp_path / "uq2.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "uq2.out.json"
    assert run(AnalysisRequest(mode="hopf-pair", input_path=str(path),
                               json_path=str(out))) == 0
    with open(out) as fh:
        assert "d_h" not in json.dumps(json.load(fh))
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(8, f"8-dim pair: dim Q=2, t_R=E(1+K), tau(Q)=Ht_RH dim 3, dim T=7, "
              f"dim End Q=1, non-normal, EH is the Hopf core ideal, no d_h "
              f"({elapsed:.2f}s)")


def test_criterion_08_annihilator_as_stated(uq2):
    """Checks the stated annihilator Ann Q = EH against the exact chain.

    With K^2 = 1, E^2 = F^2 = 0, EF = FE, KE = -EK, KF = -FK and R = <K, E>,
    R+H is spanned by (K-1)H and EH, and Q = H/R+H = span{1-bar, F-bar}.  The
    element (K-1)F lies in R+H, so it kills 1-bar, and
    F (K-1)F = FKF - F^2 = -KF^2 = 0, so it kills F-bar too.  Hence
    Ann Q = EH + C(K-1)F has dimension 5 and is strictly larger than the
    stated EH; it is not a Hopf ideal, so the chain reaches the Hopf core EH
    one power later and ell_Q = 2.  The README derives the same under "The
    8-dimensional pair".
    """
    H8, subs8 = uq2
    Q = quotient_module(H8, subs8["R2"])
    chain = annihilator_chain(Q)
    # basis index ((a * 2) + b) * 2 + c of K^a E^b F^c: F = 1, E = 2, KF = 5
    F = {1: Cyc.one()}
    km1_f = {5: Cyc.one(), 1: Cyc.rational(-1)}
    EH = ideal_from_span(H8, [H8.mult_vec({2: Cyc.one()}, H8.basis_vec(i))
                              for i in range(8)])
    # the stated EH is the Hopf core ideal, reached at the second power
    assert EH.rank == 4 and reference_ideal_flags(H8, EH)[1]
    assert chain.hopf_core.space.equals(EH)
    assert chain.ideals[1].space.equals(EH)
    # the witness, derived without the chain: (K-1)F is in R+H, kills F-bar,
    # and lies outside EH
    assert Q.project(km1_f) == {}
    assert Q.project(H8.mult_vec(F, km1_f)) == {}
    assert not EH.contains(km1_f)
    # so Ann Q = EH + C(K-1)F strictly contains EH
    ann = chain.ideals[0].space
    assert ann.rank == 5 and reference_ideal_flags(H8, ann) == (True, False)
    assert EH <= ann and ann.contains(km1_f)
    assert ann.equals(ideal_from_span(H8, EH.basis_rows() + [km1_f]))
    assert chain.ell_q == 2
    report(8, "8-dim pair: Ann Q = EH + C(K-1)F (dim 5, stated EH has dim 4), "
              "ell_Q = 2, Hopf core EH; (K-1)F kills Q = span{1, F}")


def test_criterion_09_integral_frobenius_equivalence(uq2, uq3):
    cases = 0
    for name, G, H in corpus_pairs_reps(24):
        HG = cached_group_algebra(G)
        emb = subgroup_embedding(HG, G, H)
        rep = integrals_and_modular(HG, emb, quotient_module(HG, emb))
        # the equivalence is asserted inside; re-state it explicitly
        assert bool(rep.q_integral_basis) == rep.frobenius, (name, H.order)
        cases += 1
    for hopf, subs in (uq2, uq3):
        for nm, emb in sorted(subs.items()):
            rep = integrals_and_modular(hopf, emb, quotient_module(hopf, emb))
            assert bool(rep.q_integral_basis) == rep.frobenius, (hopf.dim, nm)
            cases += 1
    report(9, f"nonzero integral in Q iff m_H|_R = m_R on {cases} Hopf pairs "
              f"(group pairs, 8-dim, 27-dim with R1/R2/B)")


def test_criterion_10_group_algebra_hopf_core():
    pairs = corpus_pairs_reps(24)
    for name, G, H in pairs:
        HG = cached_group_algebra(G)
        emb = subgroup_embedding(HG, G, H)
        Q = quotient_module(HG, emb)
        chain = annihilator_chain(Q)
        assert chain.hopf_core is chain.ideals[-1], (name, H.order)
        core = core_and_witness(G, H).core
        target = augmentation_core_ideal(HG, G, core)
        assert chain.hopf_core.space.equals(target), (name, H.order)
    report(10, f"Hopf core ideal = k core^+ kG on {len(pairs)} pair classes, "
               f"core computed independently by the group engine")


def test_criterion_11_conjecture_sweep(sweep24, capsys):
    assert all(r.conjecture_ok for r in sweep24.rows)
    assert sweep24.violations == []
    rc = run(AnalysisRequest(mode="sweep", max_order=24, conjecture=True))
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 violations" in out
    report(11, f"sweep --max-order 24 --conjecture: zero violations of "
               f"d_0 <= d_h over {len(sweep24.rows)} pairs, exit 0")


def test_criterion_12_property_suites(s3, a4, uq2, uq3):
    t0 = time.monotonic()
    # orthogonality of every computed character table
    for name, G in catalog(24):
        group_table(name, G).verify()
    # Hopf axioms of every constructed algebra in this run
    uq2[0].verify()
    uq3[0].verify()
    for _, G in catalog(12):
        cached_group_algebra(G).verify()
    # Nichols-Zoeller divisibility across the corpus
    for name, G, H in corpus_pairs_reps(16):
        HG = cached_group_algebra(G)
        emb = subgroup_embedding(HG, G, H)
        Q = quotient_module(HG, emb)
        assert Q.dim_q * emb.dim == HG.dim
    # chain monotonicity (annihilators descending, trace ideals ascending)
    chain_cases = [(s3, s3.subgroup_generated([perm(3, (1, 2))])),
                   (s3, s3.subgroup_generated([perm(3, (1, 2, 3))])),
                   (a4, a4.subgroup_generated([perm(4, (1, 2, 3))]))]
    for G, H in chain_cases:
        HG = cached_group_algebra(G)
        emb = subgroup_embedding(HG, G, H)
        Q = quotient_module(HG, emb)
        chain = annihilator_chain(Q)
        for a, b in zip(chain.ideals, chain.ideals[1:]):
            assert b.space <= a.space
        rep = integrals_and_modular(HG, emb, Q)
        ti = trace_ideals(HG, rep, chain)
        for a, b in zip(ti, ti[1:]):
            assert a.space <= b.space
    Q8 = quotient_module(uq2[0], uq2[1]["R2"])
    ch8 = annihilator_chain(Q8)
    for a, b in zip(ch8.ideals, ch8.ideals[1:]):
        assert b.space <= a.space
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(12, f"orthogonality, Hopf axioms, dimension divisibility and chain "
               f"monotonicity, all exact ({elapsed:.1f}s)")
