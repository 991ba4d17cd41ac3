"""Standalone property suites: orthogonality of every computed table, Hopf
axioms of every constructed algebra, dimension divisibility, chain
monotonicity, and the graph/pattern cross-checks, all exact."""

import pytest

from helpers import (cached_group_algebra, corpus_pairs_reps,
                     faithfulness_cross_check, group_table, pair_report, perm,
                     reference_ideal_flags)
from subdepth.chartab import permutation_character
from subdepth.corpus import catalog
from subdepth.depthmat import ell_from_trivial_row
from subdepth.exactalg import Cyc
from subdepth.hopfcore import (annihilator_chain, integrals_and_modular,
                               quotient_module, subgroup_embedding, trace_ideals)


@pytest.fixture(scope="module")
def corpus24():
    return catalog(24)


def test_orthogonality_of_every_corpus_table(corpus24):
    for name, G in corpus24:
        tab = group_table(name, G)
        tab.verify()   # row orthogonality and the degree sum, exactly
        assert tab.exponent == G.exponent()


def test_hopf_axioms_of_constructed_algebras(corpus24, uq2, uq3):
    # construction verifies eagerly; re-run the checks explicitly here
    for name, G in corpus24:
        if G.order <= 12:
            cached_group_algebra(G).verify()
    cached_group_algebra(dict(corpus24)["S4"]).verify()
    uq2[0].verify()
    uq3[0].verify()


def test_nichols_zoeller_divisibility(corpus24, uq2, uq3):
    for name, G in corpus24:
        if G.order > 16:
            continue
        H = cached_group_algebra(G)
        for S in G.subgroups():
            emb = subgroup_embedding(H, G, S)
            assert H.dim % emb.dim == 0
            Q = quotient_module(H, emb)
            assert Q.dim_q * emb.dim == H.dim
    for hopf, subs in (uq2, uq3):
        for emb in subs.values():
            assert hopf.dim % emb.dim == 0


def test_chain_monotonicity_samples(s3, s4, a4, uq2):
    cases = []
    H3 = cached_group_algebra(s3)
    for gens in ([perm(3, (1, 2))], [perm(3, (1, 2, 3))]):
        cases.append((s3, H3, s3.subgroup_generated(gens)))
    H4 = cached_group_algebra(a4)
    cases.append((a4, H4, a4.subgroup_generated([perm(4, (1, 2, 3))])))
    cases.append((a4, H4, a4.subgroup_generated([perm(4, (1, 2), (3, 4)),
                                                 perm(4, (1, 3), (2, 4))])))
    for G, H, S in cases:
        emb = subgroup_embedding(H, G, S)
        Q = quotient_module(H, emb)
        chain = annihilator_chain(Q)
        for a, b in zip(chain.ideals, chain.ideals[1:]):
            assert b.space <= a.space
        rep = integrals_and_modular(H, emb, Q)
        ti = trace_ideals(H, rep, chain)
        for a, b in zip(ti, ti[1:]):
            assert a.space <= b.space
        # both chains consist of two-sided ideals
        assert all(reference_ideal_flags(H, i.space)[0]
                   for i in chain.ideals + ti)
        assert faithfulness_cross_check(H, Q, chain.ideals[0].dim)
    H8, subs8 = uq2
    Q8 = quotient_module(H8, subs8["R2"])
    ch8 = annihilator_chain(Q8)
    for a, b in zip(ch8.ideals, ch8.ideals[1:]):
        assert b.space <= a.space


def test_minimal_polynomial_shape_on_corpus(sweep24):
    # the sweep checks Cm(C) = 0, minpoly_C in {m, Xm}, PF root = index and
    # the class-formula oracle on every pair; zero violations is the contract
    assert sweep24.violations == []
    assert all(r.eigen_ok and r.pf_ok for r in sweep24.rows)


def test_depth_and_h_depth_within_two(sweep24):
    for r in sweep24.rows:
        assert r.d_0 is not None and r.d_h is not None
        assert abs(r.d_0 - r.d_h) <= 2


def test_graph_diameter_matches_pattern_depths():
    for name, G, H in corpus_pairs_reps(16):
        M, rep = pair_report(G, H, tabG=group_table(name, G))
        if H.order == G.order:
            continue
        assert rep.white_diameter_plus_one == rep.d_odd or rep.d_odd == 1
        assert rep.black_diameter_plus_one == rep.d_h


def test_semisimple_ell_equals_pattern_h_depth():
    for name, G, H in corpus_pairs_reps(16):
        tab = group_table(name, G)
        M, rep = pair_report(G, H, tabG=tab)
        ell = ell_from_trivial_row(rep.C, tab.trivial_index())
        if rep.d_h == 1:
            assert ell == 1
        else:
            assert rep.d_h == 2 * ell + 1


def test_counit_compatibility_on_quotients(s3):
    H = cached_group_algebra(s3)
    for S in s3.subgroups():
        emb = subgroup_embedding(H, s3, S)
        Q = quotient_module(H, emb)
        for b in range(Q.dim_q):
            for h in range(H.dim):
                img = Q.act({b: Cyc.one()}, H.basis_vec(h))
                eps = Cyc.zero()
                for r, c in img.items():
                    eps = eps + c * Q.counit_q[r]
                assert eps == Q.counit_q[b] * H.counit[h]


def test_permutation_character_positivity():
    for name, G, H in corpus_pairs_reps(12):
        pc = permutation_character(G, H)
        assert pc[0] == G.order // H.order
        assert all(v >= 0 for v in pc)
