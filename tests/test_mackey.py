import dataclasses
import json
from fractions import Fraction

import pytest

from helpers import (corpus_pairs_full, induce_class_function, make_a4, make_a5,
                     make_s4, perm, reference_merged, reference_permutation_character,
                     reference_tensor_entries)
from subdepth import mackey
from subdepth.chartab import permutation_character
from subdepth.cli import main
from subdepth.exactalg import Cyc
from subdepth.mackey import (BudgetExceededError, combinatorial_bound_check,
                             core_depth_bound, hecke_algebra, mackey_restrict,
                             q_tensor_decomposition, tensor_summand_count)
from subdepth.permgroup import SubgroupHandle, double_cosets


def summand_orders(ms):
    """The orders of the summand subgroups, one per copy."""
    return sorted(S.order for S, m in ms.counts.items() for _ in range(m))


def test_tensor_power_one_is_q(s3):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    ms = q_tensor_decomposition(s3, H, 1)
    assert ms.counts == {H: 1}


def test_tensor_power_normal_pair(s3):
    A3 = s3.subgroup_generated([perm(3, (1, 2, 3))])
    ms = q_tensor_decomposition(s3, A3, 2)
    assert ms.counts == {A3: s3.order // A3.order}


def test_tensor_power_ti_pair():
    G = make_a4()
    C3 = G.subgroup_generated([perm(4, (1, 2, 3))])
    ms = q_tensor_decomposition(G, C3, 2)
    assert summand_orders(ms) == [1, 3]  # one copy of kG (regular) and one of Q


def test_dimension_bookkeeping(s4):
    for H in s4.subgroups()[::5]:
        for n in (1, 2, 3):
            ms = q_tensor_decomposition(s4, H, n)
            assert sum(m * (s4.order // S.order) for S, m in ms.counts.items()) \
                == (s4.order // H.order) ** n


def test_character_oracle(s3, s4):
    for G in (s3, s4):
        for H in G.subgroups()[::4]:
            pc = permutation_character(G, H)
            for n in (1, 2, 3):
                ms = q_tensor_decomposition(G, H, n)
                assert ms.character() == tuple(v ** n for v in pc)


def test_budget_exceeded(s4, monkeypatch):
    H = s4.trivial_subgroup()
    monkeypatch.setattr(mackey, "SUMMAND_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        q_tensor_decomposition(s4, H, 3)


def group_pairs_pairs():
    """D8<S4, A4<A5 and C5<A5, the pairs of the benchmark's group_pairs."""
    s4, a5 = make_s4(), make_a5()
    return {
        "D8<S4": (s4, s4.subgroup_generated([perm(4, (1, 2, 3, 4)), perm(4, (1, 3))])),
        "A4<A5": (a5, a5.subgroup_generated([perm(5, (1, 2, 3)),
                                             perm(5, (1, 2), (3, 4))])),
        "C5<A5": (a5, a5.subgroup_generated([perm(5, (1, 2, 3, 4, 5))])),
    }


def test_summand_count_is_the_number_of_entries():
    for name, (G, H) in group_pairs_pairs().items():
        pi = permutation_character(G, H)
        for n in (1, 2, 3, 4):
            ms = q_tensor_decomposition(G, H, n)
            assert tensor_summand_count(G, pi, n) == sum(ms.counts.values()), (name, n)
    G, H = group_pairs_pairs()["A4<A5"]
    pi = permutation_character(G, H)
    assert [tensor_summand_count(G, pi, n) for n in (1, 2, 3, 4, 6, 12)] == \
        [1, 2, 5, 16, 282, 4070376]


def test_budget_fires_before_any_tensor_step(tmp_path, monkeypatch, capsys):
    G, H = group_pairs_pairs()["A4<A5"]
    path = tmp_path / "a4_a5.json"
    path.write_text(json.dumps({
        "degree": 5, "generators": [list(g.images) for g in G.generators],
        "subgroups": {"H": [list(h.images) for h in H.generating_set()]}}))
    calls = []

    def recording(G, K, H):
        calls.append((K.order, H.order))
        return double_cosets(G, K, H)

    monkeypatch.setattr(mackey, "double_cosets", recording)
    assert main(["mackey", str(path), "--power", "12"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Q^(x12) has at least 4070376 summands, which "
                          "exceeds the budget 1000000")
    assert calls == []  # no double cosets at all


def test_budget_judges_a_huge_power_at_a_small_one(monkeypatch):
    G, H = group_pairs_pairs()["A4<A5"]
    powers = []

    def recording(G, pi, n):
        powers.append(n)
        return tensor_summand_count(G, pi, n)

    monkeypatch.setattr(mackey, "tensor_summand_count", recording)
    with pytest.raises(BudgetExceededError):
        q_tensor_decomposition(G, H, 10 ** 9)
    assert powers == [21]  # (10^6).bit_length() + 1
    whole = SubgroupHandle(G, G.elements)
    assert q_tensor_decomposition(G, whole, 40).counts == {whole: 1}


def test_whole_group_power_stops_at_a_fixed_point(monkeypatch, a5):
    # Q_G = k is its own tensor square, so the first step returns its input
    # and no later step runs
    calls = []

    def counted(G, K, H):
        calls.append((K.order, H.order))
        assert len(calls) <= 2, "a step ran past the fixed point"
        return double_cosets(G, K, H)

    monkeypatch.setattr(mackey, "double_cosets", counted)
    whole = SubgroupHandle(a5, a5.elements)
    assert q_tensor_decomposition(a5, whole, 10 ** 6).counts == {whole: 1}


def assert_matches_the_flat_expansion(G, H, n, pcs):
    """merged() and character() of the counted multiset against the labelled
    one-entry-per-summand expansion; pcs caches reference characters by bits.
    Returns the number of summands."""
    ms = q_tensor_decomposition(G, H, n)
    subs = [S for _, S in reference_tensor_entries(G, H, n)]
    assert [(rep.bits, m) for rep, m in ms.merged()] == reference_merged(G, subs)
    acc = [0] * len(G.conjugacy_classes())
    for S in subs:
        if S.bits not in pcs:
            pcs[S.bits] = reference_permutation_character(G, S)
        acc = [a + v for a, v in zip(acc, pcs[S.bits])]
    assert ms.character() == tuple(acc)
    return len(subs)


def test_counts_match_the_flat_expansion_on_the_catalog():
    pcs: dict[int, dict] = {}
    for name, G, H in corpus_pairs_full(24):
        for n in (1, 2, 3):
            assert_matches_the_flat_expansion(G, H, n, pcs.setdefault(id(G), {}))


def test_counts_match_the_flat_expansion_on_group_pairs():
    pcs: dict[int, dict] = {}
    sizes = {}
    for name, (G, H) in group_pairs_pairs().items():
        for n in range(1, 7):
            sizes[name, n] = assert_matches_the_flat_expansion(
                G, H, n, pcs.setdefault(id(G), {}))
    assert sizes["A4<A5", 6] == 282


def test_mackey_restrict_examples(s3):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    full = mackey_restrict(s3, SubgroupHandle(s3, s3.elements), H)
    assert full.counts == {H: 1}
    A3 = s3.subgroup_generated([perm(3, (1, 2, 3))])
    normal = mackey_restrict(s3, A3, A3)
    assert normal.counts == {A3: 2}


def test_mackey_restrict_ti():
    G = make_a4()
    C3 = G.subgroup_generated([perm(4, (1, 2, 3))])
    ms = mackey_restrict(G, C3, C3)
    assert summand_orders(ms) == [1, 3]


def test_mackey_restrict_dimensions(s4):
    subs = s4.subgroups()
    for K in subs[::6]:
        for H in subs[::7]:
            ms = mackey_restrict(s4, K, H)
            assert sum(m * (H.order // S.order) for S, m in ms.counts.items()) \
                == s4.order // K.order


def test_restriction_counts_match_the_flat_list(s4):
    # one summand K^x cap H per (K,H) double coset, grouped by conjugacy
    subs = s4.subgroups()
    for K in subs[::3]:
        for H in subs[::4]:
            flat = [K.conjugate(x).intersect(H) for x in double_cosets(s4, K, H).reps]
            ms = mackey_restrict(s4, K, H)
            assert [(rep.bits, m) for rep, m in ms.merged()] == \
                reference_merged(s4, flat)


def test_transitivity_of_induction(s4):
    # char(Q^G_K) = (char Q^R_K) induced to G for towers K <= R <= G
    R = s4.subgroup_generated([perm(4, (1, 2)), perm(4, (1, 2, 3))])
    K = R.parent.subgroup_generated([perm(4, (1, 2))])
    Rgrp = R.as_group()
    Kin = SubgroupHandle(Rgrp, K.elements)
    inner = permutation_character(Rgrp, Kin)
    lifted = induce_class_function(s4, R, [Cyc.rational(v) for v in inner])
    outer = permutation_character(s4, K)
    assert tuple(v.as_fraction() for v in lifted) == outer


def test_core_depth_bounds(s3, s4):
    A3 = s3.subgroup_generated([perm(3, (1, 2, 3))])
    b = core_depth_bound(s3, A3)
    assert b.r == 0 and b.bound_dh == 3
    H = s3.subgroup_generated([perm(3, (1, 2))])
    b2 = core_depth_bound(s3, H, d_h=5)
    assert b2.r == 1 and b2.bound_dh == 5
    G = make_a4()
    C3 = G.subgroup_generated([perm(4, (1, 2, 3))])
    b3 = core_depth_bound(G, C3)
    assert b3.r == 1 and b3.bound_dh == 5
    with pytest.raises(AssertionError):
        core_depth_bound(s3, H, d_h=99)


def test_hecke_s2_s3(s3):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    hk = hecke_algebra(s3, H)
    assert hk.dimension == 2
    assert hk.is_commutative()
    assert hk.indices == (1, 2)


def test_hecke_whole_group(s3):
    hk = hecke_algebra(s3, SubgroupHandle(s3, s3.elements))
    assert hk.dimension == 1
    assert hk.mu[0][0] == {0: Fraction(1)}


def test_hecke_trivial_subgroup_is_group_algebra(s3):
    hk = hecke_algebra(s3, s3.trivial_subgroup())
    assert hk.dimension == 6
    # structure constants of the group algebra: b_i b_j = b_{g_i g_j}
    for i, gi in enumerate(hk.reps):
        for j, gj in enumerate(hk.reps):
            k = hk.reps.index(gi * gj)
            assert hk.mu[i][j] == {k: Fraction(1)}


@pytest.mark.parametrize("coeffs", [(1, 1), (1, -1), (2,)],
                         ids=["sum", "difference", "double"])
def test_hecke_verify_rejects_a_product_of_several_terms(s3, coeffs):
    # over the trivial subgroup the Hecke algebra is kS3; a corrupted
    # product e_2 e_3 breaks (e_2 e_3) e_k = e_2 (e_3 e_k) at some k
    hk = hecke_algebra(s3, s3.trivial_subgroup())
    (k, _), = hk.mu[2][3].items()
    mu = [list(row) for row in hk.mu]
    mu[2][3] = {(k + t) % 6: Fraction(c) for t, c in enumerate(coeffs)}
    with pytest.raises(AssertionError,
                       match=r"Hecke multiplication not associative at \(\d+,\d+,\d+\)"):
        mackey._verify_hecke(dataclasses.replace(hk, mu=mu))


def test_hecke_constants_are_ints_respecting_the_augmentation(s4):
    # b_i b_j = sum_k mu_ijk b_k, and the augmentation takes b_i to the
    # index of its double coset, so sum_k mu_ijk ind_k = ind_i ind_j
    for H in s4.subgroups()[::3]:
        hk = hecke_algebra(s4, H)
        ind = hk.indices
        for i in range(hk.dimension):
            for j in range(hk.dimension):
                prod = hk.mu[i][j]
                assert all(type(v) is int and v > 0 for v in prod.values())
                assert sum(v * ind[k] for k, v in prod.items()) == ind[i] * ind[j]


def test_hecke_dimension_counts_double_cosets(s4):
    from subdepth.permgroup import double_cosets
    for H in s4.subgroups()[::5]:
        hk = hecke_algebra(s4, H)
        assert hk.dimension == len(double_cosets(s4, H, H).reps)


def test_combinatorial_bound(s3, s4):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    rep = combinatorial_bound_check(s3, H, d_h=5)
    assert rep.d_c_ev == 4
    A3 = s3.subgroup_generated([perm(3, (1, 2, 3))])
    rep2 = combinatorial_bound_check(s3, A3, d_h=3)
    assert rep2.d_c_ev == 2
    H3 = s4.subgroup_generated([perm(4, (1, 2)), perm(4, (1, 2, 3))])
    rep3 = combinatorial_bound_check(s4, H3, d_h=7)
    assert rep3.d_c_ev == 6  # tight
    with pytest.raises(AssertionError):
        combinatorial_bound_check(s3, H, d_h=7)


def test_decomposition_json(s3):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    ms = q_tensor_decomposition(s3, H, 2)
    data = ms.to_json(ms.merged())
    assert sorted(d["index"] for d in data) == [3, 6]
    assert all(set(d) == {"subgroup_generators", "multiplicity", "index"}
               for d in data)
