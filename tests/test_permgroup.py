import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (conjugate_subgroup, make_a4, make_a5, make_s3, make_s4, make_s5,
                     perm, reference_conjugates, reference_subgroups)
from subdepth import permgroup
from subdepth.corpus import catalog
from subdepth.mackey import mackey_restrict, q_tensor_decomposition
from subdepth.permgroup import (GroupTooLargeError, Permutation, SubgroupHandle,
                                core_and_witness, depth_one_adjoint_test,
                                double_cosets, enumerate_group, group_from_json,
                                intersection_chain)


def test_permutation_basics():
    p = perm(4, (1, 2, 3))
    q = perm(4, (1, 2))
    assert (p * p * p).is_identity()
    assert p * p.inverse() == Permutation.identity(4)
    assert p.order() == 3 and q.order() == 2
    with pytest.raises(ValueError):
        Permutation([1, 1, 3])


@given(st.permutations(list(range(1, 6))), st.permutations(list(range(1, 6))),
       st.permutations(list(range(1, 6))))
@settings(max_examples=50, deadline=None)
def test_composition_associative_sampled(a, b, c):
    pa, pb, pc = Permutation(a), Permutation(b), Permutation(c)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert (pa * pb).inverse() == pb.inverse() * pa.inverse()


def _order_by_repeated_products(g):
    n, power = 1, g
    while not power.is_identity():
        power = power * g
        n += 1
    return n


def test_order_is_the_repeated_product_order():
    groups = [("S5", make_s5()), *catalog(24)]
    for name, G in groups:
        for g in G.elements:
            assert g.order() == _order_by_repeated_products(g), (name, g)


def test_product_of_different_degrees_raises():
    with pytest.raises(ValueError, match="degrees 3 and 4"):
        perm(3, (1, 2)) * perm(4, (1, 2, 3))
    with pytest.raises(ValueError):
        # the images of the smaller one would index the larger validly
        Permutation.identity(2) * perm(3, (1, 2))


def test_conjugate_by_is_the_product(s4):
    for h in s4.elements:
        for g in s4.elements:
            c = h.conjugate_by(g)
            assert c == g.inverse() * h * g
            assert c == Permutation(c.images) and type(c.images) is tuple


def test_conjugate_by_a_different_degree_raises():
    with pytest.raises(ValueError, match="degree 3 by one of degree 4"):
        perm(3, (1, 2)).conjugate_by(perm(4, (1, 2, 3)))
    with pytest.raises(ValueError):
        Permutation.identity(2).conjugate_by(perm(3, (1, 2)))


def test_products_and_inverses_equal_validated_permutations(s4):
    for a in s4.elements:
        for b in (a.inverse(), *s4.elements[::5]):
            c = a * b
            for x in (c, a.inverse()):
                y = Permutation(x.images)
                assert x == y and hash(x) == hash(y)
                assert type(x.images) is tuple


def test_enumerate_s3():
    G = make_s3()
    assert G.order == 6
    assert G.degree == 3


def test_enumerate_a4():
    assert make_a4().order == 12


def test_enumerate_trivial():
    G = enumerate_group([], degree=3)
    assert G.order == 1


def test_enumeration_cap():
    with pytest.raises(GroupTooLargeError):
        enumerate_group([perm(5, (1, 2)), perm(5, (1, 2, 3, 4, 5))], cap=100)


def test_enumeration_cap_counts_the_generators():
    # V4 from its three non-identity elements has 4 elements, one above the
    # cap, with every element a generator
    with pytest.raises(GroupTooLargeError, match="exceeded the cap of 3"):
        enumerate_group([perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4)),
                         perm(4, (1, 4), (2, 3))], cap=3)
    with pytest.raises(GroupTooLargeError, match="exceeded the cap of 1"):
        enumerate_group([perm(2, (1, 2))], cap=1)
    assert enumerate_group([perm(2, (1, 2))], cap=2).order == 2


def test_degree_mismatch():
    with pytest.raises(ValueError):
        enumerate_group([perm(3, (1, 2)), perm(4, (1, 2, 3, 4))])


def test_conjugacy_classes_s3():
    sizes = sorted(c.size for c in make_s3().conjugacy_classes())
    assert sizes == [1, 2, 3]


def test_conjugacy_classes_abelian_are_singletons():
    G = enumerate_group([perm(5, (1, 2, 3, 4, 5))])
    assert all(c.size == 1 for c in G.conjugacy_classes())


def test_conjugacy_classes_a5():
    G = make_a5()
    sizes = sorted(c.size for c in G.conjugacy_classes())
    assert sizes == [1, 12, 12, 15, 20]
    assert sum(sizes) == 60


def test_class_sizes_divide_group_order(s4):
    for c in s4.conjugacy_classes():
        assert s4.order % c.size == 0


def test_subgroup_lattice_counts(s4, a5):
    assert len(make_s3().subgroups()) == 6
    assert len(s4.subgroups()) == 30
    assert len(a5.subgroups()) == 59


@pytest.mark.parametrize("name", ["S4", "A4", "D16", "Q8", "C2xD8", "A5"])
def test_subgroups_match_the_all_g_reference(name):
    # one closure per right coset finds the same subgroups in the same order
    G = make_a5() if name == "A5" else dict(catalog(24))[name]
    assert [H.elements for H in G.subgroups()] == \
        [H.elements for H in reference_subgroups(G)]


def test_lattice_sizes_past_the_catalog(s5):
    psl27 = enumerate_group([perm(7, (1, 2, 3, 4, 5, 6, 7)), perm(7, (1, 2), (3, 6))])
    assert psl27.order == 168
    # A6 and S6 are regression values from this code, not from a table
    a6 = enumerate_group([perm(6, (1, 2, 3)), perm(6, (2, 3, 4, 5, 6))])
    s6 = enumerate_group([perm(6, (1, 2)), perm(6, (1, 2, 3, 4, 5, 6))])
    assert (a6.order, s6.order) == (360, 720)
    for G, subgroups, classes in ((s5, 156, 19), (psl27, 179, 15), (a6, 501, 22),
                                  (s6, 1455, 56)):
        assert len(G.subgroups()) == subgroups
        found = G.subgroup_classes()
        assert len(found) == classes
        # the member lists partition the lattice positions
        assert sorted(i for _, members in found for i in members) == list(range(subgroups))


@pytest.mark.parametrize("make, closures", [(make_s4, 73), (make_s5, 496)])
def test_the_search_closes_one_g_per_coset_of_each_class_representative(
        monkeypatch, make, closures):
    # sum of |G:S| - 1 over the representatives S; over every subgroup it
    # would be 204 on S4 and 4169 on S5
    calls = []
    dimino = permgroup._dimino

    def counted(*args):
        calls.append(args)
        return dimino(*args)

    monkeypatch.setattr(permgroup, "_dimino", counted)
    G = make()
    reps = [H for H, _ in G.subgroup_classes()]
    assert len(calls) == sum(G.order // H.order - 1 for H in reps) == closures


def _derived_subgroups(G):
    """The trusted handles that src/ derives from one subgroup H per class:
    the core of H, the summands of Q^(x3) and of the Mackey restrictions of
    every Q_K to H."""
    reps = [H for H, _ in G.subgroup_classes()]
    for H in reps:
        yield core_and_witness(G, H).core
        yield from q_tensor_decomposition(G, H, 3).counts
        for K in reps:
            yield from mackey_restrict(G, K, H).counts


def test_lattice_generating_sets_match_the_permutation_route():
    # the handles of the lattice prove closure on the Cayley table, and the
    # cores and Mackey summands take their greedy sets lazily; the greedy
    # generating set and the bitset are those of a handle validated from
    # the elements
    derived = [H for _, G in catalog(16) for H in _derived_subgroups(G)]
    lattice = [H for _, G in catalog(24) for H in G.subgroups()]
    for H in lattice + derived:
        ref = SubgroupHandle(H.parent, H.elements)
        assert H == ref and H.order == ref.order
        assert H.generating_set() == ref.generating_set()
        assert H.bits == sum(1 << i for i, g in enumerate(H.parent.elements)
                             if g in ref.elements)


def test_classes_are_the_conjugation_orbits():
    # each class is {x^-1 g x : x in G} for its least member g, with its
    # members sorted, in order of g; its bitset and class_index agree
    for _, G in [*catalog(24), ("A5", make_a5())]:
        classes = G.conjugacy_classes()
        assert [c.rep for c in classes] == sorted(c.rep for c in classes)
        assert sorted(g for c in classes for g in c.elements) == list(G.elements)
        for i, cls in enumerate(classes):
            orbit = {x.inverse() * cls.rep * x for x in G.elements}
            assert cls.elements == tuple(sorted(orbit)) and cls.rep == cls.elements[0]
            assert cls.size == len(orbit)
            assert cls.bits == G.bitset(cls.elements)
            assert all(G.class_index(g) == i for g in cls.elements)


@pytest.mark.parametrize("name", ["S4", "Q8", "C2xD8", "A5"])
def test_cayley_table_and_conjugation_action_are_the_products(name):
    G = make_a5() if name == "A5" else dict(catalog(24))[name]
    cols = G._cayley_columns()
    for j, b in enumerate(G.elements):
        assert [G.elements[k] for k in cols[j]] == [a * b for a in G.elements]
    for s, act in zip(G.generators, G.conjugation_action()):
        assert [G.elements[k] for k in act] == [a.conjugate_by(s) for a in G.elements]


@pytest.mark.parametrize("cycles", [
    [[(1, 2)], [(3, 4)]],                 # (1 2)(3 4) missing
    [[(1, 2)], [(1, 3)]],                 # order 3 divides 24, not a group
    [[(1, 2, 3)], [(1, 3, 2)], [(1, 2)], [(1, 3)], [(2, 3)], [(1, 4)]],
], ids=["klein-half", "two-transpositions", "s3-plus-one"])
def test_subgroup_rejects_a_set_not_closed_under_products(s4, cycles):
    # each set holds the identity and is closed under inverses
    elems = [s4.identity] + [perm(4, *c) for c in cycles]
    assert all(g.inverse() in elems for g in elems)
    with pytest.raises(ValueError, match="not closed under composition"):
        SubgroupHandle(s4, elems)


def test_subgroup_error_messages(s4):
    with pytest.raises(ValueError, match="must contain the identity"):
        SubgroupHandle(s4, [perm(4, (1, 2))])
    with pytest.raises(ValueError, match="not closed under inverse"):
        SubgroupHandle(s4, [s4.identity, perm(4, (1, 2, 3))])
    with pytest.raises(ValueError, match="must lie in the parent group"):
        SubgroupHandle(make_s3(), [perm(4, (1, 2))])


def test_generating_set_is_greedy_and_generates(s4):
    for H in s4.subgroups():
        gens = H.generating_set()
        assert s4.subgroup_generated(gens).elements == H.elements
        if H.order == 1:
            assert gens == (s4.identity,)
            continue
        for k, g in enumerate(gens):
            earlier = s4.subgroup_generated(list(gens[:k]) or [s4.identity])
            assert g not in earlier.elements
            # the greedy choice is the least element outside the earlier span
            assert g == min(x for x in H.elements if x not in earlier.elements)


@pytest.mark.parametrize("name", ["S4", "A4", "Q8", "C2xD8", "A5"])
def test_conjugates_match_the_all_g_reference(name):
    # the generator orbit reaches every conjugate, each with a true witness
    G = make_a5() if name == "A5" else dict(catalog(24))[name]
    for H in G.subgroups():
        orbit = G.conjugates(H)
        assert orbit.keys() == reference_conjugates(G, H).keys()
        for bits, g in orbit.items():
            assert conjugate_subgroup(H, g).bits == bits


def test_core_and_witness_conjugates_at_the_generators(monkeypatch, a5):
    # the 5 conjugates of A4 in A5 are reached by walking the conjugation
    # action of the 2 generators on the 60 elements: at most 2 * 60 = 120
    # element conjugations, where conjugating A4 by all 60 elements of A5
    # would take 720
    A4 = a5.subgroup_generated([perm(5, (1, 2, 3)), perm(5, (1, 2), (3, 4))])
    conjugate_by = Permutation.conjugate_by
    calls = []

    def counted(p, g):
        calls.append(g)
        return conjugate_by(p, g)

    monkeypatch.setattr(Permutation, "conjugate_by", counted)
    cw = core_and_witness(a5, A4)
    assert len(calls) <= len(a5.generators) * a5.order == 120
    assert cw.core.order == 1 and cw.r == 2


def test_core_and_witness_normal():
    G = make_s3()
    A3 = G.subgroup_generated([perm(3, (1, 2, 3))])
    cw = core_and_witness(G, A3)
    assert cw.r == 0 and cw.core.elements == A3.elements


def test_core_and_witness_sn():
    # point stabilizers in S_n intersect to the trivial core in n-2 steps
    G = make_s3()
    H = G.subgroup_generated([perm(3, (1, 2))])
    assert core_and_witness(G, H).r == 1
    G4 = make_s4()
    H3 = G4.subgroup_generated([perm(4, (1, 2)), perm(4, (1, 2, 3))])
    assert core_and_witness(G4, H3).r == 2


def test_core_and_witness_ti_pair():
    G = make_a4()
    C3 = G.subgroup_generated([perm(4, (1, 2, 3))])
    cw = core_and_witness(G, C3)
    assert cw.r == 1 and cw.core.order == 1


def test_core_properties(s4):
    for H in s4.subgroups()[:12]:
        cw = core_and_witness(s4, H)
        assert all(conjugate_subgroup(cw.core, g) == cw.core for g in s4.generators)
        assert set(cw.core.elements) <= set(H.elements)
        # minimality: any shorter tuple cannot reach the core
        if cw.r >= 1:
            inter = set(H.elements)
            for g in cw.witness[:-1]:
                inter &= set(conjugate_subgroup(H, g).elements)
            assert len(inter) > cw.core.order


def test_double_cosets_s2_s3():
    G = make_s3()
    H = G.subgroup_generated([perm(3, (1, 2))])
    dc = double_cosets(G, H, H)
    assert len(dc.reps) == 2 and sorted(dc.sizes) == [2, 4]
    assert sum(dc.sizes) == G.order


def test_double_cosets_full_group():
    G = make_s3()
    whole = SubgroupHandle(G, G.elements)
    dc = double_cosets(G, whole, G.subgroup_generated([perm(3, (1, 2))]))
    assert len(dc.reps) == 1


def test_double_cosets_normal_equals_cosets():
    G = make_s3()
    A3 = G.subgroup_generated([perm(3, (1, 2, 3))])
    dc = double_cosets(G, A3, A3)
    assert len(dc.reps) == G.order // A3.order


def test_double_coset_sizes_partition(a4):
    subs = a4.subgroups()
    for K in subs[:6]:
        for H in subs[:6]:
            dc = double_cosets(a4, K, H)
            assert sum(dc.sizes) == a4.order


def test_intersection_chain_normal():
    G = make_s3()
    A3 = G.subgroup_generated([perm(3, (1, 2, 3))])
    ic = intersection_chain(G, A3)
    assert ic.d_c_ev == 2
    assert not ic.d_c_is_one  # S3 != A3 C(A3)


def test_intersection_chain_ti():
    G = make_a4()
    C3 = G.subgroup_generated([perm(4, (1, 2, 3))])
    ic = intersection_chain(G, C3)
    assert ic.d_c_ev == 4
    assert len(ic.chain[1]) == 2  # {H, E}


def test_intersection_chain_sn():
    # S_{n-1} <= S_n stabilizes after n-1 steps, d_c_ev = 2(n-1)
    G = make_s4()
    H = G.subgroup_generated([perm(4, (1, 2)), perm(4, (1, 2, 3))])
    assert intersection_chain(G, H).d_c_ev == 6


def test_d_c_is_one_in_abelian_product():
    G = enumerate_group([perm(4, (1, 2)), perm(4, (3, 4))])
    H = G.subgroup_generated([perm(4, (1, 2))])
    assert intersection_chain(G, H).d_c_is_one


def test_intersection_chain_monotone(s4):
    H = s4.subgroup_generated([perm(4, (1, 2, 3, 4))])
    ic = intersection_chain(s4, H)
    for a, b in zip(ic.chain, ic.chain[1:]):
        assert a <= b


def test_depth_one_adjoint():
    G = make_s3()
    A3 = G.subgroup_generated([perm(3, (1, 2, 3))])
    assert not depth_one_adjoint_test(G, A3)
    assert depth_one_adjoint_test(G, G.trivial_subgroup())
    V = enumerate_group([perm(4, (1, 2)), perm(4, (3, 4))])
    H = V.subgroup_generated([perm(4, (1, 2))])
    assert depth_one_adjoint_test(V, H)


def test_group_json_parsing():
    G, subs = group_from_json({
        "degree": 3,
        "generators": [[2, 1, 3], [2, 3, 1]],
        "subgroups": {"H": [[2, 1, 3]]},
    })
    assert G.order == 6 and subs["H"].order == 2
    with pytest.raises(ValueError):
        group_from_json({"generators": [[2, 1]]})
    with pytest.raises(ValueError):
        group_from_json({"degree": 2, "generators": [],
                         "subgroups": {"H": [[2, 1]]}})
