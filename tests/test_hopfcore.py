import random
from fractions import Fraction

import pytest

from helpers import (augmentation_core_ideal, cached_group_algebra,
                     center_basis, faithfulness_cross_check, full_axioms_hold,
                     ideal_from_span, linear_disjoint_check, perm,
                     quotient_lift, reference_idealizer, reference_ideal_flags,
                     reference_module_hom_basis, reference_q_integrals,
                     reference_annihilator, reference_generators, reference_ideal,
                     reference_quotient_verify,
                     reference_right_integrals, reference_small_quantum_group_mult,
                     reference_tensor_power_action, regular_r_module,
                     tensor_power_character, trivial_r_module, ulbrich_verify,
                     unverified_copy)
from subdepth import hopfcore
from subdepth.corpus import catalog
from subdepth.exactalg import Cyc, RowSpace, scalar_from_string
from subdepth.hopfcore import (HopfAlgebraData, SubalgebraEmbedding,
                               TensorPowerModule, _apply_map, _frobenius_terms, _ideal,
                               _is_hopf_ideal, _is_two_sided, _projector,
                               _right_integrals,
                               annihilator_chain, build_group_algebra,
                               build_small_quantum_group, idealizer_and_endQ,
                               integrals_and_modular, module_hom_basis,
                               quotient_module, subgroup_embedding,
                               tensor_power_action, trace_ideals)
from subdepth.permgroup import core_and_witness, double_cosets, enumerate_group


def s3_pair(s3):
    H = cached_group_algebra(s3)
    R = subgroup_embedding(H, s3, s3.subgroup_generated([perm(3, (1, 2))]))
    return H, R


# -- constructors -------------------------------------------------------------

def test_trivial_group_algebra():
    G = enumerate_group([], degree=2)
    H = build_group_algebra(G)
    assert H.dim == 1


def test_c2_group_algebra():
    G = enumerate_group([perm(2, (1, 2))])
    H = build_group_algebra(G)
    assert H.dim == 2
    # commutative and cocommutative
    assert H.mult[0][1] == H.mult[1][0]
    assert all(H.comult[i] == {(i, i): Cyc.one()} for i in range(2))


def test_s3_group_algebra_integral(s3):
    H = cached_group_algebra(s3)
    _, R = s3_pair(s3)
    rep = integrals_and_modular(H, R, quotient_module(H, R))
    assert sorted(rep.t_H) == list(range(6))
    eps_t = sum((v.as_fraction() for v in rep.t_H.values()))
    assert eps_t == 6


def test_quantum_group_dimensions(uq2, uq3):
    H8, subs8 = uq2
    assert H8.dim == 8 and H8.field_order == 1
    assert subs8["R2"].dim == 4 and subs8["R1"].dim == 4 and subs8["B"].dim == 2
    H27, subs27 = uq3
    assert H27.dim == 27 and H27.field_order == 3
    assert subs27["R1"].dim == 9 and subs27["R2"].dim == 9 and subs27["B"].dim == 3


@pytest.mark.parametrize("name", ["uq2", "uq3"])
def test_precomputed_e_action_gives_the_reference_structure_constants(name, request):
    H, _ = request.getfixturevalue(name)
    n = {"uq2": 2, "uq3": 3}[name]
    ref = reference_small_quantum_group_mult(n)
    assert len(H.mult) == len(ref) == n ** 3
    for row, ref_row in zip(H.mult, ref):
        for got, want in zip(row, ref_row):
            assert got == want


def test_rational_structure_constants_have_order_one(uq3):
    H, _ = uq3
    one = H.mult[0][0][0]
    assert H.mult[0][0] == {0: Cyc.one()}
    assert one.order == 1 and one.coeffs == (1,)
    for row in H.mult:
        for prod in row:
            for c in prod.values():
                assert c.order == (1 if c.is_rational() else 3)


def test_quantum_group_bad_n():
    with pytest.raises(ValueError):
        build_small_quantum_group(4)


def _tampered(H, mult=None, antipode=None):
    return HopfAlgebraData(H.dim, H.field_order, H.labels, mult or H.mult, H.unit,
                           H.comult, H.counit, antipode or H.antipode)


@pytest.mark.parametrize("value", [Fraction(1, 2), 2, None])
def test_verify_rejects_one_corrupted_mult_entry(s3, value):
    H = cached_group_algebra(s3)
    (k, one), = H.mult[2][3].items()
    # None moves the product to another basis element instead of rescaling it
    bad = {k: Cyc.rational(value)} if value is not None else {(k + 1) % H.dim: one}
    mult = [list(row) for row in H.mult]
    mult[2][3] = bad
    with pytest.raises(AssertionError, match="associativity"):
        _tampered(H, mult=mult)


@pytest.mark.parametrize("value", [Fraction(-1, 3), None])
def test_verify_rejects_one_corrupted_antipode_entry(s3, value):
    H = cached_group_algebra(s3)
    g = next(i for i, row in enumerate(H.antipode) if i not in row)  # S(g) = g^-1 != g
    (k, one), = H.antipode[g].items()
    antipode = list(H.antipode)
    antipode[g] = {k: Cyc.rational(value)} if value is not None else {g: one}
    with pytest.raises(AssertionError, match="antipode axiom fails"):
        _tampered(H, antipode=antipode)


def _corrupted(H, rng):
    """An unverified copy of H with one entry of the mult, comult, counit or
    antipode table shifted by a nonzero scalar (possibly to zero)."""
    d = H.dim
    shifts = [Cyc.one(), Cyc.rational(-1), Cyc.rational(Fraction(1, 2))]
    if H.field_order > 1:
        shifts.append(Cyc.root_of_unity(H.field_order))
    shift = rng.choice(shifts)

    def bump(entry, key):
        out = dict(entry)
        new = out.get(key, Cyc.zero()) + shift
        if new.is_zero():
            out.pop(key, None)
        else:
            out[key] = new
        return out

    def pick_key(entry, fresh):
        return rng.choice(sorted(entry)) if entry and rng.random() < 0.5 else fresh()

    mult, comult, counit, antipode = H.mult, H.comult, H.counit, H.antipode
    table = rng.choice(["mult", "comult", "counit", "antipode"])
    i = rng.randrange(d)
    if table == "mult":
        j = rng.randrange(d)
        mult = [list(row) for row in H.mult]
        mult[i][j] = bump(mult[i][j], pick_key(mult[i][j], lambda: rng.randrange(d)))
    elif table == "comult":
        comult = list(H.comult)
        key = pick_key(comult[i], lambda: (rng.randrange(d), rng.randrange(d)))
        comult[i] = bump(comult[i], key)
    elif table == "counit":
        counit = list(H.counit)
        counit[i] = counit[i] + shift
    else:
        antipode = list(H.antipode)
        antipode[i] = bump(antipode[i], pick_key(antipode[i], lambda: rng.randrange(d)))
    return unverified_copy(H, mult=mult, comult=comult, counit=counit,
                           antipode=antipode)


def test_verify_raises_exactly_when_an_axiom_fails(s3, uq2, uq3):
    kS3, uq2_alg = cached_group_algebra(s3), uq2[0]
    assert full_axioms_hold(kS3) and full_axioms_hold(uq2_alg)
    rng = random.Random(5)
    algebras = [kS3] * 150 + [uq2_alg] * 150 + [uq3[0]] * 4
    raised = 0
    for H in algebras:
        bad = _corrupted(H, rng)
        try:
            bad.verify()
        except AssertionError:
            raised += 1
            assert not full_axioms_hold(bad)
        else:
            assert full_axioms_hold(bad)
    assert raised > 0


@pytest.mark.parametrize("coeffs", [(1, 1), (1, -1), (2,)],
                         ids=["sum", "difference", "double"])
def test_verify_agrees_with_the_reference_on_a_product_of_several_terms(s3, coeffs):
    # a product with two terms sends the associativity contraction through
    # both paths of `_apply_map`: a copied row at the leading 1, then a
    # scaled row; {k: 2} takes the scaled path alone
    H = cached_group_algebra(s3)
    (k, _), = H.mult[2][3].items()
    mult = [list(row) for row in H.mult]
    mult[2][3] = {(k + t) % H.dim: Cyc.rational(c) for t, c in enumerate(coeffs)}
    bad = unverified_copy(H, mult=mult)
    assert not full_axioms_hold(bad)
    with pytest.raises(AssertionError, match=r"associativity fails at \(\d+,\d+,\d+\)"):
        bad.verify()


def test_apply_map_copies_a_row_at_a_unit_coefficient():
    row = {3: Cyc.root_of_unity(3), 5: Cyc.rational(Fraction(-2, 7))}
    out = _apply_map([row], {0: Cyc.one()})
    assert out == row and out is not row
    assert [(x.order, x.nums, x.den) for x in out.values()] == \
        [(x.order, x.nums, x.den) for x in row.values()]
    # a unit coefficient after the first term is added like any other
    two = Cyc.rational(2)
    assert _apply_map([row, {3: Cyc.one()}], {1: two, 0: Cyc.one()}) == \
        {3: two + row[3], 5: row[5]}


def test_apply_map_drops_the_terms_that_cancel():
    one = Cyc.one()
    images = [{0: one, 1: one}, {1: one, 2: one}]
    assert _apply_map(images, {0: one, 1: -one}) == {0: one, 2: -one}
    assert _apply_map(images, {1: -one, 0: one}) == {0: one, 2: -one}
    assert _apply_map([{0: one}, {0: one}], {0: one, 1: -one}) == {}


def _klein_four_with(mult=None, comult=None):
    G = enumerate_group([perm(4, (3, 4)), perm(4, (1, 2))])
    H = build_group_algebra(G)
    assert H._generators() == [1, 2]    # e_1 = (3 4), e_2 = (1 2), e_3 = e_1 e_2
    return unverified_copy(H, mult=mult or H.mult, comult=comult or H.comult)


def test_verify_checks_associativity_at_every_generator():
    # twisting e_2 e_3 = e_3 e_2 = 2 e_1 keeps (x e_1) y = x (e_1 y) for all
    # x, y, so only the second generator exposes the failure
    H = _klein_four_with()
    mult = [list(row) for row in H.mult]
    mult[2][3] = mult[3][2] = {1: Cyc.rational(2)}
    bad = _klein_four_with(mult=mult)
    assert not full_axioms_hold(bad)
    with pytest.raises(AssertionError, match=r"associativity fails at \(\d+,2,\d+\)"):
        bad.verify()


def test_verify_checks_multiplicativity_at_every_generator():
    # with p, q = (e_2 + e_3)/2, (e_2 - e_3)/2, the coproduct
    # Delta(e_2) = p@p + 2 q@q + p@q + q@p, Delta(e_3) = Delta(e_2) (e_1 @ e_1)
    # is coassociative and counital and Delta(x e_1) = Delta(x) Delta(e_1),
    # but Delta(e_2 e_2) = 1@1 differs from Delta(e_2)^2
    H = _klein_four_with()
    c = {k: Cyc.rational(Fraction(k, 4)) for k in (-1, 1, 5)}
    comult = list(H.comult)
    comult[2] = {(2, 2): c[5], (2, 3): c[-1], (3, 2): c[-1], (3, 3): c[1]}
    comult[3] = {(2, 2): c[1], (2, 3): c[-1], (3, 2): c[-1], (3, 3): c[5]}
    bad = _klein_four_with(comult=comult)
    assert not full_axioms_hold(bad)
    with pytest.raises(AssertionError,
                       match=r"coproduct multiplicativity fails at \(\d+,2\)"):
        bad.verify()


@pytest.mark.parametrize("name, want", [
    ("s4", [1, 2, 6]), ("a5", [1, 3, 12]), ("uq2", [1, 2, 4]), ("uq3", [1, 3])])
def test_generators_span_the_algebra(name, want, request):
    fixture = request.getfixturevalue(name)
    H = fixture[0] if name.startswith("uq") else cached_group_algebra(fixture)
    gens = H._generators()
    assert gens == want
    # the left-normed products of the generators, starting from the unit
    span = RowSpace(H.dim)
    span.add(H.unit)
    frontier = [H.unit]
    while frontier:
        words = [H.mult_vec(w, H.basis_vec(g)) for w in frontier for g in gens]
        frontier = [w for w in words if span.add(w)]
    assert span.rank == H.dim


def test_generators_equal_the_walk_reference(uq2, uq3):
    # kG for the catalog groups; uq2, uq3 and their R1, R2 and B
    algebras = [cached_group_algebra(G) for _, G in catalog()]
    for H, subs in (uq2, uq3):
        algebras += [H] + [subs[name].as_hopf() for name in ("R1", "R2", "B")]
    assert len(algebras) == len(catalog()) + 8
    for H in algebras:
        assert H.generators == reference_generators(H)


def test_from_json_reads_a_scalar_at_its_canonical_order(uq3):
    # a value of Q(zeta_3) written over Q(zeta_6) has canonical order 3,
    # which divides field_order 3
    H27, _ = uq3
    data = H27.to_json()
    k = next(k for k, entry in enumerate(data["mult"]) if entry[3].startswith("3:"))
    z = scalar_from_string(data["mult"][k][3]).lift(6)
    data["mult"][k][3] = "6:[" + ",".join(map(str, z.coeffs)) + "]"
    assert scalar_from_string(data["mult"][k][3]).order == 6
    H, _ = HopfAlgebraData.from_json(data)
    assert H.mult == H27.mult


def test_verify_group_algebra_of_s5(s5):
    H = build_group_algebra(s5)
    assert H.dim == 120
    x, y = H.dim - 1, H.dim - 2      # neither the unit nor a generator
    assert x not in H.unit and y not in H.unit
    assert not {x, y} & set(H._generators())
    (k, one), = H.mult[x][y].items()
    mult = [list(row) for row in H.mult]
    mult[x][y] = {k: Cyc.rational(2)}
    with pytest.raises(AssertionError, match="associativity"):
        _tampered(H, mult=mult)


def test_hopf_json_round_trip(uq2):
    H8, subs8 = uq2
    data = H8.to_json(subalgebras={"R": subs8["R2"]})
    back, subs = HopfAlgebraData.from_json(data)
    assert back.dim == 8 and subs["R"].dim == 4
    for i in range(8):
        for j in range(8):
            assert back.mult[i][j] == H8.mult[i][j]


# -- subalgebra embeddings ----------------------------------------------------

def test_embedding_rejects_non_subalgebra(s3):
    H = cached_group_algebra(s3)
    # the span of a single non-identity group element is not a subalgebra
    with pytest.raises(AssertionError):
        SubalgebraEmbedding(H, [dict(H.unit), {3: Cyc.one()}, {5: Cyc.one()}])


def test_embedding_own_hopf_structure(s3):
    H, R = s3_pair(s3)
    Rh = R.as_hopf()
    assert Rh.dim == 2


@pytest.mark.parametrize("algebra", ["uq2", "uq3"])
def test_coords_are_sparse_and_invert_embed(algebra, request):
    H, subs = request.getfixturevalue(algebra)
    rng = random.Random(7)
    for R in subs.values():
        inside = [dict(H.unit)] + [H.mult_vec(a, b) for a in R.basis for b in R.basis]
        # a combination that skips some basis rows, and one with stored zeros
        inside.append(R.embed({i: Cyc.rational(rng.randint(1, 5))
                               for i in range(0, R.dim, 2)}))
        inside.append({p: Cyc.zero() for p in R.pivots} | R.basis[-1])
        for v in inside:
            cs = R.coords(v)
            assert cs is not None and not any(c.is_zero() for c in cs.values())
            assert R.embed(cs) == {k: c for k, c in v.items() if not c.is_zero()}
        span = RowSpace(H.dim)
        for b in R.basis:
            span.add(b)
        for j in range(H.dim):
            e_j = H.basis_vec(j)
            assert (R.coords(e_j) is None) == (not span.contains(e_j))
            if j not in R.pivots:
                assert R.coords(R.embed({0: Cyc.one()}) | {j: Cyc.rational(2)}) is None


# -- quotient modules ---------------------------------------------------------

def test_quotient_by_unit_subalgebra_is_regular(s3):
    H = cached_group_algebra(s3)
    triv = SubalgebraEmbedding(H, [dict(H.unit)])
    Q = quotient_module(H, triv)
    assert Q.dim_q == H.dim


def test_quotient_group_pair_is_coset_space(s3):
    H, R = s3_pair(s3)
    Q = quotient_module(H, R)
    assert Q.dim_q == 3
    # the coproduct is grouplike on coset classes
    for b in range(Q.dim_q):
        assert Q.coproduct_q[b] == {(b, b): Cyc.one()}


def test_quotient_eight_dim(uq2):
    H8, subs8 = uq2
    Q = quotient_module(H8, subs8["R2"])
    assert Q.dim_q == 2
    # 1-bar and F-bar span Q: F is basis index 1
    p1 = Q.project(dict(H8.unit))
    pf = Q.project({1: Cyc.one()})
    assert p1 and pf
    det = (p1.get(0, Cyc.zero()) * pf.get(1, Cyc.zero())
           - p1.get(1, Cyc.zero()) * pf.get(0, Cyc.zero()))
    assert not det.is_zero()


def test_nichols_zoeller_bookkeeping(s4, uq2, uq3):
    H = cached_group_algebra(s4)
    for S in s4.subgroups()[::6]:
        emb = subgroup_embedding(H, s4, S)
        Q = quotient_module(H, emb)
        assert Q.dim_q * emb.dim == H.dim
    for hopf, subs in (uq2, uq3):
        for emb in subs.values():
            assert hopf.dim % emb.dim == 0
            Q = quotient_module(hopf, emb)
            assert Q.dim_q * emb.dim == hopf.dim


# -- tensor power actions -----------------------------------------------------

def test_tensor_power_one_is_action(s3):
    H, R = s3_pair(s3)
    Q = quotient_module(H, R)
    tp = tensor_power_action(Q, 1)
    assert tp.dim == Q.dim_q
    assert tp.action == Q.action


def test_tensor_power_character_is_perm_char_power(s3):
    from subdepth.chartab import permutation_character
    H, R = s3_pair(s3)
    sub = s3.subgroup_generated([perm(3, (1, 2))])
    Q = quotient_module(H, R)
    pc = permutation_character(s3, sub)
    class_of = {g: s3.class_index(g) for g in s3.elements}
    tp = tensor_power_action(Q, 2)
    chars = tensor_power_character(tp)
    for i, g in enumerate(s3.elements):
        assert chars[i].as_fraction() == pc[class_of[g]] ** 2


def test_free_module_isomorphism_via_descent(s3):
    # R = k1, W = H: the classical fundamental theorem of Hopf modules
    H = cached_group_algebra(s3)
    triv = SubalgebraEmbedding(H, [dict(H.unit)])
    wd, wact = regular_r_module(triv)
    assert ulbrich_verify(H, triv, wd, wact)


# -- generator-closure checks against the all-basis references ---------------

def _taft_pairs(uq):
    """The Taft algebra T = R2.as_hopf() = <K, E> with its subalgebras k1 and
    <K>; T is not unimodular."""
    H, subs = uq
    R2 = subs["R2"]
    T = R2.as_hopf()
    n = round(H.dim ** (1 / 3))
    K = R2.coords({n * n: Cyc.one()})
    powers = [dict(T.unit)]
    for _ in range(n - 1):
        powers.append(T.mult_vec(powers[-1], K))
    return [(T, SubalgebraEmbedding(T, [dict(T.unit)])),
            (T, SubalgebraEmbedding(T, powers))]


def _closure_pairs(case, request):
    if case == "kS3":
        s3 = request.getfixturevalue("s3")
        H = cached_group_algebra(s3)
        return [(H, subgroup_embedding(H, s3, S)) for S in s3.subgroups()]
    if case == "uq2":
        H, subs = request.getfixturevalue("uq2")
        return [(H, subs[name]) for name in ("R1", "R2", "B")]
    if case.startswith("uq3 "):
        H, subs = request.getfixturevalue("uq3")
        return [(H, subs[case.split()[1]])]
    return _taft_pairs(request.getfixturevalue(case.split()[1]))


@pytest.mark.parametrize("case", ["kS3", "uq2", "uq3 R1", "taft uq2", "taft uq3"])
def test_generator_checks_agree_with_all_basis_references(case, request):
    # tensor powers up to n = 3 and dimension 81: uq3 R1 runs to n = 3
    for H, R in _closure_pairs(case, request):
        Q = quotient_module(H, R)
        reference_quotient_verify(Q)
        n_max = max(n for n in (1, 2, 3) if Q.dim_q ** n <= 81)
        for n in range(1, n_max + 1):
            assert tensor_power_action(Q, n).action == reference_tensor_power_action(Q, n)
        chain = annihilator_chain(Q)
        for space in [i.space for i in chain.ideals] + [Q.rpH, R.space]:
            two_sided = _is_two_sided(H, space)
            flags = (two_sided, two_sided and _is_hopf_ideal(H, space, _projector(space)))
            assert flags == reference_ideal_flags(H, space)
        assert _right_integrals(H) == reference_right_integrals(H)
        Rh = R.as_hopf()
        assert _right_integrals(Rh) == reference_right_integrals(Rh)
        rep = integrals_and_modular(H, R, Q)
        assert rep.q_integral_basis == reference_q_integrals(Q)
        assert idealizer_and_endQ(H, R, Q).T_basis == reference_idealizer(Q)


def _proper_pairs(s3, uq2):
    H = cached_group_algebra(s3)
    pairs = [(H, subgroup_embedding(H, s3, S)) for S in s3.subgroups() if S.order < 6]
    return pairs + [(uq2[0], R) for R in uq2[1].values()]


def _raises(check, Q) -> bool:
    try:
        check(Q)
    except AssertionError:
        return True
    return False


def test_quotient_verify_rejects_a_corrupted_counit_entry(s3, uq2):
    # eps_Q + delta_b is H-linear only when eps_Q is a multiple of delta_b,
    # because Hom_H(Q, k) = Hom_R(k, k) is spanned by eps_Q
    for H, R in _proper_pairs(s3, uq2):
        for b in range(quotient_module(H, R).dim_q):
            Q = quotient_module(H, R)
            linear = all(c.is_zero() for i, c in enumerate(Q.counit_q) if i != b)
            Q.counit_q[b] = Q.counit_q[b] + Cyc.one()
            assert _raises(reference_quotient_verify, Q) == (not linear)
            if linear:
                Q._verify()
            else:
                with pytest.raises(AssertionError, match="counit of Q is not H-linear"):
                    Q._verify()


def test_quotient_verify_rejects_a_corrupted_coproduct_entry(s3, uq2):
    for H, R in _proper_pairs(s3, uq2):
        for b in range(quotient_module(H, R).dim_q):
            Q = quotient_module(H, R)
            row = dict(Q.coproduct_q[b])
            key = min(row)
            row[key] = row[key] + Cyc.one()
            Q.coproduct_q[b] = row
            assert _raises(reference_quotient_verify, Q)
            with pytest.raises(AssertionError, match="not a module coalgebra map"):
                Q._verify()


@pytest.mark.parametrize("closed, escape", [((1, 2), (2, 3)), ((2, 3), (1, 2))])
def test_two_sided_check_tests_every_generator(s3, closed, escape):
    # span{1, t} is closed under left and right multiplication by the
    # transposition t but not by the other generator, so only that generator
    # exposes it; the two cases put that generator first and last
    H = cached_group_algebra(s3)
    idx = {g: i for i, g in enumerate(s3.elements)}
    t, u = idx[perm(3, closed)], idx[perm(3, escape)]
    assert sorted(H.generators) == sorted([t, u])
    space = RowSpace(H.dim)
    space.add(dict(H.unit))
    space.add(H.basis_vec(t))
    assert all(space.contains(H.mult_vec(b, H.basis_vec(t)))
               and space.contains(H.mult_vec(H.basis_vec(t), b))
               for b in space.basis_rows())
    assert not space.contains(H.basis_vec(u))
    assert _is_two_sided(H, space) is False
    assert reference_ideal_flags(H, space)[0] is False


# -- annihilator chains -------------------------------------------------------

def test_eight_dim_annihilator_chain(uq2):
    H8, subs8 = uq2
    Q = quotient_module(H8, subs8["R2"])
    chain = annihilator_chain(Q)
    # Ann Q = EH + C(KF - F) is 5-dimensional; the chain stabilizes at EH,
    # the Hopf core ideal, one power later (the README derives the extra
    # direction (K-1)F under "The 8-dimensional pair")
    assert [i.dim for i in chain.ideals] == [5, 4]
    assert chain.ell_q == 2
    assert chain.hopf_core is chain.ideals[-1]
    EH = ideal_from_span(H8, [H8.mult_vec({2: Cyc.one()}, H8.basis_vec(i))
                              for i in range(8)])
    assert EH.rank == 4 and reference_ideal_flags(H8, EH)[1]
    assert chain.hopf_core.space.equals(EH)
    # the extra annihilator direction: KF - F (indices 5 and 1)
    assert chain.ideals[0].space.contains({5: Cyc.one(), 1: Cyc.rational(-1)})


def test_group_pair_hopf_core_is_augmentation_ideal_of_core(a4):
    H = cached_group_algebra(a4)
    V4 = a4.subgroup_generated([perm(4, (1, 2), (3, 4)), perm(4, (1, 3), (2, 4))])
    emb = subgroup_embedding(H, a4, V4)
    Q = quotient_module(H, emb)
    chain = annihilator_chain(Q)
    core = core_and_witness(a4, V4).core
    assert core.elements == V4.elements  # V4 is normal in A4
    target = augmentation_core_ideal(H, a4, core)
    assert chain.hopf_core.space.equals(target)
    assert chain.ell_q == 1  # normal subgroup: R+H is already a Hopf ideal


def test_normal_pair_ideal_is_rplus_h(s3):
    H = cached_group_algebra(s3)
    A3 = s3.subgroup_generated([perm(3, (1, 2, 3))])
    emb = subgroup_embedding(H, s3, A3)
    Q = quotient_module(H, emb)
    chain = annihilator_chain(Q)
    assert chain.ell_q == 1
    assert chain.hopf_core.space.equals(Q.rpH)


def test_chain_descending(s3):
    H, R = s3_pair(s3)
    Q = quotient_module(H, R)
    chain = annihilator_chain(Q)
    for a, b in zip(chain.ideals, chain.ideals[1:]):
        assert b.space <= a.space


# the pairs of both tensor-power route tests; uq3 runs while dim Q^n <= 81
ROUTE_CASES = ["kS3", "uq2", "taft uq2", "taft uq3", "uq3 B", "uq3 R1", "uq3 R2"]


def _on_route(H, Q, n):
    return Q.dim_q ** n <= (81 if H.dim == 27 else 4096)


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_generator_closed_ideals_equal_the_all_basis_spans(case, request):
    # R+H, HR+ and H t_R H, spanned by closing at the generators, are the
    # spans of the products with every basis element
    for H, R in _closure_pairs(case, request):
        Q = quotient_module(H, R)
        t_R = integrals_and_modular(H, R, Q).t_R
        for rows, left, right in [(Q.r_plus, False, True), (Q.r_plus, True, False),
                                  ([t_R], True, True)]:
            assert _ideal(H, rows, left, right).equals(
                reference_ideal(H, rows, left, right))
        assert Q.rpH.equals(reference_ideal(H, Q.r_plus, False, True))


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_annihilator_chain_equals_the_tensor_power_route(case, request):
    # every Ann_n of the H x H step, and Ann_(ell+1) of the stabilization
    # check, is the kernel of the action of Q^xn, pivot row for pivot row
    for H, R in _closure_pairs(case, request):
        Q = quotient_module(H, R)
        chain = annihilator_chain(Q)
        for n, ideal in enumerate(chain.ideals, 1):
            if _on_route(H, Q, n):
                assert ideal.space.pivots == reference_annihilator(Q, n).pivots
        if chain.hopf_core.dim and _on_route(H, Q, chain.ell_q + 1):
            stable = reference_annihilator(Q, chain.ell_q + 1)
            assert stable.pivots == chain.hopf_core.space.pivots


@pytest.mark.parametrize("case", ROUTE_CASES)
def test_trace_ideals_equal_the_tensor_power_route(case, request):
    # every tau_n read off Ann_n is the sum of the images of the closed-form
    # maps Q^xn -> H of `module_hom_basis`, basis row for basis row
    for H, R in _closure_pairs(case, request):
        Q = quotient_module(H, R)
        rep = integrals_and_modular(H, R, Q)
        ti = trace_ideals(H, rep, annihilator_chain(Q))
        terms = _frobenius_terms(H, H.antipode_vec(rep.t_H))
        for n, ideal in enumerate(ti, 1):
            if _on_route(H, Q, n):
                tp = tensor_power_action(Q, n)
                _, images = _hom_space(H, tp, module_hom_basis(Q, tp, terms))
                assert ideal.space.basis_rows() == images.basis_rows()


def test_uq3_r1_annihilator_chain_runs_to_the_zero_ideal(uq3):
    # ell_Q = 4 and the Hopf core is zero, with dim Q^4 = 81
    H, subs = uq3
    chain = annihilator_chain(quotient_module(H, subs["R1"]))
    assert [i.dim for i in chain.ideals] == [20, 9, 1, 0]
    assert chain.ell_q == 4 and chain.hopf_core.dim == 0


def test_hopf_chains_build_no_tensor_power(uq2, uq3, monkeypatch):
    calls = []

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("tensor_power_action", "module_hom_basis"):
        monkeypatch.setattr(hopfcore, name, counted(getattr(hopfcore, name), name))
    monkeypatch.setattr(TensorPowerModule, "times_q",
                        counted(TensorPowerModule.times_q, "times_q"))
    for H, subs in (uq2, uq3):
        for R in subs.values():
            Q = quotient_module(H, R)
            chain = annihilator_chain(Q)
            trace_ideals(H, integrals_and_modular(H, R, Q), chain)
    assert calls == []


def test_annihilator_chain_without_a_hopf_ideal_raises(uq2, monkeypatch):
    # the chain has no budget: a chain that never meets a Hopf ideal stops
    # descending, at the Hopf core or at the zero ideal, and that is an error
    monkeypatch.setattr(hopfcore, "_is_hopf_ideal", lambda *args: False)
    H8, subs8 = uq2
    for R in subs8.values():
        with pytest.raises(AssertionError, match="stopped descending"):
            annihilator_chain(quotient_module(H8, R))


def test_faithfulness_cross_check(s3):
    H, R = s3_pair(s3)
    Q = quotient_module(H, R)
    chain = annihilator_chain(Q)
    assert faithfulness_cross_check(H, Q, chain.ideals[0].dim)
    triv = SubalgebraEmbedding(H, [dict(H.unit)])
    Qf = quotient_module(H, triv)
    chf = annihilator_chain(Qf)
    assert chf.ideals[0].dim == 0
    assert faithfulness_cross_check(H, Qf, 0)


def test_core_hopf_subalgebra_containment(s4):
    # normal Hopf subalgebra kK inside kR: H K+ lands inside the Hopf core
    H = cached_group_algebra(s4)
    R = s4.subgroup_generated([perm(4, (1, 2, 3, 4)), perm(4, (1, 3))])  # D8
    emb = subgroup_embedding(H, s4, R)
    Q = quotient_module(H, emb)
    chain = annihilator_chain(Q)
    K = core_and_witness(s4, R).core  # the Klein core, normal in S4 inside D8
    assert K.order == 4
    hk_plus = augmentation_core_ideal(H, s4, K)
    assert hk_plus <= chain.hopf_core.space


# -- integrals ----------------------------------------------------------------

def test_group_pair_integrals_are_frobenius(s3):
    H, R = s3_pair(s3)
    rep = integrals_and_modular(H, R, quotient_module(H, R))
    assert rep.frobenius
    assert rep.q_integral_basis
    assert rep.semisimple_extension
    # m_H is the counit for a group algebra
    assert all(v == 1 for v in rep.m_H)


def test_normal_pair_has_q_integral(s3):
    H = cached_group_algebra(s3)
    A3 = s3.subgroup_generated([perm(3, (1, 2, 3))])
    emb = subgroup_embedding(H, s3, A3)
    rep = integrals_and_modular(H, emb, quotient_module(H, emb))
    assert rep.q_integral_basis


def test_taft_integral_value(uq2):
    H8, subs8 = uq2
    rep = integrals_and_modular(H8, subs8["R2"], quotient_module(H8, subs8["R2"]))
    # t_R = E(1 + K) = E - KE up to scalar; E at index 2, KE at index 6
    t = rep.t_R
    assert set(t) == {2, 6}
    assert (t[2] + t[6]).is_zero()
    assert not rep.frobenius
    assert not rep.q_integral_basis


def test_q_iso_with_trh(s3, uq2):
    # Q = t_R H as right H-modules: q -> t_R lift(q) is injective on Q
    from subdepth.exactalg import RowSpace
    for H, R in [s3_pair(s3), (uq2[0], uq2[1]["R2"])]:
        Q = quotient_module(H, R)
        rep = integrals_and_modular(H, R, Q)
        # t_R kills R+H
        for w in Q.rpH.basis_rows():
            assert not H.mult_vec(rep.t_R, w)
        space = RowSpace(H.dim)
        rank = 0
        for b in range(Q.dim_q):
            if space.add(H.mult_vec(rep.t_R, quotient_lift(Q, {b: Cyc.one()}))):
                rank += 1
        assert rank == Q.dim_q


# -- trace ideals --------------------------------------------------------------

def test_trace_ideal_eight_dim(uq2):
    H8, subs8 = uq2
    Q = quotient_module(H8, subs8["R2"])
    rep = integrals_and_modular(H8, subs8["R2"], Q)
    ti = trace_ideals(H8, rep, annihilator_chain(Q))
    assert ti[0].dim == 3
    # ascending
    for a, b in zip(ti, ti[1:]):
        assert a.space <= b.space


def test_trace_ideals_solve_for_the_integral_once(uq2, monkeypatch):
    # per pair, integrals_and_modular solves for t_H and t_R (one
    # _right_integrals call each) and trace_ideals reads both from its report
    calls = {"_right_integrals": 0, "_frobenius_terms": 0, "module_hom_basis": 0}
    for name in calls:
        def counted(*args, _fn=getattr(hopfcore, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(hopfcore, name, counted)
    H8, subs8 = uq2
    Q = quotient_module(H8, subs8["R2"])
    rep = integrals_and_modular(H8, subs8["R2"], Q)
    assert calls["_right_integrals"] == 2
    ti = trace_ideals(H8, rep, annihilator_chain(Q))
    assert len(ti) >= 2
    assert calls == {"_right_integrals": 2, "_frobenius_terms": 1,
                     "module_hom_basis": 0}


def test_trace_ideals_beyond_dimension_eight(uq3):
    # the 27-dim small quantum group over Q(zeta_3) with R2 = <K, E>: every
    # check trace_ideals makes runs, and the chain reaches H at n = ell_Q
    H, subs = uq3
    R = subs["R2"]
    Q = quotient_module(H, R)
    rep = integrals_and_modular(H, R, Q)
    chain = annihilator_chain(Q)
    ti = trace_ideals(H, rep, chain)
    assert [i.dim for i in ti] == [7, 18, 26, 27]


def _hom_space(H, tp, homs):
    # the maps as vectors in Hom_k(Q^xn, H), and the sum of their images
    maps, images = RowSpace(tp.dim * H.dim), RowSpace(H.dim)
    for hom in homs:
        maps.add({b * H.dim + k: v for b, img in enumerate(hom) for k, v in img.items()})
        for img in hom:
            images.add(dict(img))
    return maps, images


@pytest.mark.parametrize("case, max_dim", [
    ("kS3", 81), ("uq2", 81), ("taft uq2", 81), ("taft uq3", 81),
    # the linear system takes about 3 s at n = 3 and 20 s at n = 4
    ("uq3 R2", 27),
])
def test_module_hom_basis_agrees_with_the_linear_system(case, max_dim, request):
    for H, R in _closure_pairs(case, request):
        Q = quotient_module(H, R)
        terms = _frobenius_terms(H, H.antipode_vec(_right_integrals(H)[0]))
        for n in range(1, 5):
            if Q.dim_q ** n > max_dim:
                break
            tp = tensor_power_action(Q, n)
            maps, trace = _hom_space(H, tp, module_hom_basis(Q, tp, terms))
            ref_maps, ref_trace = _hom_space(H, tp, reference_module_hom_basis(Q, tp))
            assert maps.equals(ref_maps)
            assert trace.basis_rows() == ref_trace.basis_rows()


def test_frobenius_identity_needs_a_left_integral(uq2, uq3):
    # S(t_H) is a left integral; t_H is one only where H is unimodular
    for uq in (uq2, uq3):
        H = uq[0]
        _frobenius_terms(H, _right_integrals(H)[0])
        T = _taft_pairs(uq)[0][0]
        t_T = _right_integrals(T)[0]
        _frobenius_terms(T, T.antipode_vec(t_T))
        with pytest.raises(AssertionError, match="Frobenius identity"):
            _frobenius_terms(T, t_T)


def test_trace_ideal_free_case(s3):
    H = cached_group_algebra(s3)
    triv = SubalgebraEmbedding(H, [dict(H.unit)])
    Q = quotient_module(H, triv)
    rep = integrals_and_modular(H, triv, Q)
    chain = annihilator_chain(Q)
    ti = trace_ideals(H, rep, chain)
    assert ti[0].dim == H.dim
    assert chain.ell_q == 1


def test_generator_implies_semisimple_r(s3):
    # tau(Q) = H forces eps(t_R) != 0
    H, R = s3_pair(s3)
    Q = quotient_module(H, R)
    rep = integrals_and_modular(H, R, Q)
    ti = trace_ideals(H, rep, annihilator_chain(Q))
    if ti[-1].dim == H.dim:
        assert not H.counit_vec(rep.t_R).is_zero()


# -- idealizer -----------------------------------------------------------------

def test_idealizer_eight_dim(uq2):
    H8, subs8 = uq2
    ir = idealizer_and_endQ(H8, subs8["R2"], quotient_module(H8, subs8["R2"]))
    assert ir.dim_T == 7
    assert ir.dim_end_q == 1
    assert not ir.normal


def test_idealizer_normal_pair(s3):
    H = cached_group_algebra(s3)
    A3 = s3.subgroup_generated([perm(3, (1, 2, 3))])
    emb = subgroup_embedding(H, s3, A3)
    Q = quotient_module(H, emb)
    ir = idealizer_and_endQ(H, emb, Q)
    assert ir.normal
    assert ir.dim_end_q == Q.dim_q


def test_idealizer_counts_double_cosets(s3, s4):
    for G in (s3, s4):
        H = cached_group_algebra(G)
        for S in G.subgroups()[::6]:
            emb = subgroup_embedding(H, G, S)
            ir = idealizer_and_endQ(H, emb, quotient_module(H, emb))
            assert ir.dim_end_q == len(double_cosets(G, S, S).reps)


# -- linear disjointness --------------------------------------------------------

def test_quantum_taft_pairs_linear_disjoint(uq3):
    H27, subs27 = uq3
    ld = linear_disjoint_check(H27, subs27["R1"], subs27["R2"])
    assert ld.linear_disjoint
    assert ld.dim_B == 3
    assert ld.iso_verified


def test_r_equals_k_disjoint_iff_whole(s3):
    H, R = s3_pair(s3)
    ld = linear_disjoint_check(H, R, R)
    assert not ld.linear_disjoint
    full = SubalgebraEmbedding(H, [H.basis_vec(i) for i in range(H.dim)])
    ld2 = linear_disjoint_check(H, full, full)
    assert ld2.linear_disjoint


def test_group_algebra_pairs_always_disjoint(s4):
    # subgroup pairs with HK = G
    H = cached_group_algebra(s4)
    A4 = s4.subgroup_generated([perm(4, (1, 2, 3)), perm(4, (1, 2), (3, 4))])
    C2 = s4.subgroup_generated([perm(4, (1, 2))])
    ld = linear_disjoint_check(H, subgroup_embedding(H, s4, A4),
                               subgroup_embedding(H, s4, C2))
    assert ld.linear_disjoint
    assert ld.iso_verified


# -- descent -------------------------------------------------------------------

def test_ulbrich_regular_and_trivial(s3, uq2):
    H, R = s3_pair(s3)
    wd, wact = regular_r_module(R)
    assert ulbrich_verify(H, R, wd, wact)
    assert ulbrich_verify(H, R, 1, trivial_r_module(R))
    H8, subs8 = uq2
    wd8, wact8 = regular_r_module(subs8["R2"])
    assert ulbrich_verify(H8, subs8["R2"], wd8, wact8)
    assert ulbrich_verify(H8, subs8["R2"], 1, trivial_r_module(subs8["R2"]))


def test_ulbrich_rejects_non_module(s3):
    H, R = s3_pair(s3)
    bad = [[[Cyc.rational(i + j)] for j in range(1)] for i in range(2)]
    with pytest.raises(ValueError):
        ulbrich_verify(H, R, 1, bad)


# -- towers ---------------------------------------------------------------------

def test_tower_dimension_identity(s4):
    # dim Q^H_K = dim(+Q^R_K) dim H / dim R + dim Q^H_R
    H = cached_group_algebra(s4)
    R = s4.subgroup_generated([perm(4, (1, 2)), perm(4, (1, 2, 3))])  # S3
    K = s4.subgroup_generated([perm(4, (1, 2))])
    embR = subgroup_embedding(H, s4, R)
    embK = subgroup_embedding(H, s4, K)
    Rh = embR.as_hopf()
    Rgrp = R.as_group()
    K_in_R_rows = []
    idx = {g: i for i, g in enumerate(R.elements)}
    for g in K.elements:
        K_in_R_rows.append({idx[g]: Cyc.one()})
    embKR = SubalgebraEmbedding(Rh, K_in_R_rows)
    QHK = quotient_module(H, embK)
    QHR = quotient_module(H, embR)
    QRK = quotient_module(Rh, embKR)
    plus_qrk = QRK.dim_q - 1  # kernel of the counit on Q^R_K
    assert QHK.dim_q == plus_qrk * (H.dim // Rh.dim) + QHR.dim_q


def test_center_of_group_algebra_is_class_sums(s3):
    H = cached_group_algebra(s3)
    zen = center_basis(H)
    assert len(zen) == len(s3.conjugacy_classes())
