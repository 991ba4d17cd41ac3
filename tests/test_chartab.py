import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (conjugate, corpus_pairs_full, cyc_inner_product, group_table,
                     induce_class_function, inner_product, make_a5, make_s4, make_s5,
                     perm, reference_inclusion_matrix, reference_permutation_character)
from subdepth.chartab import (CharacterTable, ClassFusion, _dixon_prime,
                              _dixon_schneider, _modp_kernel, _modp_rref,
                              class_fusion, compute_character_table, inclusion_matrix,
                              permutation_character, table_from_json,
                              tables_agree_up_to_row_permutation)
from subdepth.corpus import catalog, direct_product
from subdepth.exactalg import Cyc, minimal_polynomial
from subdepth.permgroup import GroupHandle, SubgroupHandle, enumerate_group


def test_s3_table(s3):
    tab = compute_character_table(s3)
    assert sorted(tab.degrees) == [1, 1, 2]
    assert tab.degrees[0] == 1  # trivial character first under the convention
    tab.verify()


def test_c2_table():
    G = enumerate_group([perm(2, (1, 2))])
    tab = compute_character_table(G)
    assert sorted(tab.degrees) == [1, 1]
    vals = {tuple(v.as_fraction() for v in row) for row in tab.irreducibles}
    assert vals == {(1, 1), (1, -1)}


def test_a5_table(a5):
    tab = compute_character_table(a5)
    assert sorted(tab.degrees) == [1, 3, 3, 4, 5]
    assert sum(d * d for d in tab.degrees) == 60
    # golden-ratio values land in Q(zeta_5): the 3-dim rows are irrational
    e = tab.exponent
    assert e == 30
    irrational = [row for row in tab.irreducibles
                  if any(not v.is_rational() for v in row)]
    assert len(irrational) == 2


# SHA-256 of the tables of the catalog groups to order 16 and their subgroups,
# frozen before Dixon-Schneider lifted values along the power map
CATALOG16_TABLES_SHA256 = "61a60516fc0a3477fa1ea43b17a366223f56a2663ea752ef3afdb274dbf1c1f8"


def test_catalog_tables_to_order_16_are_frozen():
    def table_json(G):
        return json.dumps(compute_character_table(G).to_json(), sort_keys=True)

    # subgroup tables in sweep order, each distinct element set computed once
    digest = hashlib.sha256()
    seen: dict[tuple, str] = {}
    for name, G in catalog(16):
        for H in G.subgroups():
            key = (G.degree, H.elements)
            if key not in seen:
                seen[key] = table_json(H.as_group())
            digest.update(seen[key].encode())
        # a table depends only on the sorted element set: G's own table is
        # that of G as its own subgroup
        assert table_json(G) == seen[(G.degree, G.subgroups()[-1].elements)], name
    assert digest.hexdigest() == CATALOG16_TABLES_SHA256


# SHA-256 of the tables of A5, S5, PSL(2,7), S4xS4 (25 classes) and Q8xD8xC2
# (50 classes), frozen while Dixon-Schneider took its eigenvalues mod p from
# a minimal polynomial computed over GF(p)
LARGE_TABLES_SHA256 = "1b767b0e66097bf0748ba1f60e5a4fda323cc08ebcdad6665a01d2fb52ef5cdc"


def _large_groups() -> list[GroupHandle]:
    # A5, S5, PSL(2,7), S4xS4 and Q8xD8xC2
    gens = {name: list(G.generators) for name, G in catalog()}
    q8_d8 = direct_product(gens["Q8"], 8, gens["D8"], 4)
    return [make_a5(), make_s5(),
            enumerate_group([perm(7, (1, 2, 3, 4, 5, 6, 7)), perm(7, (1, 2), (3, 6))]),
            enumerate_group(direct_product(gens["S4"], 4, gens["S4"], 4)),
            enumerate_group(direct_product(q8_d8, 12, gens["C2"], 2))]


def test_larger_tables_are_frozen():
    groups = _large_groups()
    assert [(G.order, len(G.conjugacy_classes())) for G in groups] == [
        (60, 5), (120, 7), (168, 6), (576, 25), (128, 50)]
    digest = hashlib.sha256()
    for G in groups:
        digest.update(json.dumps(compute_character_table(G).to_json(),
                                 sort_keys=True).encode())
    assert digest.hexdigest() == LARGE_TABLES_SHA256


def test_dixon_prime_is_one_mod_e_above_the_bound_and_prime_to_the_order():
    groups = [G for _, G in catalog(24)] + _large_groups()
    for G in groups:
        e = G.exponent()
        p = _dixon_prime(e, G.order)
        assert (p - 1) % e == 0 and p * p > 4 * G.order and G.order % p != 0
        assert all(p % d for d in range(2, p))
        # the least such prime
        assert not any(q * q > 4 * G.order and all(q % d for d in range(2, q))
                       for q in range(e + 1, p, e))


def _abelian_handles():
    """(label, G) for every abelian catalog group to order 24 and every
    abelian subgroup (each element set once), C1 without generators among
    them, and handles with a redundant generator or one whose least power
    in the subgroup generated before it is below its order."""
    out = []
    seen = set()
    for name, G in catalog(24):
        for label, K in [(name, G)] + [(f"{name} > {H.order}", H.as_group())
                                       for H in G.subgroups()]:
            key = (K.degree, tuple(K.elements))
            if len(K.conjugacy_classes()) == K.order and key not in seen:
                seen.add(key)
                out.append((label, K))
    gens = {name: list(G.generators) for name, G in catalog()}
    for name in ("C2xC6", "C2xC2xC2"):
        a, b = gens[name][:2]
        out.append((f"{name} and a b", enumerate_group(gens[name] + [a * b])))
    c = gens["C6"][0]
    out.append(("C6 by c^2, c", enumerate_group([c * c, c])))
    a, b = direct_product(gens["C2"], 2, gens["C4"], 4)
    out.append(("C2xC4 by b, a b", enumerate_group([b, a * b])))
    return out


def test_abelian_tables_equal_dixon_schneider():
    handles = _abelian_handles()
    assert handles[0][0] == "C1" and handles[0][1].generators == ()
    for label, G in handles:
        classes = G.conjugacy_classes()
        e = G.exponent()
        want = _dixon_schneider(G, classes, e, _dixon_prime(e, G.order))
        assert compute_character_table(G).irreducibles == want, label


def test_abelian_table_needs_generators_of_the_whole_group():
    a, b = perm(4, (1, 2)), perm(4, (3, 4))
    G = GroupHandle(4, [a], enumerate_group([a, b]).elements)
    with pytest.raises(AssertionError, match="generators reach 2 of 4 elements"):
        compute_character_table(G)


def test_degree_one_characters_are_multiplicative(s4):
    tab = compute_character_table(s4)
    assert sorted(tab.degrees) == [1, 1, 2, 3, 3]


def test_class_fusion_examples(s3):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    fus = class_fusion(s3, H)
    fused_sizes = [s3.conjugacy_classes()[i].size for i in fus.mapping]
    assert fused_sizes == [1, 3]
    idf = class_fusion(s3, SubgroupHandle(s3, s3.elements))
    assert list(idf.mapping) == list(range(3))
    A3 = s3.subgroup_generated([perm(3, (1, 2, 3))])
    fus3 = class_fusion(s3, A3)
    assert [s3.conjugacy_classes()[i].size for i in fus3.mapping] == [1, 2, 2]


def test_inclusion_matrix_s2_s3(s3):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    M = inclusion_matrix(compute_character_table(s3),
                         compute_character_table(H.as_group()),
                         class_fusion(s3, H))
    assert M.to_lists() == [[1, 1, 0], [0, 1, 1]]


def test_inclusion_matrix_column_identity(a5):
    A4 = a5.subgroup_generated([perm(5, (1, 2, 3)), perm(5, (1, 2), (3, 4))])
    tabG = compute_character_table(a5)
    tabH = compute_character_table(A4.as_group())
    M = inclusion_matrix(tabG, tabH, class_fusion(a5, A4))
    for j in range(M.cols):
        assert sum(M.entries[i][j] * tabH.degrees[i] for i in range(M.rows)) \
            == tabG.degrees[j]
    assert all(any(row) for row in M.entries)
    assert all(any(M.entries[i][j] for i in range(M.rows)) for j in range(M.cols))


def test_inclusion_matrix_equals_the_all_inner_product_reference():
    for name, G, H in corpus_pairs_full(24):
        tabG = group_table(name, G)
        tabH = tabG if H.order == G.order else compute_character_table(H.as_group())
        fusion = class_fusion(G, H)
        assert inclusion_matrix(tabG, tabH, fusion).to_lists() \
            == reference_inclusion_matrix(tabG, tabH, fusion), (name, H.order)


def test_inclusion_matrix_rejects_a_wrong_fusion_of_a_linear_character():
    # C2 < C4: fusing the involution into the class of a generator restricts
    # the character with value i there to (1, i), no character of C2
    g = perm(4, (1, 2, 3, 4))
    G = enumerate_group([g])
    H = G.subgroup_generated([g * g])
    fusion = class_fusion(G, H)
    assert fusion.mapping[1] == G.class_index(g * g)
    wrong = ClassFusion((fusion.mapping[0], G.class_index(g)))
    tabG = compute_character_table(G)
    tabH = compute_character_table(H.as_group())
    assert inclusion_matrix(tabG, tabH, fusion).to_lists() == [[1, 0, 0, 1], [0, 1, 1, 0]]
    with pytest.raises(AssertionError, match="restricted linear character"):
        inclusion_matrix(tabG, tabH, wrong)


def test_permutation_character_examples(s3):
    H = s3.subgroup_generated([perm(3, (1, 2))])
    assert permutation_character(s3, H) == (3, 1, 0)
    assert permutation_character(s3, SubgroupHandle(s3, s3.elements)) == (1, 1, 1)
    assert permutation_character(s3, s3.trivial_subgroup()) == (6, 0, 0)


def test_permutation_character_counts_the_fixed_cosets():
    # |G:H| |C cap H| / |C| against the right cosets fixed by each class
    pairs = [(G, H) for _, G, H in corpus_pairs_full(24)]
    for G in (make_a5(), make_s5()):
        pairs += [(G, H) for H in G.subgroups()]
    assert len(pairs) == 580
    for G, H in pairs:
        assert permutation_character(G, H) == reference_permutation_character(G, H)


def test_permutation_character_properties(s4):
    tab = compute_character_table(s4)
    triv = tab.trivial_index()
    for H in s4.subgroups()[::4]:
        pc = permutation_character(s4, H)
        vals = [Cyc.rational(v) for v in pc]
        ip = inner_product(tab, vals, tab.irreducibles[triv])
        assert ip.as_fraction() >= 1
        assert pc[0] == s4.order // H.order


def test_frobenius_reciprocity(s3):
    # <chi down, phi> = <chi, phi up> on the S2 <= S3 pair
    H = s3.subgroup_generated([perm(3, (1, 2))])
    tabG = compute_character_table(s3)
    Hgrp = H.as_group()
    tabH = compute_character_table(Hgrp)
    fus = class_fusion(s3, H)
    M = inclusion_matrix(tabG, tabH, fus)
    for i, phi in enumerate(tabH.irreducibles):
        induced = induce_class_function(s3, H, phi)
        for j, chi in enumerate(tabG.irreducibles):
            lhs = M.entries[i][j]
            rhs = inner_product(tabG, chi, induced)
            assert rhs.as_fraction() == lhs


def test_perm_char_equals_induced_trivial_row(s3):
    # the permutation character is the trivial-row expansion of M
    H = s3.subgroup_generated([perm(3, (1, 2))])
    tabG = compute_character_table(s3)
    tabH = compute_character_table(H.as_group())
    M = inclusion_matrix(tabG, tabH, class_fusion(s3, H))
    triv_h = tabH.trivial_index()
    pc = permutation_character(s3, H)
    for cidx in range(len(tabG.classes)):
        acc = Cyc.zero()
        for j in range(M.cols):
            acc = acc + tabG.irreducibles[j][cidx] * M.entries[triv_h][j]
        assert acc.as_fraction() == pc[cidx]


def test_table_json_round_trip(s3):
    tab = compute_character_table(s3)
    data = tab.to_json()
    back = table_from_json(s3, data)
    assert tables_agree_up_to_row_permutation(tab, back)
    # a shuffled import still matches
    data["irreducibles"] = data["irreducibles"][::-1]
    shuffled = table_from_json(s3, data)
    assert tables_agree_up_to_row_permutation(tab, shuffled)


def test_table_import_errors(s3):
    tab = compute_character_table(s3)
    data = tab.to_json()
    bad = dict(data)
    bad["classes"] = data["classes"][:-1]
    with pytest.raises(ValueError):
        table_from_json(s3, bad)
    bad2 = dict(data)
    bad2["classes"] = [dict(c) for c in data["classes"]]
    bad2["classes"][1]["size"] = 99
    with pytest.raises(ValueError):
        table_from_json(s3, bad2)
    # corrupted values break orthogonality
    bad3 = dict(data)
    bad3["irreducibles"] = [row[:] for row in data["irreducibles"]]
    bad3["irreducibles"][0][1] = "7"
    with pytest.raises(AssertionError):
        table_from_json(s3, bad3)


# -- the integer inner product kernel -------------------------------------------

_TABLES = {}


def _table(name):
    # module-level cache: hypothesis examples reuse the two tables
    if name not in _TABLES:
        G = make_s4() if name == "S4" else make_a5()
        _TABLES[name] = compute_character_table(G)
    return _TABLES[name]


@st.composite
def class_function_pairs(draw):
    """(table, a, b): two class functions with values in Q(zeta_d) for
    divisors d of e, e in {1, 2, 3, 4, 6, 8, 12}, rational coordinates."""
    tab = _table(draw(st.sampled_from(["S4", "A5"])))
    e = draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))
    coord = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))

    def value():
        d = draw(st.sampled_from([d for d in range(1, e + 1) if e % d == 0]))
        phi = len(Cyc.root_of_unity(d).coeffs)
        return Cyc(d, draw(st.lists(coord, min_size=phi, max_size=phi)))

    a = [value() for _ in tab.classes]
    b = [value() for _ in tab.classes]
    return tab, a, b


@given(class_function_pairs())
@settings(max_examples=120, deadline=None)
def test_integer_inner_product_matches_cyc_reference(case):
    tab, a, b = case
    got = inner_product(tab, a, b)
    assert got == cyc_inner_product(tab, a, b)
    assert inner_product(tab, b, a) == conjugate(got)


def test_inner_product_of_table_rows_is_the_identity(a5):
    tab = compute_character_table(a5)
    for i, x in enumerate(tab.irreducibles):
        for j, y in enumerate(tab.irreducibles):
            assert inner_product(tab, x, y) == int(i == j)
            assert cyc_inner_product(tab, x, y) == int(i == j)


@pytest.mark.parametrize("name", ["S4", "A5"])
def test_verify_raises_on_one_corrupted_value(name):
    tab = _table(name)
    zeta = Cyc.root_of_unity(tab.exponent)
    for i, row in enumerate(tab.irreducibles):
        for c in range(len(row)):
            # zeta at the identity class would make the degree irrational
            for delta in (Cyc.one(), zeta) if c else (Cyc.one(),):
                bad = list(tab.irreducibles)
                bad[i] = row[:c] + (row[c] + delta,) + row[c + 1:]
                with pytest.raises(AssertionError):
                    CharacterTable(tab.group, tab.exponent, tab.classes, bad).verify()


def test_verify_raises_on_a_fractional_value(s3):
    # a value off Z[zeta_e] takes the common-denominator path of the kernel
    tab = compute_character_table(s3)
    bad = list(tab.irreducibles)
    bad[2] = bad[2][:1] + (bad[2][1] + Fraction(1, 2),) + bad[2][2:]
    with pytest.raises(AssertionError, match="row orthogonality failed"):
        CharacterTable(s3, tab.exponent, tab.classes, bad).verify()


# -- GF(p) elimination -----------------------------------------------------------

@st.composite
def modp_matrices(draw):
    """(p, n, A): an integer n x n matrix, read mod p, for p in {7, 31, 101}."""
    p = draw(st.sampled_from([7, 31, 101]))
    n = draw(st.integers(1, 5))
    # small entries make repeated eigenvalues and nilpotent parts likely
    entry = st.integers(-2, 2) if draw(st.booleans()) else st.integers(0, p - 1)
    A = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    return p, n, A


@given(modp_matrices())
@example((7, 1, [[0]]))
@example((31, 4, [[0] * 4 for _ in range(4)]))
@example((101, 3, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
@example((7, 4, [[3, 1, 0, 0], [0, 3, 0, 0], [0, 0, 3, 1], [0, 0, 0, 3]]))
@example((31, 5, [[0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 5, 0, 0],
                  [0, 0, 0, 0, 1], [0, 0, 0, 0, 0]]))
@example((7, 4, [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 0]]))
@settings(max_examples=80, deadline=None)
def test_minimal_polynomial_roots_mod_p_are_the_eigenvalues_mod_p(pnA):
    # Dixon-Schneider splits by the roots mod p of the minimal polynomial
    # over Q of a matrix of residues
    p, n, A = pnA
    m = minimal_polynomial(A)
    roots = {lam for lam in range(p) if sum(c * lam ** i for i, c in enumerate(m)) % p == 0}
    singular = {lam for lam in range(p)
                if len(_modp_rref([[x - lam * (i == j) for j, x in enumerate(row)]
                                   for i, row in enumerate(A)], p)[1]) < n}
    assert roots == singular


@given(modp_matrices())
@settings(max_examples=80, deadline=None)
def test_modp_kernel_annihilates_and_has_full_dimension(pnA):
    p, n, A = pnA
    kern = _modp_kernel(A, n, p)
    for v in kern:
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in A)
    _, pivots = _modp_rref(A, p)
    assert len(kern) == n - len(pivots)
    assert len(_modp_rref(kern, p)[1]) == len(kern)
