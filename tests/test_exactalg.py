import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subdepth.exactalg import (Cyc, ExactMatrix, MalformedSequenceError, RowSpace,
                               cyclotomic_polynomial, euler_phi,
                               factor_rational_roots, is_indecomposable,
                               kernel_of_sparse_columns, minimal_polynomial,
                               pattern_stabilization_index, scalar_from_string,
                               as_cyc, scalar_to_string, solve_kernel)

from helpers import (conjugate, derivative, evaluate_matrix,
                     exact_pattern_stabilization_index, from_roots, matpow,
                     poly_gcd, poly_mul, reference_cyc_minimal_polynomial,
                     reference_factor_rational_roots, reference_inverse,
                     reference_minimal_polynomial)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)
small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=3)


# -- cyclotomic scalars -------------------------------------------------------

def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(60) == 16


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
def test_root_of_unity_has_order_n(n):
    z = Cyc.root_of_unity(n)
    assert z ** n == 1
    for k in range(1, n):
        assert not (z ** k == 1)


def test_sum_of_all_nth_roots_vanishes():
    for n in [3, 4, 5, 12]:
        s = Cyc.zero()
        for k in range(n):
            s = s + Cyc.root_of_unity(n, k)
        assert s.is_zero()


def test_conjugation_is_involution():
    z = Cyc.root_of_unity(12, 5) + Cyc.rational(Fraction(2, 3))
    assert conjugate(conjugate(z)) == z
    assert conjugate(Cyc.root_of_unity(5)) == Cyc.root_of_unity(5, 4)


def test_norm_in_gaussian_field_is_positive_rational():
    # z in Q(zeta_4) with rational coefficients: z zbar is a positive rational
    i = Cyc.root_of_unity(4)
    z = Cyc.rational(Fraction(3, 2)) + i * Fraction(-5, 7)
    norm = z * conjugate(z)
    assert norm.is_rational()
    assert norm.as_fraction() > 0
    assert norm.as_fraction() == Fraction(3, 2) ** 2 + Fraction(5, 7) ** 2


def test_inverse_and_division():
    z = Cyc.root_of_unity(7) + 2
    assert z * z.inverse() == 1
    assert (z / z) == 1
    with pytest.raises(ZeroDivisionError):
        Cyc.zero().inverse()


def test_mixed_order_arithmetic_lifts_to_lcm():
    a = Cyc.root_of_unity(4)
    b = Cyc.root_of_unity(6)
    c = a * b
    assert c.order == 12
    assert c == Cyc.root_of_unity(12, 3 + 2)


def test_canonical_conductor():
    # zeta_6^2 is a primitive cube root, conductor 3
    z = Cyc.root_of_unity(6, 2)
    assert z.canonical().order == 3
    assert z == Cyc.root_of_unity(3)
    assert hash(z) == hash(Cyc.root_of_unity(3))
    assert Cyc.root_of_unity(4, 2) == -1


def test_scalar_serialization_round_trip():
    vals = [Cyc.rational(Fraction(-7, 3)), Cyc.zero(), Cyc.root_of_unity(8, 3),
            Cyc.root_of_unity(5) + Cyc.rational(Fraction(1, 2))]
    for v in vals:
        s = scalar_to_string(v)
        assert scalar_from_string(s) == v
    assert scalar_to_string(Cyc.rational(Fraction(3, 4))) == "3/4"
    assert scalar_from_string("5:[0,1,0,0]") == Cyc.root_of_unity(5)


@given(st.integers(0, 11), st.integers(0, 11), rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_field_axioms_sampled(e1, e2, c1, c2):
    a = Cyc.root_of_unity(12, e1) * c1
    b = Cyc.root_of_unity(12, e2) * c2
    assert a * b == b * a
    assert (a + b) * (a - b) == a * a - b * b
    if not b.is_zero():
        assert (a / b) * b == a


# -- int-first coordinates ----------------------------------------------------

ORDERS = [1, 3, 4, 5, 8, 12]


@st.composite
def cyc_elements(draw, orders=ORDERS):
    n = draw(st.sampled_from(orders))
    return Cyc(n, draw(st.lists(small_rationals, min_size=euler_phi(n),
                                max_size=euler_phi(n))))


scalars = st.one_of(cyc_elements(), small_rationals, st.integers(-6, 6))


def assert_exact_coords(z):
    """Every coordinate is an int when integral and a Fraction otherwise, and
    z equals the value the public constructor builds from its coordinates,
    with the same coordinates once lifted back to z's order."""
    assert isinstance(z, Cyc)
    for c in z.coeffs:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
    public = Cyc(z.order, z.coeffs)
    back = public.lift(z.order)
    assert public == z and back.coeffs == z.coeffs
    assert [type(c) for c in back.coeffs] == [type(c) for c in z.coeffs]


def assert_rational_at_order_one(z):
    """The invariant of every constructed or computed scalar: a rational
    value has order 1 and one coordinate."""
    if z.is_rational():
        assert z.order == 1 and len(z.coeffs) == 1, (z.order, z.coeffs)


def reference_product(a, b):
    # schoolbook product of the coordinate polynomials mod Phi_n, over Fraction
    n = a.order
    conv = [Fraction(0)] * (2 * euler_phi(n) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            conv[i + j] += Fraction(x) * Fraction(y)
    mod = cyclotomic_polynomial(n)
    for m in range(len(conv) - 1, euler_phi(n) - 1, -1):
        c, conv[m] = conv[m], Fraction(0)
        for j, p in enumerate(mod[:-1]):
            conv[m - euler_phi(n) + j] -= c * p
    return conv[:euler_phi(n)]


@given(cyc_elements(), scalars)
@settings(max_examples=150, deadline=None)
def test_arithmetic_results_have_exact_coordinates(a, b):
    results = [a + b, b + a, a - b, b - a, -a, a * b, b * a, a.canonical()]
    if not a.is_zero():
        results += [a.inverse(), b / a]
    if not Cyc.rational(0) == b:
        results.append(a / b)
    for z in results:
        assert_exact_coords(z)
        assert_rational_at_order_one(z)
    # lift is the one raw-coordinate path: phi(n) coordinates, rational or not
    for k in (1, 2, 3):
        z = a.lift(a.order * k)
        assert_exact_coords(z)
        assert z.order == a.order * k and len(z.coeffs) == euler_phi(z.order)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_product_matches_fraction_reference(data):
    # operands drawn at one order n, whose rational values sit at order 1;
    # the reference runs on their raw coordinates at order n
    n = data.draw(st.sampled_from(ORDERS))
    a = data.draw(cyc_elements(orders=[n]))
    b = data.draw(cyc_elements(orders=[n]))
    ra, rb = a.lift(n), b.lift(n)
    for got in (a * b, a + b):
        assert_rational_at_order_one(got)
    assert list((a * b).lift(n).coeffs) == reference_product(ra, rb)
    assert list((a + b).lift(n).coeffs) == [Fraction(x) + y for x, y in zip(ra.coeffs, rb.coeffs)]
    if not a.is_zero():
        assert a * a.inverse() == 1 and (b / a) * a == b


@pytest.mark.parametrize("z", [
    Cyc.rational(4), Cyc.rational(Fraction(-5, 7)),
    Cyc(3, (2, -1)), Cyc(3, (Fraction(1, 2), 3)),
    Cyc(4, (0, 5)), Cyc(4, (Fraction(-2, 3), Fraction(7, 4))),
    Cyc(12, (1, 0, -2, 6)), Cyc(12, (Fraction(3, 4), -1, 0, Fraction(5, 9)))])
def test_rational_factor_scales_like_lift_then_multiply(z):
    n = z.order
    for r in (0, 1, -1, Fraction(-3, 2)):
        # the rational factor lifted to Q(zeta_n), then the general product
        want = (Cyc.rational(r).lift(n) * z).lift(n).coeffs if n > 1 \
            else (Fraction(r) * z.coeffs[0],)
        for got in (Cyc.rational(r) * z, z * Cyc.rational(r), z * r, r * z):
            # z is irrational unless n = 1, so r z is rational iff r = 0
            assert got.order == (n if r else 1) and got.lift(n).coeffs == want
            assert_exact_coords(got)
            assert_rational_at_order_one(got)
    zero = Cyc.zero() * z
    assert zero.order == 1 and zero.coeffs == (0,)
    assert zero.lift(n).coeffs == (0,) * euler_phi(n)
    if z.order > 1:
        # no arithmetic at all for a factor of 1
        assert Cyc.one() * z is z and z * Cyc.one() is z


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12, 24])
def test_inverse_equals_the_euclid_reference(n):
    # int and Fraction coordinates, dense and sparse, and every root of unity
    rng = random.Random(n)
    values = [0, 0, 1, -1, 3, -7, Fraction(1, 2), Fraction(-5, 3), Fraction(9, 4)]
    elements = [Cyc.root_of_unity(n, k) for k in range(n)]
    elements += [Cyc(n, [rng.choice(values) for _ in range(euler_phi(n))])
                 for _ in range(40)]
    for z in elements:
        if z.is_zero():
            continue
        got, want = z.inverse(), reference_inverse(z)
        assert got.lift(n).coeffs == want.lift(n).coeffs
        assert got.order == (1 if got.is_rational() else n)
        assert_exact_coords(got)
        assert_rational_at_order_one(got)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_rational_results_have_order_one(data):
    n = data.draw(st.sampled_from(ORDERS))
    a = data.draw(cyc_elements(orders=[n]))
    b = data.draw(st.one_of(cyc_elements(orders=[n]), cyc_elements(), small_rationals))
    results = [a + b, b + a, a - b, b - a, a * b, b * a, a * a]
    if not a.is_zero():
        results += [a.inverse(), b / a]
    # results that are rational whatever a is
    results += [a - a, a * 0, 0 * a, Cyc.zero() * a]
    coords = data.draw(st.lists(small_rationals, min_size=euler_phi(n),
                                max_size=euler_phi(n)))
    results += [Cyc(n, coords), Cyc(n, coords[:1] + [0] * (euler_phi(n) - 1)),
                Cyc.from_power_sum(n, dict(enumerate(coords))),
                Cyc.from_power_sum(n, {0: coords[0]}),
                Cyc.from_power_sum(n, {k: 1 for k in range(n)})]
    for z in results:
        assert_rational_at_order_one(z)
        assert_exact_coords(z)
    # lift keeps raw coordinates: phi(m) of them at every multiple m of the
    # order, also when it lifts a value that is already lifted
    for z in (a, as_cyc(b)):
        for k in (1, 2, 3):
            m = z.order * n * k
            for lifted in (z.lift(m), z.lift(m).lift(2 * m)):
                assert len(lifted.coeffs) == euler_phi(lifted.order)
                assert lifted.order in (m, 2 * m) and lifted == z


@given(small_rationals)
@settings(max_examples=60, deadline=None)
def test_as_fraction_returns_fraction(r):
    for z in (Cyc.rational(r), Cyc.rational(r) * 3, Cyc(4, (r, 0)), Cyc.rational(r).lift(12)):
        f = z.as_fraction()
        assert type(f) is Fraction
        assert f == z.coeffs[0]


def test_shared_zero_and_one_are_immutable():
    assert Cyc.zero() is Cyc.zero() and Cyc.one() is Cyc.one()
    for z in (Cyc.zero(), Cyc.one()):
        with pytest.raises(AttributeError):
            z.order = 3
        with pytest.raises(AttributeError):
            z.coeffs = (5,)
        with pytest.raises(AttributeError):
            del z.coeffs
    assert Cyc.zero().coeffs == (0,) and Cyc.one().coeffs == (1,)
    assert Cyc.zero().order == Cyc.one().order == 1


def test_integral_coordinates_are_ints():
    assert Cyc(3, (Fraction(4, 2), Fraction(1, 3))).coeffs == (2, Fraction(1, 3))
    assert type(Cyc.rational(Fraction(6, 3)).coeffs[0]) is int
    half = Cyc.rational(Fraction(1, 2))
    assert type((half + half).coeffs[0]) is int
    assert type((Cyc.rational(2) / 2).coeffs[0]) is int
    assert type(Cyc.rational(7).inverse().coeffs[0]) is Fraction


# -- integer numerators over one denominator ----------------------------------

def assert_normal_form(z):
    """den >= 1 and coprime to the numerators, and order 1 exactly when z
    is rational; a rational z compares and hashes like its Fraction."""
    assert all(type(x) is int for x in z.nums) and type(z.den) is int
    assert len(z.nums) == euler_phi(z.order)
    assert z.den >= 1 and gcd(z.den, *z.nums) == 1, (z.nums, z.den)
    assert (z.order == 1) == z.is_rational(), (z.order, z.nums)
    if z.order == 1:
        f = Fraction(z.nums[0], z.den)
        assert z == f and hash(z) == hash(f) and z.as_fraction() == f


def reference_power_sum(n, powers):
    # sum c x^e reduced mod Phi_n by long division, over Fraction
    phi = euler_phi(n)
    poly = [Fraction(0)] * max(phi, max(powers, default=0) + 1)
    for e, c in powers.items():
        poly[e] += c
    mod = cyclotomic_polynomial(n)
    for m in range(len(poly) - 1, phi - 1, -1):
        c, poly[m] = poly[m], Fraction(0)
        for j, p in enumerate(mod[:-1]):
            poly[m - phi + j] -= c * p
    return poly[:phi]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_results_are_in_normal_form_and_match_the_fraction_reference(data):
    n = data.draw(st.sampled_from(ORDERS))
    a = data.draw(cyc_elements(orders=[n]))
    b = data.draw(st.one_of(cyc_elements(orders=[n]), small_rationals, st.integers(-6, 6)))
    ra, rb = a.lift(n), as_cyc(b).lift(n)

    def coords(z):
        return list(z.lift(n).coeffs)

    checks = [(a * b, reference_product(ra, rb)), (b * a, reference_product(ra, rb)),
              (a + b, [Fraction(x) + y for x, y in zip(ra.coeffs, rb.coeffs)]),
              (a - b, [Fraction(x) - y for x, y in zip(ra.coeffs, rb.coeffs)]),
              (b - a, [Fraction(y) - x for x, y in zip(ra.coeffs, rb.coeffs)])]
    for z, want in checks:
        assert_normal_form(z)
        assert coords(z) == want
    if not a.is_zero():
        inv = a.inverse()
        assert_normal_form(inv)
        assert reference_product(inv.lift(n), ra) == [1] + [0] * (euler_phi(n) - 1)
        q = b / a
        assert_normal_form(q)
        assert reference_product(q.lift(n), ra) == list(rb.coeffs)
    powers = data.draw(st.dictionaries(st.integers(0, 2 * n), small_rationals, max_size=4))
    z = Cyc.from_power_sum(n, powers)
    assert_normal_form(z)
    assert coords(z) == reference_power_sum(n, powers)
    # lift keeps den and the coprimality, and only it may leave a rational
    # value above order 1
    lifted = a.lift(2 * n)
    assert lifted.den == a.den and gcd(lifted.den, *lifted.nums) == 1


def test_arithmetic_on_denominators_builds_no_fraction(monkeypatch):
    za = Cyc(3, (Fraction(2, 3), Fraction(-1, 5)))
    zb = Cyc(3, (Fraction(1, 2), Fraction(3, 4)))
    zi = Cyc(3, (2, -1))
    r = Cyc.rational(Fraction(-5, 6))
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    results = [za * zb, za * zi, zi * za, za * r, r * za, za * 3,
               za + zb, za + zi, za + r, za - zb, zb - zi, za - za, za * zb - zb * za]
    monkeypatch.undo()
    assert built == []
    # (10 - 3 x)/15 times (2 + 3 x)/4 is (29 + 33 x)/60 mod x^2 + x + 1
    assert results[0].nums == (29, 33) and results[0].den == 60
    assert [z.den for z in results[1:6]] == [15, 15, 18, 18, 5]
    assert results[-2] == 0 and results[-1] == 0
    assert za.coeffs == (Fraction(2, 3), Fraction(-1, 5))   # the accessor builds them


# -- kernels ------------------------------------------------------------------

def test_kernel_of_identity_is_empty():
    assert solve_kernel(ExactMatrix.identity(3)) == []


def test_kernel_of_zero_matrix_is_standard_basis():
    basis = solve_kernel(ExactMatrix.zeros(2, 2))
    assert len(basis) == 2
    assert basis[0][0] == 1 and basis[0][1] == 0
    assert basis[1][0] == 0 and basis[1][1] == 1


def test_kernel_hand_example():
    A = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    basis = solve_kernel(A)
    assert len(basis) == 1
    v = basis[0]
    assert [x.as_fraction() for x in v] == [1, -1, 1]


@given(st.lists(st.lists(small_rationals, min_size=3, max_size=3),
                min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_annihilate_and_rank_nullity(rows):
    A = ExactMatrix.from_rows(rows)
    basis = solve_kernel(A)
    for v in basis:
        img = [sum((A.at(i, j) * v[j]).as_fraction() for j in range(A.cols))
               for i in range(A.rows)]
        assert all(x == 0 for x in img)
    rank = A.cols - len(basis)
    # rank equals the row rank computed from the transpose kernel
    rank_t = A.rows - len(solve_kernel(A.transpose()))
    assert rank == rank_t


@given(st.lists(st.lists(small_rationals, min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.fractions(min_value=Fraction(1, 3), max_value=5,
                             max_denominator=3),
                min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_kernel_invariant_under_row_scaling(rows, scales):
    A = ExactMatrix.from_rows(rows)
    B = ExactMatrix.from_rows([[Fraction(s) * x for x in row]
                               for s, row in zip(scales, rows)])
    assert solve_kernel(A) == solve_kernel(B)


# -- the elimination engine ---------------------------------------------------

ENGINE_WIDTH = 5


@st.composite
def field_scalars(draw, order):
    """Scalars of Q(zeta_order), zero about a third of the time."""
    if draw(st.integers(0, 2)) == 0:
        return Cyc.zero()
    return Cyc(order, draw(st.lists(small_rationals, min_size=euler_phi(order),
                                    max_size=euler_phi(order))))


@st.composite
def sparse_rows(draw, min_size=0, max_size=6):
    """(order, rows): sparse rows of width ENGINE_WIDTH over one of Q,
    Q(zeta_3), Q(zeta_4)."""
    order = draw(st.sampled_from([1, 3, 4]))
    rows = draw(st.lists(st.lists(field_scalars(order), min_size=ENGINE_WIDTH,
                                  max_size=ENGINE_WIDTH),
                         min_size=min_size, max_size=max_size))
    return order, [{j: x for j, x in enumerate(row) if not x.is_zero()} for row in rows]


def row_space(rows):
    space = RowSpace(ENGINE_WIDTH)
    for row in rows:
        space.add(row)
    return space


def combine(coeffs, rows):
    out = {}
    for c, row in zip(coeffs, rows):
        for j, x in row.items():
            out[j] = out.get(j, Cyc.zero()) + c * x
    return {j: x for j, x in out.items() if not x.is_zero()}


@given(sparse_rows(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_rowspace_basis_ignores_insertion_order(order_rows, rnd):
    # the reduced echelon form is unique, which every byte-identical output
    # of the package rests on
    _, rows = order_rows
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert row_space(rows).basis_rows() == row_space(shuffled).basis_rows()
    assert row_space(rows).basis_rows() == row_space(rows[::-1]).basis_rows()


@given(sparse_rows(min_size=1), st.data())
@settings(max_examples=60, deadline=None)
def test_rowspace_reduce_is_empty_exactly_on_the_span(order_rows, data):
    order, rows = order_rows
    space = row_space(rows)
    coeffs = data.draw(st.lists(field_scalars(order), min_size=len(rows),
                                max_size=len(rows)))
    assert space.reduce(combine(coeffs, rows)) == {}
    dense_v = data.draw(st.lists(field_scalars(order), min_size=ENGINE_WIDTH,
                                 max_size=ENGINE_WIDTH))
    v = {j: x for j, x in enumerate(dense_v) if not x.is_zero()}
    r = space.reduce(v)
    assert all(p not in r for p in space.pivots)
    # v - reduce(v) is the combination of basis rows read off at the pivots,
    # so reduce(v) is empty iff v lies in the span
    part = combine([v.get(p, Cyc.zero()) for p in sorted(space.pivots)],
                   space.basis_rows())
    assert combine([Cyc.one(), Cyc.rational(-1)], [v, r]) == part


@given(sparse_rows(min_size=1))
# two columns of rank 2 with five nonzero rows: full column rank is reached
# at the second row, before the last three
@example((1, [{0: Cyc.rational(1), 1: Cyc.rational(1), 2: Cyc.rational(2),
               3: Cyc.rational(1), 4: Cyc.rational(3)},
              {1: Cyc.rational(1), 2: Cyc.rational(1), 3: Cyc.rational(-1),
               4: Cyc.rational(5)}]))
@settings(max_examples=60, deadline=None)
def test_kernel_of_sparse_columns_matches_solve_kernel(order_rows):
    # the rows drawn are read as the columns of a 5-row matrix
    _, cols = order_rows
    dense = ExactMatrix.from_rows([[col.get(i, Cyc.zero()) for col in cols]
                                   for i in range(ENGINE_WIDTH)])
    sparse = kernel_of_sparse_columns(cols)
    # sparse vectors with no zero entries, which solve_kernel densifies
    assert all(v and not any(c.is_zero() for c in v.values()) for v in sparse)
    assert ([tuple(v.get(j, Cyc.zero()) for j in range(len(cols))) for v in sparse]
            == solve_kernel(dense))


# -- minimal polynomials ------------------------------------------------------

def test_minpoly_of_worked_example_matrices():
    # B = M M^t and C = M^t M for M = [[1, 1, 0], [0, 1, 1]]
    B = [[2, 1], [1, 2]]
    C = [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    assert minimal_polynomial(B) == from_roots([1, 3])
    assert minimal_polynomial(C) == from_roots([0, 1, 3])


def test_minpoly_of_identity():
    identity = [[int(i == j) for j in range(5)] for i in range(5)]
    assert minimal_polynomial(identity) == (-1, 1)


def test_minpoly_nilpotent():
    assert minimal_polynomial([[0, 1], [0, 0]]) == (0, 0, 1)


def test_minpoly_needs_a_square_matrix():
    with pytest.raises(ValueError, match="square"):
        minimal_polynomial([[1, 2]])


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_minpoly_annihilates(rows):
    A = ExactMatrix.from_rows(rows)
    m = minimal_polynomial(rows)
    assert evaluate_matrix(m, A).is_zero()
    assert m[-1] == 1


@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_minpoly_squarefree_for_symmetric_integer(vals):
    m = minimal_polynomial([[vals[0], vals[1], vals[2]],
                            [vals[1], vals[3], vals[4]],
                            [vals[2], vals[4], vals[5]]])
    assert len(poly_gcd(m, derivative(m))) == 1


def block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    rows, off = [], 0
    for b in blocks:
        for row in b:
            rows.append([0] * off + list(row) + [0] * (n - off - len(row)))
        off += len(b)
    return rows


@st.composite
def square_integer_matrices(draw, max_n=5):
    """Square integer matrices, some block diagonal with a repeated block,
    so that start vectors share part of the running minimal polynomial."""
    entry = st.integers(-1, 1) if draw(st.booleans()) else st.integers(-6, 6)

    def square(n):
        return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                             min_size=n, max_size=n))

    if draw(st.booleans()):
        return square(draw(st.integers(1, max_n)))
    block = square(draw(st.integers(1, 2)))
    return block_diagonal(block, square(draw(st.integers(0, 1))), block)


JORDAN_0 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
JORDAN_2 = [[2, 1], [0, 2]]


@given(square_integer_matrices())
@example([[0]])
@example([[-5]])
@example([[0] * 4 for _ in range(4)])
@example(JORDAN_0)
@example(block_diagonal(JORDAN_2, [[2]], JORDAN_2))
@example(block_diagonal([[0, 1], [0, 0]], [[0]]))
@example(block_diagonal(JORDAN_0, [[0, 1], [0, 0]], [[3]]))
@example(block_diagonal([[1, 1], [1, 0]], [[1, 1], [1, 0]], [[1, 1], [1, 0]]))
@example(block_diagonal([[0, -1], [1, 0]], [[1]], [[0, -1], [1, 0]]))
@settings(max_examples=80, deadline=None)
def test_minpoly_agrees_with_the_lcm_reference(rows):
    A = ExactMatrix.from_rows(rows)
    m = minimal_polynomial(rows)
    assert m == reference_minimal_polynomial(A)
    assert m == reference_cyc_minimal_polynomial(A)


def test_minpoly_of_a_repeated_dense_block():
    # diag(A, A) for a dense symmetric 12x12 A = M M^t: deg m stays 12 < 24,
    # so every start vector is tried, and each one of the second block gives
    # w = m(A) e = 0
    rng = random.Random(12)
    M = [[rng.randint(0, 3) for _ in range(12)] for _ in range(12)]
    A = [[sum(x * y for x, y in zip(r, s)) for s in M] for r in M]
    rows = block_diagonal(A, A)
    m = minimal_polynomial(rows)
    assert m == minimal_polynomial(A)
    assert m == reference_minimal_polynomial(ExactMatrix.from_rows(rows))
    assert evaluate_matrix(m, ExactMatrix.from_rows(rows)).is_zero()


# -- rational roots -----------------------------------------------------------

def test_factor_rational_roots_examples():
    p = from_roots([0, 1, 3])
    roots, resid = factor_rational_roots(p)
    assert roots == {0: 1, 1: 1, 3: 1}
    assert resid == (1,)
    q = (-2, 0, 1)  # X^2 - 2
    roots, resid = factor_rational_roots(q)
    assert roots == {}
    assert resid == q


def test_factor_rational_roots_multiplicity_and_negative():
    p = poly_mul(from_roots([-3, -3]), (-2, 0, 1))
    roots, resid = factor_rational_roots(p)
    assert roots == {-3: 2}
    assert resid == (-2, 0, 1)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_factor_reconstructs_product(root_list):
    p = from_roots(root_list)
    roots, resid = factor_rational_roots(p)
    assert resid == (1,)
    assert all(type(r) is int for r in roots)
    rebuilt = (1,)
    for r, m in roots.items():
        for _ in range(m):
            rebuilt = poly_mul(rebuilt, (-r, 1))
    assert rebuilt == p
    assert sum(roots.values()) == len(root_list)


@st.composite
def products_of_linear_and_quadratic_factors(draw):
    """prod (X - r) over small integers r, some of them repeated, times up
    to two monic quadratics X^2 + b X + c (with or without rational roots,
    as X^2 - 2 has none)."""
    distinct = draw(st.lists(st.integers(-9, 9), max_size=4, unique=True))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=3)) if distinct else []
    p = from_roots(distinct + repeats)
    for _ in range(draw(st.integers(0, 2))):
        p = poly_mul(p, (draw(st.integers(-5, 5)), draw(st.integers(-5, 5)), 1))
    return p


@given(products_of_linear_and_quadratic_factors())
@example((-2, 0, 1))
@example((1,))
@example(poly_mul(poly_mul(from_roots([0, 0, 2, 2, -3]), (-2, 0, 1)), (1, 0, 1)))
@example(from_roots([-4, 1, 3]))
@settings(max_examples=150, deadline=None)
def test_factor_rational_roots_agrees_with_the_divisor_reference(p):
    roots, resid = factor_rational_roots(p)
    ref_roots, ref_resid = reference_factor_rational_roots(p)
    assert list(roots.items()) == list(ref_roots.items())   # same order too
    assert resid == ref_resid


@given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=4),
       st.sampled_from([(-2, 0, 1), (1, 0, 1), (3, 1, 1)]))
@settings(max_examples=60, deadline=None)
def test_factor_rational_roots_recovers_large_roots(nums, quadratic):
    # far beyond a divisor search: |constant term| reaches 10^60
    want = nums + [nums[0]]
    p = poly_mul(from_roots(want), quadratic)
    roots, resid = factor_rational_roots(p)
    assert roots == Counter(want)
    assert list(roots) == sorted(roots, key=lambda r: (r != 0, r))
    assert resid == quadratic


# -- pattern scans ------------------------------------------------------------

def gram(M):
    """M M^t for an integer grid M."""
    return [[sum(a * b for a, b in zip(r, s)) for s in M] for r in M]


def test_pattern_stabilization_positive_matrix():
    B = [[2, 1], [1, 2]]
    assert pattern_stabilization_index(B, B, 10) == 1


def test_pattern_stabilization_s2_s3_c_matrix():
    C = [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    assert pattern_stabilization_index(C, C, 10) == 2


def test_pattern_stabilization_block_diagonal():
    M = [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0],
         [0, 0, 0, 1, 1], [0, 0, 0, 0, 1]]
    B = gram(M)
    assert pattern_stabilization_index(B, B, 10) == 2


def test_pattern_budget_exhaustion_returns_none():
    C = [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    assert pattern_stabilization_index(C, C, 1) is None


def test_pattern_monotonicity_violation_raises():
    # I, then the swap: the pattern loses the diagonal
    with pytest.raises(MalformedSequenceError):
        pattern_stabilization_index([[1, 0], [0, 1]], [[0, 1], [1, 0]], 5)
    with pytest.raises(MalformedSequenceError):
        pattern_stabilization_index([[-1]], [[-1]], 5)
    with pytest.raises(MalformedSequenceError):
        pattern_stabilization_index([[1, 0], [0, 1]], [[1, -1], [0, 1]], 5)


@st.composite
def scan_inputs(draw):
    """(S, A, k_max): a p x q start and a q x q step, nonnegative integers,
    sparse enough that stabilization can take several steps."""
    p = draw(st.integers(1, 4))
    q = draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 0, 1, 2])
    S = draw(st.lists(st.lists(entry, min_size=q, max_size=q), min_size=p, max_size=p))
    A = draw(st.lists(st.lists(entry, min_size=q, max_size=q), min_size=q, max_size=q))
    if draw(st.booleans()):
        # a positive diagonal makes the fill-in monotone
        A = [[x or int(i == j) for j, x in enumerate(row)] for i, row in enumerate(A)]
    return S, A, draw(st.integers(0, 4))


@given(scan_inputs())
# the budget runs out; the pattern of a shift loses its entry
@example(([[1, 1, 0], [1, 2, 1], [0, 1, 1]], [[1, 1, 0], [1, 2, 1], [0, 1, 1]], 1))
@example(([[1, 0, 0]], [[0, 1, 0], [0, 0, 1], [0, 0, 0]], 5))
@settings(max_examples=150, deadline=None)
def test_bitset_scan_matches_the_exact_power_scan(case):
    S, A, k_max = case
    Sx, Ax = ExactMatrix.from_rows(S), ExactMatrix.from_rows(A)

    def seq(k):
        return Sx if k == 1 else Sx @ matpow(Ax, k - 1)

    try:
        want = exact_pattern_stabilization_index(seq, k_max)
    except MalformedSequenceError:
        with pytest.raises(MalformedSequenceError):
            pattern_stabilization_index(S, A, k_max)
        return
    assert pattern_stabilization_index(S, A, k_max) == want


# -- indecomposability --------------------------------------------------------

def test_indecomposable_examples():
    C = [[1, 1, 0], [1, 2, 1], [0, 1, 1]]
    assert is_indecomposable(C)
    D = [[1, 0], [0, 1]]
    assert not is_indecomposable(D)
    assert is_indecomposable([[0]])
    assert is_indecomposable([[0, 1, 0], [0, 0, 0], [0, 1, 0]])
    with pytest.raises(ValueError):
        is_indecomposable([[1, 0]])
    with pytest.raises(ValueError):
        is_indecomposable([[1, -1], [0, 1]])
