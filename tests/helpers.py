"""Shared builders and check routines for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction

from subdepth.chartab import (class_fusion, compute_character_table,
                              inclusion_matrix)
from subdepth.corpus import (cached_table, corpus_groups,
                             subgroups_up_to_conjugacy)
from subdepth.depthmat import depth_report
from subdepth.exactalg import Cyc, ExactMatrix, MalformedSequenceError
from subdepth.hopfcore import _vadd, _veq, _vscale, build_group_algebra
from subdepth.permgroup import Permutation, enumerate_group


def perm(degree, *cycles):
    return Permutation.from_cycles(degree, list(cycles))


def make_s3():
    return enumerate_group([perm(3, (1, 2)), perm(3, (1, 2, 3))])


def make_s4():
    return enumerate_group([perm(4, (1, 2)), perm(4, (1, 2, 3, 4))])


def make_s5():
    return enumerate_group([perm(5, (1, 2)), perm(5, (1, 2, 3, 4, 5))])


def make_a4():
    return enumerate_group([perm(4, (1, 2, 3)), perm(4, (1, 2), (3, 4))])


def make_a5():
    return enumerate_group([perm(5, (1, 2, 3, 4, 5)), perm(5, (1, 2, 3))])


def pair_report(G, H, tabG=None, tabH=None):
    if tabG is None:
        tabG = compute_character_table(G)
    if tabH is None:
        tabH = compute_character_table(H.as_group())
    M = inclusion_matrix(tabG, tabH, class_fusion(G, H))
    return M, depth_report(M, group_data=(G, H))


def equal_up_to_row_col_permutation(a: list[list[int]], b: list[list[int]]) -> bool:
    """True iff some row and column permutation carries a onto b."""
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        return False
    target_cols = sorted(tuple(row[j] for row in b) for j in range(len(b[0])))
    for sigma in itertools.permutations(range(len(a))):
        rows = [a[i] for i in sigma]
        cols = sorted(tuple(row[j] for row in rows) for j in range(len(rows[0])))
        if cols == target_cols:
            return True
    return False


def corpus_pairs_full(max_order=24):
    """(name, G, H) for every subgroup of every catalog group."""
    out = []
    for name, G in corpus_groups(max_order):
        for H in G.subgroups():
            out.append((name, G, H))
    return out


def corpus_pairs_reps(max_order=24):
    """(name, G, H) with one subgroup per conjugacy class."""
    out = []
    for name, G in corpus_groups(max_order):
        for H in subgroups_up_to_conjugacy(G):
            out.append((name, G, H))
    return out


_GROUP_ALGEBRAS: dict[int, object] = {}


def cached_group_algebra(G):
    key = id(G)
    if key not in _GROUP_ALGEBRAS:
        _GROUP_ALGEBRAS[key] = build_group_algebra(G)
    return _GROUP_ALGEBRAS[key]


def group_table(name, G):
    return cached_table(name, G)


def full_axioms_hold(H) -> bool:
    """Reference check of every Hopf axiom on all basis triples and pairs:
    associativity on d^3 triples, Delta and eps multiplicativity on d^2
    pairs.  `HopfAlgebraData.verify` must raise exactly when this is False."""
    try:
        _full_axiom_check(H)
    except AssertionError:
        return False
    return True


def _full_axiom_check(self) -> None:
    d = self.dim
    one = Cyc.one()
    for i in range(d):
        ei = self.basis_vec(i)
        if not _veq(self.mult_vec(self.unit, ei), ei):
            raise AssertionError(f"unit law fails on the left at {i}")
        if not _veq(self.mult_vec(ei, self.unit), ei):
            raise AssertionError(f"unit law fails on the right at {i}")
    for i in range(d):
        for j in range(d):
            ij = self.mult[i][j]
            for k in range(d):
                left = self.mult_vec(ij, self.basis_vec(k))
                right = self.mult_vec(self.basis_vec(i), self.mult[j][k])
                if not _veq(left, right):
                    raise AssertionError(f"associativity fails at ({i},{j},{k})")
    if not (self.counit_vec(self.unit) - one).is_zero():
        raise AssertionError("counit of the unit is not 1")
    unit2 = {(a, b): ca * cb for a, ca in self.unit.items()
             for b, cb in self.unit.items()}
    if not _veq(self.comult_vec(self.unit), unit2):
        raise AssertionError("coproduct of the unit is not unit x unit")
    for i in range(d):
        # counit laws
        left = {}
        right = {}
        for (a, b), c in self.comult[i].items():
            _vadd(left, b, c * self.counit[a])
            _vadd(right, a, c * self.counit[b])
        if not _veq(left, self.basis_vec(i)) or not _veq(right, self.basis_vec(i)):
            raise AssertionError(f"counit law fails at {i}")
        # coassociativity
        lhs = {}
        rhs = {}
        for (a, b), c in self.comult[i].items():
            for (x, y), m in self.comult[a].items():
                _vadd(lhs, (x, y, b), c * m)
            for (x, y), m in self.comult[b].items():
                _vadd(rhs, (a, x, y), c * m)
        if not _veq(lhs, rhs):
            raise AssertionError(f"coassociativity fails at {i}")
    for i in range(d):
        for j in range(d):
            # Delta and counit are algebra maps
            prod = self.mult[i][j]
            dprod = self.comult_vec(prod)
            dd = self.tensor_mult(self.comult[i], self.comult[j])
            if not _veq(dprod, dd):
                raise AssertionError(f"coproduct multiplicativity fails at ({i},{j})")
            eps_prod = self.counit_vec(prod)
            if not (eps_prod - self.counit[i] * self.counit[j]).is_zero():
                raise AssertionError(f"counit multiplicativity fails at ({i},{j})")
    for i in range(d):
        lhs = {}
        rhs = {}
        for (a, b), c in self.comult[i].items():
            sa = self.antipode_vec({a: c})
            for k, v in self.mult_vec(sa, self.basis_vec(b)).items():
                _vadd(lhs, k, v)
            sb = self.antipode_vec({b: c})
            for k, v in self.mult_vec(self.basis_vec(a), sb).items():
                _vadd(rhs, k, v)
        want = _vscale(self.unit, self.counit[i])
        if not _veq(lhs, want) or not _veq(rhs, want):
            raise AssertionError(f"antipode axiom fails at {i}")


# -- Cyc reference implementations of the integer sweep kernels ---------------

def cyc_inner_product(tab, a, b) -> Cyc:
    """<a, b> = (1/|G|) sum_C |C| a(C) conj(b(C)) in Cyc arithmetic, the
    reference for `CharacterTable.inner_product`."""
    acc = Cyc.zero()
    for cls, x, y in zip(tab.classes, a, b):
        acc = acc + x * y.conjugate() * cls.size
    return acc * Fraction(1, tab.group.order)


def matpow(A: ExactMatrix, n: int) -> ExactMatrix:
    out = A
    for _ in range(n - 1):
        out = out @ A
    return out


def evaluate_matrix(poly, A: ExactMatrix) -> ExactMatrix:
    """poly(A) by Horner's rule over ExactMatrix."""
    n = A.rows
    acc = ExactMatrix.from_rows([[0] * n for _ in range(n)])
    for c in reversed(poly.coeffs):
        acc = acc @ A
        acc = ExactMatrix(n, n, [x + c if i % (n + 1) == 0 else x
                                 for i, x in enumerate(acc.entries)])
    return acc


def _exact_pattern(A: ExactMatrix):
    if not all(e.is_rational() and e.as_fraction() >= 0 for e in A.entries):
        raise MalformedSequenceError("sequence entries must be nonnegative rationals")
    return tuple(tuple(not A.at(i, j).is_zero() for j in range(A.cols))
                 for i in range(A.rows))


def exact_pattern_stabilization_index(seq, k_max):
    """Least k >= 1 with pattern(seq(k)) = pattern(seq(k+1)) for a sequence
    of ExactMatrix terms, or None: the reference for the bitset scan
    `pattern_stabilization_index`."""
    prev = _exact_pattern(seq(1))
    for k in range(1, k_max + 1):
        cur = _exact_pattern(seq(k + 1))
        for r_prev, r_cur in zip(prev, cur):
            for a, b in zip(r_prev, r_cur):
                if a and not b:
                    raise MalformedSequenceError("zero pattern lost an entry; not monotone")
        if cur == prev:
            return k
        prev = cur
    return None
