"""Shared builders and check routines for the test suite."""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from subdepth.corpus import SweepRow, analyze_pair, cached_table, catalog
from subdepth.chartab import _int_inner, _int_rows, _weighted_conjugates
from subdepth.depthmat import EigenvalueSet
from subdepth.exactalg import (_CYC_ONE, _CYC_ZERO, Cyc, ExactMatrix,
                               MalformedSequenceError, RowSpace,
                               cyclotomic_polynomial, euler_phi,
                               kernel_of_sparse_columns)
from subdepth.hopfcore import (HopfAlgebraData, QuotientModule,
                               SubalgebraEmbedding, TensorPowerModule, TVec, Vec,
                               _annihilator, _is_hopf_ideal, _project, _projector,
                               _tensor_image, _vadd, _vscale,
                               build_group_algebra, tensor_power_action)
from subdepth.permgroup import (GroupHandle, Permutation, SubgroupHandle, _closure,
                                double_cosets, enumerate_group)


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


def reference_subgroups(G: GroupHandle) -> list[SubgroupHandle]:
    """All subgroups of G, found by closing each known subgroup S under every
    g outside S (`GroupHandle.subgroups` closes one g per right coset S g);
    sorted by order, then element tuple."""
    found: dict[int, SubgroupHandle] = {}
    triv = G.trivial_subgroup()
    found[triv.bits] = triv
    frontier = [triv]
    while frontier:
        nxt = []
        for sub in frontier:
            have = set(sub.elements)
            for g in G.elements:
                if g in have:
                    continue
                new_elems = _closure(list(sub.generating_set()) + [g],
                                     G.degree, cap=G.order)
                bits = G.bitset(new_elems)
                if bits not in found:
                    found[bits] = cand = SubgroupHandle(G, new_elems)
                    nxt.append(cand)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.elements))


def conjugate_subgroup(H: SubgroupHandle, g: Permutation) -> SubgroupHandle:
    """H^g = {g^-1 h g : h in H} as a validated handle, the reference route
    for the trusted conjugates of `src/`."""
    return SubgroupHandle(H.parent, [h.conjugate_by(g) for h in H.elements])


def intersect_subgroups(A: SubgroupHandle, B: SubgroupHandle) -> SubgroupHandle:
    """A cap B as a validated handle, the reference route for the trusted
    intersections of `src/`."""
    bset = set(B.elements)
    return SubgroupHandle(A.parent, [a for a in A.elements if a in bset])


def reference_conjugates(G: GroupHandle, H: SubgroupHandle) -> dict[int, SubgroupHandle]:
    """bits -> H^g for every conjugate of H, found by conjugating with every
    g in G, the reference for the orbit walk of `GroupHandle.conjugates`."""
    out: dict[int, SubgroupHandle] = {}
    for g in G.elements:
        c = conjugate_subgroup(H, g)
        out.setdefault(c.bits, c)
    return out


def reference_tensor_entries(G: GroupHandle, H: SubgroupHandle,
                             n: int) -> list[tuple[tuple[int, ...], SubgroupHandle]]:
    """The n-th tensor power of the coset module of H with one entry per
    summand K^x cap H, each labelled by the (n-1)-tuple of (H,H) double
    cosets met along the way, the reference for the counted multiset of
    `q_tensor_decomposition`."""
    label_of = {g: idx for idx, coset in enumerate(double_cosets(G, H, H).cosets)
                for i, g in enumerate(G.elements) if coset >> i & 1}
    entries = [((), H)]
    for _ in range(n - 1):
        entries = [(label + (label_of[x],),
                    intersect_subgroups(conjugate_subgroup(K, x), H))
                   for label, K in entries for x in double_cosets(G, K, H).reps]
    return entries


def reference_merged(G: GroupHandle, subs) -> list[tuple[int, int]]:
    """(bits of the first summand of each conjugacy class, multiplicity) over
    the summand subgroups subs, in order of first appearance; each class is
    found by conjugating with every g in G."""
    rep_of: dict[int, int] = {}
    mult: dict[int, int] = {}
    for s in subs:
        if s.bits not in rep_of:
            rep_of.update(dict.fromkeys(reference_conjugates(G, s), s.bits))
        rep = rep_of[s.bits]
        mult[rep] = mult.get(rep, 0) + 1
    return list(mult.items())


def reference_permutation_character(G: GroupHandle, H: SubgroupHandle) -> tuple[int, ...]:
    """The number of right cosets Hx fixed by a representative g of each
    class, counted as the x with x g x^-1 in H."""
    seen: set[Permutation] = set()
    reps = []
    for g in G.elements:
        if g not in seen:
            seen.update(h * g for h in H.elements)
            reps.append(g)
    hset = set(H.elements)
    return tuple(sum(x * cls.rep * x.inverse() in hset for x in reps)
                 for cls in G.conjugacy_classes())


def reference_class_formula(G: GroupHandle,
                            H: SubgroupHandle) -> tuple[EigenvalueSet, bool]:
    """`depthmat.eigenvalues_via_class_formula` by a scan of every class
    element against the elements of H: |G:H| |C cap H| / |C| for each class C
    meeting H, and the single-H-class test on each intersection C cap H,
    returned as a flag next to the eigenvalue set: whether every class of G
    meets H in a single H-class."""
    hset = set(H.elements)
    Hgrp = H.as_group()
    values: set[int] = set()
    one_class = True
    meets_all = True
    for cls in G.conjugacy_classes():
        inter = [x for x in cls.elements if x in hset]
        if not inter:
            meets_all = False
            continue
        values.add(G.order * len(inter) // (H.order * cls.size))
        if len({Hgrp.class_index(x) for x in inter}) > 1:
            one_class = False
    restrict_one = one_class and meets_all
    t = len(values)
    return EigenvalueSet(values={v: 1 for v in sorted(values)}, residual=(1,),
                         source="class-formula", t=t,
                         depth_bound=2 * t - 1 if restrict_one else 2 * t + 1), restrict_one


def reference_bipartite_diameters(M) -> tuple[int, int]:
    """The largest finite white-white and black-black distances in the
    bipartite inclusion graph of M, each plus one, by a breadth-first search
    from every vertex; the rows of M are the white vertices."""
    p, q = M.rows, M.cols
    adj = [set() for _ in range(p + q)]
    for i in range(p):
        for j in range(q):
            if M.entries[i][j]:
                adj[i].add(p + j)
                adj[p + j].add(i)

    def bfs(start: int) -> dict[int, int]:
        dist = {start: 0}
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    white = max(max(d for k, d in bfs(i).items() if k < p) for i in range(p))
    black = max(max(d for k, d in bfs(p + j).items() if k >= p) for j in range(q))
    return white + 1, black + 1


def pair_report(G, H, tabG=None):
    """(M, depth report) of a pair, from the package's group-pair pipeline."""
    a = analyze_pair(G, H, tabG)
    return a.depth.M, a.depth


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
    for name, G in catalog(max_order):
        for H in G.subgroups():
            out.append((name, G, H))
    return out


def corpus_pairs_reps(max_order=24):
    """(name, G, H) with one subgroup per conjugacy class."""
    out = []
    for name, G in catalog(max_order):
        for H, _ in G.subgroup_classes():
            out.append((name, G, H))
    return out


def reference_sweep_rows(max_order: int) -> list[SweepRow]:
    """The rows of `run_sweep` with `analyze_pair` run on every subgroup,
    where the sweep runs it once per conjugacy class of subgroups."""
    rows = []
    for name, G in catalog(max_order):
        for si, H in enumerate(G.subgroups()):
            a = analyze_pair(G, H, cached_table(name, G))
            rep = a.depth
            conj_ok = rep.d_0 is None or rep.d_h is None or rep.d_0 <= rep.d_h
            rows.append(SweepRow(name, si, H.order, G.order // H.order,
                                 rep.d_0, rep.d_ev, rep.d_odd, rep.d_h,
                                 a.eigen_ok, rep.pf_check, conj_ok))
    return rows


_GROUP_ALGEBRAS: dict[int, object] = {}


def cached_group_algebra(G):
    key = id(G)
    if key not in _GROUP_ALGEBRAS:
        _GROUP_ALGEBRAS[key] = build_group_algebra(G)
    return _GROUP_ALGEBRAS[key]


def group_table(name, G):
    return cached_table(name, G)


def unverified_copy(H: HopfAlgebraData, **tables) -> HopfAlgebraData:
    """A copy of the verified H with some of its mult, comult, counit and
    antipode tables replaced by keyword and not verified: the constructor
    verifies, so a corrupted table is built this way and its `verify` is
    called by the test."""
    bad = copy.copy(H)
    vars(bad).update(tables)
    return bad


def full_axioms_hold(H) -> bool:
    """Reference check of every Hopf axiom on all basis triples and pairs:
    associativity on d^3 triples, Delta and eps multiplicativity on d^2
    pairs.  `HopfAlgebraData.verify` must raise exactly when this is False."""
    try:
        _full_axiom_check(H)
    except AssertionError:
        return False
    return True


def _veq(a: dict, b: dict) -> bool:
    # sparse vectors compared with zero entries allowed on either side
    return all((a.get(k, _CYC_ZERO) - b.get(k, _CYC_ZERO)).is_zero()
               for k in set(a) | set(b))


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


def reference_generators(H: HopfAlgebraData) -> list[int]:
    """`HopfAlgebraData._generators` by its own walk: e_i joins the list when
    it is not yet in V, the span of the left-normed products
    (...((1 s_1) s_2)...) s_k of generators found so far, and V is closed
    under right multiplication by every generator before the walk moves on."""
    span = RowSpace(H.dim)
    span.add(H.unit)
    members = [H.unit]
    gens: list[int] = []
    for i in range(H.dim):
        if span.rank == H.dim:
            break
        if span.contains(H.basis_vec(i)):
            continue
        gens.append(i)
        work = [(m, i) for m in members]
        while work:
            m, s = work.pop()
            p = H.mult_vec(m, H.basis_vec(s))
            if span.add(p):
                members.append(p)
                work.extend((p, g) for g in gens)
    return gens


# -- all-basis references for the generator-closure checks in hopfcore --------
#
# Each check here runs over every basis element h of H, where hopfcore runs
# over the algebra generators only; the tests require the two to agree.

def reference_ideal(H, rows, left: bool, right: bool) -> RowSpace:
    """The span of h v k over every row v and all basis elements h and k,
    h = 1 unless ``left`` and k = 1 unless ``right``: H V, V H or H V H,
    the reference for `hopfcore._ideal`."""
    basis = [H.basis_vec(i) for i in range(H.dim)]
    space = RowSpace(H.dim)
    for v in rows:
        for h in basis if left else [H.unit]:
            hv = H.mult_vec(h, v)
            for k in basis if right else [H.unit]:
                space.add(H.mult_vec(hv, k))
    return space


def reference_small_quantum_group_mult(n: int) -> list[list[Vec]]:
    """The structure constants of `build_small_quantum_group(n)` with the
    E action walked per call: each right multiplication by E reorders every
    term of its argument and sums s_minus and s_plus afresh."""
    def midx(a: int, b: int, c: int) -> int:
        return ((a % n) * n + b) * n + c

    if n == 2:
        def qpow(k: int) -> Cyc:
            return Cyc.rational(1 if k % 4 == 0 else -1)
    else:
        def qpow(k: int) -> Cyc:
            return Cyc.root_of_unity(n, k % n)
        q = Cyc.root_of_unity(n)
        lam = (q - q.inverse()).inverse()

    def times_e(v: Vec) -> Vec:
        out: Vec = {}
        for i, coeff in v.items():
            a, rem = divmod(i, n * n)
            b, c = divmod(rem, n)
            if b + 1 < n:
                _vadd(out, midx(a, b + 1, c), coeff)
            if c == 0 or n == 2:
                continue
            s_minus = Cyc.zero()
            s_plus = Cyc.zero()
            for j in range(c):
                s_minus = s_minus + qpow(-2 * j)
                s_plus = s_plus + qpow(2 * j)
            # F^c E = E F^c - lam F^(c-1) (s_minus K - s_plus K^-1)
            t2 = coeff * lam * s_minus * qpow(2 * (c - 1) - 2 * b)
            _vadd(out, midx(a + 1, b, c - 1), -t2)
            t3 = coeff * lam * s_plus * qpow(-(2 * (c - 1) - 2 * b))
            _vadd(out, midx(a - 1, b, c - 1), t3)
        return out

    def mono_mul(m1, m2) -> Vec:
        a, b, c = m1
        dd, e, f = m2
        cur: Vec = {midx(a + dd, b, c): qpow(2 * c * dd - 2 * b * dd)}
        for _ in range(e):
            cur = times_e(cur)
        out: Vec = {}
        for i, coeff in cur.items():
            aa, rem = divmod(i, n * n)
            bb, cc = divmod(rem, n)
            if cc + f < n:
                _vadd(out, midx(aa, bb, cc + f), coeff)
        return out

    monomials = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    return [[mono_mul(m1, m2) for m2 in monomials] for m1 in monomials]


def iterated_comult(H, i, n) -> dict:
    """Delta^(n-1) of e_i as a sparse vector over basis n-tuples."""
    terms = {(i,): Cyc.one()}
    for _ in range(n - 1):
        nxt = {}
        for tup, c in terms.items():
            last = tup[-1]
            for (a, b), m in H.comult[last].items():
                _vadd(nxt, tup[:-1] + (a, b), c * m)
        terms = nxt
    return terms


def reference_tensor_power_action(Q, n) -> list[dict]:
    """The action matrices of H on Q^xn, each Delta^(n-1)(h) applied slot by
    slot: the reference for `tensor_power_action`."""
    H = Q.hopf
    dq = Q.dim_q
    action = []
    for h in range(H.dim):
        mat = {}
        for tup, c in iterated_comult(H, h, n).items():
            # tensor product of the n slot actions
            partial = {((), ()): c}
            for slot in range(n):
                nxt = {}
                amat = Q.action[tup[slot]]
                for (rt, ct), pc in partial.items():
                    for (r, cc2), v in amat.items():
                        _vadd(nxt, (rt + (r,), ct + (cc2,)), pc * v)
                partial = nxt
            for (rt, ct), v in partial.items():
                r = 0
                cidx = 0
                for k in range(n):
                    r = r * dq + rt[k]
                    cidx = cidx * dq + ct[k]
                _vadd(mat, (r, cidx), v)
        action.append(mat)
    return action


def reference_annihilator(Q: QuotientModule, n: int) -> RowSpace:
    """Ann(Q^xn) as the kernel of the action of the tensor power, its dim H
    matrices of size (dim Q)^n built one coproduct step at a time: the
    reference for the H x H step of `annihilator_chain`."""
    tp = tensor_power_action(Q, n)
    return _annihilator(tp.action, tp.dim)


def tensor_power_character(tp: TensorPowerModule) -> list[Cyc]:
    """The trace of the action of each H-basis element on Q^xn."""
    out = []
    for mat in tp.action:
        tr = Cyc.zero()
        for (r, c), v in mat.items():
            if r == c:
                tr = tr + v
        out.append(tr)
    return out


def quotient_lift(Q: QuotientModule, q: Vec) -> Vec:
    """A vector of Q on the section basis, as the same combination of the
    section elements of H."""
    return {Q.section[b]: c for b, c in q.items()}


def reference_quotient_verify(Q) -> None:
    """The intertwining law and the module-coalgebra laws of Q at every basis
    element of H: the reference for `QuotientModule._verify`."""
    H = Q.hopf
    for i in range(H.dim):
        pi = Q.project(H.basis_vec(i))
        for h in range(H.dim):
            lhs = Q.project(H.mult_vec(H.basis_vec(i), H.basis_vec(h)))
            rhs = Q.act(pi, H.basis_vec(h))
            if not _veq(lhs, rhs):
                raise AssertionError("projection does not intertwine the action")
    for b in range(Q.dim_q):
        for h in range(H.dim):
            qh = Q.act({b: Cyc.one()}, H.basis_vec(h))
            eps_qh = Cyc.zero()
            for rr, c in qh.items():
                eps_qh = eps_qh + c * Q.counit_q[rr]
            if not (eps_qh - Q.counit_q[b] * H.counit[h]).is_zero():
                raise AssertionError("counit of Q is not H-linear")
            lhs = {}
            for rr, c in qh.items():
                for key, v in Q.coproduct_q[rr].items():
                    _vadd(lhs, key, c * v)
            rhs = {}
            for (h1, h2), hc in H.comult[h].items():
                for (q1, q2), qc in Q.coproduct_q[b].items():
                    a1 = Q.act({q1: Cyc.one()}, H.basis_vec(h1))
                    a2 = Q.act({q2: Cyc.one()}, H.basis_vec(h2))
                    for r1, c1 in a1.items():
                        for r2, c2 in a2.items():
                            _vadd(rhs, (r1, r2), hc * qc * c1 * c2)
            if not _veq(lhs, rhs):
                raise AssertionError("coproduct of Q is not a module coalgebra map")


def reference_ideal_flags(H, space) -> tuple[bool, bool]:
    """(two-sided, Hopf) with every basis element as a multiplier: the
    reference for `_is_two_sided`, and for `_is_hopf_ideal` on a two-sided
    ideal."""
    basis = space.basis_rows()
    two_sided = all(space.contains(H.mult_vec(b, H.basis_vec(i)))
                    and space.contains(H.mult_vec(H.basis_vec(i), b))
                    for b in basis for i in range(H.dim))
    return two_sided, two_sided and _is_hopf_ideal(H, space, _projector(space))


def reference_right_integrals(H) -> list[dict]:
    """The right integrals from t h = eps(h) t at every basis element: the
    reference for `_right_integrals`."""
    d = H.dim
    columns = []
    for i in range(d):
        col = {}
        for h in range(d):
            eps_h = H.counit[h]
            for k, v in H.mult[i][h].items():
                _vadd(col, h * d + k, v)
            if not eps_h.is_zero():
                _vadd(col, h * d + i, -eps_h)
        columns.append(col)
    return kernel_of_sparse_columns(columns)


def reference_q_integrals(Q) -> list[dict]:
    """The integrals of Q from q h = eps(h) q at every basis element: the
    reference for `integrals_and_modular(...).q_integral_basis`."""
    H = Q.hopf
    dq = Q.dim_q
    columns = []
    for b in range(dq):
        col = {}
        for h in range(H.dim):
            for rr, v in Q.act({b: Cyc.one()}, H.basis_vec(h)).items():
                _vadd(col, h * dq + rr, v)
            eps_h = H.counit[h]
            if not eps_h.is_zero():
                _vadd(col, h * dq + b, -eps_h)
        columns.append(col)
    return kernel_of_sparse_columns(columns)


def reference_idealizer(Q) -> list[dict]:
    """T = {h : h w in R+H for every w in a basis of R+H}: the reference for
    `idealizer_and_endQ(...).T_basis`."""
    H = Q.hopf
    dq = Q.dim_q
    columns = []
    for i in range(H.dim):
        col = {}
        for widx, w in enumerate(Q.rpH.basis_rows()):
            for rr, v in Q.project(H.mult_vec(H.basis_vec(i), w)).items():
                _vadd(col, widx * dq + rr, v)
        columns.append(col)
    return kernel_of_sparse_columns(columns)


def reference_module_hom_basis(Q, tp) -> list[list[dict]]:
    """Basis of Hom_H(Q^xn, H) as the kernel of the linear system
    f(b h) = f(b) h in (dim Q^xn * dim H) unknowns: the reference for
    `module_hom_basis`."""
    H = Q.hopf
    d = H.dim
    dqn = tp.dim
    # unknowns f[(b, k)]: flatten to b * d + k
    columns: list[dict[int, Cyc]] = [dict() for _ in range(dqn * d)]
    # equation positions: (b, h, m) -> ((b * H.dim) + h) * d + m
    for h in range(d):
        amat = tp.action[h]
        for (c_row, b_col), v in amat.items():
            # term + A_h[c_row, b_col] * f_{c_row, m} at positions (b_col, h, m)
            for m in range(d):
                pos = (b_col * d + h) * d + m
                _vadd(columns[c_row * d + m], pos, v)
    for h in range(d):
        for b in range(dqn):
            for k in range(d):
                for m, w in H.mult[k][h].items():
                    pos = (b * d + h) * d + m
                    _vadd(columns[b * d + k], pos, -w)
    homs = []
    for vec in kernel_of_sparse_columns(columns):
        images: list[Vec] = [{} for _ in range(dqn)]
        for pos, c in vec.items():
            b, k = divmod(pos, d)
            images[b][k] = c
        homs.append(images)
    return homs


# -- exact polynomials and scalars for the references --------------------------
# A polynomial is a tuple of exact rationals, lowest degree first, with no
# trailing zero; () is the zero polynomial.

_ZERO = Fraction(0)
X = (0, 1)


def poly_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def from_roots(roots) -> tuple:
    """prod (X - r) over the given rationals; integers for integer roots."""
    p = (1,)
    for r in roots:
        p = poly_mul(p, (-r, 1))
    return p


def poly_monic(p: tuple) -> tuple:
    return tuple(Fraction(c) / p[-1] for c in p)


def poly_eval(p: tuple, x) -> Fraction:
    acc = _ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_strip(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    _poly_strip(a)
    db, inv_lead = len(b) - 1, Fraction(1) / b[-1]
    q = [_ZERO] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        c = a[-1] * inv_lead
        k = len(a) - 1 - db
        q[k] = c
        for j in range(db + 1):
            a[k + j] -= c * b[j]
        _poly_strip(a)
    return q, a


def reference_inverse(z: Cyc) -> Cyc:
    """z^-1 by extended Euclid against Phi_n, which is irreducible over Q:
    the reference for the norm-based `Cyc.inverse`."""
    if z.order == 1:
        return Cyc.rational(1 / z.as_fraction())
    r0 = [Fraction(c) for c in cyclotomic_polynomial(z.order)]
    r1 = _poly_strip([Fraction(c) for c in z.coeffs])
    s0, s1 = [_ZERO], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        conv = [_ZERO] * (len(q) + len(s1) - 1) if q and s1 else []
        for i, x in enumerate(q):
            for j, y in enumerate(s1):
                conv[i + j] += x * y
        s = [p - q_ for p, q_ in itertools.zip_longest(s0, conv, fillvalue=_ZERO)]
        s0, s1 = s1, _poly_strip(s)
    # r0 is the gcd, a nonzero constant
    assert len(r0) == 1
    phi = euler_phi(z.order)
    inv = [x / r0[0] for x in s0] + [_ZERO] * phi
    return Cyc(z.order, inv[:phi])


def poly_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    q, r = _poly_divmod(a, b)
    return tuple(q), tuple(r)


def poly_gcd(a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def derivative(p: tuple) -> tuple:
    return tuple(i * c for i, c in enumerate(p))[1:]


def conjugate(z: Cyc) -> Cyc:
    """Complex conjugation, the field map zeta -> zeta^(-1)."""
    if z.order <= 2:
        return z
    n = z.order
    return Cyc.from_power_sum(
        n, {(n - i) % n: c for i, c in enumerate(z.coeffs) if c})


# -- Cyc reference implementations of the integer sweep kernels ---------------

def inner_product(tab, a, b) -> Cyc:
    """<a, b> = (1/|G|) sum_C |C| a(C) conj(b(C)) for class functions a, b
    of the table's group, exact, on the integer kernels of `chartab`."""
    n = lcm(*(v.order for v in (*a, *b)))
    (xs,), da = _int_rows([a], n)
    (ys,), db = _int_rows([b], n)
    ws = _weighted_conjugates(ys, [c.size for c in tab.classes], n)
    den = tab.group.order * da * db
    return Cyc(n, [Fraction(c, den) for c in _int_inner(n, xs, ws)])


def cyc_inner_product(tab, a, b) -> Cyc:
    """<a, b> = (1/|G|) sum_C |C| a(C) conj(b(C)) in Cyc arithmetic, the
    reference for `inner_product`."""
    acc = Cyc.zero()
    for cls, x, y in zip(tab.classes, a, b):
        acc = acc + x * conjugate(y) * cls.size
    return acc * Fraction(1, tab.group.order)


def reference_inclusion_matrix(tabG, tabH, fusion) -> list[list[int]]:
    """m_ij = <chi_j restricted to H, phi_i>, every entry by its own exact
    inner product, the reference for `inclusion_matrix`, which reads the
    columns of linear characters off by matching."""
    rows = []
    for phi in tabH.irreducibles:
        row = []
        for chi in tabG.irreducibles:
            m = inner_product(tabH, [chi[c] for c in fusion.mapping], phi).as_fraction()
            assert m.denominator == 1 and m >= 0
            row.append(int(m))
        rows.append(row)
    return rows


def matpow(A: ExactMatrix, n: int) -> ExactMatrix:
    out = A
    for _ in range(n - 1):
        out = out @ A
    return out


def evaluate_matrix(poly, A: ExactMatrix) -> ExactMatrix:
    """poly(A) by Horner's rule over ExactMatrix."""
    n = A.rows
    acc = ExactMatrix.from_rows([[0] * n for _ in range(n)])
    for c in reversed(poly):
        acc = acc @ A
        acc = ExactMatrix(n, n, [x + c if i % (n + 1) == 0 else x
                                 for i, x in enumerate(acc.entries)])
    return acc


def _poly_lcm(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    return poly_monic(poly_divmod(poly_mul(a, b), poly_gcd(a, b))[0])


def reference_minimal_polynomial(A: ExactMatrix) -> tuple:
    """The lcm of the Krylov relation polynomials of the start vectors
    outside the accumulated Krylov span: the reference for
    `minimal_polynomial`, which multiplies by the relation of m(A) e
    instead of taking polynomial lcms."""
    if A.rows != A.cols:
        raise ValueError("minimal polynomial needs a square matrix")
    n = A.rows
    cols = [{i: A.at(i, j) for i in range(n) if not A.at(i, j).is_zero()}
            for j in range(n)]

    def apply(v: dict[int, Cyc]) -> dict[int, Cyc]:
        out: dict[int, Cyc] = {}
        for j, x in v.items():
            for i, a in cols[j].items():
                nv = out.get(i, Cyc.zero()) + a * x
                if nv.is_zero():
                    out.pop(i, None)
                else:
                    out[i] = nv
        return out

    total = RowSpace(n)
    m = (1,)
    for start in range(n):
        e = {start: _CYC_ONE}
        if total.contains(e):
            continue
        # rows [A^t e | e_t] with the tag e_t in column n + t: the first row
        # that reduces to zero on the first n columns leaves the relation
        # sum_s c_s A^s e = 0 in its tags, with c_t = 1
        tagged = RowSpace(2 * n + 1)
        v = e
        for t in range(n + 1):
            rel = tagged.reduce({**v, n + t: _CYC_ONE})
            if min(rel) >= n:
                break
            tagged.add(rel)
            v = apply(v)
        m = _poly_lcm(m, tuple(rel.get(n + s, _CYC_ZERO).as_fraction()
                               for s in range(t + 1)))
        # the Krylov parts of the tagged basis are the reduced echelon basis
        # of the new Krylov span
        for row in tagged.pivots.values():
            total.add({c: x for c, x in row.items() if c < n})
    return poly_monic(m)


def reference_cyc_minimal_polynomial(A: ExactMatrix) -> tuple:
    """Monic least-degree m with m(A) = 0, computed exactly: the `Cyc`
    reference for `minimal_polynomial`, which runs on int lists.

    Start vector by start vector, m <- m * mu_w with w = m(A) e, skipping e
    when w = 0; mu_w, the least monic f with f(A) w = 0, is read off a Krylov
    relation.  This is lcm(m, mu_e) for any square A, because
    mu_{m(A)e} = mu_e / gcd(mu_e, m): f(A) w = 0 iff mu_e | f m iff
    mu_e / gcd(mu_e, m) | f.  Since m divides the minimal polynomial, the
    loop stops once deg m = n.
    """
    if A.rows != A.cols:
        raise ValueError("minimal polynomial needs a square matrix")
    n = A.rows
    cols = [{i: A.at(i, j) for i in range(n) if not A.at(i, j).is_zero()}
            for j in range(n)]

    def apply(v: dict[int, Cyc]) -> dict[int, Cyc]:
        out: dict[int, Cyc] = {}
        for j, x in v.items():
            for i, a in cols[j].items():
                nv = out.get(i, Cyc.zero()) + a * x
                if nv.is_zero():
                    out.pop(i, None)
                else:
                    out[i] = nv
        return out

    m = (1,)
    for start in range(n):
        if len(m) - 1 == n:
            break
        w: dict[int, Cyc] = {}      # m(A) e by Horner's rule
        for c in reversed(m):
            w = apply(w)
            nv = w.get(start, _CYC_ZERO) + Cyc.rational(c)
            if nv.is_zero():
                w.pop(start, None)
            else:
                w[start] = nv
        if not w:
            continue
        # rows [A^t w | w_t] with the tag w_t in column n + t: the first row
        # that reduces to zero on the first n columns leaves the relation
        # sum_s c_s A^s w = 0 in its tags, with c_t = 1
        tagged = RowSpace(2 * n + 1)
        v = w
        for t in range(n + 1):
            rel = tagged.reduce({**v, n + t: _CYC_ONE})
            if min(rel) >= n:
                break
            tagged.add(rel)
            v = apply(v)
        m = poly_mul(m, tuple(rel.get(n + s, _CYC_ZERO).as_fraction()
                              for s in range(t + 1)))
    return m


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def reference_factor_rational_roots(p: tuple):
    """Extract all rational roots exactly, trying every divisor pair: the
    reference for the p-adic `factor_rational_roots`.

    Returns (roots, residual) where roots maps each rational root to its
    multiplicity and residual is the monic cofactor with no rational roots.
    Uses the square-free part for candidate search, then divides out of the
    original polynomial for multiplicities.
    """
    if not p:
        raise ValueError("cannot factor the zero polynomial")
    roots: dict[Fraction, int] = {}
    work = poly_monic(p)
    # root zero first
    k = 0
    while work[0] == 0:
        work = poly_divmod(work, X)[0]
        k += 1
    if k:
        roots[_ZERO] = k
    if len(work) == 1:
        return roots, (1,)
    sf = poly_monic(poly_divmod(work, poly_gcd(work, derivative(work)))[0])
    # integerize the square-free part for the rational root test
    den = 1
    for c in sf:
        den = lcm(den, c.denominator)
    ic = [int(c * den) for c in sf]
    cands: set[Fraction] = set()
    for num in _int_divisors(ic[0]):
        for d in _int_divisors(ic[-1]):
            cands.add(Fraction(num, d))
            cands.add(Fraction(-num, d))
    for r in sorted(cands):
        if poly_eval(sf, r) == 0:
            mult = 0
            lin = (-r, 1)
            while True:
                q, rem = poly_divmod(work, lin)
                if not rem:
                    work = q
                    mult += 1
                else:
                    break
            roots[r] = mult
    return roots, poly_monic(work)


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


# -- paper checks with no CLI caller, kept as test references -----------------
#
# Each states a result of the paper on the test algebras: the Hopf core of a
# group pair, faithfulness against the center, linear disjointness, Ulbrich
# descent for the Q-module coalgebra, and induction of class functions.

def ideal_from_span(H: HopfAlgebraData, vectors) -> RowSpace:
    """The span of the vectors, as a subspace of H."""
    space = RowSpace(H.dim)
    for v in vectors:
        space.add(dict(v))
    return space


def augmentation_core_ideal(H: HopfAlgebraData, G: GroupHandle,
                            N: SubgroupHandle) -> RowSpace:
    """The ideal k N^+ k G generated by the augmentation ideal of a normal
    subgroup N, in the group-algebra basis of G."""
    idx = {g: i for i, g in enumerate(G.elements)}
    vectors = []
    for m in N.elements:
        if m.is_identity():
            continue
        base: Vec = {idx[m]: Cyc.one(), idx[G.identity]: Cyc.rational(-1)}
        for g in G.elements:
            vectors.append(H.mult_vec(base, {idx[g]: Cyc.one()}))
    return ideal_from_span(H, vectors)


def center_basis(H: HopfAlgebraData) -> list[Vec]:
    d = H.dim
    columns: list[dict[int, Cyc]] = []
    for j in range(d):
        col: dict[int, Cyc] = {}
        for i in range(d):
            for k, v in H.mult[j][i].items():
                _vadd(col, i * d + k, v)
            for k, v in H.mult[i][j].items():
                _vadd(col, i * d + k, -v)
        columns.append(col)
    return kernel_of_sparse_columns(columns)


def faithfulness_cross_check(H: HopfAlgebraData, Q: QuotientModule,
                             ann_dim: int) -> bool:
    """Ann Q = 0 iff R+H meets the center trivially; both sides computed
    independently, the intersection from
    dim(R+H cap Z) = dim R+H + dim Z - dim(R+H + Z)."""
    zen = center_basis(H)
    total = RowSpace(H.dim)
    for v in Q.rpH.basis_rows() + zen:
        total.add(v)
    inter_dim = Q.rpH.rank + len(zen) - total.rank
    return (ann_dim == 0) == (inter_dim == 0)


@dataclass
class LinearDisjointReport:
    linear_disjoint: bool
    dim_RK: int
    dim_B: int
    iso_verified: Optional[bool]


def linear_disjoint_check(H: HopfAlgebraData, R: SubalgebraEmbedding,
                          K: SubalgebraEmbedding) -> LinearDisjointReport:
    """RK = H together with dim H = dim R dim K / dim(R cap K); when both
    hold, the canonical K-module map from Q^K_B to Q^H_R (B = R cap K) is
    verified to be an isomorphism."""
    prod_space = RowSpace(H.dim)
    for r in R.basis:
        for k in K.basis:
            prod_space.add(H.mult_vec(r, k))
    dim_rk = prod_space.rank
    # intersection B = R cap K
    columns: list[dict[int, Cyc]] = []
    for r in R.basis:
        columns.append(dict(r))
    for k in K.basis:
        columns.append({i: -c for i, c in k.items()})
    b_space = RowSpace(H.dim)
    for vec in kernel_of_sparse_columns(columns):
        b_space.add(R.embed({i: c for i, c in vec.items() if i < R.dim}))
    dim_b = b_space.rank
    disjoint = (dim_rk == H.dim) and (R.dim * K.dim == H.dim * dim_b)
    iso = None
    if disjoint:
        B = SubalgebraEmbedding(H, b_space.basis_rows())
        Kh = K.as_hopf()
        B_in_K = SubalgebraEmbedding(Kh, [K.coords(b) for b in B.basis])
        QK = QuotientModule(Kh, B_in_K)
        QH = QuotientModule(H, R)
        if QK.dim_q != QH.dim_q:
            iso = False
        else:
            # phi: Q^K_B -> Q^H_R, x + B+K -> x + R+H on section representatives
            phi: list[Vec] = []
            for b in range(QK.dim_q):
                xk = quotient_lift(QK, {b: Cyc.one()})
                xh = K.embed(xk)
                phi.append(QH.project(xh))
            rank_space = RowSpace(QH.dim_q)
            for col in phi:
                rank_space.add(dict(col))
            surj = rank_space.rank == QH.dim_q
            equiv = True
            for kb in range(K.dim):
                kv = K.basis[kb]
                kk_vec = K.coords(kv)
                for b in range(QK.dim_q):
                    lhs_q = QK.act({b: Cyc.one()}, kk_vec)
                    lhs: Vec = {}
                    for rr, c in lhs_q.items():
                        for s, x in phi[rr].items():
                            _vadd(lhs, s, c * x)
                    rhs = QH.act(phi[b], kv)
                    if not _veq(lhs, rhs):
                        equiv = False
                        break
                if not equiv:
                    break
            iso = surj and equiv
    return LinearDisjointReport(disjoint, dim_rk, dim_b, iso)


def _induced_module(H: HopfAlgebraData, R: SubalgebraEmbedding,
                    w_dim: int, w_action: list[list[list[Cyc]]]):
    """W tensor_R H as a quotient of W tensor H; returns (section positions,
    reduction space, dimension).  w_action[i] is the dim_W x dim_W matrix of
    the i-th R-basis element acting on W."""
    d = H.dim
    total = w_dim * d
    rel = RowSpace(total)
    for a in range(w_dim):
        for i in range(R.dim):
            for k in range(d):
                # (w_a . r_i) x e_k - w_a x (r_i e_k)
                v: dict[int, Cyc] = {}
                for b in range(w_dim):
                    c = w_action[i][b][a]
                    if not c.is_zero():
                        _vadd(v, b * d + k, c)
                emb = R.embed({i: Cyc.one()})
                prod = H.mult_vec(emb, H.basis_vec(k))
                for m, c in prod.items():
                    _vadd(v, a * d + m, -c)
                rel.add(v)
    section = [j for j in range(total) if j not in rel.pivots]
    return section, rel, len(section)


def ulbrich_verify(H: HopfAlgebraData, R: SubalgebraEmbedding,
                   w_dim: int, w_action: list[list[list[Cyc]]],
                   Q: Optional[QuotientModule] = None) -> bool:
    """Builds X = W tensor_R H with its Q-coaction, computes the coinvariants
    and verifies that evaluation coinv(X) tensor_R H -> X is bijective."""
    if Q is None:
        Q = QuotientModule(H, R)
    d = H.dim
    # R-module axioms for W
    Rh = R.as_hopf()
    for i in range(Rh.dim):
        for j in range(Rh.dim):
            prod = Rh.mult[i][j]
            lhs = [[Cyc.zero()] * w_dim for _ in range(w_dim)]
            for k, c in prod.items():
                for x in range(w_dim):
                    for y in range(w_dim):
                        lhs[x][y] = lhs[x][y] + c * w_action[k][x][y]
            # acting by r_i then r_j equals acting by r_i r_j (right module)
            rhs = [[Cyc.zero()] * w_dim for _ in range(w_dim)]
            for x in range(w_dim):
                for y in range(w_dim):
                    acc = Cyc.zero()
                    for z in range(w_dim):
                        acc = acc + w_action[j][x][z] * w_action[i][z][y]
                    rhs[x][y] = acc
            for x in range(w_dim):
                for y in range(w_dim):
                    if not (lhs[x][y] - rhs[x][y]).is_zero():
                        raise ValueError("w_action is not a right R-module")

    section, rel, dim_x = _induced_module(H, R, w_dim, w_action)
    if dim_x * R.dim != w_dim * d:
        raise AssertionError("induced module has unexpected dimension")
    sec_index = {j: b for b, j in enumerate(section)}
    dq = Q.dim_q
    # coaction X -> X x Q on section basis: w_a x h -> w_a x h1 x pr(h2)
    coact: list[TVec] = []
    for pos in section:
        a, k = divmod(pos, d)
        coact.append(_tensor_image(
            H.comult[k],
            lambda h1: _project(rel, sec_index, {a * d + h1: Cyc.one()}),
            lambda h2: Q.project(H.basis_vec(h2))))
    one_bar = Q.project(dict(H.unit))
    columns: list[dict[int, Cyc]] = []
    for b in range(dim_x):
        col: dict[int, Cyc] = {}
        for (rx, rq), c in coact[b].items():
            _vadd(col, rx * dq + rq, c)
        for rq, c in one_bar.items():
            _vadd(col, b * dq + rq, -c)
        columns.append(col)
    coinv = kernel_of_sparse_columns(columns)
    if len(coinv) * d != dim_x * R.dim:
        return False
    # evaluation map coinv tensor_R H -> X must be onto (equal dims -> iso);
    # coinv is an R-submodule of X, so the domain has dimension
    # len(coinv) * dim H / dim R = dim_x
    image = RowSpace(dim_x)
    for v in coinv:
        for h in range(d):
            img: Vec = {}
            for b, c in v.items():
                a, k = divmod(section[b], d)
                prod = H.mult[k][h]
                for m, x in prod.items():
                    for key, val in _project(rel, sec_index, {a * d + m: Cyc.one()}).items():
                        _vadd(img, key, c * x * val)
            image.add(img)
    return image.rank == dim_x


def trivial_r_module(R: SubalgebraEmbedding) -> list[list[list[Cyc]]]:
    """The 1-dimensional counit module of R."""
    Rh = R.as_hopf()
    return [[[Rh.counit[i]]] for i in range(Rh.dim)]


def regular_r_module(R: SubalgebraEmbedding) -> tuple[int, list[list[list[Cyc]]]]:
    """R acting on itself on the right."""
    Rh = R.as_hopf()
    d = Rh.dim
    action = []
    for i in range(d):
        mat = [[Cyc.zero()] * d for _ in range(d)]
        for b in range(d):
            for k, c in Rh.mult[b][i].items():
                mat[k][b] = c
        action.append(mat)
    return d, action


def induce_class_function(G: GroupHandle, H: SubgroupHandle,
                          psi: Sequence[Cyc]) -> tuple[Cyc, ...]:
    """psi induced from H to G: (psi^G)(g) = (1/|H|) sum_{x in G, xgx^-1 in H}
    psi(xgx^-1)."""
    Hgrp = H.as_group()
    hset = set(H.elements)
    out = []
    for cls in G.conjugacy_classes():
        g = cls.rep
        acc = Cyc.zero()
        for x in G.elements:
            y = x * g * x.inverse()
            if y in hset:
                acc = acc + psi[Hgrp.class_index(y)]
        out.append(acc * Fraction(1, H.order))
    return tuple(out)
