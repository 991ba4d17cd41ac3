"""Double-coset decompositions of the quotient module and its tensor powers,
core-based depth bounds, and the Hecke algebra of a subgroup pair.

Tensor powers are expanded by iterating the restriction-induction rule
Q_K tensor Q_H = sum over K\\G/H of Q_{K^x cap H}, as in the Burnside ring:
Q^(xn) is kept as a multiplicity on each distinct summand subgroup, and each
step runs once per distinct summand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .chartab import permutation_character
from .exactalg import Cyc, algebra_generators
from .permgroup import (CoreWitness, GroupHandle, IntersectionChain, Permutation,
                        SubgroupHandle, core_and_witness, double_cosets,
                        intersection_chain)

# the most summands a tensor power may have
SUMMAND_BUDGET = 10 ** 6


class BudgetExceededError(ValueError):
    """A tensor power past `SUMMAND_BUDGET`: an input too large to expand,
    reported like any other bad input."""


@dataclass
class QSummandMultiset:
    """Multiset of subgroups S, each standing for the coset module Q of S in
    the ambient group, with its multiplicity, in order of first appearance."""
    ambient: GroupHandle
    counts: dict[SubgroupHandle, int]

    def character(self) -> tuple[int, ...]:
        acc = [0] * len(self.ambient.conjugacy_classes())
        for s, m in self.counts.items():
            for i, v in enumerate(permutation_character(self.ambient, s)):
                acc[i] += m * v
        return tuple(acc)

    def merged(self) -> list[tuple[SubgroupHandle, int]]:
        """Group conjugate summands; returns (representative, multiplicity)
        pairs, each representative the first summand of its class, in order
        of first appearance.  A class is the orbit of bitsets that
        ``GroupHandle.conjugates`` walks."""
        rep_of: dict[int, SubgroupHandle] = {}   # conjugate bits -> representative
        mult: dict[SubgroupHandle, int] = {}
        for s, m in self.counts.items():
            if s.bits not in rep_of:
                rep_of.update(dict.fromkeys(self.ambient.conjugates(s), s))
            rep = rep_of[s.bits]
            mult[rep] = mult.get(rep, 0) + m
        return list(mult.items())

    def to_json(self, merged: list[tuple[SubgroupHandle, int]]) -> list[dict]:
        """The summands of ``merged``, which is ``self.merged()``, as JSON."""
        return [{"subgroup_generators": [list(p.images) for p in rep.generating_set()],
                 "multiplicity": mult,
                 "index": self.ambient.order // rep.order}
                for rep, mult in merged]


def _mackey_step(G: GroupHandle, counts: dict[SubgroupHandle, int],
                 H: SubgroupHandle) -> dict[SubgroupHandle, int]:
    """Each Q_K of ``counts`` restricted to H, kept with K's multiplicity:
    Q_K restricted to H is the sum over K\\G/H of Q_{K^x cap H}, each
    summand kept as its bitset, with one trusted handle per distinct one."""
    out: dict[int, int] = {}
    for K, m in counts.items():
        for x in double_cosets(G, K, H).reps:
            s = G.bitset(k.conjugate_by(x) for k in K.elements) & H.bits
            out[s] = out.get(s, 0) + m
    return {SubgroupHandle._of_bits(G, s): m for s, m in out.items()}


def mackey_restrict(G: GroupHandle, K: SubgroupHandle,
                    H: SubgroupHandle) -> QSummandMultiset:
    """Restriction of the coset module of K down to H: one summand
    K^{g_i} cap H per (K,H) double-coset representative g_i, read as the
    multiset of H-coset modules Q^H_{K^{g_i} cap H}."""
    ms = QSummandMultiset(G, _mackey_step(G, {K: 1}, H))
    # dimension bookkeeping: sum |H : K^g cap H| = |G : K|
    total = sum(m * (H.order // s.order) for s, m in ms.counts.items())
    if total != G.order // K.order:
        raise AssertionError("Mackey restriction dimension mismatch")
    return ms


def tensor_summand_count(G: GroupHandle, pi: tuple[int, ...], n: int) -> int:
    """The number of summands of the n-th tensor power of the coset module
    with permutation character pi: the G-orbits on (G/H)^n,
    (1/|G|) sum over classes C of |C| pi(C)^n (Cauchy-Frobenius)."""
    return sum(cls.size * v ** n
               for cls, v in zip(G.conjugacy_classes(), pi)) // G.order


def q_tensor_decomposition(G: GroupHandle, H: SubgroupHandle, n: int) -> QSummandMultiset:
    """The n-th tensor power of the coset module of H as a multiset of
    conjugate-intersection stabilizers.  The summand count is checked against
    the budget before any tensor step runs, and the character of the result
    against pi^n for the permutation character pi of H."""
    if n < 1:
        raise ValueError("tensor power must be >= 1")
    pi = permutation_character(G, H)
    # The count never falls as n grows and is at least 2^(n-1) when H != G
    # (and 1 when H = G), so a power past the budget's bit length is judged
    # without the huge power sums.
    count = tensor_summand_count(G, pi, min(n, SUMMAND_BUDGET.bit_length() + 1))
    if count > SUMMAND_BUDGET:
        raise BudgetExceededError(f"Q^(x{n}) has at least {count} summands, "
                                  f"which exceeds the budget {SUMMAND_BUDGET}")
    counts = {H: 1}
    for _ in range(n - 1):
        new = _mackey_step(G, counts, H)
        if list(new.items()) == list(counts.items()):
            break   # a fixed point: every later power is this multiset
        counts = new
    ms = QSummandMultiset(G, counts)
    if ms.character() != tuple(v ** n for v in pi):
        raise AssertionError("decomposition character differs from (eps induced)^n")
    return ms


@dataclass(frozen=True)
class CoreDepthBound:
    core_witness: CoreWitness
    bound_dQ: int
    bound_dh: int

    @property
    def r(self) -> int:
        return self.core_witness.r


def core_depth_bound(G: GroupHandle, H: SubgroupHandle,
                     d_h: Optional[int] = None) -> CoreDepthBound:
    """Depth bounds d(Q) <= r+1 and d_h <= 2r+3 from the minimal number r of
    conjugates intersecting H in its core.

    The bounds require the subgroup algebra to be separable, which it is
    over the characteristic-zero fields used here.
    """
    cw = core_and_witness(G, H)
    bound = CoreDepthBound(cw, cw.r + 1, 2 * cw.r + 3)
    if d_h is not None and d_h > bound.bound_dh:
        raise AssertionError(f"d_h = {d_h} violates the core bound {bound.bound_dh}")
    return bound


@dataclass
class HeckeAlgebra:
    """The double-coset algebra e kG e of a subgroup pair, with basis
    (ind gamma_j) e gamma_j e and nonnegative integer structure constants."""
    group: GroupHandle
    subgroup: SubgroupHandle
    reps: tuple[Permutation, ...]
    indices: tuple[int, ...]
    mu: list[list[dict[int, int]]]   # mu[i][j] maps k -> mu_ijk

    @property
    def dimension(self) -> int:
        return len(self.reps)

    def is_commutative(self) -> bool:
        return all(self.mu[i][j] == self.mu[j][i]
                   for i in range(self.dimension) for j in range(self.dimension))

    def to_json(self) -> dict:
        return {
            "dimension": self.dimension,
            "reps": [list(g.images) for g in self.reps],
            "indices": list(self.indices),
            "mu": [[i, j, k, str(v)]
                   for i in range(self.dimension)
                   for j in range(self.dimension)
                   for k, v in sorted(self.mu[i][j].items())],
        }


def hecke_algebra(G: GroupHandle, K: SubgroupHandle) -> HeckeAlgebra:
    """Structure constants mu_ijk = |K|^-1 |K g_i K  cap  g_k K g_j^-1 K| on
    the double-coset basis; associativity and the unit are verified on
    construction.  Both sets are unions of left K-cosets, so mu_ijk is an
    integer.  Each intersection is counted on bitsets of element indices."""
    dc = double_cosets(G, K, K)
    t = len(dc.reps)
    indices = tuple(s // K.order for s in dc.sizes)
    # right-hand sets g_k K g_j^-1 K
    kelem = list(K.elements)
    mu: list[list[dict[int, int]]] = [[{} for _ in range(t)] for _ in range(t)]
    for k in range(t):
        gk = dc.reps[k]
        for j in range(t):
            gj_inv = dc.reps[j].inverse()
            left = [gk * k1 * gj_inv for k1 in kelem]
            rhs = G.bitset(a * k2 for a in left for k2 in kelem)
            for i, coset in enumerate(dc.cosets):
                cnt, rem = divmod((coset & rhs).bit_count(), K.order)
                if rem:
                    raise AssertionError(f"Hecke count at ({i},{j},{k}) is not a "
                                         f"multiple of |K| = {K.order}")
                if cnt:
                    mu[i][j][k] = cnt
    alg = HeckeAlgebra(G, K, dc.reps, indices, mu)
    _verify_hecke(alg)
    return alg


def _contract(images: Sequence[dict], v: dict[int, int]) -> dict[int, int]:
    # sum_l v_l images[l], without zero entries
    out: dict[int, int] = {}
    for l, c in v.items():
        for k, m in images[l].items():
            out[k] = out.get(k, 0) + c * m
    return {k: x for k, x in out.items() if x}


def _verify_hecke(alg: HeckeAlgebra) -> None:
    """The unit laws, then associativity by Light's test at the algebra
    generators of `exactalg.algebra_generators`.

    M = {a : (x a) y = x (a y) for all x, y} is a subspace, and it is closed
    under products without assuming associativity: for a, b in M,
    (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).  The unit laws
    put e_0 in M, so checking (e_i g) e_k = e_i (g e_k) for every generator
    g and all i, k puts every left-normed product of generators in M, and
    these span the algebra, hence M is all of it."""
    t = alg.dimension
    if not alg.reps[0].is_identity():
        raise AssertionError("identity double coset must come first")
    for j in range(t):
        if alg.mu[0][j] != {j: 1} or alg.mu[j][0] != {j: 1}:
            raise AssertionError("identity double coset is not a two-sided unit")
    # (e_i e_j) e_k = e_i (e_j e_k) as sum_l mu_ij^l mu_lk = sum_l mu_jk^l mu_il
    cols = list(zip(*alg.mu))    # cols[k][l] = mu_lk = e_l e_k
    for j in algebra_generators(cols, {0: Cyc.one()}):
        for i in range(t):
            ij = alg.mu[i][j]
            for k in range(t):
                if _contract(cols[k], ij) != _contract(alg.mu[i], alg.mu[j][k]):
                    raise AssertionError(
                        f"Hecke multiplication not associative at ({i},{j},{k})")


def combinatorial_bound_check(G: GroupHandle, H: SubgroupHandle,
                              d_h: Optional[int]) -> IntersectionChain:
    """The intersection chain, whose d_c_ev is the even combinatorial depth,
    with d_h <= d_c_ev + 1 checked against the pair's h-depth, when it is
    known."""
    ic = intersection_chain(G, H)
    if d_h is not None and d_h > ic.d_c_ev + 1:
        raise AssertionError(f"d_h = {d_h} exceeds d_c_ev + 1 = {ic.d_c_ev + 1}")
    return ic
