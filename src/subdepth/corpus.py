"""Built-in catalog of small permutation groups, the group-pair pipeline
``analyze_pair`` and the sweep harness that runs it on every catalog pair.

The catalog covers cyclic, dihedral, symmetric/alternating up to S4,
quaternion and direct-product groups up to order 24, each from explicit
generators, which is enough to reproduce every subgroup-pair computation in
the worked examples without external data.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from typing import Optional

from .chartab import (CharacterTable, class_fusion, compute_character_table,
                      inclusion_matrix)
from .depthmat import (DepthReport, EigenvalueSet, depth_report,
                       eigenvalues_via_class_formula, ell_from_trivial_row)
from .permgroup import GroupHandle, Permutation, SubgroupHandle, enumerate_group


def _cycle(n: int) -> Permutation:
    return Permutation.from_cycles(n, [tuple(range(1, n + 1))])


def cyclic(n: int) -> list[Permutation]:
    if n == 1:
        return []
    return [_cycle(n)]


def dihedral(n: int) -> list[Permutation]:
    """Dihedral group of order 2n acting on n points, n >= 3."""
    rot = _cycle(n)
    refl = Permutation([((n + 1 - i) % n) + 1 for i in range(1, n + 1)])
    return [rot, refl]


def symmetric(n: int) -> list[Permutation]:
    if n == 1:
        return []
    gens = [Permutation.from_cycles(n, [(1, 2)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
    return gens


def alternating(n: int) -> list[Permutation]:
    gens = [Permutation.from_cycles(n, [(1, 2, 3)])]
    if n == 4:
        gens.append(Permutation.from_cycles(4, [(1, 2), (3, 4)]))
    elif n == 5:
        gens.append(Permutation.from_cycles(5, [(1, 2, 3, 4, 5)]))
    return gens


def quaternion() -> list[Permutation]:
    """Q8 in its left regular representation on {1,-1,i,-i,j,-j,k,-k}."""
    elems = [(1, "1"), (-1, "1"), (1, "i"), (-1, "i"),
             (1, "j"), (-1, "j"), (1, "k"), (-1, "k")]
    table = {("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
             ("1", "k"): (1, "k"), ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
             ("k", "1"): (1, "k"), ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
             ("k", "k"): (-1, "1"), ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
             ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"), ("k", "i"): (1, "j"),
             ("i", "k"): (-1, "j")}

    def mul(a, b):
        sa, la = a
        sb, lb = b
        s, l = table[(la, lb)]
        return (sa * sb * s, l)

    def left_perm(g):
        return Permutation([elems.index(mul(g, x)) + 1 for x in elems])

    return [left_perm((1, "i")), left_perm((1, "j"))]


def direct_product(gens_a: list[Permutation], deg_a: int,
                   gens_b: list[Permutation], deg_b: int) -> list[Permutation]:
    out = []
    for g in gens_a:
        out.append(Permutation(list(g.images) + list(range(deg_a + 1, deg_a + deg_b + 1))))
    for g in gens_b:
        out.append(Permutation(list(range(1, deg_a + 1)) + [x + deg_a for x in g.images]))
    return out


@lru_cache(maxsize=1)
def _entries() -> tuple[tuple[str, int, int, list[Permutation]], ...]:
    """(name, order, degree, generators) for every catalog group."""
    entries = [(f"C{n}", n, n, cyclic(n)) for n in range(1, 25)]
    entries += [(f"D{2 * n}", 2 * n, n, dihedral(n)) for n in range(3, 13)]
    entries += [
        ("S4", 24, 4, symmetric(4)),
        ("A4", 12, 4, alternating(4)),
        ("Q8", 8, 8, quaternion()),
        ("C2xC2", 4, 4, direct_product(cyclic(2), 2, cyclic(2), 2)),
        ("C2xC4", 8, 6, direct_product(cyclic(2), 2, cyclic(4), 4)),
        ("C2xC2xC2", 8, 6, direct_product(direct_product(cyclic(2), 2, cyclic(2), 2), 4,
                                          cyclic(2), 2)),
        ("C2xC6", 12, 8, direct_product(cyclic(2), 2, cyclic(6), 6)),
        ("C3xC3", 9, 6, direct_product(cyclic(3), 3, cyclic(3), 3)),
        ("C2xD8", 16, 6, direct_product(cyclic(2), 2, dihedral(4), 4)),
    ]
    return tuple(entries)


_GROUPS: dict[str, GroupHandle] = {}


def catalog(max_order: Optional[int] = None) -> tuple[tuple[str, GroupHandle], ...]:
    """(name, group) for every catalog group, or every one of order at most
    max_order, in catalog order.  Each group is enumerated once, on first
    use, and its order is checked against the stored one."""
    out = []
    for name, order, degree, gens in _entries():
        if max_order is not None and order > max_order:
            continue
        if name not in _GROUPS:
            G = enumerate_group(gens, degree=degree)
            if G.order != order:
                raise AssertionError(f"catalog group {name} has order {G.order}, "
                                     f"not the stored {order}")
            _GROUPS[name] = G
        out.append((name, _GROUPS[name]))
    return tuple(out)


_TABLES: dict[str, CharacterTable] = {}


def corpus_groups(max_order: int) -> list[tuple[str, GroupHandle]]:
    return list(catalog(max_order))


def cached_table(name: str, G: GroupHandle) -> CharacterTable:
    if name not in _TABLES:
        _TABLES[name] = compute_character_table(G)
    return _TABLES[name]


def subgroups_up_to_conjugacy(G: GroupHandle) -> list[tuple[SubgroupHandle, list[int]]]:
    """(representative, positions in ``G.subgroups()`` of its members) for
    each conjugacy class of subgroups, in order of the representative, which
    is the member of least position and so of smallest element tuple.

    A class is the orbit of bitsets that ``GroupHandle.conjugates`` walks."""
    subs = G.subgroups()
    position = {H.bits: i for i, H in enumerate(subs)}
    classes = []
    seen: set[int] = set()
    for H in subs:
        if H.bits not in seen:
            orbit = G.conjugates(H)
            seen.update(orbit)
            classes.append((H, sorted(map(position.__getitem__, orbit))))
    return classes


@dataclass
class SweepRow:
    group: str
    subgroup_index: int
    subgroup_order: int
    index: int
    d_0: Optional[int]
    d_ev: Optional[int]
    d_odd: Optional[int]
    d_h: Optional[int]
    eigen_ok: bool
    pf_ok: bool
    conjecture_ok: bool

    def to_json(self) -> dict:
        return asdict(self)  # keys in field order


@dataclass
class SweepReport:
    max_order: int
    rows: list[SweepRow]
    violations: list[SweepRow]

    def to_json(self) -> dict:
        return {
            "max_order": self.max_order,
            "pairs": len(self.rows),
            "rows": [r.to_json() for r in self.rows],
            "violations": [r.to_json() for r in self.violations],
        }


@dataclass
class PairAnalysis:
    """The subgroup-side invariants of one pair: the depth report (with the
    inclusion matrix as ``depth.M``), the class-formula eigenvalues, and
    whether they agree with the minpolys (the Perron-Frobenius check is
    ``depth.pf_check``)."""
    depth: DepthReport
    eigen: EigenvalueSet
    eigen_ok: bool


def analyze_pair(G: GroupHandle, H: SubgroupHandle,
                 tabG: Optional[CharacterTable] = None) -> PairAnalysis:
    """The group-pair pipeline shared by the CLI and the sweep.

    ``depth_report`` checks m(B) = 0, hence C m(C) = 0, and the
    Perron-Frobenius root; the trivial-row stabilization index is checked
    against d_h here.  Whether the class formula gives the nonzero roots of
    minpoly(B), with residual 1, is returned as ``eigen_ok`` for the caller
    to act on, like ``depth.pf_check``.

    For H = G the subgroup table is ``tabG`` itself: a computed table
    depends only on the sorted element set, which H and G share.
    """
    if tabG is None:
        tabG = compute_character_table(G)
    tabH = tabG if H.order == G.order else compute_character_table(H.as_group())
    M = inclusion_matrix(tabG, tabH, class_fusion(G, H))
    rep = depth_report(M, group_data=(G, H))
    ell = ell_from_trivial_row(rep.C, tabG.trivial_index())
    if not (rep.d_h == 1 or rep.d_h == 2 * ell + 1):
        raise AssertionError("trivial-row stabilization disagrees with the pattern h-depth")
    es = eigenvalues_via_class_formula(G, H)
    nonzero_roots = {v for v in rep.eigen_B.values if v != 0}
    eigen_ok = (es.value_set() == nonzero_roots
                and rep.eigen_B.residual == (1,))
    return PairAnalysis(rep, es, eigen_ok)


def run_sweep(max_order: int) -> SweepReport:
    """Depth reports for every subgroup pair of every catalog group up to the
    given order, with the class-formula eigenvalue oracle and the d_0 <= d_h
    conjecture checked on each pair.

    ``analyze_pair`` runs once per conjugacy class of subgroups, with every
    check, and each member of the class copies its representative's row.
    The copy is exact: conjugation by g is an automorphism of G carrying H
    to H^g.  It fixes every class and irreducible character of G and maps
    those of H onto those of H^g, so the inclusion matrix of H^g is that of
    H with its rows permuted, and |C cap H^g| = |C cap H| for every class C
    of G.  Every field of a row is read from the orders, the zero patterns
    and eigenvalues of that matrix up to the permutation, the adjoint test
    and those class counts, so none changes."""
    rows: list[SweepRow] = []
    for name, G in corpus_groups(max_order):
        tabG = cached_table(name, G)
        group_rows: list = [None] * len(G.subgroups())
        for H, members in subgroups_up_to_conjugacy(G):
            a = analyze_pair(G, H, tabG)
            rep = a.depth
            conj_ok = rep.d_0 is None or rep.d_h is None or rep.d_0 <= rep.d_h
            for si in members:
                group_rows[si] = SweepRow(name, si, H.order, G.order // H.order,
                                          rep.d_0, rep.d_ev, rep.d_odd, rep.d_h,
                                          a.eigen_ok, rep.pf_check, conj_ok)
        rows += group_rows
    violations = [r for r in rows if not (r.eigen_ok and r.pf_ok and r.conjecture_ok)]
    return SweepReport(max_order, rows, violations)
