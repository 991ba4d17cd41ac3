"""Depth and h-depth invariants from the inclusion matrix.

Zero-pattern stabilization of powers of B = M M^t and C = M^t M is the
operational form of the similarity conditions for semisimple pairs; the
bipartite-graph diameters are read off the same scans.  Depth 1 and h-depth 1
are not visible from M alone, so those cases are gated by group data
(adjoint test, permutation matrix test).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import mul
from typing import Optional

from .chartab import InclusionMatrix, permutation_character
from .exactalg import (factor_rational_roots, is_indecomposable, minimal_polynomial,
                       pattern_stabilization_index, poly_to_string)
from .permgroup import GroupHandle, SubgroupHandle, depth_one_adjoint_test


@dataclass
class EigenvalueSet:
    """Exact rational eigenvalue data with its provenance; the matrices are
    integral, so the rational eigenvalues are integers."""
    values: dict[int, int]               # value -> multiplicity
    residual: tuple[int, ...]            # nonrational part, (1,) if none
    source: str                          # "class-formula" | "minpoly"
    t: Optional[int] = None              # |E| when source is class-formula
    depth_bound: Optional[int] = None

    def value_set(self) -> set[int]:
        return set(self.values)


@dataclass
class McKayQuiver:
    labels: list[str]
    edges: list[tuple[int, int, int]]    # (i, j, weight)
    indecomposable: bool

    def dot(self) -> str:
        lines = ["digraph mckay {"]
        for i, lab in enumerate(self.labels):
            lines.append(f'  v{i} [label="{lab}"];')
        for i, j, w in self.edges:
            attr = f' [label="{w}"]' if w != 1 else ""
            lines.append(f"  v{i} -> v{j}{attr};")
        lines.append("}")
        return "\n".join(lines)


@dataclass
class DepthReport:
    M: InclusionMatrix
    B: list[list[int]]
    C: list[list[int]]
    d_odd: Optional[int]
    d_ev: Optional[int]
    d_0: Optional[int]
    d_h: Optional[int]
    minpoly_B: tuple[int, ...]           # monic, lowest degree first
    minpoly_C: tuple[int, ...]
    eigen_B: EigenvalueSet
    pf_check: Optional[bool]
    pf_value: Optional[int]
    mckay: McKayQuiver
    white_diameter_plus_one: Optional[int]
    black_diameter_plus_one: Optional[int]
    method_tags: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        def maybe(x):
            return x if x is not None else "unbounded-within-budget"

        return {
            "M": self.M.to_lists(),
            "B": self.B,
            "C": self.C,
            "d_odd": maybe(self.d_odd),
            "d_ev": maybe(self.d_ev),
            "d_0": maybe(self.d_0),
            "d_h": maybe(self.d_h),
            "minpoly_B": poly_to_string(self.minpoly_B),
            "minpoly_C": poly_to_string(self.minpoly_C),
            "eigen_B": {
                "values": {str(k): v for k, v in sorted(self.eigen_B.values.items())},
                "residual": poly_to_string(self.eigen_B.residual),
                "source": self.eigen_B.source,
            },
            "pf_check": self.pf_check,
            "pf_value": str(self.pf_value) if self.pf_value is not None else None,
            "indecomposable_C": self.mckay.indecomposable,
            "mckay_edges": [list(e) for e in self.mckay.edges],
            "white_diameter_plus_one": self.white_diameter_plus_one,
            "black_diameter_plus_one": self.black_diameter_plus_one,
            "method_tags": dict(sorted(self.method_tags.items())),
        }


def _int_matmul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*B))
    return [[sum(map(mul, row, col)) for col in cols] for row in A]


def _poly_at(poly: tuple[int, ...], A: list[list[int]]) -> list[list[int]]:
    """poly(A) for an integer polynomial and a square integer matrix A, by
    Horner's rule."""
    n = len(A)
    acc = [[poly[-1] if i == j else 0 for j in range(n)] for i in range(n)]
    for c in reversed(poly[:-1]):
        acc = _int_matmul(acc, A)
        for i in range(n):
            acc[i][i] += c
    return acc


def _is_permutation_matrix(grid: list[list[int]]) -> bool:
    if any(len(row) != len(grid) for row in grid):
        return False
    return (all([x for x in row if x] == [1] for row in grid)
            and all(sum(1 for x in col if x) == 1 for col in zip(*grid)))


def mckay_quiver(C: list[list[int]]) -> McKayQuiver:
    """Weighted digraph on the group irreducibles U0, U1, ... with adjacency C."""
    q = len(C)
    labels = [f"U{j}" for j in range(q)]
    edges = [(i, j, C[i][j]) for i in range(q) for j in range(q) if C[i][j] > 0]
    return McKayQuiver(labels, edges, is_indecomposable(C))


def depth_report(M: InclusionMatrix,
                 group_data: Optional[tuple[GroupHandle, SubgroupHandle]] = None
                 ) -> DepthReport:
    """All depth invariants readable from M, with group-gated depth-1 cases.

    d_odd = 2n+1 for the least n >= 1 with pattern(B^n) = pattern(B^(n+1)),
    d_ev = 2n for the least n >= 1 with pattern(M C^(n-1)) = pattern(M C^n),
    d_h = 2n+1 for the least n >= 1 with pattern(C^n) = pattern(C^(n+1)),
    d_0 = min(d_ev, d_odd).  Each index is searched up to
    max(rows, cols, 2) of M.

    m(B) = 0 is checked for m = minpoly(B); it implies C m(C) = M^t m(B) M
    = 0, as C^(k+1) = M^t B^k M for k >= 0.
    """
    tags: dict[str, str] = {}
    grid = M.to_lists()
    grid_t = [list(col) for col in zip(*grid)]
    B = _int_matmul(grid, grid_t)
    C = _int_matmul(grid_t, grid)
    budget = max(M.rows, M.cols, 2)

    n_odd = pattern_stabilization_index(B, B, budget)
    d_odd = 2 * n_odd + 1 if n_odd is not None else None
    tags["d_odd"] = "pattern-stabilization(B)"
    n_ev = pattern_stabilization_index(grid, C, budget)
    d_ev = 2 * n_ev if n_ev is not None else None
    tags["d_ev"] = "pattern-stabilization(M C^k)"
    n_h = pattern_stabilization_index(C, C, budget)
    d_h = 2 * n_h + 1 if n_h is not None else None
    tags["d_h"] = "pattern-stabilization(C)"

    if _is_permutation_matrix(grid):
        # identity inclusion: the pattern rules cannot see below 3/2
        d_odd, d_ev, d_h = 1, 2, 1
        tags["d_odd"] = tags["d_h"] = "identity-inclusion"
    elif group_data is not None:
        G, H = group_data
        if depth_one_adjoint_test(G, H):
            d_odd = 1
            tags["d_odd"] = "adjoint-test"
    d_0 = min(d_ev, d_odd) if d_ev is not None and d_odd is not None else None
    tags["d_0"] = "min(d_ev, d_odd)"

    mp_b = minimal_polynomial(B)
    mp_c = minimal_polynomial(C)
    if any(map(any, _poly_at(mp_b, B))):
        raise AssertionError("m(B) != 0 for m = minpoly(B)")
    x_mp_b = (0,) + mp_b
    # B and C share their nonzero eigenvalues and are diagonalizable, so
    # minpoly(C) is m, X m or, when B is singular and C is not, m / X
    mp_b_over_x = mp_b[1:] if mp_b[0] == 0 else None
    if mp_c not in (mp_b, x_mp_b, mp_b_over_x):
        raise AssertionError("minpoly(C) is none of m, X m and m / X "
                             "for m = minpoly(B)")

    roots_b, resid_b = factor_rational_roots(mp_b)
    eigen_b = EigenvalueSet(values=roots_b, residual=resid_b, source="minpoly")
    tags["eigen_B"] = "minpoly-rational-roots"

    # the roots of minpoly(C) are those of m, with one 0 more for X m and one
    # fewer for m / X
    roots_c, resid_c = roots_b, resid_b
    if mp_c != mp_b:
        zeros = roots_b.get(0, 0) + (1 if mp_c == x_mp_b else -1)
        roots_c = {0: zeros} if zeros else {}
        roots_c.update((r, k) for r, k in roots_b.items() if r != 0)
    pf_value = max(roots_c) if roots_c else None
    pf_check = None
    if group_data is not None:
        G, H = group_data
        index = G.order // H.order
        if pf_value is not None and pf_value != index:
            raise AssertionError(f"Perron-Frobenius root {pf_value} does not match "
                                 f"dim H / dim R = {index}")
        pf_check = (resid_c == (1,)
                    and sum(c * index ** i for i, c in enumerate(mp_c)) == 0
                    and pf_value == index)
        tags["pf_check"] = "minpoly_C vanishes at |G:H|"

    # The bipartite diameters from the raw scan indices.  White-white
    # distances are even and B has a positive diagonal at each white with an
    # edge, so (B^n)_ik > 0 exactly when dist(i, k) <= 2n.  A shortest path of
    # length D passes whites at every even distance below D, so pattern(B^n)
    # grows until 2n >= D: n_odd = max(1, D / 2) for D the largest finite
    # white-white distance, and D = 0 exactly when no column of M has two
    # nonzero entries; D <= 2(p - 1) keeps n_odd within the budget.  Likewise
    # C, the black vertices and the rows of M give n_h.
    white_d = 2 * n_odd + 1 if any(sum(map(bool, col)) > 1 for col in grid_t) else 1
    black_d = 2 * n_h + 1 if any(sum(map(bool, row)) > 1 for row in grid) else 1
    quiver = mckay_quiver(C)

    return DepthReport(M=M, B=B, C=C, d_odd=d_odd, d_ev=d_ev, d_0=d_0, d_h=d_h,
                       minpoly_B=mp_b, minpoly_C=mp_c, eigen_B=eigen_b,
                       pf_check=pf_check, pf_value=pf_value, mckay=quiver,
                       white_diameter_plus_one=white_d,
                       black_diameter_plus_one=black_d,
                       method_tags=tags)


def eigenvalues_via_class_formula(G: GroupHandle, H: SubgroupHandle) -> EigenvalueSet:
    """The set {|G:H| |C cap H| / |C| : C a class of G meeting H}, the
    positive values of the permutation character pi on G/H, which are
    integers, with |E| = t and the bound d_0 <= 2t+1 (2t-1 when every class
    of G meets H in a single H-class).

    pi has no zero (every class of G meets H) only when H = G, since the
    conjugates of a proper H cover at most |G:H| (|H| - 1) + 1 < |G|
    elements; each class of G is then a single H-class.  So the 2t-1 bound
    holds exactly when pi has no zero."""
    pi = permutation_character(G, H)
    values = sorted({v for v in pi if v})
    t = len(values)
    bound = 2 * t - 1 if all(pi) else 2 * t + 1
    return EigenvalueSet(values=dict.fromkeys(values, 1),
                         residual=(1,),
                         source="class-formula", t=t, depth_bound=bound)


def ell_from_trivial_row(C: list[list[int]], trivial_index: int) -> Optional[int]:
    """Stabilization index of the support of e_triv C^n; for semisimple pairs
    2*ell + 1 equals the h-depth."""
    return pattern_stabilization_index([C[trivial_index]], C, max(len(C), 2))


def bipartite_dot(M: InclusionMatrix) -> str:
    """The weighted bipartite inclusion graph; subgroup irreducibles V0, V1,
    ... are the white vertices, group irreducibles U0, U1, ... the black ones."""
    p, q = M.rows, M.cols
    lines = ["graph inclusion {"]
    for i in range(p):
        lines.append(f'  w{i} [label="V{i}" style=filled '
                     f'fillcolor=white shape=circle];')
    for j in range(q):
        lines.append(f'  b{j} [label="U{j}" style=filled '
                     f'fillcolor=black fontcolor=white shape=circle];')
    for i in range(p):
        for j in range(q):
            w = M.entries[i][j]
            if w:
                attr = f' [label="{w}"]' if w != 1 else ""
                lines.append(f"  w{i} -- b{j}{attr};")
    lines.append("}")
    return "\n".join(lines)
