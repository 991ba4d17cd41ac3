"""Finite-dimensional Hopf algebras over cyclotomic fields via exact
structure constants: quotient modules, integrals, modular functions,
Frobenius criteria, annihilator and trace-ideal chains, and idealizers.

Elements are sparse coordinate dicts over a fixed basis.  Every constructed
algebra has the full set of Hopf axioms verified eagerly, so downstream
computations never run on malformed data.  All module-theoretic facts are
decided by exact linear algebra over Q(zeta_n), through four shared pieces:

- sparse kernel vectors: `exactalg.kernel_of_sparse_columns` returns the
  kernel as sparse dicts, which go straight into a `RowSpace` or a report;
- one invariants solver, `_invariants`, for x h = eps(h) x at the algebra
  generators, which gives the right integrals of H and of R and the
  integrals of Q;
- one two-slot tensor map, `_tensor_image`, for every "map both tensor
  slots" step and for the product in H x H (over the slot pairs
  ((i1, j1), (i2, j2))), with `SubalgebraEmbedding.coords` and
  `_tensor_coords` reading sparse coordinates in a subalgebra at its pivot
  columns;
- one sparse linear map, `_apply_map`, for the product in H (over the rows
  mult[i] of the structure constants), with which `verify` also contracts
  the structure constants to check associativity, for the projection onto
  Q and the action of H on Q, and for the right actions of K, E and F in
  `build_small_quantum_group`.

Every sparse vector here is zero-free: the builders and `from_json` drop
zero structure constants, sums go through `_vadd`, products of nonzero
scalars are nonzero, and `RowSpace` reductions and kernels drop the entries
they cancel.  So two vectors are equal exactly when their dicts are, and
every check compares them by ==.  Each scalar is a `Cyc` in normal form,
integer numerators over one coprime denominator with rational values at
order 1, so == on two scalars of one order compares those ints directly.

Neither chain of the `hopf` report builds a tensor power.  Ann(Q^x(n+1))
is the kernel of h -> (pi_n x pi_1) Delta(h) for the quotient maps
pi_n : H -> H/Ann(Q^xn) and pi_1 : H -> H/Ann Q (proof in
`annihilator_chain`), at most (dim H)^2 rows for every n, and the chain
ends at the least Hopf ideal it reaches.  The trace ideal tau(Q^xn) is the
image of Ann(Q^xn)^perp under the injective map Phi : H* -> H of the left
integral (proof in `trace_ideals`), read off the same quotient map pi_n.
`tensor_power_action` and `module_hom_basis` build Q^xn and its maps into
H directly; the tests keep them as the reference route.

A statement that must hold for every h in H (a module law of Q, the
two-sided ideal test, the equations of integrals and of the idealizer) is
checked at the algebra generators of `HopfAlgebraData.generators` only.  Each
such statement is closure under a set of h that is a subalgebra containing 1,
so it holds on all of H once it holds at the generators; every docstring
names its subalgebra, the same argument that `HopfAlgebraData.verify` uses.
Spans close at the generators too: `_ideal` builds R+H, HR+ and H t_R H by
multiplying by the generators until the span stops growing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import gcd
from typing import Optional, Sequence

from .exactalg import (Cyc, RowSpace, _coords_in_subfield, algebra_generators, json_int,
                       json_kind, json_scalar, kernel_of_sparse_columns, scalar_to_string)
from .permgroup import GroupHandle, SubgroupHandle, _bit_indices

Vec = dict[int, Cyc]           # sparse element of H
TVec = dict[tuple, Cyc]        # sparse element of a tensor power of H


def _vadd(acc: Vec, idx, val: Cyc) -> None:
    cur = acc.get(idx)
    nv = val if cur is None else cur + val
    if nv.is_zero():
        acc.pop(idx, None)
    else:
        acc[idx] = nv


def _apply_map(images: Sequence[dict], v: Vec) -> dict:
    """The image of v under the linear map with images[i] the sparse image
    of the i-th basis element; into an empty sum a rational 1 copies images[i]."""
    out: dict = {}
    for i, c in v.items():
        if not out and c.order == 1 and c.nums[0] == 1 == c.den:
            out = dict(images[i])
            continue
        for k, m in images[i].items():
            _vadd(out, k, c * m)
    return out


def _apply_form(values: Sequence[Cyc], v: Vec) -> Cyc:
    """The value at v of the linear form with values[i] its value at the
    i-th basis element."""
    return sum((c * values[i] for i, c in v.items()), Cyc.zero())


def _vscale(v: dict, c: Cyc) -> dict:
    if c.is_zero():
        return {}
    return {k: c * x for k, x in v.items()}


def _nonzero(v: dict) -> dict:
    return {k: x for k, x in v.items() if not x.is_zero()}


def _mult_vec(mult: list[list[Vec]], a: Vec, b: Vec) -> Vec:
    # a b = sum a_i (e_i b), e_i b the image of b under the rows mult[i]
    return _apply_map({i: _apply_map(mult[i], b) for i in a}, a)


def _tensor_mult(mult: list[list[Vec]], a: TVec, b: TVec) -> TVec:
    # the product in H x H, slot by slot: each pair of terms is the tensor
    # (e_i1 e_j1) x (e_i2 e_j2), both slots mapped from the pairs (i, j)
    pairs = {((i1, j1), (i2, j2)): ca * cb
             for (i1, i2), ca in a.items() for (j1, j2), cb in b.items()}

    def at(ij):
        return mult[ij[0]][ij[1]]
    return _tensor_image(pairs, at, at)


def _tensor_image(tv: TVec, left, right) -> TVec:
    """sum c left(x) x right(y) over tv = sum c e_x x e_y: both tensor slots
    mapped, left and right taking a slot index to a sparse vector."""
    out: TVec = {}
    for (x, y), c in tv.items():
        for rx, cx in left(x).items():
            cc = c * cx
            for ry, cy in right(y).items():
                _vadd(out, (rx, ry), cc * cy)
    return out


def _project(space: RowSpace, sec_index: dict[int, int], v: Vec) -> Vec:
    """v modulo the row space, in coordinates on the non-pivot columns
    (sec_index maps each non-pivot column to its coordinate)."""
    return {sec_index[j]: c for j, c in space.reduce(v).items()}


def _check_indices(field: str, d: int, *indices) -> None:
    # input check for Hopf JSON: basis indices must lie in range(dim)
    for x in indices:
        if type(x) is not int or not 0 <= x < d:
            raise ValueError(f"Hopf JSON field '{field}': index {x!r} is not "
                             f"in range({d})")


_json_kind = partial(json_kind, "Hopf JSON")
_json_int = partial(json_int, "Hopf JSON")


def _json_scalar(field: str, value, n: int) -> Cyc:
    # input check for Hopf JSON: a scalar written at order m must lie in
    # Q(zeta_n) for the declared field_order n, that is, in
    # Q(zeta_n) cap Q(zeta_m) = Q(zeta_gcd(n, m)): one subfield test, and no
    # search for the conductor
    c = json_scalar("Hopf JSON", field, value)
    if n % c.order and _coords_in_subfield(c, gcd(n, c.order)) is None:
        raise ValueError(f"Hopf JSON field '{field}': {value!r} does not lie in "
                         f"Q(zeta_{n}) for field_order {n}")
    return c


def _json_entries(field: str, value) -> list:
    # the [i, j, k, scalar] entries of a structure-constant list
    for entry in _json_kind(field, value, list):
        if not isinstance(entry, list) or len(entry) != 4:
            raise ValueError(f"Hopf JSON field '{field}': expected [i, j, k, scalar] "
                             f"entries, got {entry!r}")
    return value


def _check_length(field: str, d: int, *seqs) -> None:
    # input check for Hopf JSON: each list must have one entry per basis element
    for seq in seqs:
        if len(seq) != d:
            raise ValueError(f"Hopf JSON field '{field}': a list of length "
                             f"{len(seq)}, expected dim = {d}")


# ---------------------------------------------------------------------------
# HopfAlgebraData
# ---------------------------------------------------------------------------

class HopfAlgebraData:
    """A Hopf algebra given by exact structure-constant tensors.

    mult[i][j] is the sparse product e_i e_j, comult[i] the sparse coproduct
    of e_i over basis pairs, counit[i] a scalar, antipode[i] the sparse image
    S(e_i).  The constructor verifies associativity, coassociativity, the
    unit/counit laws, bialgebra compatibility and both antipode axioms.

    Associativity and bialgebra compatibility are proved on algebra
    generators only (see `verify`), by two lemmas: the elements a with
    (xa)y = x(ay) for all x, y form a subalgebra even before associativity
    is known, and in an associative algebra the elements a with
    Delta(xa) = Delta(x) Delta(a) (likewise eps) for all x form a subalgebra
    containing 1.  Hence the order: unit laws before associativity,
    associativity before multiplicativity.
    """

    def __init__(self, dim: int, field_order: int, labels: Sequence[str],
                 mult: list[list[Vec]], unit: Vec, comult: list[TVec],
                 counit: list[Cyc], antipode: list[Vec]):
        self.dim = dim
        self.field_order = field_order
        self.labels = list(labels)
        self.mult = mult
        self.unit = unit
        self.comult = comult
        self.counit = counit
        self.antipode = antipode
        self.verify()

    # -- element algebra -----------------------------------------------------

    def mult_vec(self, a: Vec, b: Vec) -> Vec:
        return _mult_vec(self.mult, a, b)

    def tensor_mult(self, a: TVec, b: TVec) -> TVec:
        return _tensor_mult(self.mult, a, b)

    def comult_vec(self, v: Vec) -> TVec:
        return _apply_map(self.comult, v)

    def counit_vec(self, v: Vec) -> Cyc:
        return _apply_form(self.counit, v)

    def antipode_vec(self, v: Vec) -> Vec:
        return _apply_map(self.antipode, v)

    def basis_vec(self, i: int) -> Vec:
        return {i: Cyc.one()}

    # -- verification ---------------------------------------------------------

    def _generators(self) -> list[int]:
        """Basis indices that generate H as an algebra, in basis order, by
        `exactalg.algebra_generators`, with no use of associativity."""
        return algebra_generators(list(zip(*self.mult)), self.unit)

    def verify(self) -> None:
        """Prove every Hopf axiom exactly; raise AssertionError naming the
        first one that fails.

        The unit, counit and coassociativity laws, Delta(1), eps(1) and both
        antipode axioms are checked on every basis element.  Associativity
        and the multiplicativity of Delta and eps are checked against the
        algebra generators g of `_generators` only, with the same strength:

        - Associativity (Light's test): M = {a : (xa)y = x(ay) for all x, y}
          is a subspace, and it is closed under products without assuming
          associativity, since for a, b in M
          (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
          The unit laws put 1 in M, so checking (e_x g) e_y = e_x (g e_y)
          for every generator g and all x, y puts every product of
          generators in M, hence M = H.  The unit laws must run first.
          Each check is sum_k m_xg^k (e_k e_y) = sum_k m_gy^k (e_x e_k) by ==,
          exact as the structure constants, hence both sides, hold no zeros.
        - Multiplicativity: once H is associative,
          N = {a : Delta(xa) = Delta(x) Delta(a) for all x} is a subalgebra
          (likewise for eps), and it contains 1 by Delta(1) = 1 x 1 and
          eps(1) = 1.  Checking Delta(e_i g) = Delta(e_i) Delta(g) and
          eps(e_i g) = eps(e_i) eps(g) for every generator g and all i puts
          the generators in N, hence N = H.  These checks must run after
          associativity and after the checks on Delta(1) and eps(1).
        """
        d = self.dim
        one = Cyc.one()
        for i in range(d):
            ei = self.basis_vec(i)
            if self.mult_vec(self.unit, ei) != ei:
                raise AssertionError(f"unit law fails on the left at {i}")
            if self.mult_vec(ei, self.unit) != ei:
                raise AssertionError(f"unit law fails on the right at {i}")
        # the algebra generators every generator-closure check runs at
        gens = self.generators = self._generators()
        cols = list(zip(*self.mult))    # cols[y][k] = e_k e_y
        for s in gens:
            for x in range(d):
                xs, row = self.mult[x][s], self.mult[x]
                for y in range(d):
                    if _apply_map(cols[y], xs) != _apply_map(row, self.mult[s][y]):
                        raise AssertionError(f"associativity fails at ({x},{s},{y})")
        if not (self.counit_vec(self.unit) - one).is_zero():
            raise AssertionError("counit of the unit is not 1")
        unit2 = {(a, b): ca * cb for a, ca in self.unit.items()
                 for b, cb in self.unit.items()}
        if self.comult_vec(self.unit) != unit2:
            raise AssertionError("coproduct of the unit is not unit x unit")
        for i in range(d):
            # counit laws
            left: Vec = {}
            right: Vec = {}
            for (a, b), c in self.comult[i].items():
                _vadd(left, b, c * self.counit[a])
                _vadd(right, a, c * self.counit[b])
            if left != self.basis_vec(i) or right != self.basis_vec(i):
                raise AssertionError(f"counit law fails at {i}")
            # coassociativity
            lhs: dict[tuple, Cyc] = {}
            rhs: dict[tuple, Cyc] = {}
            for (a, b), c in self.comult[i].items():
                for (x, y), m in self.comult[a].items():
                    _vadd(lhs, (x, y, b), c * m)
                for (x, y), m in self.comult[b].items():
                    _vadd(rhs, (a, x, y), c * m)
            if lhs != rhs:
                raise AssertionError(f"coassociativity fails at {i}")
        for i in range(d):
            for s in gens:
                # Delta and counit are algebra maps
                prod = self.mult[i][s]
                dprod = self.comult_vec(prod)
                dd = self.tensor_mult(self.comult[i], self.comult[s])
                if dprod != dd:
                    raise AssertionError(f"coproduct multiplicativity fails at ({i},{s})")
                eps_prod = self.counit_vec(prod)
                if not (eps_prod - self.counit[i] * self.counit[s]).is_zero():
                    raise AssertionError(f"counit multiplicativity fails at ({i},{s})")
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
            if lhs != want or rhs != want:
                raise AssertionError(f"antipode axiom fails at {i}")

    # -- serialization ---------------------------------------------------------

    def to_json(self, subalgebras: Optional[dict[str, "SubalgebraEmbedding"]] = None) -> dict:
        def dense(v: Vec) -> list[str]:
            return [scalar_to_string(v.get(j, Cyc.zero())) for j in range(self.dim)]

        mult_triples = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, v in sorted(self.mult[i][j].items()):
                    mult_triples.append([i, j, k, scalar_to_string(v)])
        com_triples = []
        for i in range(self.dim):
            for (j, k), v in sorted(self.comult[i].items()):
                com_triples.append([i, j, k, scalar_to_string(v)])
        out = {
            "dim": self.dim,
            "field_order": self.field_order,
            "labels": list(self.labels),
            "unit": {str(k): scalar_to_string(v) for k, v in sorted(self.unit.items())},
            "mult": mult_triples,
            "comult": com_triples,
            "counit": [scalar_to_string(v) for v in self.counit],
            "antipode": [dense(v) for v in self.antipode],
        }
        if subalgebras:
            out["subalgebras"] = {name: [dense(v) for v in emb.basis]
                                  for name, emb in sorted(subalgebras.items())}
        return out

    @staticmethod
    def from_json(data: dict) -> tuple["HopfAlgebraData", dict[str, "SubalgebraEmbedding"]]:
        _json_kind("(top level)", data, dict)
        for key in ("dim", "field_order", "counit", "antipode", "unit"):
            if key not in data:
                raise ValueError(f"Hopf JSON is missing the field '{key}'")
        d = _json_int("dim", data["dim"])
        n = _json_int("field_order", data["field_order"])
        if n < 1:
            raise ValueError(f"Hopf JSON field 'field_order': expected a positive "
                             f"integer, got {data['field_order']!r}")
        labels = data.get("labels") or [f"e{i}" for i in range(d)]
        _check_length("labels", d, _json_kind("labels", labels, list))
        mult: list[list[Vec]] = [[{} for _ in range(d)] for _ in range(d)]
        for i, j, k, s in _json_entries("mult", data.get("mult", [])):
            _check_indices("mult", d, i, j, k)
            mult[i][j][k] = _json_scalar("mult", s, n)
        comult: list[TVec] = [{} for _ in range(d)]
        for i, j, k, s in _json_entries("comult", data.get("comult", [])):
            _check_indices("comult", d, i, j, k)
            comult[i][(j, k)] = _json_scalar("comult", s, n)
        counit_data = _json_kind("counit", data["counit"], list)
        _check_length("counit", d, counit_data)
        counit = [_json_scalar("counit", s, n) for s in counit_data]
        antipode_data = _json_kind("antipode", data["antipode"], list)
        _check_length("antipode", d, antipode_data,
                      *(_json_kind("antipode", row, list) for row in antipode_data))
        antipode = [_nonzero({j: _json_scalar("antipode", s, n) for j, s in enumerate(row)})
                    for row in antipode_data]
        # JSON object keys are strings: the unit's keys are decimal indices
        unit = {_json_int("unit", int(k) if k.isdecimal() else k):
                _json_scalar("unit", v, n)
                for k, v in _json_kind("unit", data["unit"], dict).items()}
        _check_indices("unit", d, *unit)
        H = HopfAlgebraData(d, n, labels, [list(map(_nonzero, row)) for row in mult],
                            _nonzero(unit), list(map(_nonzero, comult)), counit, antipode)
        subs = {}
        subalgebras = _json_kind("subalgebras", data.get("subalgebras", {}), dict)
        for name, rows in sorted(subalgebras.items()):
            _check_length("subalgebras", d, *(_json_kind("subalgebras", row, list)
                                              for row in _json_kind("subalgebras", rows, list)))
            basis = [_nonzero({j: _json_scalar("subalgebras", s, n) for j, s in enumerate(row)})
                     for row in rows]
            subs[name] = SubalgebraEmbedding(H, basis)
        return H, subs

    def __repr__(self):
        return f"HopfAlgebraData(dim={self.dim}, field_order={self.field_order})"


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_group_algebra(G: GroupHandle) -> HopfAlgebraData:
    """The group algebra kG with basis the group elements, Delta(g) = g x g,
    S(g) = g^-1."""
    d = G.order
    idx = {g: i for i, g in enumerate(G.elements)}
    one = Cyc.one()
    mult: list[list[Vec]] = [[{idx[a * b]: one} for b in G.elements] for a in G.elements]
    comult: list[TVec] = [{(i, i): one} for i in range(d)]
    counit = [one] * d
    antipode: list[Vec] = [{idx[g.inverse()]: one} for g in G.elements]
    unit = {idx[G.identity]: one}
    labels = [repr(g) for g in G.elements]
    return HopfAlgebraData(d, 1, labels, mult, unit, comult, counit, antipode)


def subgroup_embedding(H: HopfAlgebraData, G: GroupHandle,
                       S: SubgroupHandle) -> "SubalgebraEmbedding":
    rows = [{i: Cyc.one()} for i in _bit_indices(G.bitset(S.elements))]
    return SubalgebraEmbedding(H, rows)


def build_small_quantum_group(n: int):
    """The small quantum group on generators K, E, F at a primitive n-th root
    of unity, PBW basis K^a E^b F^c, dimension n^3.

    For odd n >= 3 the relations are K^n = 1, E^n = F^n = 0, KE = q^2 EK,
    KF = q^-2 FK, EF - FE = (K - K^-1)/(q - q^-1) over Q(zeta_n).  The n = 2
    case is the 8-dimensional algebra with K^2 = 1, E^2 = F^2 = 0, EF = FE,
    KE = -EK, KF = -FK, whose printed relations are all rational.

    Right multiplication by K, E and F (the sparse images of the basis) is
    built once.  Each K^a E^b F^c other than 1 is x F, x E or x K for the
    monomial x at position -1, -n or -n^2 in basis order, so `pbw_fill`
    builds each row of the product by e_y (x g) = (e_y x) g, the coproduct
    by Delta(x g) = Delta(x) Delta(g) and the antipode by S(x g) = S(g) S(x)
    (Kassel, Quantum Groups, GTM 155, Ch. VI-IX).

    Returns (H, {"R1": <K,F>, "R2": <K,E>, "B": <K>}).
    """
    if n != 2 and (n < 3 or n % 2 == 0):
        raise ValueError("supported cases: n = 2 or odd n >= 3")
    if n == 2:
        field_order = 1

        def qpow(k: int) -> Cyc:
            # only even powers of q = i occur in the n = 2 presentation
            if k % 2:
                raise AssertionError(f"odd power {k} of q = i")
            return Cyc.rational(1 if k % 4 == 0 else -1)
    else:
        field_order = n
        powers = [Cyc.root_of_unity(n, k) for k in range(n)]

        def qpow(k: int) -> Cyc:
            return powers[k % n]

        lam = (powers[1] - powers[-1]).inverse()     # 1 / (q - q^-1)

    def midx(a: int, b: int, c: int) -> int:
        return ((a % n) * n + b) * n + c

    def mono(a, b, c, coeff=None) -> Vec:
        return {midx(a, b, c): Cyc.one() if coeff is None else coeff}

    def e_image(a: int, b: int, c: int) -> Vec:
        # K^a E^b F^c E in normal order, by
        # F^c E = E F^c - lam F^(c-1) (s_minus K - s_plus K^-1)
        out: Vec = {midx(a, b + 1, c): Cyc.one()} if b + 1 < n else {}
        if c and n != 2:
            s_minus = sum((qpow(-2 * j) for j in range(c)), Cyc.zero())
            s_plus = sum((qpow(2 * j) for j in range(c)), Cyc.zero())
            shift = 2 * (c - 1) - 2 * b
            _vadd(out, midx(a + 1, b, c - 1), -(lam * s_minus * qpow(shift)))
            _vadd(out, midx(a - 1, b, c - 1), lam * s_plus * qpow(-shift))
        return out

    monomials = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    # E^b F^c K = q^(2c-2b) K E^b F^c, and F^n = 0
    times_k = [mono(a + 1, b, c, qpow(2 * c - 2 * b)) for (a, b, c) in monomials]
    times_e = [e_image(*m) for m in monomials]
    times_f = [mono(a, b, c + 1) if c + 1 < n else {} for (a, b, c) in monomials]
    times = (times_k, times_e, times_f)
    d = n ** 3

    def pbw_fill(first, step) -> list:
        # the value at every monomial, from first at 1 and step(value at x, g)
        # at x g, for the generator g = 0, 1, 2 (K, E, F)
        out = [first]
        for i in range(1, d):
            g = 2 if i % n else 1 if i % (n * n) else 0
            out.append(step(out[i - (n * n, n, 1)[g]], g))
        return out

    one = Cyc.one()
    mult: list[list[Vec]] = [pbw_fill({x: one}, lambda v, g: _apply_map(times[g], v))
                             for x in range(d)]

    # Delta(K) = K x K, Delta(E) = E x 1 + K x E, Delta(F) = F x K^-1 + 1 x F
    deltas: tuple[TVec, ...] = (
        {(midx(1, 0, 0), midx(1, 0, 0)): one},
        {(midx(0, 1, 0), midx(0, 0, 0)): one, (midx(1, 0, 0), midx(0, 1, 0)): one},
        {(midx(0, 0, 1), midx(n - 1, 0, 0)): one, (midx(0, 0, 0), midx(0, 0, 1)): one})
    comult = pbw_fill({(0, 0): one}, lambda t, g: _tensor_mult(mult, t, deltas[g]))

    counit = [Cyc.one() if (b == 0 and c == 0) else Cyc.zero()
              for (a, b, c) in monomials]

    # S(K) = K^-1, S(E) = -K^-1 E, S(F) = -F K
    minus_one = Cyc.rational(-1)
    antipodes = (mono(n - 1, 0, 0), mono(n - 1, 1, 0, minus_one),
                 _apply_map(times_k, mono(0, 0, 1, minus_one)))
    antipode = pbw_fill({0: one}, lambda v, g: _mult_vec(mult, antipodes[g], v))

    labels = [f"K^{a}E^{b}F^{c}" for (a, b, c) in monomials]
    H = HopfAlgebraData(d, field_order, labels, mult, mono(0, 0, 0),
                        comult, counit, antipode)
    r1_rows = [mono(a, 0, c) for a in range(n) for c in range(n)]
    r2_rows = [mono(a, b, 0) for a in range(n) for b in range(n)]
    b_rows = [mono(a, 0, 0) for a in range(n)]
    subs = {"R1": SubalgebraEmbedding(H, r1_rows),
            "R2": SubalgebraEmbedding(H, r2_rows),
            "B": SubalgebraEmbedding(H, b_rows)}
    return H, subs


# ---------------------------------------------------------------------------
# Hopf subalgebra embeddings
# ---------------------------------------------------------------------------

class SubalgebraEmbedding:
    """A verified Hopf subalgebra given by a full-row-rank basis matrix,
    normalized to reduced echelon form so coordinates can be read off at the
    pivot columns."""

    def __init__(self, parent: HopfAlgebraData, rows: Sequence[Vec]):
        self.parent = parent
        space = RowSpace(parent.dim)
        for r in rows:
            space.add(dict(r))
        if space.rank != len(rows):
            raise ValueError("subalgebra basis matrix must have full row rank")
        self.space = space
        self.pivots = sorted(space.pivots)
        self.basis: list[Vec] = [dict(space.pivots[p]) for p in self.pivots]
        self.dim = len(self.basis)
        self._verify()
        self._own: Optional[HopfAlgebraData] = None

    def coords(self, v: Vec) -> Optional[Vec]:
        """Sparse coordinates of v in the echelon basis, or None if v is
        outside; echelon basis rows vanish at each other's pivots, so the
        i-th coordinate is v at the i-th pivot."""
        if self.space.reduce(v):
            return None
        return _nonzero({i: v.get(p, Cyc.zero()) for i, p in enumerate(self.pivots)})

    def _tensor_coords(self, tv: TVec) -> TVec:
        """Coordinates of tv in basis x basis, read at pivot pairs; they are
        those of tv when tv lies in R x R."""
        return _nonzero({(i, j): tv.get((pi, pj), Cyc.zero())
                         for i, pi in enumerate(self.pivots) for j, pj in enumerate(self.pivots)})

    def contains(self, v: Vec) -> bool:
        return self.coords(v) is not None

    def _verify(self) -> None:
        H = self.parent
        if not self.contains(dict(H.unit)):
            raise AssertionError("subalgebra does not contain the unit")
        if H.dim % self.dim != 0:
            raise AssertionError("subalgebra dimension does not divide dim H")
        for a in self.basis:
            if not self.contains(H.antipode_vec(a)):
                raise AssertionError("subalgebra not closed under the antipode")
            for b in self.basis:
                if not self.contains(H.mult_vec(a, b)):
                    raise AssertionError("subalgebra not closed under multiplication")
        # Delta lands in span x span: rebuild it from its pivot-pair coordinates
        basis_at = self.basis.__getitem__
        for a in self.basis:
            dv = H.comult_vec(a)
            rec = _tensor_image(self._tensor_coords(dv), basis_at, basis_at)
            if rec != dv:
                raise AssertionError("subalgebra not closed under the coproduct")

    def as_hopf(self) -> HopfAlgebraData:
        """The subalgebra as a Hopf algebra in its own basis; `_verify` has
        proved R closed under the structure maps, so every coordinate
        exists."""
        if self._own is not None:
            return self._own
        H = self.parent
        basis = self.basis
        mult = [[self.coords(H.mult_vec(a, b)) for b in basis] for a in basis]
        comult = [self._tensor_coords(H.comult_vec(a)) for a in basis]
        counit = [H.counit_vec(a) for a in basis]
        antipode = [self.coords(H.antipode_vec(a)) for a in basis]
        unit = self.coords(H.unit)
        labels = [f"r{i}" for i in range(self.dim)]
        self._own = HopfAlgebraData(self.dim, H.field_order, labels, mult, unit,
                                    comult, counit, antipode)
        return self._own

    def embed(self, v: Vec) -> Vec:
        """Map a vector in subalgebra coordinates into the parent."""
        return _apply_map(self.basis, v)

    def __repr__(self):
        return f"SubalgebraEmbedding(dim={self.dim} in dim {self.parent.dim})"


# ---------------------------------------------------------------------------
# quotient module Q = H / R+H
# ---------------------------------------------------------------------------

def _augmentation(H: HopfAlgebraData, R: SubalgebraEmbedding) -> list[Vec]:
    """The nonzero r - eps(r) 1 over the basis of R; they span R+."""
    out = []
    for r in R.basis:
        rp = dict(r)
        for j, c in _vscale(H.unit, H.counit_vec(r)).items():
            _vadd(rp, j, -c)
        if rp:
            out.append(rp)
    return out


class QuotientModule:
    """The right module coalgebra H/R+H with its projection ``proj`` (the
    `_projector` of R+H), action, induced coproduct and counit; action[h][b]
    is the image of the b-th basis vector of Q under e_h.  The
    module-coalgebra axioms are verified on construction."""

    def __init__(self, hopf: HopfAlgebraData, emb: SubalgebraEmbedding):
        self.hopf = hopf
        self.emb = emb
        H = hopf
        self.r_plus = _augmentation(H, emb)
        space = self.rpH = _ideal(H, self.r_plus, left=False, right=True)
        self.section = [j for j in range(H.dim) if j not in space.pivots]
        self.dim_q = len(self.section)
        if self.dim_q * emb.dim != H.dim:
            raise AssertionError("dim Q * dim R != dim H")
        self.proj = _projector(space)
        self.action: list[list[Vec]] = [[self.project(H.mult[j][h]) for j in self.section]
                                        for h in range(H.dim)]
        self.counit_q = [H.counit[j] for j in self.section]
        project_at = self.proj.__getitem__
        self.coproduct_q: list[TVec] = [
            _tensor_image(H.comult[j], project_at, project_at) for j in self.section]
        self._verify()

    def project(self, v: Vec) -> Vec:
        """H -> Q: v modulo R+H, coordinates on the section basis."""
        return _apply_map(self.proj, v)

    def act(self, q: Vec, h: Vec) -> Vec:
        # q h = sum h_i (q e_i), q e_i the image of q under the images action[i]
        return _apply_map({i: _apply_map(self.action[i], q) for i in h}, h)

    def _verify(self) -> None:
        """Prove that the projection pi intertwines right multiplication with
        the action rho, pi(e_i h) = pi(e_i) rho(h), and the module-coalgebra
        laws eps_Q(q h) = eps_Q(q) eps(h) and Delta_Q(q h) = Delta_Q(q) Delta(h)
        on the section basis, with h running over the algebra generators only.

        - Intertwining: the h with pi(x h) = pi(x) rho(h) for all x form a
          subspace containing 1, since rho(h) e_b = pi(e_s(b) h) by
          construction (s(b) the b-th section index) and rho(1) = id.  It is
          closed under products: for h, k in it,
          rho(hk) e_b = pi(e_s(b) h k) = pi(e_s(b) h) rho(k) = e_b rho(h) rho(k),
          so rho(hk) = rho(h) rho(k) and pi(x hk) = pi(x h) rho(k)
          = pi(x) rho(h) rho(k) = pi(x) rho(hk).  Checked at every e_i and
          every generator, it holds on all of H, and rho is multiplicative.
        - eps_Q: the h with eps_Q(q h) = eps_Q(q) eps(h) for all q contain 1
          and, with rho and eps multiplicative, are closed under products.
        - Delta_Q: the h with Delta_Q(q h) = Delta_Q(q) Delta(h) for all q
          contain 1 (Delta(1) = 1 x 1) and are closed under products, as rho
          and Delta are multiplicative.
        The intertwining check runs first, as the other two rely on it.
        """
        H = self.hopf
        gens = H.generators

        def act_at(qh: tuple[int, int]) -> Vec:
            # the basis vector q of Q acted on by the basis element h
            return self.action[qh[1]][qh[0]]

        for i in range(H.dim):
            for h in gens:
                lhs = self.project(H.mult[i][h])
                rhs = self.act(self.proj[i], H.basis_vec(h))
                if lhs != rhs:
                    raise AssertionError("projection does not intertwine the action")
        for b in range(self.dim_q):
            for h in gens:
                qh = self.action[h][b]
                eps_qh = _apply_form(self.counit_q, qh)
                if not (eps_qh - self.counit_q[b] * H.counit[h]).is_zero():
                    raise AssertionError("counit of Q is not H-linear")
                lhs = _apply_map(self.coproduct_q, qh)
                # Delta_Q(b) Delta(h) = sum (q1 h1) x (q2 h2), slot pairs (q, h)
                pairs = {((q1, h1), (q2, h2)): hc * qc
                         for (h1, h2), hc in H.comult[h].items()
                         for (q1, q2), qc in self.coproduct_q[b].items()}
                rhs = _tensor_image(pairs, act_at, act_at)
                if lhs != rhs:
                    raise AssertionError("coproduct of Q is not a module coalgebra map")

    def __repr__(self):
        return f"QuotientModule(dim_q={self.dim_q})"


def quotient_module(H: HopfAlgebraData, R: SubalgebraEmbedding) -> QuotientModule:
    return QuotientModule(H, R)


# ---------------------------------------------------------------------------
# tensor power actions
# ---------------------------------------------------------------------------

@dataclass
class TensorPowerModule:
    base: QuotientModule
    n: int
    dim: int
    action: list[list[Vec]]   # basis images per H-basis element, as Q.action

    def times_q(self) -> "TensorPowerModule":
        """The next power Q^x(n+1), from rho_(n+1)(h) = sum rho_n(h_1) x rho_1(h_2)
        over Delta(h) = sum h_1 x h_2.  By coassociativity (proved by
        `HopfAlgebraData.verify`) this is the action through the iterated
        coproduct Delta^(n)(h); the first tensor slot is the most significant
        digit of a basis index."""
        Q = self.base
        dq = Q.dim_q

        def image(delta: TVec, b1: int, b2: int) -> Vec:
            # sum rho_n(h_1) e_b1 x rho_1(h_2) e_b2, at the index b1 * dq + b2
            tv = _tensor_image(delta, lambda h1: self.action[h1][b1],
                               lambda h2: Q.action[h2][b2])
            return {r1 * dq + r2: v for (r1, r2), v in tv.items()}
        action = [[image(delta, b1, b2) for b1 in range(self.dim) for b2 in range(dq)]
                  for delta in Q.hopf.comult]
        return TensorPowerModule(Q, self.n + 1, self.dim * dq, action)


def tensor_power_action(Q: QuotientModule, n: int) -> TensorPowerModule:
    """Action of H on Q tensor ... tensor Q via the iterated coproduct, one
    coproduct step at a time (`TensorPowerModule.times_q`)."""
    if n < 1:
        raise ValueError("tensor power must be >= 1")
    tp = TensorPowerModule(Q, 1, Q.dim_q, Q.action)
    for _ in range(n - 1):
        tp = tp.times_q()
    return tp


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

@dataclass
class IdealSubspace:
    space: RowSpace

    @property
    def dim(self) -> int:
        return self.space.rank


def _ideal(H: HopfAlgebraData, rows: Sequence[Vec], left: bool, right: bool) -> RowSpace:
    """The ideal that the rows generate: H V, V H or H V H for V their span,
    as ``left``, ``right`` or both are set.

    V is closed under multiplication by the algebra generators only, on the
    chosen sides.  Let W be the span reached.  Each vector added after the
    rows is a generator times a vector of W, so W lies in the ideal.  The
    vectors added are a basis of W, and each was multiplied by every
    generator, so W g <= W at every generator g.  {h : W h <= W} is a
    subalgebra containing 1, as W (hk) = (W h) k <= W k <= W, so it is all
    of H; likewise {h : h W <= W} on the left.  So W is an ideal containing
    V, and it holds the ideal."""
    space = RowSpace(H.dim)
    work = [v for v in rows if space.add(v)]
    while work:
        v = work.pop()
        for g in H.generators:
            e = H.basis_vec(g)
            if left and space.add(p := H.mult_vec(e, v)):
                work.append(p)
            if right and space.add(p := H.mult_vec(v, e)):
                work.append(p)
    return space


def _is_two_sided(H: HopfAlgebraData, space: RowSpace) -> bool:
    """I H <= I and H I <= I for the subspace I.

    Both tests multiply by the algebra generators only: {h : I h <= I} is a
    subalgebra containing 1, as I (hk) = (I h) k <= I k <= I, and likewise
    {h : h I <= I} on the left."""
    return all(space.contains(H.mult_vec(b, H.basis_vec(g)))
               and space.contains(H.mult_vec(H.basis_vec(g), b))
               for b in space.basis_rows() for g in H.generators)


def _projector(space: RowSpace) -> list[Vec]:
    """The quotient map pi : H -> H/I of the subspace I at every basis
    element, pi(e_x) at index x, in coordinates on the non-pivot columns."""
    sec = [j for j in range(space.width) if j not in space.pivots]
    sec_index = {j: i for i, j in enumerate(sec)}
    return [_project(space, sec_index, {x: Cyc.one()}) for x in range(space.width)]


def _is_hopf_ideal(H: HopfAlgebraData, space: RowSpace, proj: list[Vec]) -> bool:
    """eps(I) = 0, S(I) in I, Delta(I) in I x H + H x I; the coproduct test
    applies the quotient projection ``proj``, the `_projector` of I, on both
    slots."""
    basis = space.basis_rows()
    for b in basis:
        if not H.counit_vec(b).is_zero():
            return False
        if not space.contains(H.antipode_vec(b)):
            return False
    project_at = proj.__getitem__
    return not any(_tensor_image(H.comult_vec(b), project_at, project_at)
                   for b in basis)


@dataclass
class AnnihilatorChain:
    ideals: list[IdealSubspace]        # Ann(Q^xn) for n = 1 .. ell_q
    projectors: list[list[Vec]]        # the `_projector` of each ideal

    @property
    def ell_q(self) -> int:
        return len(self.ideals)

    @property
    def hopf_core(self) -> IdealSubspace:
        """The last ideal, a Hopf ideal."""
        return self.ideals[-1]


def _kernel_space(columns: list[dict]) -> RowSpace:
    """The kernel of the map h -> sum_h x_h columns[h], as a subspace of H."""
    space = RowSpace(len(columns))
    for v in kernel_of_sparse_columns(columns):
        space.add(v)
    return space


def _annihilator(action: list[list[Vec]], dim: int) -> RowSpace:
    """The h in H that act as zero, from the images of the dim basis vectors
    under each H-basis element, as a subspace."""
    return _kernel_space([{b * dim + r: v for b, img in enumerate(images)
                           for r, v in img.items()} for images in action])


def _annihilator_step(H: HopfAlgebraData, proj_n: list[Vec],
                      proj_1: list[Vec]) -> RowSpace:
    """Ann(Q^x(n+1)) as the kernel of h -> (pi_n x pi_1) Delta(h), from the
    `_projector`s of Ann(Q^xn) and Ann Q (see `annihilator_chain`)."""
    return _kernel_space([_tensor_image(H.comult[h], proj_n.__getitem__,
                                        proj_1.__getitem__)
                          for h in range(H.dim)])


def annihilator_chain(Q: QuotientModule) -> AnnihilatorChain:
    """Descending chain Ann Q > Ann Q^x2 > ... > Ann Q^x ell_Q, where ell_Q
    is the least n whose annihilator is a Hopf ideal, the Hopf core.

    Only Ann Q is read off an action; every later annihilator comes from the
    one before and Ann Q, by a kernel with at most (dim H)^2 rows whatever
    the power.  For right H-modules M and N:

    - h acts on M x N as (rho_M x rho_N)(Delta h), rho the linear action
      map H -> End;
    - rho_M = iota_M pi_M, where pi_M : H -> H/Ann M is the quotient map
      and iota_M is injective; likewise for N;
    - ker(f x g) = ker f x W + V x ker g for linear maps f on V and g on W,
      so iota_M x iota_N is injective.

    Hence h annihilates M x N iff (pi_M x pi_N)(Delta h) = 0: Ann(M x N)
    depends only on Ann M and Ann N.  With Q^x(n+1) = Q^xn x Q (the slot
    order of `TensorPowerModule.times_q`), Ann_(n+1) is the kernel of
    h -> (pi_n x pi_1) Delta(h), built by `_annihilator_step` from the
    `_projector`s of Ann_n and Ann_1.  The reduced echelon form of a
    subspace is unique, so each Ann_n is the same `RowSpace` as the kernel
    of the action of Q^xn.

    The chain ends by itself:

    - A stable annihilator I = Ann_n = Ann_(n+1) is a bi-ideal.  The step
      takes Ann_(n+1) to Ann_(n+2) as it took Ann_n to Ann_(n+1), so
      I = Ann_m for every m >= n.  eps vanishes on I: the counit
      eps_Q : Q -> k is H-linear and onto, so k is a quotient of Q^xn and
      I <= Ann k = ker eps.  And I = Ann(Q^xn x Q^xn) = ker((pi_I x pi_I)
      Delta) by the step, so Delta(I) <= I x H + H x I.
    - A bi-ideal of a finite-dimensional Hopf algebra is a Hopf ideal
      (Nichols, Quotients of Hopf algebras, 1978).
    - A Hopf ideal I = Ann_n lies in Ann_1 and has
      Delta(I) <= I x H + H x I, so (pi_n x pi_1) Delta kills I and
      Ann_(n+1) = I.

    So the rank drops at every step until the chain reaches a Hopf ideal,
    where it stays: both are asserted, and the chain holds at most
    rank(Ann Q) + 1 ideals.  Each ideal is also checked two-sided and
    contained in the one before."""
    H = Q.hopf
    ideals: list[IdealSubspace] = []
    projectors: list[list[Vec]] = []
    space = _annihilator(Q.action, Q.dim_q)
    while True:
        if not _is_two_sided(H, space):
            raise AssertionError("annihilator is not a two-sided ideal")
        if ideals and not (space <= ideals[-1].space):
            raise AssertionError("annihilator chain is not descending")
        if ideals and space.rank == ideals[-1].dim:
            raise AssertionError("annihilator chain stopped descending before a Hopf ideal")
        ideals.append(IdealSubspace(space))
        proj = _projector(space)
        projectors.append(proj)
        if _is_hopf_ideal(H, space, proj):
            # the zero ideal needs no step: all later annihilators are zero
            if space.rank and not space.equals(_annihilator_step(H, proj, projectors[0])):
                raise AssertionError("annihilator chain did not stabilize at the Hopf ideal")
            return AnnihilatorChain(ideals, projectors)
        space = _annihilator_step(H, proj, projectors[0])


# ---------------------------------------------------------------------------
# integrals, modular functions, Frobenius criterion
# ---------------------------------------------------------------------------

@dataclass
class IntegralReport:
    t_R: Vec                   # right integral of R, in H coordinates
    t_H: Vec                   # right integral of H
    m_R: list[Cyc]             # modular function of R on the R basis
    m_H: list[Cyc]             # modular function of H on the H basis
    q_integral_basis: list[Vec]
    frobenius: bool
    semisimple_extension: bool


def _invariants(H: HopfAlgebraData, dim: int, act) -> list[Vec]:
    """Basis of {x : x h = eps(h) x for all h in H} in a right H-module with
    basis 0..dim-1, where act(b, g) is the image of the b-th basis vector
    under the generator g.

    The equations are taken at the algebra generators only: for fixed x,
    {h : x h = eps(h) x} is a subalgebra containing 1, since the action and
    eps are multiplicative and x (hk) = eps(h) x k = eps(h) eps(k) x.  The
    kernel is the same subspace, so its reduced echelon basis is the same."""
    columns: list[Vec] = []
    for b in range(dim):
        col: Vec = {}
        for row, g in enumerate(H.generators):
            for k, v in act(b, g).items():
                _vadd(col, row * dim + k, v)
            eps_g = H.counit[g]
            if not eps_g.is_zero():
                _vadd(col, row * dim + b, -eps_g)
        columns.append(col)
    return kernel_of_sparse_columns(columns)


def _right_integrals(H: HopfAlgebraData) -> list[Vec]:
    """Basis of the right integrals {t : t h = eps(h) t for all h}: the
    invariants of H acting on itself by right multiplication."""
    return _invariants(H, H.dim, lambda i, g: H.mult[i][g])


def _modular_function(H: HopfAlgebraData, t: Vec) -> list[Cyc]:
    """m(h) defined by h t = m(h) t; requires t a nonzero right integral."""
    ref = next(iter(sorted(t)))
    ref_c = t[ref]
    out = []
    for h in range(H.dim):
        prod = H.mult_vec(H.basis_vec(h), t)
        m = prod.get(ref, Cyc.zero()) / ref_c
        if prod != _vscale(t, m):
            raise AssertionError("left multiple of the integral is not proportional to it")
        out.append(m)
    return out


def integrals_and_modular(H: HopfAlgebraData, R: SubalgebraEmbedding,
                          Q: QuotientModule) -> IntegralReport:
    """Integrals of R and H, both modular functions, the integrals in Q, and
    the Frobenius criterion m_H|_R = m_R; the equivalence of "Q has a nonzero
    integral" with the criterion is asserted.

    Q is the pair's `quotient_module`.  The integrals of Q are the
    `_invariants` of its action, which `QuotientModule._verify` proves
    multiplicative."""
    ints_h = _right_integrals(H)
    if len(ints_h) != 1:
        raise AssertionError(f"right integral space of H has dimension {len(ints_h)}")
    t_H = ints_h[0]
    Rh = R.as_hopf()
    ints_r = _right_integrals(Rh)
    if len(ints_r) != 1:
        raise AssertionError(f"right integral space of R has dimension {len(ints_r)}")
    t_R_local = ints_r[0]
    t_R = R.embed(t_R_local)
    m_H = _modular_function(H, t_H)
    m_R = _modular_function(Rh, t_R_local)
    # restriction of m_H to R, computed on the R basis by linearity
    frobenius = all((_apply_form(m_H, b) - m_R[i]).is_zero()
                    for i, b in enumerate(R.basis))
    q_ints = _invariants(H, Q.dim_q, lambda b, g: Q.action[g][b])
    if bool(q_ints) != frobenius:
        raise AssertionError(
            "existence of a nonzero integral in Q disagrees with m_H|_R = m_R")
    semis = any(not _apply_form(Q.counit_q, q).is_zero() for q in q_ints)
    return IntegralReport(t_R, t_H, m_R, m_H, q_ints, frobenius, semis)


# ---------------------------------------------------------------------------
# trace ideals
# ---------------------------------------------------------------------------

def _frobenius_terms(H: HopfAlgebraData, lam: Vec) -> TVec:
    """sum Lambda_1 x S(Lambda_2) over Delta(lam), checked against the
    Frobenius identity sum h Lambda_1 x S(Lambda_2) = sum Lambda_1 x
    S(Lambda_2) h, which holds at every h when lam is a left integral.

    It is checked at the algebra generators only: the h that satisfy it form
    a subalgebra containing 1, since for two such h and k
    sum hk Lambda_1 x S(Lambda_2) = (h x 1) sum Lambda_1 x S(Lambda_2) k
    = sum Lambda_1 x S(Lambda_2) hk."""
    terms = _tensor_image(H.comult_vec(lam), H.basis_vec, H.antipode.__getitem__)
    for g in H.generators:
        left = H.tensor_mult({(g, k): c for k, c in H.unit.items()}, terms)
        right = H.tensor_mult(terms, {(k, g): c for k, c in H.unit.items()})
        if left != right:
            raise AssertionError(f"Frobenius identity fails at generator {g}")
    return terms


def module_hom_basis(Q: QuotientModule, tp: TensorPowerModule,
                     terms: TVec) -> list[list[Vec]]:
    """Basis of Hom_H(Q^xn, H); each hom maps the b-th basis vector of the
    tensor power to an element of H.

    H is Frobenius (Larson-Sweedler): for the left integral Lambda = S(t_H)
    the maps f_xi(m) = sum xi(m Lambda_1) S(Lambda_2), xi in M*, are all of
    Hom_H(M, H), which has dimension dim M.  Over sum Lambda_1 x S(Lambda_2)
    = sum c e_x x e_z (``terms``, the certified `_frobenius_terms` of
    Lambda), the j-th coordinate xi gives f_j(b) = sum c A_x[j, b] e_z; the
    f_j are checked to be independent."""
    H = Q.hopf
    homs: list[list[Vec]] = [[{} for _ in range(tp.dim)] for _ in range(tp.dim)]
    for (x, z), c in terms.items():
        for b, img in enumerate(tp.action[x]):
            for j, a in img.items():
                _vadd(homs[j][b], z, c * a)
    space = RowSpace(tp.dim * H.dim)
    for images in homs:
        space.add({b * H.dim + k: v for b, img in enumerate(images) for k, v in img.items()})
    if space.rank != tp.dim:
        raise AssertionError(f"{space.rank} of the {tp.dim} maps into H are independent")
    return homs


def trace_ideals(H: HopfAlgebraData, integrals: IntegralReport,
                 chain: AnnihilatorChain) -> list[IdealSubspace]:
    """Ascending chain of the trace ideals tau(Q^xn), each the sum of the
    images of all H-module maps Q^xn -> H, read off the quotient maps of
    the annihilator chain: no tensor power and no map into H is built.

    t_H and t_R are read from the pair's `integrals_and_modular` report.
    For the left integral Lambda = S(t_H), H is Frobenius (Larson-Sweedler)
    and the maps f_xi(m) = sum xi(m Lambda_1) S(Lambda_2), xi in M*, are
    all of Hom_H(M, H) (the claim of `module_hom_basis`).  Write
    sum Lambda_1 x S(Lambda_2) = sum c e_x x e_z (`_frobenius_terms`, whose
    Frobenius identity is checked at the generators) and let
    Phi : H* -> H, xi -> sum c xi(e_x) e_z.

    - f_xi(m) = sum c xi(m e_x) e_z, and the functionals x -> xi(m e_x)
      span {x -> phi(rho_M(e_x)) : phi in End(M)*} as xi and m vary.  So
      tau(M) = {sum c phi(rho_M(e_x)) e_z : phi in End(M)*}.
    - rho_M = iota_M pi_M with iota_M injective, so phi o iota_M runs over
      all of (H/Ann M)*.  Hence tau(M) is spanned by
      u_k = sum_x pi_M(e_x)[k] Phi(e_x*), one vector per coordinate k of
      H/Ann M.
    - Phi is injective: for M = H, Phi(xi) = f_xi(1) determines the module
      map f_xi(m) = f_xi(1) m, and xi -> f_xi maps H* onto Hom_H(H, H),
      both of dimension dim H, so it is injective too.

    So dim tau(M) = dim H - dim Ann(M), and tau_n = tau_(n+1) exactly when
    Ann_n = Ann_(n+1), which gives L_Q = ell_Q.  The ideals are tau_n for
    n = 1 .. ell_Q, and tau_(ell_Q + 1) = tau_(ell_Q) once more when the
    Hopf core is nonzero.  rank Phi = dim H is certified once,
    dim tau_n + dim Ann_n = dim H and the ascent are asserted at every n,
    and tau(Q) is checked against H t_R H."""
    phi: list[Vec] = [{} for _ in range(H.dim)]
    for (x, z), c in _frobenius_terms(H, H.antipode_vec(integrals.t_H)).items():
        phi[x][z] = c
    phi_space = RowSpace(H.dim)
    for v in phi:
        phi_space.add(v)
    if phi_space.rank != H.dim:
        raise AssertionError(f"Phi : H* -> H has rank {phi_space.rank} < dim H")
    ideals: list[IdealSubspace] = []
    for ann, proj in zip(chain.ideals, chain.projectors):
        u: dict[int, Vec] = {}
        for x, pi_x in enumerate(proj):
            for k, a in pi_x.items():
                u_k = u.setdefault(k, {})
                for z, c in phi[x].items():
                    _vadd(u_k, z, a * c)
        space = RowSpace(H.dim)
        for v in u.values():
            space.add(v)
        if space.rank + ann.dim != H.dim:
            raise AssertionError("dim tau(Q^xn) + dim Ann(Q^xn) differs from dim H")
        if ideals and not (ideals[-1].space <= space):
            raise AssertionError("trace ideal chain is not ascending")
        ideals.append(IdealSubspace(space))
    if chain.hopf_core.dim:
        # Ann_(ell+1) = Ann_ell, checked by `annihilator_chain`
        ideals.append(ideals[-1])
    htrh_space = _ideal(H, [integrals.t_R], left=True, right=True)
    if not ideals[0].space.equals(htrh_space):
        raise AssertionError("tau(Q) differs from H t_R H")
    return ideals


# ---------------------------------------------------------------------------
# idealizer and End(Q)
# ---------------------------------------------------------------------------

@dataclass
class IdealizerReport:
    dim_T: int
    dim_end_q: int
    normal: bool
    T_basis: list[Vec]


def idealizer_and_endQ(H: HopfAlgebraData, R: SubalgebraEmbedding,
                       Q: QuotientModule) -> IdealizerReport:
    """T = {h : h R+H <= R+H}; dim End Q = dim T - dim R+H, and the
    evaluation End Q -> Q is an isomorphism iff R+H = HR+.  Everything is
    read off Q, the pair's `quotient_module`.

    T is solved from h r+ in R+H for the spanning vectors r+ = r - eps(r) 1
    of R+ only, not for a basis of R+H: R+H is a right ideal, so h r+ in R+H
    gives h r+ x in R+H for every x, and these h r+ x span h R+H.  The
    kernel is the same subspace, so its reduced echelon basis is the same."""
    dq = Q.dim_q
    columns: list[dict[int, Cyc]] = []
    for i in range(H.dim):
        col: dict[int, Cyc] = {}
        for ridx, rp in enumerate(Q.r_plus):
            img = Q.project(H.mult_vec(H.basis_vec(i), rp))
            for rr, v in img.items():
                _vadd(col, ridx * dq + rr, v)
        columns.append(col)
    T_basis = kernel_of_sparse_columns(columns)
    dim_T = len(T_basis)
    dim_end = dim_T - Q.rpH.rank
    normal = _ideal(H, Q.r_plus, left=True, right=False).equals(Q.rpH)
    if normal and dim_end != dq:
        raise AssertionError("normal pair but End Q is not all of Q")
    return IdealizerReport(dim_T, dim_end, normal, T_basis)
