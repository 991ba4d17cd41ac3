"""Exact complex character tables, class fusion, and inclusion matrices.

The table of an abelian group (as many classes as elements) is written down
in closed form: its characters are the |G| homomorphisms to the roots of
unity, extended generator by generator.  Every other table is computed by
the Dixon-Schneider method: simultaneous eigenvectors
of the class-multiplication matrices over GF(p) for a prime p = 1 (mod e),
p > 2*sqrt(|G|), split off by the eigenvalues mod p of each restricted class
matrix, which are the roots mod p of its minimal polynomial over Q
(`exactalg.minimal_polynomial`, the one Krylov minimal polynomial), and
lifted to Q(zeta_e) through the eigenvalue multiplicities of
a class representative g, found by a discrete Fourier transform over the
powers of g against a fixed primitive root.  The same multiplicities value
every power class g^l (the eigenvalues of g^l are those of g raised to l), so
the transform runs once per class not reached as a power of an earlier one.
Everything is verified against the orthogonality relations before a table is
returned, so a bug can never produce a silently wrong table.

In an inclusion matrix, the column of a linear character is read off by
matching its restriction against the subgroup's table; the other columns are
exact integer inner products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence

from .exactalg import (Cyc, _divisors, _is_prime, _polyeval, _power_sum_coords,
                       euler_phi, json_int, json_kind, json_scalar, load_json_file,
                       minimal_polynomial, scalar_to_string)
from .permgroup import (ConjClass, GroupHandle, SubgroupHandle,
                        permutation_from_json)

CLASS_CAP = 60


# ---------------------------------------------------------------------------
# GF(p) helpers
# ---------------------------------------------------------------------------

def _dixon_prime(exponent: int, order: int) -> int:
    """The least prime p = 1 (mod e) with p > 2 sqrt(|G|), e the exponent of
    G, at which Dixon-Schneider always succeeds (J. D. Dixon, Numer. Math.
    10, 1967).  A prime divisor of |G| is an element order (Cauchy), so it
    divides e < p: p does not divide |G|, and the class algebra over GF(p) is
    semisimple.  It is split, as the central characters |C| chi(g) / chi(1)
    lie in Z[zeta_e] and GF(p) holds the e'th roots of unity.  So the common
    eigenspaces of the class matrices are the r lines of these characters,
    which are 1 at the identity class; the degree equation reads
    |G| / chi(1)^2, a unit mod p; and chi(1) <= sqrt(|G|) < p / 2 and the
    eigenvalue multiplicities, at most chi(1), are read off their residues
    exactly.  Every check of `_dixon_schneider` passes on correct code."""
    p = exponent + 1
    # p > 2 sqrt(|G|), tested exactly
    while not (p * p > 4 * order and _is_prime(p)):
        p += exponent
    return p


def _primitive_root(p: int) -> int:
    qs = [q for q in _divisors(p - 1) if _is_prime(q)]
    for w in range(2, p):
        if all(pow(w, (p - 1) // q, p) != 1 for q in qs):
            return w
    raise AssertionError(f"no primitive root mod {p}")


def _modp_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over GF(p): (nonzero rows, pivot columns).
    The single GF(p) elimination; the input rows are left untouched."""
    rows = [[x % p for x in row] for row in rows]
    width = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][c], -1, p)
        prow = rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [(x - f * y) % p for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _modp_kernel(rows: list[list[int]], width: int, p: int) -> list[list[int]]:
    red, pivots = _modp_rref(rows, p)
    pivset = set(pivots)
    basis = []
    for free in range(width):
        if free in pivset:
            continue
        v = [0] * width
        v[free] = 1
        for row, c in zip(red, pivots):
            v[c] = -row[free] % p
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# integer inner products over Z[zeta_n]
# ---------------------------------------------------------------------------

# A coordinate row holds one sparse integer vector per class: the nonzero
# (i, c_i) of a value sum_i c_i zeta_n^i in the power basis of Q[x]/Phi_n.

def _int_rows(rows: Sequence[Sequence[Cyc]], n: int) -> tuple[list[list[tuple]], int]:
    """(coordinate rows, den): the values lifted to Q(zeta_n), each
    coordinate times one common denominator den, which is 1 when every
    value lies in Z[zeta_n]."""
    # an order-1 value r needs no lift: its sparse row is ((0, r den),)
    vals = [[v if v.order == 1 else v.lift(n) for v in row] for row in rows]
    den = lcm(*(v.den for row in vals for v in row))
    return [[_sparse(x * (den // v.den) for x in v.nums) for v in row]
            for row in vals], den


def _sparse(coords) -> tuple:
    return tuple((i, c) for i, c in enumerate(coords) if c)


def _lift_coords(row: list[tuple], m: int, n: int) -> list[tuple]:
    """A coordinate row over Z[zeta_m] rewritten over Z[zeta_n], m | n."""
    if m == n:
        return row
    step = n // m
    return [_sparse(_power_sum_coords(n, ((i * step, c) for i, c in v))) for v in row]


def _weighted_conjugates(row: list[tuple], sizes: Sequence[int], n: int) -> list[tuple]:
    """|C| conj(x_C) for each class C, where conj is zeta_n -> zeta_n^-1."""
    return [_sparse(_power_sum_coords(n, ((-i, s * c) for i, c in v)))
            for v, s in zip(row, sizes)]


def _int_inner(n: int, xs: list[tuple], ws: list[tuple]) -> tuple[int, ...]:
    """Integer coordinates of sum_C x_C w_C in Z[zeta_n]: the product
    polynomials are added up unreduced, then reduced once modulo Phi_n."""
    acc = [0] * (2 * euler_phi(n) - 1)
    for x, w in zip(xs, ws):
        for i, a in x:
            for j, b in w:
                acc[i + j] += a * b
    return _power_sum_coords(n, enumerate(acc))


# ---------------------------------------------------------------------------
# character table
# ---------------------------------------------------------------------------

@dataclass
class CharacterTable:
    """The irreducible characters of a group, one row of values per
    irreducible, one value per class.

    The values are also kept as integer coordinate rows in Z[zeta_n], the
    conductor n being the lcm of the exponent and the orders of the values,
    over one common denominator (1 for every computed table), together with
    their complex conjugates weighted by the class sizes; every inner product
    of table rows is an integer kernel over these rows.
    """
    group: GroupHandle
    exponent: int
    classes: list[ConjClass]
    irreducibles: list[tuple[Cyc, ...]]

    def __post_init__(self):
        n = lcm(self.exponent, *(v.order for row in self.irreducibles for v in row))
        sizes = [c.size for c in self.classes]
        self._n = n
        # the values at the identity class, read once per table
        self.degrees = [int(row[0].as_fraction()) for row in self.irreducibles]
        self._rows, self._den = _int_rows(self.irreducibles, n)
        self._weighted_conj = [_weighted_conjugates(row, sizes, n) for row in self._rows]
        one = ((0, self._den),)     # the value 1 as a coordinate row entry
        self._trivial = next((i for i, row in enumerate(self._rows)
                              if all(v == one for v in row)), None)

    def trivial_index(self) -> int:
        if self._trivial is None:
            raise AssertionError("no trivial character found")
        return self._trivial

    def verify(self) -> None:
        """Row orthogonality and the degree sum, exactly."""
        n = len(self.irreducibles)
        if sum(d * d for d in self.degrees) != self.group.order:
            raise AssertionError("sum of squared degrees does not match the group order")
        den = self.group.order * self._den * self._den
        for i in range(n):
            for j in range(i, n):
                ip = _int_inner(self._n, self._rows[i], self._weighted_conj[j])
                want = den if i == j else 0
                if ip[0] != want or any(ip[1:]):
                    raise AssertionError(f"row orthogonality failed at ({i},{j})")

    def to_json(self) -> dict:
        return {
            "exponent": self.exponent,
            "classes": [{"rep": list(c.rep.images), "size": c.size} for c in self.classes],
            "irreducibles": [[scalar_to_string(v) for v in row]
                             for row in self.irreducibles],
        }

    def __repr__(self):
        return f"CharacterTable(|G|={self.group.order}, degrees={self.degrees})"


def compute_character_table(G: GroupHandle) -> CharacterTable:
    """Exact character table of G, deterministic irreducible ordering
    (degree, then lexicographic on value coordinates over Q(zeta_e))."""
    classes = G.conjugacy_classes()
    r = len(classes)
    if r > CLASS_CAP:
        raise ValueError(f"group has {r} classes, above the cap of {CLASS_CAP}")
    e = G.exponent()
    if r == G.order:
        irred = _linear_characters(G, classes, e)
    else:
        irred = _dixon_schneider(G, classes, e, _dixon_prime(e, G.order))
    table = CharacterTable(G, e, classes, irred)
    table.verify()
    return table


def _dixon_schneider(G: GroupHandle, classes: list[ConjClass], e: int,
                     p: int) -> list[tuple[Cyc, ...]]:
    r = len(classes)
    order = G.order
    class_of = {g: i for i, cls in enumerate(classes) for g in cls.elements}
    inv_class = [class_of[cls.rep.inverse()] for cls in classes]

    # class-multiplication structure constants a[i][j][k]
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    inverses = [[x.inverse() for x in cls.elements] for cls in classes]
    for k, cls_k in enumerate(classes):
        gk = cls_k.rep
        for i in range(r):
            for x_inv in inverses[i]:
                a[i][class_of[x_inv * gk]][k] += 1

    # split GF(p)^r into common eigenspaces of the matrices A_i u = u_i u,
    # where (A_i)[j][k] = a[i][j][k]; each space is kept as mod-p RREF rows
    # so coordinates can be read off at the pivot positions
    spaces = [[[int(i == j) for j in range(r)] for i in range(r)]]
    for i in range(1, r):
        if all(len(b) == 1 for b in spaces):
            break
        A = a[i]
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            d = len(basis)
            piv = [_pivot_row(v) for v in basis]
            images = [[sum(map(mul, row, v)) % p for row in A] for v in basis]
            # A b_m = sum_l R[l][m] b_l, coordinates read at pivot rows.  The
            # eigenvalues of R mod p are the roots mod p of mu = minpoly(R)
            # over Q, R's residues read as ints: mu(R) = 0 holds mod p, so
            # R v = lam v mod p with v != 0 gives mu(lam) = 0 mod p; and mu,
            # monic, divides charpoly(R) in Z[X] (Gauss's lemma), so a root
            # of mu mod p is a root of charpoly(R) mod p, an eigenvalue
            R = [[images[m][piv[l]] for m in range(d)] for l in range(d)]
            mp = minimal_polynomial(R)
            roots = [lam for lam in range(p) if _polyeval(mp, lam, p) == 0]
            covered = 0
            for lam in roots:
                shifted = [[(R[x][y] - (lam if x == y else 0)) % p
                            for y in range(d)] for x in range(d)]
                kern = _modp_kernel(shifted, d, p)
                ambient = []
                for coords in kern:
                    vec = [0] * r
                    for m, c in enumerate(coords):
                        if c:
                            for t in range(r):
                                vec[t] = (vec[t] + c * basis[m][t]) % p
                    ambient.append(vec)
                reduced = _modp_rref(ambient, p)[0]
                covered += len(reduced)
                new_spaces.append(reduced)
            if covered != d:
                raise AssertionError("eigenspace splitting lost dimensions")
        spaces = new_spaces
    if not all(len(b) == 1 for b in spaces):
        raise AssertionError("class matrices did not split the space")

    # normalize so u[identity class] = 1; the vector then holds the class
    # algebra character u_j = |C_j| chi(g_j) / chi(1) mod p
    id_class = next(i for i, c in enumerate(classes) if c.rep.is_identity())
    us = []
    for (v,) in spaces:
        if v[id_class] % p == 0:
            raise AssertionError("eigenvector vanishes at the identity class")
        inv = pow(v[id_class], -1, p)
        us.append([x * inv % p for x in v])

    w = _primitive_root(p)
    z = pow(w, (p - 1) // e, p)  # primitive e'th root of unity mod p
    orders = [cls.rep.order() for cls in classes]
    # power-map lifting: if g of order o has the eigenvalue zeta_o^k with
    # multiplicity m_k, then g^l has zeta_o^(kl) with multiplicity m_k, so
    # the m_k of g value every class that a power of g meets.  The DFT for
    # the m_k runs only on classes not valued yet, highest element order
    # first; plan holds per such class its order o, the classes of g^0 ..
    # g^(o-1), zo_inv^t for t < o (zo_inv the inverse of a primitive o'th
    # root of unity, so only t mod o matters), 1/o, and the (class, l)
    # pairs it values first
    plan = []
    valued: set[int] = set()
    for j in sorted(range(r), key=lambda j: -orders[j]):
        if j in valued:
            continue
        o = orders[j]
        power_class = []
        targets = []
        g = G.identity
        for l in range(o):
            c = class_of[g]
            power_class.append(c)
            if c not in valued:
                valued.add(c)
                targets.append((c, l))
            g = g * classes[j].rep
        zo_inv = pow(z, -(e // o) % (p - 1), p)
        plan.append((o, power_class, [pow(zo_inv, t, p) for t in range(o)],
                     pow(o, -1, p), targets))
    inv_sizes = [pow(cls.size, -1, p) for cls in classes]

    rows = []
    for u in us:
        s = 0
        for j in range(r):
            s = (s + u[j] * u[inv_class[j]] * inv_sizes[j]) % p
        if s == 0:
            raise AssertionError("degree denominator vanished")
        deg_sq = order * pow(s, -1, p) % p
        deg = _sqrt_modp(deg_sq, p)
        if deg is None:
            raise AssertionError("degree square root does not exist")
        deg = min(deg, p - deg)
        chi_bar = [u[j] * deg % p * inv_sizes[j] % p for j in range(r)]
        values: list[Optional[Cyc]] = [None] * r
        for o, power_class, zpow, o_inv, targets in plan:
            chi_powers = [chi_bar[c] for c in power_class]
            mults = []
            for k in range(o):
                mk = sum(x * zpow[k * l % o] for l, x in enumerate(chi_powers)) * o_inv % p
                if mk:
                    if mk > deg:
                        raise AssertionError("multiplicity exceeds the degree")
                    mults.append((k, mk))
            for c, l in targets:
                powers: dict[int, int] = {}
                for k, mk in mults:
                    key = (e // o) * k * l % e
                    powers[key] = powers.get(key, 0) + mk
                values[c] = Cyc.from_power_sum(e, powers)
        if values[id_class] != deg:
            raise AssertionError("lifted degree mismatch")
        rows.append(tuple(values))

    return _sort_rows(rows, e)


def _linear_characters(G: GroupHandle, classes: list[ConjClass],
                       e: int) -> list[tuple[Cyc, ...]]:
    """The |G| characters of an abelian G, all linear, extended along
    G.generators from the trivial subgroup K.

    For the next generator g let m be the least m >= 1 with g^m in K; then
    K<g> is the disjoint union of the cosets K g^j, j < m.  The multiples j
    with g^j in K form mZ, which holds the order o of g, so m | o | e.  A
    character lambda of K has lambda(g^m)^(o/m) = lambda(g^o) = 1, so with
    lambda(g^m) = zeta_e^a, e divides a o/m, that is (e/o) m divides a, and
    in particular m divides a.  lambda extends to K<g> exactly by
    lambda(g) = zeta_e^t with m t = a (mod e), which has the m solutions
    t = a/m + s e/m, s < m.  Characters are kept as exponents mod e at
    element positions."""
    elems = [G.identity]
    chars = [[0]]
    for g in G.generators:
        pos = {x: i for i, x in enumerate(elems)}
        gm, m = g, 1
        while gm not in pos:
            gm, m = gm * g, m + 1
        if m == 1:
            continue
        # element k g^j of K<g> sits at position j |K| + pos(k)
        layer = elems
        for _ in range(1, m):
            layer = [x * g for x in layer]
            elems = elems + layer
        at, step = pos[gm], e // m
        chars = [[(x + j * t) % e for j in range(m) for x in lam]
                 for lam in chars
                 for t in range(lam[at] // m, e, step)]
    if len(elems) != G.order:
        raise AssertionError(f"the generators reach {len(elems)} of {G.order} elements")
    pos = {x: i for i, x in enumerate(elems)}
    cols = [pos[cls.rep] for cls in classes]
    roots = [Cyc.root_of_unity(e, k) for k in range(e)]
    return _sort_rows([tuple(roots[lam[c]] for c in cols) for lam in chars], e)


def _sort_rows(rows: list[tuple[Cyc, ...]], e: int) -> list[tuple[Cyc, ...]]:
    # ordering convention: value tuples descending lexicographically with the
    # identity class compared last; reproduces the classical table layouts
    # (trivial character first) bit-for-bit; every value lies in Z[zeta_e]
    rows.sort(key=lambda row: [v.lift(e).nums for v in row[1:] + row[:1]],
              reverse=True)
    return rows


def _pivot_row(v: list[int]) -> int:
    return next(i for i, x in enumerate(v) if x)


def _sqrt_modp(a: int, p: int) -> Optional[int]:
    a %= p
    for t in range((p + 1) // 2 + 1):
        if t * t % p == a:
            return t
    return None


# ---------------------------------------------------------------------------
# fusion, inclusion matrix, permutation character
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassFusion:
    """Map from H-class index to the G-class index containing it."""
    mapping: tuple[int, ...]


def class_fusion(G: GroupHandle, H: SubgroupHandle) -> ClassFusion:
    return ClassFusion(tuple(G.class_index(cls.rep)
                             for cls in H.as_group().conjugacy_classes()))


@dataclass(frozen=True)
class InclusionMatrix:
    """Nonnegative integer matrix of irreducible restriction multiplicities;
    rows are subgroup irreducibles, columns are group irreducibles."""
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.entries]

    def __str__(self):
        width = max(len(str(x)) for row in self.entries for x in row)
        return "\n".join(" ".join(str(x).rjust(width) for x in row)
                         for row in self.entries)


def inclusion_matrix(tabG: CharacterTable, tabH: CharacterTable,
                     fusion: ClassFusion) -> InclusionMatrix:
    """m_ij = <chi_j restricted to H, phi_i>: by matching for a linear chi_j,
    by the exact inner product over H-classes otherwise.  Non-integer or
    negative values mean corrupted inputs and are a hard failure."""
    p = len(tabH.irreducibles)
    q = len(tabG.irreducibles)
    n = lcm(tabG._n, tabH._n)
    restricted = [_lift_coords([row[c] for c in fusion.mapping], tabG._n, n)
                  for row in tabG._rows]
    weighted = [_lift_coords(w, tabH._n, n) for w in tabH._weighted_conj]
    den = tabH.group.order * tabG._den * tabH._den
    degH, degG = tabH.degrees, tabG.degrees
    # A linear chi_j is a homomorphism G -> C^x, so chi_j|H is a homomorphism
    # H -> C^x: an irreducible character of H, hence a row i of H's verified
    # table, and m_ij = <chi_j|H, phi_i> = delta by row orthonormality.  Over
    # denominator 1 a coordinate row is the values themselves, so i is found
    # by looking chi_j|H up among H's linear rows lifted to Q(zeta_n).
    linear = {}
    if tabG._den == tabH._den == 1:
        linear = {tuple(_lift_coords(row, tabH._n, n)): i
                  for i, row in enumerate(tabH._rows) if degH[i] == 1}
    cols = []
    for j in range(q):
        if linear and degG[j] == 1:
            i = linear.get(tuple(restricted[j]))
            if i is None:
                raise AssertionError(f"restricted linear character {j} is no "
                                     "row of the subgroup table")
            col = [0] * p
            col[i] = 1
            cols.append(col)
            continue
        col = []
        for i in range(p):
            val = _int_inner(n, restricted[j], weighted[i])
            if any(val[1:]):
                raise AssertionError("restriction multiplicity is not rational")
            f = Fraction(val[0], den)
            if f.denominator != 1 or f < 0:
                raise AssertionError("restriction multiplicity is not a nonnegative integer")
            col.append(int(f))
        cols.append(col)
    M = InclusionMatrix(p, q, tuple(zip(*cols)))
    for i, row in enumerate(M.entries):
        if not any(row):
            raise AssertionError(f"inclusion matrix has a zero row at {i}")
    for j in range(q):
        if not any(M.entries[i][j] for i in range(p)):
            raise AssertionError(f"inclusion matrix has a zero column at {j}")
    for j in range(q):
        if sum(M.entries[i][j] * degH[i] for i in range(p)) != degG[j]:
            raise AssertionError(f"column dimension identity fails at column {j}")
    return M


def permutation_character(G: GroupHandle, H: SubgroupHandle) -> tuple[int, ...]:
    """Character of the right coset module: its value at a class C is the
    number of right cosets Hx fixed by C, which is |G:H| |C cap H| / |C|,
    with |C cap H| read off the class and subgroup bitsets."""
    index = G.order // H.order
    return tuple(index * (cls.bits & H.bits).bit_count() // cls.size
                 for cls in G.conjugacy_classes())


# ---------------------------------------------------------------------------
# import / cross-validation
# ---------------------------------------------------------------------------

def table_from_json(G: GroupHandle, data: dict) -> CharacterTable:
    """Attach an imported table to G, aligning imported classes with the
    computed class order; the result is verified like a computed table."""
    source = "character table JSON"
    json_kind(source, "(top level)", data, dict)
    for key in ("exponent", "classes", "irreducibles"):
        if key not in data:
            raise ValueError(f"{source} is missing the field '{key}'")
    e = json_int(source, "exponent", data["exponent"])
    if e < 1:
        raise ValueError(f"{source} field 'exponent': expected a positive integer, "
                         f"got {data['exponent']!r}")
    cls_data = json_kind(source, "classes", data["classes"], list)
    irr_data = json_kind(source, "irreducibles", data["irreducibles"], list)
    classes = G.conjugacy_classes()
    if len(cls_data) != len(classes):
        raise ValueError("imported table has the wrong number of classes")
    # imported class i sits at computed position perm[i]
    perm = []
    for entry in cls_data:
        json_kind(source, "classes", entry, dict)
        if not {"rep", "size"} <= entry.keys():
            raise ValueError(f"{source} field 'classes': each class needs 'rep' "
                             f"and 'size', got {entry!r}")
        rep = permutation_from_json(source, "classes", entry["rep"])
        if rep not in G:
            raise ValueError(f"imported class representative {rep!r} is not in the group")
        idx = G.class_index(rep)
        if classes[idx].size != json_int(source, "classes", entry["size"]):
            raise ValueError(f"imported class size mismatch for representative {rep!r}")
        perm.append(idx)
    if sorted(perm) != list(range(len(classes))):
        raise ValueError("imported classes do not biject with computed classes")
    irreducibles = []
    for row in irr_data:
        if len(json_kind(source, "irreducibles", row, list)) != len(classes):
            raise ValueError("imported irreducible has the wrong length")
        vals = [Cyc.zero()] * len(classes)
        for i, s in enumerate(row):
            vals[perm[i]] = json_scalar(source, "irreducibles", s)
        irreducibles.append(tuple(vals))
    table = CharacterTable(G, e, classes, irreducibles)
    table.verify()
    return table


def tables_agree_up_to_row_permutation(a: CharacterTable, b: CharacterTable) -> bool:
    if len(a.irreducibles) != len(b.irreducibles):
        return False

    def keyed(t):
        # the canonical string of a value does not depend on the order it
        # was written at
        return sorted(tuple(scalar_to_string(v) for v in row) for row in t.irreducibles)

    return keyed(a) == keyed(b)


def load_table_file(G: GroupHandle, path: str) -> CharacterTable:
    return table_from_json(G, load_json_file(path))
