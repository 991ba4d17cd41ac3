"""Finite permutation group engine.

Groups are given by generators and enumerated completely (desk scale, default
cap 20160 elements).  Elements are kept in a canonical lexicographic order on
image arrays so that class representatives, coset representatives and witness
tuples are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import lcm
from operator import and_, mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .exactalg import json_int, json_kind, load_json_file

DEFAULT_ORDER_CAP = 20160


class GroupTooLargeError(ValueError):
    """Enumeration exceeded the configured order cap."""


class Permutation:
    """A permutation of {1..d} stored as its 1-based image array."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(range(1, degree + 1))

    @staticmethod
    def from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(1, degree + 1))
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                images[pt - 1] = cyc[(i + 1) % len(cyc)]
        return Permutation(images)

    def __call__(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # left-to-right composition: point^(a*b) = (point^a)^b
        if len(self.images) != len(other.images):
            raise ValueError("cannot compose permutations of degrees "
                             f"{self.degree} and {other.degree}")
        return _perm(tuple([other.images[i - 1] for i in self.images]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images):
            inv[img - 1] = i + 1
        return _perm(tuple(inv))

    def conjugate_by(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g, which sends g(i) to g(self(i))."""
        gi = g.images
        if len(self.images) != len(gi):
            raise ValueError("cannot conjugate a permutation of degree "
                             f"{self.degree} by one of degree {g.degree}")
        out = [0] * len(gi)
        for i, h in enumerate(self.images):
            out[gi[i] - 1] = gi[h - 1]
        return _perm(tuple(out))

    def is_identity(self) -> bool:
        return all(i + 1 == img for i, img in enumerate(self.images))

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen or self.images[start - 1] == start:
                continue
            cyc = [start]
            seen.add(start)
            pt = self.images[start - 1]
            while pt != start:
                cyc.append(pt)
                seen.add(pt)
                pt = self.images[pt - 1]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other: "Permutation"):
        return self.images < other.images

    def __le__(self, other: "Permutation"):
        return self.images <= other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)


def _perm(images: tuple) -> Permutation:
    # trusted constructor for products and inverses: images is already a
    # tuple holding a permutation of 1..len(images)
    g = object.__new__(Permutation)
    object.__setattr__(g, "images", images)
    return g


class ConjClass(NamedTuple):
    rep: Permutation
    elements: tuple[Permutation, ...]
    size: int


class GroupHandle:
    """A fully enumerated permutation group with cached derived data."""

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 elements: Sequence[Permutation]):
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = tuple(sorted(elements))
        self.order = len(self.elements)
        self._index = {g: i for i, g in enumerate(self.elements)}
        self._classes: Optional[list[ConjClass]] = None
        self._class_of: Optional[dict[Permutation, int]] = None
        self._subgroups: Optional[list["SubgroupHandle"]] = None
        self._double_cosets: dict = {}
        self._columns: Optional[list[list[int]]] = None
        self._action: Optional[list[list[int]]] = None

    def __contains__(self, p: Permutation) -> bool:
        return p in self._index

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def exponent(self) -> int:
        e = 1
        for cls in self.conjugacy_classes():
            e = lcm(e, cls.rep.order())
        return e

    def conjugacy_classes(self) -> list[ConjClass]:
        if self._classes is None:
            seen: set[Permutation] = set()
            classes = []
            class_of: dict[Permutation, int] = {}
            gens = self.generators if self.generators else (self.identity,)
            for g in self.elements:
                if g in seen:
                    continue
                orbit = {g}
                stack = [g]
                while stack:
                    x = stack.pop()
                    for s in gens:
                        y = x.conjugate_by(s)
                        if y not in orbit:
                            orbit.add(y)
                            stack.append(y)
                members = tuple(sorted(orbit))
                for m in members:
                    class_of[m] = len(classes)
                classes.append(ConjClass(members[0], members, len(members)))
                seen |= orbit
            self._classes = classes
            self._class_of = class_of
        return self._classes

    def class_index(self, p: Permutation) -> int:
        self.conjugacy_classes()
        return self._class_of[p]

    def bitset(self, elements: Iterable[Permutation]) -> int:
        """The int bitset of the element indices of the distinct elements."""
        return sum(1 << self._index[g] for g in set(elements))

    def subgroup_generated(self, gens: Sequence[Permutation]) -> "SubgroupHandle":
        elems = _closure(gens, self.degree, cap=self.order)
        return SubgroupHandle(self, elems)

    def trivial_subgroup(self) -> "SubgroupHandle":
        return SubgroupHandle(self, [self.identity])

    def _cayley_columns(self) -> list[list[int]]:
        """The Cayley table on element indices, by columns: entry [j][i] is
        the index of elements[i] * elements[j].  Built on the first call,
        from the right action of each generator s on the indices: column
        j s is column j followed by that action, and every column is reached
        from the identity (index 0, the least image array) this way."""
        if self._columns is None:
            actions = [[self._index[g * s] for g in self.elements]
                       for s in self.generators]
            cols: list = [None] * self.order
            cols[0] = list(range(self.order))
            frontier = [0]
            while frontier:
                nxt = []
                for j in frontier:
                    for act in actions:
                        k = act[j]
                        if cols[k] is None:
                            cols[k] = [act[x] for x in cols[j]]
                            nxt.append(k)
                frontier = nxt
            self._columns = cols
        return self._columns

    def conjugation_action(self) -> list[list[int]]:
        """For each generator s, the map sending the index of x to the index
        of s^-1 x s: n ints per generator, computed once per group without
        the Cayley table, for the orbit walk of ``conjugates``."""
        if self._action is None:
            self._action = [[self._index[x.conjugate_by(s)] for x in self.elements]
                            for s in self.generators]
        return self._action

    def subgroups(self) -> list["SubgroupHandle"]:
        """All subgroups, found by closing known subgroups S under one extra
        generator g; deterministic order (by order, then element tuple).

        One g per right coset S g is closed: <S, s g> = <S, g> for s in S,
        as each contains s and hence both s g and g.  The search runs on the
        Cayley table, with each subgroup held as the int bitset of its
        element indices, and closes <S, g> one right coset of S at a time
        (Dimino's algorithm: Butler, Fundamental Algorithms for Permutation
        Groups, LNCS 559, 1991).  Each handle proves its closure again on
        the table when it computes its greedy generating set."""
        if self._subgroups is None:
            cols = self._cayley_columns()
            triv = self.trivial_subgroup()
            found = {triv.bits: triv}
            frontier = [triv]
            while frontier:
                nxt = []
                for sub in frontier:
                    members = _bit_indices(sub.bits)
                    gens = [self._index[g] for g in sub.generating_set()]
                    tried = sub.bits
                    for g in range(self.order):
                        if tried >> g & 1:
                            continue
                        col = cols[g]
                        for s in members:
                            tried |= 1 << col[s]
                        bits = _dimino(cols, members, sub.bits, gens + [g])
                        if bits not in found:
                            found[bits] = cand = SubgroupHandle._on_table(
                                self, _bit_indices(bits), bits)
                            nxt.append(cand)
                frontier = nxt
            self._subgroups = sorted(found.values(),
                                     key=lambda s: (s.order, _bit_indices(s.bits)))
        return self._subgroups

    def conjugates(self, sub: "SubgroupHandle") -> dict[int, Permutation]:
        """bits -> g for every conjugate sub^g, as its bitset with a witness
        g, found breadth first from (sub, 1) by conjugating with the
        generators of G.  This is the one conjugate orbit: the classes of
        subgroups, the core witness, the intersection chain and the Mackey
        merge all read it.

        The orbit is closed at the generators only: (sub^g)^s = sub^(g s),
        and every element of the finite group G is a product of generators
        (an inverse is a positive power), so each sub^g is reached by
        conjugating with one generator at a time.  A conjugate of a subgroup
        is a subgroup, so no handle is built for it."""
        actions = self.conjugation_action()
        orbit = {sub.bits: self.identity}
        frontier = [sub.bits]
        while frontier:
            nxt = []
            for bits in frontier:
                members = _bit_indices(bits)
                for s, act in zip(self.generators, actions):
                    cs = sum(1 << act[x] for x in members)
                    if cs not in orbit:
                        orbit[cs] = orbit[bits] * s
                        nxt.append(cs)
            frontier = nxt
        return orbit

    def __repr__(self):
        return f"GroupHandle(order={self.order}, degree={self.degree})"


class SubgroupHandle:
    """A verified subgroup of a parent GroupHandle; ``bits``, the int bitset
    of its element indices in the parent, is its identity."""

    def __init__(self, parent: GroupHandle, elements: Iterable[Permutation]):
        self.parent = parent
        elems = tuple(sorted(set(elements)))
        index = parent._index
        if not elems or not all(e in index for e in elems):
            raise ValueError("subgroup elements must lie in the parent group")
        eset = set(elems)
        if parent.identity not in eset:
            raise ValueError("subgroup must contain the identity")
        for a in elems:
            if a.inverse() not in eset:
                raise ValueError("subgroup not closed under inverse")
        self._gens = _greedy_generators(elems, eset.__contains__, parent.identity, mul)
        if parent.order % len(elems) != 0:
            raise ValueError("subgroup order must divide the group order")
        self.elements = elems
        self.order = len(elems)
        self.bits = parent.bitset(elems)
        self._as_group: Optional[GroupHandle] = None

    @classmethod
    def _on_table(cls, parent: GroupHandle, members: list[int], bits: int) -> "SubgroupHandle":
        """The subgroup with the ascending element indices members and the
        bitset bits, its closure proved on the parent's Cayley table."""
        cols = parent._cayley_columns()
        gens = _greedy_generators(members, lambda c: bits >> c & 1, 0,
                                  lambda a, g: cols[g][a])
        self = object.__new__(cls)
        self.parent = parent
        self.elements = tuple(parent.elements[i] for i in members)
        self.order = len(members)
        self.bits = bits
        self._gens = tuple(parent.elements[i] for i in gens)
        self._as_group = None
        return self

    def __contains__(self, p: Permutation) -> bool:
        return p in set(self.elements)

    def generating_set(self) -> tuple[Permutation, ...]:
        """The greedy generating set: in element order, each element that is
        not yet generated by the earlier ones; the identity alone for the
        trivial subgroup."""
        return self._gens

    def as_group(self) -> GroupHandle:
        if self._as_group is None:
            self._as_group = GroupHandle(self.parent.degree, self.generating_set(),
                                         self.elements)
        return self._as_group

    def conjugate(self, g: Permutation) -> "SubgroupHandle":
        return SubgroupHandle(self.parent, [h.conjugate_by(g) for h in self.elements])

    def intersect(self, other: "SubgroupHandle") -> "SubgroupHandle":
        oset = set(other.elements)
        return SubgroupHandle(self.parent, [h for h in self.elements if h in oset])

    def __eq__(self, other):
        return (isinstance(other, SubgroupHandle) and self.parent is other.parent
                and self.bits == other.bits)

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        return f"SubgroupHandle(order={self.order} in {self.parent!r})"


def _greedy_generators(elems: Sequence, inside: Callable, one, product: Callable) -> tuple:
    """The greedy generating set of the ascending elements elems of a set S,
    which proves S a group: each product a * g of a generated element a and
    a generator g is formed once and must lie in S (``inside``), so the
    generated subgroup lies in S, and every element of S is generated.  The
    elements are permutations or indices on a Cayley table, with identity
    one and multiplication product."""
    gens: list = []
    have = {one}
    for x in elems:
        if x in have:
            continue
        gens.append(x)
        # the earlier members are closed under the earlier generators, so
        # they need the new generator only; new members need every generator
        pending = [(a, (x,)) for a in have]
        while pending:
            a, by = pending.pop()
            for g in by:
                c = product(a, g)
                if c not in have:
                    if not inside(c):
                        raise ValueError("subgroup not closed under composition")
                    have.add(c)
                    pending.append((c, gens))
        if len(have) == len(elems):
            break
    return tuple(gens) if gens else (one,)


def _bit_indices(bits: int) -> list[int]:
    """The positions of the set bits of bits, ascending."""
    return [i for i, c in enumerate(bin(bits)[:1:-1]) if c == "1"]


def _dimino(cols: list[list[int]], members: list[int], bits: int, gens: list[int]) -> int:
    """The bitset of the group generated by gens, which include generators
    of the subgroup S with element indices members and bitset bits.

    The union U of right cosets S x, starting from S, takes in the coset
    S x t of each product x t of a coset representative x and a generator t
    that lies outside U.  Then u t lies in U for every u = s x in U, since
    S x t is a coset in U; so U is closed under the generators, hence the
    generated group."""
    reps = [0]
    for x in reps:
        for t in gens:
            y = cols[t][x]
            if not bits >> y & 1:
                reps.append(y)
                col = cols[y]
                for s in members:
                    bits |= 1 << col[s]
    return bits


def _closure(gens: Sequence[Permutation], degree: int, cap: int) -> set[Permutation]:
    elems = {Permutation.identity(degree)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = a * g
                if c not in elems:
                    if len(elems) >= cap:
                        raise GroupTooLargeError(
                            f"group enumeration exceeded the cap of {cap}")
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    return elems


def enumerate_group(generators: Sequence[Permutation], degree: Optional[int] = None,
                    cap: int = DEFAULT_ORDER_CAP) -> GroupHandle:
    """Enumerate the group generated by the given permutations.

    All generators must share one degree; enumeration is breadth-first closure
    and fails loudly if the cap is exceeded.
    """
    gens = list(generators)
    if degree is None:
        if not gens:
            raise ValueError("need a degree for the trivial group")
        degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators have mismatched degrees")
    elems = _closure(gens, degree, cap)
    return GroupHandle(degree, gens, elems)


# ---------------------------------------------------------------------------
# cores, witnesses, double cosets, intersection chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoreWitness:
    core: SubgroupHandle
    witness: tuple[Permutation, ...]

    @property
    def r(self) -> int:
        return len(self.witness)


def core_and_witness(G: GroupHandle, H: SubgroupHandle) -> CoreWitness:
    """The core of H in G together with a minimal witness tuple g_1..g_r such
    that H^{g_1} cap ... cap H^{g_r} cap H equals the core.

    Search is breadth-first over r through combinations of the distinct
    nontrivial conjugates of H, as bitsets in the order of their element
    tuples, so the returned r is minimal.
    """
    conjugates = G.conjugates(H)
    del conjugates[H.bits]
    core = reduce(and_, conjugates, H.bits)
    core_sub = SubgroupHandle(G, [G.elements[i] for i in _bit_indices(core)])
    conj_list = sorted(conjugates.items(), key=lambda cg: _bit_indices(cg[0]))
    r = 0
    while True:
        for combo in combinations(conj_list, r):
            if reduce(and_, (c for c, _ in combo), H.bits) == core:
                return CoreWitness(core_sub, tuple(g for _, g in combo))
        r += 1


class DoubleCosets(NamedTuple):
    reps: tuple[Permutation, ...]
    cosets: tuple[int, ...]               # bitsets of element indices
    sizes: tuple[int, ...]


def double_cosets(G: GroupHandle, K: SubgroupHandle, H: SubgroupHandle) -> DoubleCosets:
    """The partition of G into K\\G/H double cosets, canonical-minimal reps,
    each coset kept as the bitset of its element indices."""
    cache_key = (K.bits, H.bits)
    hit = G._double_cosets.get(cache_key)
    if hit is not None:
        return hit
    seen = 0
    reps, cosets, sizes = [], [], []
    for i, g in enumerate(G.elements):
        if seen >> i & 1:
            continue
        kg = [k * g for k in K.elements]
        coset = G.bitset(x * h for x in kg for h in H.elements)
        seen |= coset
        reps.append(g)
        cosets.append(coset)
        sizes.append(coset.bit_count())
    if sum(sizes) != G.order:
        raise AssertionError("double cosets do not partition the group")
    out = DoubleCosets(tuple(reps), tuple(cosets), tuple(sizes))
    G._double_cosets[cache_key] = out
    return out


@dataclass(frozen=True)
class IntersectionChain:
    """The chain F_0, F_1, ... of ``intersection_chain``, each F_i a set of
    subgroup bitsets."""
    chain: tuple[frozenset[int], ...]
    d_c_ev: int
    d_c_bracket: tuple[int, int]
    d_c_is_one: bool


def intersection_chain(G: GroupHandle, H: SubgroupHandle) -> IntersectionChain:
    """The ascending chain F_i of i-fold conjugate-intersection subgroup sets,
    its stabilization point, and the derived even combinatorial depth.

    F_0 = {H}, F_{i+1} = {F cap H^x : F in F_i, x in G}; the chain is
    ascending since x = 1 repeats a subgroup.  d_c_ev = 2n for the least n
    with F_{n-1} = F_n; the true combinatorial depth lies in
    [d_c_ev - 1, d_c_ev], and equals 1 iff G = H C_G(H).

    The conjugates H^x are the bitsets of ``G.conjugates(H)``, and each
    F cap H^x is the and of two bitsets: an intersection of subgroups is a
    subgroup, so no handle is built for it.  |H C_G(H)| is read off the
    bitsets as |H| |C| / |H cap C| for the centralizer C.
    """
    conjugates = G.conjugates(H)
    chain = [frozenset([H.bits])]
    while True:
        prev = chain[-1]
        cur = prev | {F & c for F in prev for c in conjugates}
        chain.append(cur)
        if cur == prev:
            break
    n = len(chain) - 1  # chain = F_0..F_n with F_{n-1} = F_n
    d_c_ev = 2 * n
    gens = H.generating_set()
    cz = G.bitset(g for g in G.elements if all(g * h == h * g for h in gens))
    is_one = H.order * cz.bit_count() == G.order * (H.bits & cz).bit_count()
    return IntersectionChain(tuple(chain), d_c_ev, (d_c_ev - 1, d_c_ev), is_one)


def depth_one_adjoint_test(G: GroupHandle, H: SubgroupHandle) -> bool:
    """True iff conjugation by every generator of G fixes each conjugacy class
    of H setwise (the adjoint action fixes every class sum of kH)."""
    Hg = H.as_group()
    gens = G.generators if G.generators else (G.identity,)
    for cls in Hg.conjugacy_classes():
        members = set(cls.elements)
        for g in gens:
            if {h.conjugate_by(g) for h in members} != members:
                return False
    return True


# ---------------------------------------------------------------------------
# JSON input
# ---------------------------------------------------------------------------

def group_from_json(data: dict, cap: int = DEFAULT_ORDER_CAP):
    """Parse {"degree": d, "generators": [[images]...],
    "subgroups": {"H": [[images]...], ...}} into handles."""
    json_kind("group JSON", "(top level)", data, dict)
    for key in ("degree", "generators"):
        if data.get(key) is None:
            raise ValueError(f"group JSON is missing the field '{key}'")
    degree = json_int("group JSON", "degree", data["degree"])
    gens = _perms_from_json("generators", data["generators"])
    G = enumerate_group(gens, degree=degree, cap=cap)
    subs = {}
    subgroups = json_kind("group JSON", "subgroups", data.get("subgroups", {}), dict)
    for name, sub_gens in sorted(subgroups.items()):
        perms = _perms_from_json("subgroups", sub_gens)
        for p in perms:
            if p not in G:
                raise ValueError(f"subgroup '{name}' generator {p!r} lies outside the group")
        subs[name] = G.subgroup_generated(perms)
    return G, subs


def permutation_from_json(source: str, field: str, images) -> Permutation:
    """A permutation from a JSON image array, which must be a list of
    integers; a wrong type is a ValueError naming the field."""
    for x in json_kind(source, field, images, list):
        if type(x) is not int:
            raise ValueError(f"{source} field '{field}': expected integer images, "
                             f"got {images!r}")
    return Permutation(images)


def _perms_from_json(field: str, value) -> list[Permutation]:
    return [permutation_from_json("group JSON", field, images)
            for images in json_kind("group JSON", field, value, list)]


def load_group_file(path: str, cap: int = DEFAULT_ORDER_CAP):
    return group_from_json(load_json_file(path), cap=cap)
