"""Exact scalar and matrix arithmetic over Q and cyclotomic fields Q(zeta_n).

Scalars are elements of Q(zeta_n) stored as integer coordinate vectors in the
power basis of Q[x]/Phi_n(x) over one common denominator.  Matrices and
kernels are built on top, so no floating point ever enters.  The minimal
polynomial of an integer matrix and its rational roots, which are integers,
are computed on int lists; such a polynomial is a monic tuple of ints, lowest
degree first.  The zero-pattern scans work on nonnegative integer matrices as
row bitsets.
Everything here is immutable after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence, Union

Rat = Union[int, Fraction]


class MalformedSequenceError(ValueError):
    """A matrix sequence violated the monotone fill-in precondition."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (coefficients lowest degree first)
# ---------------------------------------------------------------------------

def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _polyeval(poly: Sequence[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _int_poly_div_exact(num: list[int], den: Sequence[int]) -> list[int]:
    # exact division of integer polynomials, remainder must vanish
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        if c % lead:
            raise AssertionError("inexact integer polynomial division")
        q = c // lead
        quot[i - dd] = q
        for j, dc in enumerate(den):
            num[i - dd + j] -= q * dc
    if any(num):
        raise AssertionError("integer polynomial division leaves a remainder")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first, monic."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0], num[n] = -1, 1
    for d in _divisors(n):
        if d < n:
            num = _int_poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """phi(n) = n prod (1 - 1/p) over the primes p | n, by trial division:
    no cyclotomic polynomial is built."""
    phi, p = n, 2
    while p * p <= n:
        if n % p == 0:
            phi -= phi // p
            while n % p == 0:
                n //= p
        p += 1
    return phi - phi // n if n > 1 else phi


@lru_cache(maxsize=None)
def _xpow_table(n: int) -> tuple[tuple[int, ...], ...]:
    # x^m mod Phi_n for m = 0 .. max(n-1, 2*phi-2), integer coordinates
    phi = euler_phi(n)
    top = max(n - 1, 2 * phi - 2)
    mod = cyclotomic_polynomial(n)
    rows = []
    cur = [0] * phi
    cur[0] = 1
    rows.append(tuple(cur))
    for _ in range(top):
        nxt = [0] + cur[: phi - 1]
        spill = cur[phi - 1]
        if spill:
            for j in range(phi):
                nxt[j] -= spill * mod[j]
        cur = nxt
        rows.append(tuple(cur))
    return tuple(rows)


# ---------------------------------------------------------------------------
# CyclotomicScalar
# ---------------------------------------------------------------------------

class Cyc:
    """An exact element of Q(zeta_n), the single scalar type for all linear
    algebra in this package.

    ``order`` is n, and the value is sum_i nums[i] zeta_n^i / den in the
    power basis of Q[x]/Phi_n(x).  ``nums`` holds phi(n) ints and ``den``
    one int >= 1 with gcd(den, *nums) = 1, so the form is unique at a given
    order, and den = 1 exactly on Z[zeta_n] (every character value).  A
    rational value has order 1, except as a result of ``lift``, which keeps
    raw order-n coordinates for mixed-order arithmetic.  Mixed-order
    arithmetic lifts both operands to Q(zeta_lcm) first.  Arithmetic runs on
    ints only; ``coeffs`` reads the coordinates nums[i] / den, each an
    ``int`` when integral and a ``Fraction`` otherwise.

    Arithmetic of order > 1 runs in four kernels, each an ``lru_cache`` of
    at most CYC_CACHE_SIZE entries keyed by the normal forms of its
    operands: the product, a rational times a cyclotomic, the sum and
    difference (after mixed orders are lifted), and ``inverse``.  Rational
    operands take the order-1 paths first and never reach a cache: the int
    fast paths, ``_ratio`` and the rational branch of ``_linear``.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order: int, coeffs: Sequence[Rat]):
        if order < 1:
            raise ValueError("order must be positive")
        # phi(n) >= sqrt(n / 2): refuse a short list before euler_phi's sqrt(n) steps
        if 2 * len(coeffs) ** 2 < order:
            raise ValueError(f"need more than {len(coeffs)} coefficients for order {order}")
        phi = euler_phi(order)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coefficients for order {order}, got {len(coeffs)}")
        coeffs = [c if type(c) is int or type(c) is Fraction else Fraction(c)
                  for c in coeffs]
        # over the lcm of the reduced denominators no prime divides them all
        den = lcm(*(c.denominator for c in coeffs))
        nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        if not any(nums[1:]):
            order, nums = 1, nums[:1]
        _set_order(self, order)
        _set_nums(self, nums)
        _set_den(self, den)

    def __setattr__(self, *a):  # immutable
        raise AttributeError("Cyc is immutable")

    def __delattr__(self, *a):
        raise AttributeError("Cyc is immutable")

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        """The coordinates nums[i] / den, each an int when integral and a
        Fraction otherwise."""
        d = self.den
        if d == 1:
            return self.nums
        return tuple(x // d if x % d == 0 else Fraction(x, d) for x in self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def rational(r: Rat) -> "Cyc":
        if type(r) is not int and type(r) is not Fraction:
            r = Fraction(r)
        return _cyc(1, (r.numerator,), r.denominator)

    @staticmethod
    def zero() -> "Cyc":
        return _CYC_ZERO

    @staticmethod
    def one() -> "Cyc":
        return _CYC_ONE

    @staticmethod
    def root_of_unity(n: int, k: int = 1) -> "Cyc":
        """zeta_n^k."""
        return Cyc.from_power_sum(n, {k % n: 1})

    @staticmethod
    def from_power_sum(n: int, powers: dict[int, Rat]) -> "Cyc":
        """Sum of c * zeta_n^e over the given exponent -> coefficient map."""
        den = lcm(*(c.denominator for c in powers.values()))
        return _cyc_q(n, _power_sum_coords(
            n, ((e, c.numerator * (den // c.denominator)) for e, c in powers.items())), den)

    # -- coercion ----------------------------------------------------------

    def lift(self, n: int) -> "Cyc":
        """Embed into Q(zeta_n); requires order | n.

        den stays: for m the order, the power basis of Z[zeta_m] is a
        Z-basis of the ring of integers Z[zeta_n] cap Q(zeta_m), so a prime
        dividing den and every lifted numerator would divide every numerator
        before the lift."""
        if n == self.order:
            return self
        if n % self.order != 0:
            raise ValueError("can only lift to a multiple of the order")
        if self.order == 1:
            return _cyc(n, self.nums + (0,) * (euler_phi(n) - 1), self.den)
        step = n // self.order
        return _cyc(n, _power_sum_coords(
            n, ((i * step, c) for i, c in enumerate(self.nums))), self.den)

    @staticmethod
    def _pair(a: "Cyc", b: "Cyc") -> tuple["Cyc", "Cyc"]:
        if a.order == b.order:
            return a, b
        n = lcm(a.order, b.order)
        return a.lift(n), b.lift(n)

    # -- predicates / conversions ------------------------------------------

    def is_zero(self) -> bool:
        if self.order == 1:
            return not self.nums[0]
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Cyc":
        if type(other) is not Cyc:
            other = as_cyc(other)
        if self.order == 1 == other.order and self.den == 1 == other.den:
            return _int_cyc(self.nums[0] + other.nums[0])
        return _linear(self, other, add)

    __radd__ = __add__

    def __neg__(self) -> "Cyc":
        return _cyc(self.order, tuple(-x for x in self.nums), self.den)

    def __sub__(self, other) -> "Cyc":
        if type(other) is not Cyc:
            other = as_cyc(other)
        if self.order == 1 == other.order and self.den == 1 == other.den:
            return _int_cyc(self.nums[0] - other.nums[0])
        return _linear(self, other, sub)

    def __rsub__(self, other) -> "Cyc":
        return as_cyc(other) - self

    def __mul__(self, other) -> "Cyc":
        if type(other) is not Cyc:
            other = as_cyc(other)
        if self.order == 1 or other.order == 1:
            if self.order == other.order:
                if self.den == 1 == other.den:
                    return _int_cyc(self.nums[0] * other.nums[0])
                return _ratio(self.nums[0] * other.nums[0], self.den * other.den)
            # a rational factor scales the other operand's numerators
            r, z = (self, other) if self.order == 1 else (other, self)
            p, q = r.nums[0], r.den
            if p == 1 == q:
                return z
            return _cyc_scale(p, q, z.order, z.nums, z.den)
        a, b = Cyc._pair(self, other)
        return _cyc_product(a.order, a.nums, a.den, b.nums, b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        if self.order == 1:
            return _ratio(self.den, self.nums[0])
        return _cyc_inverse(self.order, self.nums, self.den)

    def __truediv__(self, other) -> "Cyc":
        return self * as_cyc(other).inverse()

    def __rtruediv__(self, other) -> "Cyc":
        return as_cyc(other) * self.inverse()

    def __pow__(self, k: int) -> "Cyc":
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyc.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- canonical form, comparison, hashing ---------------------------------

    def canonical(self) -> "Cyc":
        """Rewrite at the conductor, the least d | order with self in Q(zeta_d)."""
        if self.order == 1:
            return self
        for d in _divisors(self.order):
            if d == self.order:
                return self
            coords = _coords_in_subfield(self, d)
            if coords is not None:
                den = lcm(*(c.den for c in coords))
                return _cyc_q(d, tuple(c.nums[0] * (den // c.den) for c in coords),
                              den * self.den)
        return self

    def __eq__(self, other) -> bool:
        if type(other) is not Cyc:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if self.order == 1:
                return self.nums[0] == other.numerator and self.den == other.denominator
            other = Cyc.rational(other)
        if self.order == other.order:
            # the normal form at a fixed order is unique
            return self.nums == other.nums and self.den == other.den
        return (self - other).is_zero()

    def __hash__(self):
        c = self.canonical()
        if c.order > 1:
            return hash((c.order, c.nums, c.den))
        # hash(Fraction(p, q)) is hash(p * q^-1 mod P) for the prime hash
        # modulus P (Python's rule for numeric types), unless P divides q
        inv = pow(c.den, _HASH_MODULUS - 2, _HASH_MODULUS)
        return hash(c.nums[0] * inv) if inv else hash(c.as_fraction())

    def __repr__(self):
        return f"Cyc({scalar_to_string(self)!r})"


_new_cyc = object.__new__
_set_order = Cyc.order.__set__
_set_nums = Cyc.nums.__set__
_set_den = Cyc.den.__set__


def _cyc(order: int, nums: tuple, den: int) -> Cyc:
    # trusted constructor for arithmetic results: nums is a tuple of phi(order)
    # ints and den >= 1 is coprime to them
    z = _new_cyc(Cyc)
    _set_order(z, order)
    _set_nums(z, nums)
    _set_den(z, den)
    return z


def _int_cyc(x: int) -> Cyc:
    # the integer x at order 1; Cyc is immutable, so the values -2 .. 2,
    # nearly every result of elimination over Q, share one instance each
    if -2 <= x <= 2:
        return _SMALL_INTS[x]
    return _cyc(1, (x,), 1)


def _cyc_q(order: int, nums: tuple, den: int) -> Cyc:
    # _cyc for nums / den in any form: divide out gcd(den, *nums), and a
    # rational result drops to order 1
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            den //= g
            nums = tuple(x // g for x in nums)
    if order != 1 and any(nums[1:]):
        return _cyc(order, nums, den)
    return _int_cyc(nums[0]) if den == 1 else _cyc(1, nums[:1], den)


def _ratio(p: int, q: int) -> Cyc:
    # p / q at order 1 for an int q != 0
    if q < 0:
        p, q = -p, -q
    g = gcd(p, q)
    return _cyc(1, (p // g,), q // g)


def _linear(a: Cyc, b: Cyc, op) -> Cyc:
    # a + b or a - b for op add or sub: numerators over a shared denominator
    # combine directly, others cross-multiply; rationals here, the rest in
    # the cached kernel at the common order
    if a.order != b.order:
        a, b = Cyc._pair(a, b)
    da, db = a.den, b.den
    if a.order == 1:
        if da == db:
            return _cyc_q(1, (op(a.nums[0], b.nums[0]),), da)
        return _cyc_q(1, (op(a.nums[0] * db, b.nums[0] * da),), da * db)
    return _cyc_linear(op, a.order, a.nums, da, b.nums, db)


# The kernels of order > 1 arithmetic, each a pure function of the normal
# forms of its operands, cached by them: Cyc is immutable and every result
# is in its unique normal form, so a cached value is the value the kernel
# computes.  The Hopf engine repeats few operands: the reports on the 27-dim
# quantum group make about 5,500 products over 390 distinct operand pairs.
# Rational arithmetic never reaches the kernels.  The one cap holds every
# operand set of those reports (at most 423 per kernel) and bounds the
# memory of larger ones: on the 125-dim group the caches evict, still answer
# about 72% of products and sums, and cost about 3 MB.
CYC_CACHE_SIZE = 4096


@lru_cache(maxsize=CYC_CACHE_SIZE)
def _cyc_product(order: int, anums: tuple, aden: int, bnums: tuple, bden: int) -> Cyc:
    # one integer convolution, then x^m -> x^m mod Phi_n for m >= phi
    phi = len(anums)
    conv = [0] * (2 * phi - 1)
    for i, x in enumerate(anums):
        if x:
            for j, y in enumerate(bnums, i):
                conv[j] += x * y
    table = _xpow_table(order)
    for m in range(phi, 2 * phi - 1):
        c = conv[m]
        if c:
            for j, t in enumerate(table[m]):
                if t:
                    conv[j] += c * t
    return _cyc_q(order, tuple(conv[:phi]), aden * bden)


@lru_cache(maxsize=CYC_CACHE_SIZE)
def _cyc_scale(p: int, q: int, order: int, nums: tuple, den: int) -> Cyc:
    # the rational p / q times nums / den: it scales the numerators
    return _cyc_q(order, tuple(p * x for x in nums), q * den)


@lru_cache(maxsize=CYC_CACHE_SIZE)
def _cyc_linear(op, order: int, anums: tuple, aden: int, bnums: tuple, bden: int) -> Cyc:
    if aden == bden:
        return _cyc_q(order, tuple(map(op, anums, bnums)), aden)
    return _cyc_q(order, tuple(op(x * bden, y * aden) for x, y in zip(anums, bnums)),
                  aden * bden)


@lru_cache(maxsize=CYC_CACHE_SIZE)
def _cyc_inverse(n: int, nums: tuple, den: int) -> Cyc:
    # z = w / den for w in Z[zeta_n] with coordinates nums, and
    # z^-1 = den r / N(w) for r the product of the Galois conjugates
    # sigma_k(w), zeta -> zeta^k, over k in (Z/n)* other than 1; the norm
    # N(w) = w r is an integer, nonzero as Phi_n is irreducible over Q
    r = _CYC_ONE
    for k in range(2, n):
        if gcd(k, n) == 1:
            r = r * Cyc.from_power_sum(n, {i * k % n: c for i, c in enumerate(nums) if c})
    norm = r * _cyc(n, nums, 1)
    return r * _ratio(den, norm.nums[0])


_HASH_MODULUS = sys.hash_info.modulus


def _power_sum_coords(n: int, terms: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    # the phi(n) integer coordinates of sum c * zeta_n^e over the (e, c)
    # terms, int c, reduced modulo Phi_n and never dropped to order 1
    table = _xpow_table(n)
    acc = [0] * euler_phi(n)
    for e, c in terms:
        if c:
            for j, t in enumerate(table[e % n]):
                if t:
                    acc[j] += c * t
    return tuple(acc)


# Cyc is immutable, so every zero() and one() can share one instance
_CYC_ZERO = _cyc(1, (0,), 1)
_CYC_ONE = _cyc(1, (1,), 1)
_SMALL_INTS = (_CYC_ZERO, _CYC_ONE) + tuple(_cyc(1, (x,), 1) for x in (2, -2, -1))


def as_cyc(x) -> Cyc:
    if isinstance(x, Cyc):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyc.rational(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Cyc")


def _coords_in_subfield(z: Cyc, d: int) -> Optional[list[Cyc]]:
    # the numerators of z are sum c_i * lift(zeta_d^i): the reduced echelon
    # form of the matrix with columns lift(zeta_d^i) and z.nums holds the
    # rational c_i in its last column; the lifted powers are independent, so
    # z lies in Q(zeta_d) iff that column is free
    phi_d = euler_phi(d)
    cols = [Cyc.root_of_unity(d, i).lift(z.order).nums for i in range(phi_d)]
    cols.append(z.nums)
    space = RowSpace(phi_d + 1)
    for i in range(euler_phi(z.order)):
        space.add({j: _cyc(1, (col[i],), 1) for j, col in enumerate(cols) if col[i]})
    if phi_d in space.pivots:
        return None
    return [space.pivots[j].get(phi_d, _CYC_ZERO) for j in range(phi_d)]


# ---------------------------------------------------------------------------
# serialization: rationals "p/q", cyclotomics "n:[c0,c1,...]"
# ---------------------------------------------------------------------------

def scalar_to_string(z: Cyc) -> str:
    z = z.canonical()
    if z.order == 1:
        return str(z.coeffs[0])
    return f"{z.order}:[{','.join(str(c) for c in z.coeffs)}]"


def scalar_from_string(s: str) -> Cyc:
    s = s.strip()
    if ":" not in s:
        return Cyc.rational(Fraction(s))
    head, _, body = s.partition(":")
    n = int(head)
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"malformed cyclotomic scalar string: {s!r}")
    parts = [p for p in body[1:-1].split(",") if p.strip()]
    return Cyc(n, tuple(Fraction(p) for p in parts))


# input checks for the JSON loaders: a value of the wrong JSON type becomes a
# ValueError naming the file kind ("Hopf JSON", ...) and the field

def load_json_file(path: str):
    """The parsed contents of a JSON file; a syntax error is a ValueError
    naming the file and line.  A missing or unreadable file raises OSError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


_JSON_KINDS = {list: "a list", dict: "an object"}


def json_kind(source: str, field: str, value, kind: type):
    """value itself when it is a JSON list or object, as kind demands."""
    if not isinstance(value, kind):
        raise ValueError(f"{source} field '{field}': expected {_JSON_KINDS[kind]}, "
                         f"got {value!r}")
    return value


def json_int(source: str, field: str, value) -> int:
    """value itself when it is a JSON integer (not a string, float or bool)."""
    if type(value) is not int:
        raise ValueError(f"{source} field '{field}': expected an integer, got {value!r}")
    return value


def json_scalar(source: str, field: str, value) -> Cyc:
    if not isinstance(value, str):
        raise ValueError(f"{source} field '{field}': expected a scalar string, "
                         f"got {value!r}")
    try:
        return scalar_from_string(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{source} field '{field}': {exc}")


# ---------------------------------------------------------------------------
# ExactMatrix
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Dense matrix of Cyc entries normalized to one common order."""

    __slots__ = ("rows", "cols", "entries", "order")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        ents = [as_cyc(e) for e in entries]
        if len(ents) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        order = 1
        for e in ents:
            order = lcm(order, e.order)
        ents = [e.lift(order) for e in ents]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(ents))
        object.__setattr__(self, "order", order)

    def __setattr__(self, *a):
        raise AttributeError("ExactMatrix is immutable")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "ExactMatrix":
        r = len(rows)
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return ExactMatrix(r, c, [x for row in rows for x in row])

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "ExactMatrix":
        return ExactMatrix(r, c, [0] * (r * c))

    def at(self, i: int, j: int) -> Cyc:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Cyc, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self) -> list[list[Cyc]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows,
                           [self.at(i, j) for j in range(self.cols) for i in range(self.rows)])

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = Cyc.zero()
                for k in range(self.cols):
                    x = ri[k]
                    if not x.is_zero():
                        acc = acc + x * other.at(k, j)
                out.append(acc)
        return ExactMatrix(self.rows, other.cols, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all((a - b).is_zero() for a, b in zip(self.entries, other.entries))

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# kernels and reduced row echelon machinery
# ---------------------------------------------------------------------------

class RowSpace:
    """Incremental row space over the scalar field, rows as sparse dicts.

    The single exact elimination engine of the package.  It keeps the reduced
    echelon basis keyed by pivot column: each basis row is 1 at its own pivot
    and 0 at every other pivot column, so the form is unique and does not
    depend on the order in which rows were added.
    """

    def __init__(self, width: int):
        self.width = width
        self.pivots: dict[int, dict[int, Cyc]] = {}

    def reduce(self, row: dict[int, Cyc]) -> dict[int, Cyc]:
        """A new dict: row minus its part in the space, zero at every pivot
        column and empty iff row lies in the space.

        Basis rows vanish at each other's pivots, so one subtraction per
        pivot the row hits is exact and a single pass suffices.
        """
        out = {c: v for c, v in row.items() if not v.is_zero()}
        for p in sorted(c for c in out if c in self.pivots):
            _sub_multiple(out, out[p], self.pivots[p])
        return out

    def add(self, row: dict[int, Cyc]) -> bool:
        """Reduce and insert; returns True if the row enlarged the space."""
        row = self.reduce(row)
        if not row:
            return False
        p = min(row)
        inv = row[p].inverse()
        row = {c: v * inv for c, v in row.items()}
        # back-substitute into existing pivot rows
        for prow in self.pivots.values():
            f = prow.get(p)
            if f is not None:
                _sub_multiple(prow, f, row)
        self.pivots[p] = row
        return True

    def contains(self, row: dict[int, Cyc]) -> bool:
        return not self.reduce(row)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def basis_rows(self) -> list[dict[int, Cyc]]:
        return [dict(self.pivots[p]) for p in sorted(self.pivots)]

    def kernel(self) -> list[dict[int, Cyc]]:
        """Basis of {x : r . x = 0 for every row r} as sparse vectors: one per
        free column, ascending, with a 1 there and minus the pivot row's entry
        at each pivot column whose row reaches it.  Pivot rows hold no zero
        entries, so neither do the vectors."""
        rows = [(p, self.pivots[p]) for p in sorted(self.pivots)]
        basis = []
        for free in range(self.width):
            if free in self.pivots:
                continue
            v = {free: _CYC_ONE}
            for p, row in rows:
                x = row.get(free)
                if x is not None:
                    v[p] = -x
            basis.append(v)
        return basis

    def __le__(self, other: "RowSpace") -> bool:
        return all(other.contains(r) for r in self.pivots.values())

    def equals(self, other: "RowSpace") -> bool:
        return self.rank == other.rank and self <= other


def _sub_multiple(row: dict[int, Cyc], f: Cyc, other: dict[int, Cyc]) -> None:
    # row -= f * other in place, dropping entries that become zero
    for c, v in other.items():
        nv = row.get(c, _CYC_ZERO) - f * v
        if nv.is_zero():
            row.pop(c, None)
        else:
            row[c] = nv


def rref(rows: Sequence[Sequence[Cyc]]) -> RowSpace:
    """The reduced row echelon form of dense rows of equal length."""
    space = RowSpace(len(rows[0]) if rows else 0)
    for row in rows:
        space.add({j: x for j, x in enumerate(row) if not x.is_zero()})
    return space


def solve_kernel(A: ExactMatrix) -> list[tuple[Cyc, ...]]:
    """Basis of the right kernel {v : A v = 0} as dense tuples, deterministic
    ordering.

    Vectors come out of the reduced echelon form with free columns ascending,
    each normalized with a 1 in its free coordinate.
    """
    space = rref(A.to_lists())
    return [tuple(v.get(j, _CYC_ZERO) for j in range(space.width))
            for v in space.kernel()]


def kernel_of_sparse_columns(columns: list[dict[int, Cyc]]) -> list[dict[int, Cyc]]:
    """Kernel of the map x -> sum x_i * col_i for sparse columns, as sparse
    vectors in ``solve_kernel``'s order; the implied rows go straight into a
    RowSpace, where repeated rows reduce to zero."""
    rows: dict[int, dict[int, Cyc]] = {}
    for j, col in enumerate(columns):
        for pos, val in col.items():
            rows.setdefault(pos, {})[j] = val
    space = RowSpace(len(columns))
    for row in rows.values():
        space.add(row)
        if space.rank == len(columns):
            break  # full column rank: the kernel is already zero
    return space.kernel()


def algebra_generators(cols: Sequence[Sequence[dict]], one: dict[int, Cyc]) -> list[int]:
    """Basis indices that generate an algebra with unit ``one``, in basis
    order, for ``cols[g][l]`` the sparse product e_l e_g (int or Cyc
    entries).  e_i joins the list when it is not in V, the span of the
    left-normed products (...((1 g_1) g_2)...) g_k of the generators found
    so far, which is ``one`` closed on the right under them; this uses the
    products e_l e_g only, with no use of associativity."""
    dim = len(cols)
    span = RowSpace(dim)
    span.add(one)
    found = [one]                       # the vectors that enlarged V
    gens: list[int] = []
    for i in range(dim):
        if span.rank == dim:
            break
        if span.contains({i: _CYC_ONE}):
            continue
        gens.append(i)
        work = [(v, i) for v in found]
        while work:
            v, g = work.pop()
            w: dict[int, Cyc] = {}      # v e_g = sum_l v_l e_l e_g
            for l, c in v.items():
                for k, m in cols[g][l].items():
                    w[k] = w.get(k, _CYC_ZERO) + c * m
            if span.add(w):
                found.append(w)
                work.extend((w, h) for h in gens)
    return gens


# ---------------------------------------------------------------------------
# minimal polynomial via Krylov relations
# ---------------------------------------------------------------------------

def minimal_polynomial(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Monic least-degree m with m(A) = 0 for a square integer matrix A given
    as rows: its integer coefficients, lowest degree first.

    Start vector by start vector, m <- m * mu_w with w = m(A) e, where mu_w,
    the least monic f with f(A) w = 0, is read off a Krylov relation (it is 1
    when w = 0).  This is lcm(m, mu_e) for any square A, because
    mu_{m(A)e} = mu_e / gcd(mu_e, m): f(A) w = 0 iff mu_e | f m iff
    mu_e / gcd(mu_e, m) | f.  Since m divides the minimal polynomial, the
    loop stops once deg m = n.

    The work is on int lists only: m and every mu_w are monic with integer
    coefficients (Gauss's lemma).
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("minimal polynomial needs a square matrix")

    def apply(v: list[int]) -> list[int]:
        return [sum(map(mul, row, v)) for row in rows]

    m = [1]                             # m so far, lowest degree first
    for start in range(n):
        if len(m) > n:
            break
        w = [0] * n                     # m(A) e by Horner's rule, m monic
        w[start] = 1
        for c in reversed(m[:-1]):
            w = apply(w)
            w[start] += c
        # fraction-free elimination of the Krylov vectors A'^t w, each with
        # the tag polynomial that makes it from w (X^t to begin with): the
        # first vector that reduces to zero leaves a multiple of mu_w in its
        # tag.  A reduction scales by the pivot and divides row and tag by
        # their common content, so the entries stay integers.
        basis: list[tuple[int, list[int], list[int]]] = []   # (pivot, row, tag)
        v = w
        while True:
            row, tag = v, [0] * len(basis) + [1]
            for p, b, g in basis:
                f = row[p]
                if f:
                    d = b[p]
                    row = [d * x - f * y for x, y in zip(row, b)]
                    tag = [d * x - f * y for x, y in itertools.zip_longest(tag, g, fillvalue=0)]
                    c = gcd(*row, *tag)
                    row = [x // c for x in row]
                    tag = [x // c for x in tag]
            if not any(row):
                break
            basis.append((next(i for i, x in enumerate(row) if x), row, tag))
            v = apply(v)
        mu = [x // tag[-1] for x in tag]
        prod = [0] * (len(m) + len(mu) - 1)
        for i, a in enumerate(m):
            for j, b in enumerate(mu):
                prod[i + j] += a * b
        m = prod
    return tuple(m)


# ---------------------------------------------------------------------------
# integer root extraction
# ---------------------------------------------------------------------------

def _int_poly_primitive(a: list[int]) -> list[int]:
    # a over the gcd of its coefficients, with a positive leading coefficient
    c = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [x // c for x in a]


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two nonzero integer polynomials, by primitive
    pseudo-remainder sequences."""
    a, b = _int_poly_primitive(a), _int_poly_primitive(b)
    while len(b) > 1:
        r = a
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for j, y in enumerate(b):
                r[shift + j] -= c * y
            r.pop()
            while r and not r[-1]:
                r.pop()
        if not r:
            return b
        a, b = b, _int_poly_primitive(r)
    return [1]


def _int_poly_div_linear(f: list[int], u: int) -> Optional[list[int]]:
    """f / (X - u) by synthetic division, or None when X - u does not
    divide f."""
    quot = [0] * (len(f) - 1)
    acc = 0
    for i in range(len(f) - 1, 0, -1):
        acc = f[i] + u * acc
        quot[i - 1] = acc
    return quot if f[0] == -u * acc else None


def _int_root_candidates(g: list[int]) -> list[int]:
    """Ascending integers among which are all integer roots of a squarefree
    monic integer polynomial g, found p-adically (Loos, SIAM J. Comput. 12,
    1983).

    q is the least prime at which every root of g mod q is simple (it
    exists, since only the primes dividing the discriminant fail).  An
    integer root y of g reduces to one of these roots and is its unique
    q-adic lift, so Newton steps mod q^2, q^4, ... until the modulus exceeds
    twice the Cauchy bound 1 + max |g_i| >= |y| recover y as the symmetric
    residue of that lift."""
    dg = [i * c for i, c in enumerate(g)][1:]
    bound = 1 + max(map(abs, g[:-1]))
    for q in itertools.count(2):
        if _is_prime(q):
            res = [r for r in range(q) if not _polyeval(g, r, q)]
            if all(_polyeval(dg, r, q) for r in res):
                break
    out = []
    for r in res:
        mod = q
        while mod <= 2 * bound:
            mod *= mod
            r = (r - _polyeval(g, r, mod) * pow(_polyeval(dg, r, mod), -1, mod)) % mod
        out.append(r if 2 * r <= mod else r - mod)
    return sorted(out)


def factor_rational_roots(f: Sequence[int]) -> tuple[dict[int, int], tuple[int, ...]]:
    """Extract all rational roots of a monic integer polynomial f exactly;
    they are integers.

    Returns (roots, residual) where roots maps each root to its
    multiplicity, 0 first and the others ascending, and residual is the
    monic integer cofactor with no rational roots.  The candidates are the
    integer roots of the square-free part f / gcd(f, f'), which is monic
    with integer coefficients (Gauss's lemma); the multiplicities come from
    repeated synthetic division of f.
    """
    roots: dict[int, int] = {}
    # root zero first
    k = next(i for i, c in enumerate(f) if c)
    if k:
        roots[0] = k
    f = list(f[k:])
    if len(f) == 1:
        return roots, (1,)
    sf = _int_poly_div_exact(f, _int_poly_gcd(f, [i * c for i, c in enumerate(f)][1:]))
    for u in _int_root_candidates(sf):
        mult = 0
        while (quot := _int_poly_div_linear(f, u)) is not None:
            f = quot
            mult += 1
        if mult:
            roots[u] = mult
    return roots, tuple(f)


def poly_to_string(p: Sequence[int]) -> str:
    """A nonzero integer polynomial, lowest degree first, as text with the
    highest degree first: (3, -4, 1) is "X^2 - 4*X + 3"."""
    parts = []
    for i in range(len(p) - 1, -1, -1):
        c = p[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}X" + (f"^{i}" if i > 1 else "")
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# zero-pattern scans and support connectivity
# ---------------------------------------------------------------------------

def pattern_stabilization_index(start: Sequence[Sequence[int]],
                                step: Sequence[Sequence[int]],
                                k_max: int) -> Optional[int]:
    """Least k >= 1 with pattern(S A^(k-1)) = pattern(S A^k), or None, for
    S = start and A = step nonnegative integer matrices.

    Each pattern is a list of row bitsets, and one boolean product with the
    pattern of A makes the next one.  Negative entries raise
    MalformedSequenceError, and so does a pattern that loses an entry (the
    fill-in must be monotone).  None means the scan budget k_max was
    exhausted (unbounded within budget).
    """
    prev = _row_bitsets(start)
    step_rows = _row_bitsets(step)
    for k in range(1, k_max + 1):
        cur = [_bool_product(bits, step_rows) for bits in prev]
        for a, b in zip(prev, cur):
            if a & ~b:
                raise MalformedSequenceError("zero pattern lost an entry; not monotone")
        if cur == prev:
            return k
        prev = cur
    return None


def _row_bitsets(grid: Sequence[Sequence[int]]) -> list[int]:
    # bit j of row i is set iff grid[i][j] != 0
    out = []
    for row in grid:
        bits = 0
        for j, x in enumerate(row):
            if x < 0:
                raise MalformedSequenceError("sequence entries must be nonnegative rationals")
            if x:
                bits |= 1 << j
        out.append(bits)
    return out


def _bool_product(bits: int, rows: list[int]) -> int:
    # the union of rows[j] over the set bits j
    out = 0
    while bits:
        low = bits & -bits
        out |= rows[low.bit_length() - 1]
        bits ^= low
    return out


def is_indecomposable(A: Sequence[Sequence[int]]) -> bool:
    """True iff the symmetric support graph of a square nonnegative integer
    matrix is connected; a 1x1 zero matrix counts as connected."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("indecomposability needs a square matrix")
    adj = [0] * n
    for i, row in enumerate(A):
        for j, x in enumerate(row):
            if x < 0:
                raise ValueError("indecomposability needs nonnegative entries")
            if x:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    seen = frontier = 1
    while frontier:
        frontier = _bool_product(frontier, adj) & ~seen
        seen |= frontier
    return seen == (1 << n) - 1
