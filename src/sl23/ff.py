"""Finite fields GF(p**k) with canonical integer-coded elements.

An element with coefficient vector (c_0, ..., c_{k-1}) over GF(p) is coded
as the integer sum(c_i * p**i); the integers 0 .. p-1 are therefore the
prime-subfield constants in every field of characteristic p.  A field's
defining polynomial is the lexicographically smallest monic irreducible of
its degree, comparing coefficient tuples low degree first, which makes the
whole construction reproducible: two runs (or two implementations) agree
on every field, every embedding and every canonical element of given
order.

Multiplication takes one of three paths.  Prime fields reduce integers
mod p, characteristic-2 extensions pack coefficients into int bitmasks
(multiplication is carry-less), and odd extensions use little-endian
digit tuples.  Any extension field with at most _TABLE_MAX elements
also precomputes full multiplication and inversion tables, since those
fields carry all of the matrix work; in the larger fields inversion is
Fermat's a**(p**k - 2).  There is no polynomial code here: defining
polynomials are searched with poly.is_irreducible over the prime field.
"""

from __future__ import annotations

import functools
from typing import Iterable, Sequence

from .arith import factor, is_prime
from .poly import Poly, is_irreducible

_TABLE_MAX = 256


class NoEmbedding(ValueError):
    """Raised when no field embedding exists (wrong characteristic or degree)."""


class NotInSubfield(ValueError):
    """Raised by Embedding.project on an element outside the embedded image."""


class OrderDoesNotDivide(ValueError):
    """Raised when a requested element order does not divide p**k - 1."""


class InvalidPrime(ValueError):
    """Raised when a field characteristic is not prime."""


# ---------------------------------------------------------------------------
# GF(2)[t] on int bitmasks: bit i is the coefficient of t**i.

def _gf2_mul_raw(a: int, b: int) -> int:
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def _gf2_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while True:
        sh = a.bit_length() - 1 - dm
        if sh < 0 or a == 0:
            return a
        a ^= m << sh


# ---------------------------------------------------------------------------
# GF(p)[t] for odd p on little-endian digit tuples of fixed length k.

def _vec_mul(a: Sequence[int], b: Sequence[int], p: int, mod: Sequence[int], k: int) -> tuple[int, ...]:
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    # reduce the high part against the monic modulus
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i] % p
        if c:
            base = i - k
            for j in range(k):
                prod[base + j] -= c * mod[j]
        prod[i] = 0
    return tuple(c % p for c in prod[:k])


# ---------------------------------------------------------------------------

class Field:
    """GF(p**k) with elements coded as integers in [0, p**k).

    Do not call the constructor directly; make_field(p, k) returns the
    canonical field with the deterministic defining polynomial (and caches
    it, so object identity can be relied on within a process).
    """

    __slots__ = (
        "p", "k", "order", "modulus", "_modbits", "_inv_table",
        "add", "sub", "neg", "mul", "inv", "dot",
    )

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = modulus  # little-endian, length k+1, monic
        self._modbits = None
        self._inv_table = None
        if p == 2:
            self._modbits = sum(c << i for i, c in enumerate(modulus))
        self._bind_ops()

    # -- representation ----------------------------------------------------

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    # -- element coding ----------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Little-endian coefficient vector of a over the prime field."""
        p = self.p
        out = []
        for _ in range(self.k):
            a, c = divmod(a, p)
            out.append(c)
        return tuple(out)

    def encode(self, cs: Iterable[int]) -> int:
        v = 0
        for i, c in enumerate(cs):
            v += (c % self.p) * self.p**i
        return v

    def scalar(self, c: int) -> int:
        """The image of the integer c under Z -> GF(p) -> this field."""
        return c % self.p

    # -- arithmetic --------------------------------------------------------

    def _bind_ops(self):
        p, k = self.p, self.k
        if k == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
            self.inv = self._inv_prime
            self.dot = self._dot_prime
            return
        if p == 2:
            self.add = lambda a, b: a ^ b
            self.sub = self.add
            self.neg = lambda a: a
            self.mul = self._mul_gf2
        else:
            self.add = self._add_digits
            self.sub = self._sub_digits
            self.neg = self._neg_digits
            self.mul = self._mul_digits
        self.inv = self._inv_fermat
        if self.order <= _TABLE_MAX:
            n = self.order
            mul = self.mul
            table = [[mul(a, b) for b in range(n)] for a in range(n)]
            self._inv_table = [0] + [table[a].index(1) for a in range(1, n)]
            self.mul = lambda a, b: table[a][b]
            self.inv = self._inv_table_lookup
        if p == 2:
            self.dot = self._dot_gf2
        else:
            self.dot = self._dot_generic

    def _inv_prime(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def _inv_fermat(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.order - 2)

    def _inv_table_lookup(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv_table[a]

    def _mul_gf2(self, a, b):
        return _gf2_mod(_gf2_mul_raw(a, b), self._modbits)

    def _add_digits(self, a, b):
        return self.encode(x + y for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def _sub_digits(self, a, b):
        return self.encode(x - y for x, y in zip(self.coeffs(a), self.coeffs(b)))

    def _neg_digits(self, a):
        return self.encode(-x for x in self.coeffs(a))

    def _mul_digits(self, a, b):
        return self.encode(
            _vec_mul(self.coeffs(a), self.coeffs(b), self.p, self.modulus, self.k)
        )

    # dot products carry the inner loops of all matrix code
    def _dot_prime(self, xs, ys):
        return sum(x * y for x, y in zip(xs, ys)) % self.p

    def _dot_gf2(self, xs, ys):
        mul = self.mul
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                acc ^= mul(x, y)
        return acc

    def _dot_generic(self, xs, ys):
        add, mul = self.add, self.mul
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                acc = add(acc, mul(x, y))
        return acc

    def pow(self, a: int, e: int) -> int:
        """a**e with e >= 0 (or e < 0 for invertible a)."""
        if e < 0:
            a = self.inv(a)
            e = -e
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def elements(self):
        return range(self.order)

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)


# ---------------------------------------------------------------------------
# Deterministic defining polynomials.
#
# Candidates of degree k are scanned in lexicographic order of the tuple
# (c_0, c_1, ..., c_{k-1}) of non-leading coefficients, and the first one
# that poly.is_irreducible accepts over the prime field wins.

def _defining_poly(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest (low-degree-first) monic irreducible.

    Candidates are ordered by the coefficient tuple (c_0, ..., c_{k-1});
    the whole c_0 = 0 block is divisible by t, so the scan starts at
    c_0 = 1.
    """
    if k == 1:
        return (0, 1)  # the polynomial t: GF(p) is GF(p)[t]/(t)
    prime = make_field(p, 1)
    counters = [1] + [0] * (k - 1)
    while True:
        coeffs = counters + [1]
        if is_irreducible(Poly(prime, coeffs)):
            return tuple(coeffs)
        # odometer increment, last coefficient fastest
        i = k - 1
        while i >= 0:
            counters[i] += 1
            if counters[i] < p:
                break
            counters[i] = 0
            i -= 1
        if i < 0:
            raise RuntimeError("no irreducible polynomial found")  # unreachable


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int) -> Field:
    """The canonical GF(p**k).  Raises InvalidPrime / ValueError on bad input."""
    if not is_prime(p):
        raise InvalidPrime(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    return Field(p, k, _defining_poly(p, k))


# ---------------------------------------------------------------------------

def element_of_order(field: Field, q_ord: int, q_factors: list[tuple[int, int]]) -> int:
    """The canonical element of exact order q_ord in GF(p**k)*.

    Scans candidates g in ascending element code order, starting at the
    residue class of t (at 2 in a prime field), and returns the first
    omega = g ** ((p**k - 1) / q_ord) whose order survives every check
    omega ** (q_ord / r) != 1 for the primes r dividing q_ord.
    """
    n = field.order - 1
    if q_ord < 1 or n % q_ord != 0:
        raise OrderDoesNotDivide(f"{q_ord} does not divide {field!r} group order {n}")
    cofactor = n // q_ord
    prime_quotients = [q_ord // r for r, _ in q_factors]
    start = field.p if field.k > 1 else 2
    for g in range(start, field.order):
        w = field.pow(g, cofactor)
        if w == 1 and q_ord > 1:
            continue
        if all(field.pow(w, t) != 1 for t in prime_quotients):
            return w
    raise OrderDoesNotDivide(f"no element of order {q_ord} found")  # unreachable


class Embedding:
    """Subfield embedding GF(p**k) -> GF(p**K) with k | K.

    The generator image is the smallest root (in element code order) of the
    small field's defining polynomial inside the big field; both directions
    are then tabulated, so project doubles as a subfield membership test.
    """

    __slots__ = ("small", "big", "image_of_generator", "_fwd", "_bwd")

    def __init__(self, small: Field, big: Field):
        self.small = small
        self.big = big
        self.image_of_generator = self._find_image()
        self._fwd = {}
        for s in range(small.order):
            v = 0
            for c in reversed(small.coeffs(s)):
                v = big.add(big.mul(v, self.image_of_generator), c)
            self._fwd[s] = v
        if len(set(self._fwd.values())) != small.order:
            raise RuntimeError("embedding is not injective")  # unreachable
        self._bwd = {v: s for s, v in self._fwd.items()}

    def _find_image(self) -> int:
        small, big = self.small, self.big
        if small.k == 1:
            return 0  # root of the degree-1 convention polynomial t
        sub_ord = small.order - 1
        w = element_of_order(big, sub_ord, factor(sub_ord))
        candidates = [0] + [big.pow(w, i) for i in range(sub_ord)]
        roots = []
        for c in candidates:
            acc = 0
            for m in reversed(small.modulus):
                acc = big.add(big.mul(acc, c), m)
            if acc == 0:
                roots.append(c)
        if not roots:
            raise RuntimeError("defining polynomial has no root in big field")
        return min(roots)

    def lift(self, a: int) -> int:
        """Image in the big field of a small-field element."""
        return self._fwd[a]

    def project(self, b: int) -> int:
        """Preimage of b, or NotInSubfield if b is outside the image."""
        try:
            return self._bwd[b]
        except KeyError:
            raise NotInSubfield(
                f"element {b} of {self.big!r} is not in the embedded {self.small!r}"
            ) from None


def embed(small: Field, big: Field) -> Embedding:
    """Canonical embedding, or NoEmbedding if none exists."""
    if small.p != big.p:
        raise NoEmbedding(
            f"characteristic mismatch: {small!r} vs {big!r}"
        )
    if big.k % small.k != 0:
        raise NoEmbedding(
            f"{small!r} does not embed in {big!r}: {small.k} does not divide {big.k}"
        )
    return Embedding(small, big)
