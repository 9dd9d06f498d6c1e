"""Finite fields GF(p**k) with canonical integer-coded elements.

An element with coefficient vector (c_0, ..., c_{k-1}) over GF(p) is coded
as the integer sum(c_i * p**i); the integers 0 .. p-1 are therefore the
prime-subfield constants in every field of characteristic p.  A field's
defining polynomial is the lexicographically smallest monic irreducible of
its degree, comparing coefficient tuples low degree first, which makes the
whole construction reproducible: two runs (or two implementations) agree
on every field, every embedding and every canonical element of given
order.

Prime fields reduce mod p.  Extension fields of order <= _TABLE_MAX, which
carry the matrix work, use tables made a row per C-level pass: a mul row
permutes the doubled exp of element_of_order's generator (the least
primitive element) by log, an add row (odd p) permutes an earlier row by a
digit step, and sub reads add through neg.  Larger ones are the packed
poly.Ring (an int product, a SWAR slot reduction, a Barrett fold) with
Fermat inversion.  Each representation binds its own dot and axpy row
kernels.  Defining polynomials come from poly.is_irreducible (Ben-Or, the
first part of the distinct-degree split), after a sieve that drops, for p <=
_TABLE_MAX, every candidate with a root in GF(p).  An Embedding tabulates
nothing.

Every field has one packed view, Field.packed, with pack, unpack, mul and
sub: the Ring itself above _TABLE_MAX, plain ints under the tables or mod
p otherwise.  Packed residues are canonical and the packed 1 is the int 1,
so == and hashing stay exact.  The big-field loops of a build (pow,
element_of_order's candidates and its order test, _find_image's walk and
poly.minimal_polynomial) pack each code once on the way in and unpack only
what they return, where a code-level add or mul would convert both
operands and the result every time.  element_of_order tests "w**(Q/r) != 1
for every prime r | Q" on poly.survives' product tree over the primes.
"""

from __future__ import annotations

import functools
import math
import operator
from types import SimpleNamespace
from typing import Iterable

from .arith import factor, is_prime
from .poly import Poly, Ring, is_irreducible, power, survives

_TABLE_MAX = 256


class NoEmbedding(ValueError):
    """Raised when no field embedding exists (wrong characteristic or degree)."""


class NotInSubfield(ValueError):
    """Raised by Embedding.project on an element outside the embedded image."""


class OrderDoesNotDivide(ValueError):
    """Raised when a requested element order does not divide p**k - 1."""


class InvalidPrime(ValueError):
    """Raised when a field characteristic is not prime."""


class Field:
    """GF(p**k) with elements coded as integers in [0, p**k).

    Do not call the constructor directly; make_field(p, k) returns the
    canonical field with the deterministic defining polynomial (and caches
    it, so object identity can be relied on within a process).
    """

    __slots__ = (
        "p", "k", "order", "modulus", "_inv_table", "packed",
        "add", "sub", "neg", "mul", "dot", "axpy",
    )

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p, self.k, self.order = p, k, p**k
        self.modulus = modulus  # little-endian, length k+1, monic
        self._inv_table = None
        self.dot = self._dot
        if k == 1:
            self.add = lambda a, b: (a + b) % p
            self.sub = lambda a, b: (a - b) % p
            self.neg = lambda a: -a % p
            self.mul = lambda a, b: a * b % p
            self.dot = lambda xs, ys: sum(map(operator.mul, xs, ys)) % p
            self.axpy = lambda c, xs, ys: [(x + c * y) % p for x, y in zip(xs, ys)]
            self.packed = SimpleNamespace(pack=int, unpack=int, mul=self.mul, sub=self.sub)
            return
        self.packed = ring = Ring(p, modulus)  # pack, unpack, mul, sub; packed 1 is 1
        pack, unpack, fold, pad = ring.pack, ring.unpack, ring.fold, ring.pad
        self.mul = lambda a, b: unpack(fold(pack(a) * pack(b)))
        if p == 2:
            self.add = self.sub = operator.xor
            self.neg = int
        else:
            self.add = lambda a, b: unpack(pack(a) + pack(b))
            self.sub = lambda a, b: unpack(pack(a) + pad - pack(b))
            self.neg = lambda a: unpack(pad - pack(a))
        if self.order <= _TABLE_MAX:
            self._tabulate()
            self.packed = SimpleNamespace(pack=int, unpack=int, mul=self.mul, sub=self.sub)
        else:  # [x + c*y for x, y in zip(xs, ys)], c packed once
            add = self.add
            self.axpy = lambda c, xs, ys: [add(x, unpack(fold(c * pack(y)))) if y else x
                                           for c in (pack(c),) for x, y in zip(xs, ys)]

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
        return tuple(a // self.p**i % self.p for i in range(self.k))

    def encode(self, cs: Iterable[int]) -> int:
        return sum(c % self.p * self.p**i for i, c in enumerate(cs))

    def scalar(self, c: int) -> int:
        """The image of the integer c under Z -> GF(p) -> this field."""
        return c % self.p

    # -- arithmetic --------------------------------------------------------

    def _tabulate(self):
        p, n, ring, exp = self.p, self.order - 1, self.packed, [1]
        g = x = ring.pack(element_of_order(self, n, factor(n)))  # the least primitive element
        while x != 1 and len(exp) <= n:  # at most q - 1 steps
            exp.append(ring.unpack(x))
            x = ring.mul(x, g)
        if len(exp) != n:  # a reducible modulus: g is not primitive
            raise ArithmeticError(f"{self!r} mod {self.modulus} has no primitive element")
        logs = sorted(range(n), key=exp.__getitem__)  # logs[a - 1] = log a
        exp += exp
        row = operator.itemgetter(*logs)  # row(exp[i:])[b - 1] = exp[i] * b
        mul = [[0] * (n + 1)] + [[0, *row(exp[i:])] for i in logs]
        self._inv_table = [0] + [exp[n - i] for i in logs]
        self.mul = lambda a, b: mul[a][b]
        if p == 2:
            self.axpy = lambda c, xs, ys: list(map(operator.xor, xs, map(mul[c].__getitem__, ys)))
            return
        add, neg, P = [list(range(n + 1))], [0], 1
        for _ in range(self.k):  # rows a + P .. a + (p-1)P from rows a < P, P = p**j
            step = operator.itemgetter(*(a + P if a // P % p < p - 1 else a - (p - 1) * P
                                         for a in range(n + 1)))  # b -> b + P digitwise
            for _ in range(p - 1):
                add += [list(step(r)) for r in add[-P:]]
            neg = [s + P * (-h % p) for h in range(p) for s in neg]
            P *= p
        self.add = lambda a, b: add[a][b]
        self.sub = lambda a, b: add[a][neg[b]]
        self.neg = neg.__getitem__
        self.axpy = lambda c, xs, ys: [add[x][y] for x, y in zip(xs, map(mul[c].__getitem__, ys))]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table:
            return self._inv_table[a]
        return self.pow(a, self.order - 2)

    # dot products and row updates carry the inner loops of all matrix code
    def _dot(self, xs, ys):
        add, mul = self.add, self.mul
        acc = 0
        for x, y in zip(xs, ys):
            if x and y:
                acc = add(acc, mul(x, y))
        return acc

    def pow(self, a: int, e: int) -> int:
        """a**e with e >= 0 (or e < 0 for invertible a)."""
        if e < 0:
            a, e = self.inv(a), -e
        ring = self.packed
        return ring.unpack(power(ring.pack(a), e, ring.mul))

    def elements(self):
        return range(self.order)

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)


# ---------------------------------------------------------------------------

def _defining_poly(p: int, k: int) -> tuple[int, ...]:
    """The first monic irreducible over GF(p) in the lexicographic order of
    (c_0, ..., c_{k-1}); the c_0 = 0 block is divisible by t, so skip it.

    c = c_{k-1} runs fastest, so each block of p candidates is t**k +
    c*t**(k-1) + g(t) with g fixed, and a in GF(p)* is a root exactly when
    c = -a - g(a) * a**(1-k).  For p <= _TABLE_MAX those c are found once
    per block, by evaluating g at all p - 1 values of a together, one term
    c_j * a**j per nonzero c_j of g (the first candidates are sparse), and
    skipped: with k >= 2 each is reducible.  Above that bound the sieve is
    empty.  Only the rest reach is_irreducible.
    """
    if k == 1:
        return (0, 1)  # the polynomial t: GF(p) is GF(p)[t]/(t)
    prime = make_field(p, 1)
    roots = range(1, p) if p <= _TABLE_MAX else range(0)
    powers = [[pow(a, j, p) for a in roots] for j in range(k - 1)]
    scales = [pow(a, 1 - k, p) for a in roots]
    weights = [p**j for j in range(k - 2, -1, -1)]
    for i in range(p ** (k - 2), p ** (k - 1)):  # c_0 is the leading base-p digit of i
        low = [i // w % p for w in weights]
        values = [0] * len(roots)  # g(a) for each a in roots
        for c, column in zip(low, powers):
            if c:
                values = [v + c * aj for v, aj in zip(values, column)]
        rooted = {(-a - v * s) % p for a, v, s in zip(roots, values, scales)}
        for c in range(p):
            if c not in rooted and is_irreducible(Poly(prime, low + [c, 1])):
                return tuple(low + [c, 1])
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
    omega = g ** ((p**k - 1) / q_ord) with omega ** (q_ord / r) != 1 for
    every prime r dividing q_ord.  That test runs packed, on a product tree
    over the primes: poly.survives splits them in halves and stops at a node
    that is already 1.
    """
    n = field.order - 1
    if q_ord < 1 or n % q_ord != 0:
        raise OrderDoesNotDivide(f"{q_ord} does not divide {field!r} group order {n}")
    ring, cofactor = field.packed, n // q_ord
    primes = [r for r, _ in q_factors]
    radical_cofactor = q_ord // math.prod(primes)
    start = field.p if field.k > 1 else 2
    for g in range(start, field.order):
        w = power(ring.pack(g), cofactor, ring.mul)
        if w == 1 and q_ord > 1:
            continue
        if survives(power(w, radical_cofactor, ring.mul), primes, ring.mul):
            return ring.unpack(w)
    raise OrderDoesNotDivide(f"no element of order {q_ord} found")  # unreachable


class Embedding:
    """Subfield embedding GF(p**k) -> GF(p**K) with k | K.

    The generator image g is the smallest root (in element code order) of
    the small field's defining polynomial inside the big field, found by a
    packed walk over GF(p**k)* inside the big field.  lift is
    Horner's rule in g; project reduces digits against the k rows [digits
    of g**i | e_i] of a RowSpace over GF(p), so it is a membership test.
    """

    __slots__ = ("small", "big", "image_of_generator", "_rows")

    def __init__(self, small: Field, big: Field):
        from .matrix import RowSpace  # matrix imports ff at module level

        self.small, self.big = small, big
        self.image_of_generator = g = self._find_image()
        self._rows, x = RowSpace(make_field(small.p, 1), big.k + small.k), 1
        for i in range(small.k):
            if not self._rows.add(big.coeffs(x) + tuple(int(i == j) for j in range(small.k))):
                raise RuntimeError("embedding is not injective")  # unreachable
            x = big.mul(x, g)

    def _find_image(self) -> int:
        small, big = self.small, self.big
        if small.k == 1:
            return 0  # root of the degree-1 convention polynomial t
        ring, p, sub_ord = big.packed, small.p, small.order - 1
        mul, sub = ring.mul, ring.sub
        w = ring.pack(element_of_order(big, sub_ord, factor(sub_ord)))
        negated = [-a % p for a in reversed(small.modulus[:-1])]  # GF(p) codes pack to themselves
        c = 1
        for _ in range(sub_ord):  # c runs over GF(small)* inside big
            acc = 1  # Horner from the monic top: acc*c + a = acc*c - (-a)
            for a in negated:
                acc = sub(mul(acc, c), a)
            if acc == 0:  # the other roots are the conjugates of c
                conj = [c]
                for _ in range(small.k - 1):
                    conj.append(power(conj[-1], p, mul))
                return min(map(ring.unpack, conj))
            c = mul(c, w)
        raise RuntimeError("defining polynomial has no root in big field")

    def lift(self, a: int) -> int:
        """Image in the big field of a small-field element."""
        return Poly(self.big, self.small.coeffs(a)).evaluate(self.image_of_generator)

    def project(self, b: int) -> int:
        """a with lift(a) = b, read as b's digits reduce to [0 | -a's digits];
        NotInSubfield if b is outside the image."""
        v = self._rows.reduce(self.big.coeffs(b) + (0,) * self.small.k)
        if any(v[:self.big.k]) or not 0 <= b < self.big.order:
            raise NotInSubfield(
                f"element {b} of {self.big!r} is not in the embedded {self.small!r}"
            )
        return self.small.encode(-c for c in v[self.big.k:])


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
