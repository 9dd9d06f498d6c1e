"""Dense univariate polynomials over a Field, little-endian coefficients.

A Poly is immutable: coeffs is a tuple with no trailing zeros, so the zero
polynomial has coeffs == () and degree -1.  Only the operations the rest
of the package needs live here (ring arithmetic, gcd, the derivative and
the squarefree test, residue rings, the distinct irreducible factors,
Ben-Or's irreducibility test, minimal polynomials over a subfield, the
product-tree order test survives, and the signed coefficient reading
used by the generator constructions); factor multiplicities deliberately
do not.

The distinct-degree split is the one Frobenius loop u -> u**Q: Ben-Or's
test is its first part, and the Cantor-Zassenhaus equal-degree split
behind irreducible_factors refines its parts.  Both run in
residue_ring(f), one per modulus: over GF(p) the packed Ring, one Kronecker
substitution for every p, where a product or a gcd step is a few int
operations, else Poly.  Matrix orders power in Ring over GF(p) for every
field, and ff.Field's large extension fields are Rings.  This is the only
polynomial code, so the Field and Embedding types serve annotations only.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    from .ff import Embedding, Field


class NotMonic(ValueError):
    """Raised by operations that require a monic polynomial."""


class DegenerateConjugates(ValueError):
    """Raised when requested Frobenius conjugates are not pairwise distinct."""


class WrongShape(ValueError):
    """Raised when a polynomial or a matrix does not have a required shape."""


class Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors --------------------------------------------------

    @classmethod
    def x(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: Field, c: int) -> "Poly":
        return cls(field, (c,))

    @classmethod
    def x_minus(cls, field: Field, c: int) -> "Poly":
        return cls(field, (field.neg(c), 1))

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i <= self.degree else 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a, b = (cs + (0,) * (n - len(cs)) for cs in (self.coeffs, other.coeffs))
        return Poly(self.field, self.field.axpy(1, a, b))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __neg__(self) -> "Poly":
        return self.scale(self.field.neg(1))

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        out, m = [0] * (len(a) + len(b) - 1), len(b)
        for i, ai in enumerate(a):
            if ai:
                out[i:i + m] = f.axpy(ai, out[i:i + m], b)
        return Poly(f, out)

    def scale(self, c: int) -> "Poly":
        return Poly(self.field, [self.field.mul(c, a) for a in self.coeffs])

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        f = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        r, b, d = list(self.coeffs), other.coeffs, other.degree
        inv_lead = f.inv(b[-1])
        q = [0] * max(len(r) - d, 0)
        for i in range(len(r) - 1, d - 1, -1):
            if r[i]:
                q[i - d] = c = f.mul(r[i], inv_lead)
                r[i - d:i + 1] = f.axpy(f.neg(c), r[i - d:i + 1], b)
        return Poly(f, q), Poly(f, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            raise NotMonic("zero polynomial cannot be made monic")
        if self.is_monic:
            return self
        return self.scale(self.field.inv(self.coeffs[-1]))

    def evaluate(self, a: int) -> int:
        f, acc = self.field, 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, a), c)
        return acc

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if a else a

    def derivative(self) -> "Poly":
        """sum(i * c_i * t**(i-1)): i acts as the prime-field code i mod p,
        so a p-th power has derivative 0."""
        f = self.field
        return Poly(f, (f.mul(i % f.p, c) for i, c in enumerate(self.coeffs) if i))

    @property
    def is_squarefree(self) -> bool:
        """f != 0 and gcd(f, f') = 1: over a finite field, f has no repeated
        factor.  A nonconstant f with f' = 0 is a p-th power, and gcd(f, 0) = f."""
        return bool(self) and self.gcd(self.derivative()).degree == 0


def power(x, e: int, mul, one=1):
    """x**e for e >= 0 by square-and-multiply under the product mul: the
    one powering loop behind Field.pow, Ring.pow, residue powers and Mat.__pow__.
    one is returned for e = 0 only and never multiplied."""
    if e < 0:
        raise ValueError("negative exponent")
    result = None
    while e:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if result is None else result


def survives(x, primes: Sequence[int], mul) -> bool:
    """Whether w**(N/r) != 1 for every r in primes, a list of distinct
    primes r | N, given x = w**(N / prod(primes)): each half's x is
    x to the other half's product, and a node that is already 1 ends the
    walk (Sutherland, Order Computations in Generic Groups, 2007).  About
    log N * log2(#primes) products instead of log N per prime."""
    if not primes:
        return True
    if x == 1 or len(primes) == 1:
        return x != 1
    left, right = primes[:len(primes) // 2], primes[len(primes) // 2:]
    return (survives(power(x, math.prod(right), mul), left, mul)
            and survives(power(x, math.prod(left), mul), right, mul))


class Ring:
    """F_p[t]/(f) on packed ints, for any monic f of degree k >= 1 over GF(p).

    Residues have ff.Field's codes, sum(c_i * p**i) for sum(c_i * t**i);
    pack and unpack convert, mul, pow and sub stay packed, the packed 1 is
    the int 1, and gcd takes degree <= k.  c_i sits in bits [i*w, (i+1)*w)
    (Kronecker substitution, von zur Gathen & Gerhard, Modern Computer
    Algebra, 8.4).  For odd p no slot exceeds V = max(k, 2) * (p - 1)**2,
    k(p - 1)**2 in a product and p(p - 1) in a gcd step, and reduce takes
    all slots mod p at once (Granlund & Montgomery, PLDI 1994): for 2**s >
    V*p, m = 2**s // p + 1 and v <= V, v*m / 2**s - v/p <= V / 2**s < 1/p,
    so floor(v*m / 2**s) = floor(v/p), and w = bitlen(V*m) keeps each v*m
    in its slot.  For p = 2, w is 4 up to k = 14, 8 up to 254 and 16 past
    it, no slot exceeds k + 1 < 2**w, reduce keeps each slot's low bit,
    and gcd and the division giving mu run on the codes, which are GF(2)[t]
    bitmasks.  fold is Barrett division (ibid., 9.1): for mu = t**(2k-2) //
    f, x = hi*t**k + lo has quotient q = (hi*mu) // t**(k-2), so x mod f =
    lo + q*tk mod t**k for tk = t**k mod f.  Each is a few int operations
    for any k.
    """

    __slots__ = ("p", "w", "mask", "pack", "unpack", "fold", "mul", "sub", "gcd", "pad")

    def __init__(self, p: int, modulus: Sequence[int]):
        self.p, k = p, len(modulus) - 1
        if p == 2:  # no slot sum exceeds k + 1 < 2**w
            w = 4 if k <= 14 else 8 if k <= 254 else 16
        else:  # the slot bound V and Granlund-Montgomery's s and m
            big = max(k, 2) * (p - 1) ** 2
            s = (big * p).bit_length()
            m = (1 << s) // p + 1
            w = (big * m).bit_length()
        self.w, self.mask = w, (mask := (1 << w) - 1)
        top, low = k * w, (1 << k * w) - 1
        ones = ((1 << 2 * top) - 1) // mask  # a 1 in each of 2k slots
        self.pad = pad = p * (ones & low)
        f = sum(c << i * w for i, c in enumerate(modulus))
        if p == 2:  # a code's binary digits, one slot each
            text, step = "ascii" if w <= 8 else "utf-16-be", w // 4
            reduce, digit = ones.__and__, bytes.maketrans(b"01", b"\0\1")

            def pack(a):  # the digits read as hex, or as bytes or UTF-16 units
                if w == 4:
                    return int(format(a, "b"), 16)
                return int.from_bytes(format(a, "b").encode(text).translate(digit), "big")

            def unpack(x):  # each slot's low hex digit
                return int(format(x, "x")[::step], 2)

            def gcd(a, b):  # Euclid on the codes, which are GF(2)[t] bitmasks
                a, b = unpack(a), unpack(b)
                while b:
                    while (n := a.bit_length() - b.bit_length()) >= 0:
                        a ^= b << n
                    a, b = b, a
                return pack(a)

            # mu = t**(2k-2) // f by carry-less long division on the codes
            r, g, mu = 1 << 2 * k - 2, unpack(f), 0
            while (n := r.bit_length() - g.bit_length()) >= 0:
                r, mu = r ^ g << n, mu | 1 << n
            mu = pack(mu)
        else:
            qmask, shifts = ((1 << (w - s)) - 1) * ones, range(top - w, -1, -w)

            def reduce(x):  # every slot mod p
                return x - ((x * m >> s) & qmask) * p

            def pack(a):
                x = i = 0
                while a:
                    a, c = divmod(a, p)
                    x |= c << i
                    i += w
                return x

            def unpack(x):  # slots reduced mod p on the way
                a = 0
                for i in shifts:
                    a = a * p + ((x >> i) & mask) % p
                return a

            def gcd(a, b):  # the monic gcd
                a, b = (b, a) if not b else (a, b)
                while b:
                    j = (b.bit_length() - 1) // w * w
                    b = reduce(b * pow(b >> j, p - 2, p))
                    while a.bit_length() > j:  # clear a's top slot with monic b
                        i = (a.bit_length() - 1) // w * w
                        a = reduce(a + ((p - (a >> i)) * b << i - j))
                    a, b = b, a
                return a

            # mu = t**(2k-2) // f by long division; r's slots stay below k(p - 1)**2 + 1
            r, mu = 1 << 2 * (top - w), 0
            for i in range(top - 2 * w, -1, -w):
                c = (r >> top + i & mask) % p
                r, mu = r + (-c % p * f << i), mu | c << i
        tk, qs = reduce(pad - (f & low)), max(top - 2 * w, 0)

        def fold(x):  # a product of reduced residues -> a reduced residue
            x = reduce(x)
            q = reduce((x >> top) * mu) >> qs
            return reduce((x & low) + (q * tk & low))

        self.pack, self.unpack, self.fold, self.gcd = pack, unpack, fold, gcd
        self.mul, self.sub = lambda x, y: fold(x * y), lambda x, y: reduce(x + pad - y)

    def pow(self, x: int, e: int) -> int:
        return power(x, e, self.mul)

    def pack_poly(self, f: Poly) -> int:
        """The packed f, for an f over GF(p) of degree at most k."""
        return sum(c << i * self.w for i, c in enumerate(f.coeffs))

    def unpack_poly(self, x: int, field: Field) -> Poly:
        """The packed x, reduced as the kernels return it, as a Poly."""
        return Poly(field, ((x >> i) & self.mask for i in range(0, x.bit_length(), self.w)))


def residue_ring(f: Poly):
    """F[t]/(f) for a monic f: Ring over a prime field, else Poly residues."""
    if f.field.k == 1:
        return Ring(f.field.p, f.coeffs)
    one, same, mul = Poly.constant(f.field, 1) % f, lambda a, field=None: a, lambda x, y: x * y % f
    return SimpleNamespace(pack_poly=same, unpack_poly=same, sub=Poly.__sub__, gcd=Poly.gcd,
                           mul=mul, pow=lambda a, e: power(a, e, mul, one))


def factor_degree_components(f: Poly) -> Iterator[tuple[int, Poly]]:
    """Distinct-degree decomposition of a nonzero polynomial over GF(Q).

    Yields (d, g_d) lazily, ascending in d: g_d = gcd(g, t**(Q**d) - t) is
    the (squarefree) product of the distinct irreducible factors of degree
    d, once g has lost all lower-degree factors; g | f, so u = t**(Q**d)
    stays in one residue ring mod f.
    """
    field, g, d = f.field, f.monic(), 0
    ring = residue_ring(g)
    t, G, one = map(ring.pack_poly, (Poly.x(field) % g, g, Poly.constant(field, 1)))
    u = t
    while 2 * d + 2 <= g.degree:
        d += 1
        u = ring.pow(u, field.order)
        if (h := ring.gcd(G, ring.sub(u, t))) != one:
            yield d, (h := ring.unpack_poly(h, field))
            while (w := g.gcd(h)).degree > 0:
                g = g // w
            G = ring.pack_poly(g)
    if g.degree > 0:
        yield g.degree, g


def irreducible_factors(f: Poly, rng) -> Iterator[Poly]:
    """The distinct monic irreducible factors of a nonzero f over GF(Q),
    lazily, ascending in degree, drawing from the random.Random rng.

    Each component g_d of factor_degree_components is split by Cantor &
    Zassenhaus (1981), in one residue_ring(g) per split.  For a random u of
    degree < deg g, T(u) = u + u**2 + ... + u**(2**(kd - 1)) over GF(2**k)
    and u**((Q**d - 1) / 2) - 1 over odd Q is, modulo each degree-d factor
    of g, 0 for about half of all u, so gcd(g, T(u)) is often proper.
    """
    field = f.field
    for d, component in factor_degree_components(f):
        todo = [component]
        while todo:
            g = todo.pop()
            if g.degree == d:
                yield g
                continue
            ring = residue_ring(g)
            G, one = ring.pack_poly(g), ring.pack_poly(Poly.constant(field, 1))
            while True:  # a constant u never splits g, and is drawn again
                u = t = ring.pack_poly(
                    Poly(field, [rng.randrange(field.order) for _ in range(g.degree)]))
                if field.p == 2:
                    for _ in range(field.k * d - 1):
                        t = ring.mul(t, t)
                        u = ring.sub(u, t)  # the sum, in characteristic 2
                else:
                    u = ring.sub(ring.pow(u, (field.order**d - 1) // 2), one)
                c = ring.unpack_poly(ring.gcd(G, u), field)
                if 0 < c.degree < g.degree:
                    break
            todo += [g // c, c]


def is_irreducible(f: Poly) -> bool:
    """Ben-Or's irreducibility test over the coefficient field (Ben-Or 1981):
    f of degree n is irreducible iff factor_degree_components finds no
    factor of degree d <= n // 2.  Its round d takes gcd(g, t**(Q**d) - t)
    and the split stops at its first part, so a rejection exits at the least
    degree of a factor (round 1 for a root in GF(Q)), and an irreducible f
    pays n // 2 rounds before the split yields (n, f).
    """
    if not f.is_monic:
        raise NotMonic(f"irreducibility requires a monic polynomial, got {f!r}")
    if f.degree < 1:
        raise WrongShape("constant polynomials are neither")
    return next(factor_degree_components(f))[0] == f.degree


def minimal_polynomial(w: int, e: Embedding) -> Poly:
    """Minimal polynomial over the small field of a big-field element w.

    Requires w to generate the full extension: the d = big.k / small.k
    Frobenius conjugates w ** (q**i) must be pairwise distinct, else
    DegenerateConjugates.  The conjugates and the product of (t -
    conjugate) stay in the big field's packed view, where residues are
    canonical, and only the d + 1 coefficients are unpacked, each to be
    projected into the small field; the projection doubling as a
    membership check is the correctness proof that the result has
    small-field coefficients.
    """
    big, small = e.big, e.small
    ring, q, d = big.packed, small.order, big.k // small.k
    mul, sub = ring.mul, ring.sub
    conj = [ring.pack(w)]
    for _ in range(d - 1):
        conj.append(power(conj[-1], q, mul))
    if len(set(conj)) != d:
        raise DegenerateConjugates(
            f"element {w} lies in a proper intermediate subfield"
        )
    prod = [1]  # little-endian packed coefficients of prod(t - c) so far
    for c in conj:  # times (t - c): coefficient i becomes prod[i - 1] - c * prod[i]
        prod = ([sub(0, mul(c, prod[0]))]
                + [sub(a, mul(c, b)) for a, b in zip(prod, prod[1:])] + [1])
    return Poly(small, (e.project(ring.unpack(c)) for c in prod))


def signed_coeffs(f: Poly) -> list[int]:
    """Alternating-sign reading of a monic polynomial's coefficients.

    For monic f of degree d, returns [a_1, ..., a_d] such that
    f = t**d - a_1 t**(d-1) + a_2 t**(d-2) - ... + (-1)**d a_d.
    """
    if not f.is_monic:
        raise NotMonic(f"signed coefficients need a monic polynomial, got {f!r}")
    field = f.field
    d = f.degree
    out = []
    for i in range(1, d + 1):
        c = f[d - i]
        out.append(c if i % 2 == 0 else field.neg(c))
    return out


def from_signed_coeffs(field: Field, signed: Sequence[int]) -> Poly:
    """Inverse of signed_coeffs: build the monic polynomial t**d - a_1 t**(d-1) + ..."""
    d = len(signed)
    coeffs = [0] * d + [1]
    for i, a in enumerate(signed, start=1):
        coeffs[d - i] = a if i % 2 == 0 else field.neg(a)
    return Poly(field, coeffs)


def read_degree11(l: Poly) -> tuple[int, ...]:
    """Recover the ten signed coefficients (a, b, ..., m) of

        l = t^11 - a t^10 + b t^9 - ... + m t - 1;

    WrongShape if l is not monic of degree 11 with constant term -1."""
    if not l.is_monic or l.degree != 11:
        raise WrongShape(f"expected a monic degree-11 polynomial, got {l!r}")
    signed = signed_coeffs(l)
    if signed[10] != 1:
        raise WrongShape("constant term is not -1 in the alternating reading")
    return tuple(signed[:10])
