"""Dense univariate polynomials over a Field, little-endian coefficients.

A Poly is immutable: coeffs is a tuple with no trailing zeros, so the zero
polynomial has coeffs == () and degree -1.  Only the operations the rest
of the package needs live here (ring arithmetic, gcd, modular powers,
Ben-Or's irreducibility test, minimal polynomials over a subfield, and the
signed coefficient reading used by the generator constructions); full
factorization deliberately does not.

This is the package's only polynomial code: ff.py finds each field's
defining polynomial with is_irreducible over the prime field, so the
Field and Embedding types are needed here for annotations only.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .ff import Embedding, Field


class NotMonic(ValueError):
    """Raised by operations that require a monic polynomial."""


class DegenerateConjugates(ValueError):
    """Raised when requested Frobenius conjugates are not pairwise distinct."""


class WrongShape(ValueError):
    """Raised when a polynomial does not have a required shape."""


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
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = f.add(out[i], c)
        return Poly(f, out)

    def __sub__(self, other: "Poly") -> "Poly":
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(f, (f.sub(self[i], other[i]) for i in range(n)))

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, (f.neg(c) for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly(f)
        out = [0] * (len(a) + len(b) - 1)
        add, mul = f.add, f.mul
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = add(out[i + j], mul(ai, bj))
        return Poly(f, out)

    def scale(self, c: int) -> "Poly":
        f = self.field
        return Poly(f, (f.mul(c, a) for a in self.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        f = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        d = other.degree
        inv_lead = f.inv(other.coeffs[-1])
        q = [0] * max(len(r) - d, 0)
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i]
            if c:
                factor = f.mul(c, inv_lead)
                q[i - d] = factor
                for j in range(d + 1):
                    r[i - d + j] = f.sub(r[i - d + j], f.mul(factor, other.coeffs[j]))
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
        f = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, a), c)
        return acc

    def pow_mod(self, e: int, mod: "Poly") -> "Poly":
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly.constant(self.field, 1) % mod
        base = self % mod
        while e:
            if e & 1:
                result = result * base % mod
            e >>= 1
            if e:
                base = base * base % mod
        return result

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        if a.is_zero:
            return a
        return a.monic()


def is_irreducible(f: Poly) -> bool:
    """Ben-Or's irreducibility test over the coefficient field.

    f of degree d over GF(Q) is irreducible iff gcd(t**(Q**i) - t, f) == 1
    for every 1 <= i <= d/2: a reducible f has an irreducible factor of
    some degree i <= d/2, and that factor divides t**(Q**i) - t.  Since
    most candidates of a search have a small factor, the loop usually
    stops after a few rounds.
    """
    if not f.is_monic:
        raise NotMonic(f"irreducibility requires a monic polynomial, got {f!r}")
    d = f.degree
    if d < 1:
        raise WrongShape("constant polynomials are neither")
    order = f.field.order
    x = Poly.x(f.field)
    u = x % f
    for _ in range(d // 2):
        u = u.pow_mod(order, f)
        if f.gcd(u - x).degree != 0:
            return False
    return True


def minimal_polynomial(w: int, e: Embedding) -> Poly:
    """Minimal polynomial over the small field of a big-field element w.

    Requires w to generate the full extension: the d = big.k / small.k
    Frobenius conjugates w ** (q**i) must be pairwise distinct, else
    DegenerateConjugates.  The product of (t - conjugate) is expanded in
    the big field and every coefficient is projected into the small field;
    the projection doubling as a membership check is the correctness
    proof that the result has small-field coefficients.
    """
    big, small = e.big, e.small
    q = small.order
    d = big.k // small.k
    conj = [w]
    for _ in range(d - 1):
        conj.append(big.pow(conj[-1], q))
    if len(set(conj)) != d:
        raise DegenerateConjugates(
            f"element {w} lies in a proper intermediate subfield"
        )
    prod = Poly.constant(big, 1)
    for c in conj:
        prod = prod * Poly.x_minus(big, c)
    return Poly(small, (e.project(c) for c in prod.coeffs))


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
