"""Exact dense matrices over a Field and the linear algebra the package
needs.  One row reduction, RowSpace, feeds kernels, determinants and one
Krylov spin, from which minimal polynomials (the lcm over the unit
vectors, Neunhoeffer & Praeger 2008) and characteristic polynomials
(Keller-Gehrig 1985) are read.  Orders in GL_n are orders of t in
poly.Ring over GF(p) modulo the lcm of m_A's Frobenius conjugates
(Celler & Leedham-Green 1997); a stated multiple of the order is proved
exact on poly.survives' product tree.

Matrices are immutable: rows is a tuple of row tuples of element codes.
"""

from __future__ import annotations

from math import prod
from typing import Iterable, Sequence

from .arith import factor, order_from_bound
from .ff import Field, make_field
from .poly import Poly, Ring, WrongShape, factor_degree_components, power, survives


class Singular(ValueError):
    """Raised when an invertibility-requiring operation meets a singular matrix."""


class Mat:
    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, rows: Iterable[Iterable[int]]):
        rs = tuple(tuple(r) for r in rows)
        n = len(rs)
        if n == 0 or any(len(r) != n for r in rs):
            raise WrongShape("need a nonempty square matrix")
        self.field = field
        self.n = n
        self.rows = rs

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        return cls(field, ((1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, field: Field, n: int) -> "Mat":
        return cls(field, ((0,) * n,) * n)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and self.field == other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        body = "\n".join(" ".join(str(c) for c in row) for row in self.rows)
        return f"Mat over {self.field!r}:\n{body}"

    @property
    def is_identity(self) -> bool:
        return self.rows == Mat.identity(self.field, self.n).rows

    def __mul__(self, other: "Mat") -> "Mat":
        if self.n != other.n or self.field != other.field:
            raise WrongShape("matrix product shape/field mismatch")
        dot = self.field.dot
        cols = tuple(zip(*other.rows))
        return Mat(self.field, ((dot(row, col) for col in cols) for row in self.rows))

    def __add__(self, other: "Mat") -> "Mat":
        if self.n != other.n or self.field != other.field:
            raise WrongShape("matrix sum shape/field mismatch")
        add = self.field.add
        return Mat(
            self.field,
            (map(add, ra, rb) for ra, rb in zip(self.rows, other.rows)),
        )

    def scale(self, c: int) -> "Mat":
        mul = self.field.mul
        return Mat(self.field, ((mul(c, a) for a in row) for row in self.rows))

    def __pow__(self, e: int) -> "Mat":
        return power(self, e, Mat.__mul__, Mat.identity(self.field, self.n))

    @property
    def T(self) -> "Mat":
        return Mat(self.field, zip(*self.rows))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix times column vector."""
        if len(vec) != self.n:
            raise WrongShape("vector length mismatch")
        dot = self.field.dot
        return tuple(dot(row, vec) for row in self.rows)

    def det(self) -> int:
        """0 at the first row that does not enlarge a RowSpace, else the
        product of the pivot entries add returns, negated if the pivot list
        has an odd number of inversions: reduced by earlier rows and sorted by
        pivot, the rows are triangular with the same determinant."""
        f, space, d = self.field, RowSpace(self.field, self.n), 1
        for row in self.rows:
            c = space.add(row)
            if not c:
                return 0
            d = f.mul(d, c)
        pv = space.pivots
        odd = sum(a > b for i, a in enumerate(pv) for b in pv[i + 1:]) % 2
        return f.neg(d) if odd else d

    def _spin(self, v: tuple[int, ...], space: "RowSpace") -> Poly:
        """The monic g of least degree with g(A) v in W, for the A-invariant
        W that space spans in rows [w | 0] of length 2n + 1: A**k v goes in
        as [A**k v | t**k] until a row reduces to [0 | g].  space is left
        spanning W + <v, A v, ...> in the same form."""
        n, zero = self.n, (0,) * (self.n + 1)
        for tag in Mat.identity(self.field, n + 1).rows:
            space.add(v + tag)
            if space.pivots[-1] >= n:
                break
            v = self.apply(v)
        space.pivots.pop()
        g = Poly(self.field, space.echelon.pop()[n:]).monic()
        space.echelon = [row[:n] + zero for row in space.echelon]
        return g

    def charpoly(self) -> Poly:
        """det(t*I - A) as the product of the g that _spin finds while W
        grows from 0 to F^n (Keller-Gehrig 1985), each the characteristic
        polynomial of A on one cyclic subquotient.  Each spin starts from
        the first e_j whose j is not a pivot of W: reduction leaves such an
        e_j unchanged, so it is not in W."""
        f, n = self.field, self.n
        cp, space = Poly.constant(f, 1), RowSpace(f, 2 * n + 1)
        units = Mat.identity(f, n).rows
        while space.dim < n:
            j = next(j for j in range(n) if j not in space.pivots)
            cp = cp * self._spin(units[j], space)
        return cp

    def minpoly(self) -> Poly:
        """lcm of the local minimal polynomials of e_0, e_1, ..., stopping at
        degree n (Neunhoeffer & Praeger 2008): each divides m_A and those of
        all e_i give m_A, so it is exact.  Each is _spin's g with W = 0."""
        f, n = self.field, self.n
        m = Poly.constant(f, 1)
        for v in Mat.identity(f, n).rows:
            g = self._spin(v, RowSpace(f, 2 * n + 1))
            m = m * (g // m.gcd(g))
            if m.degree == n:
                break
        return m

    def order(self, bound=None, minpoly=None) -> int:
        """Exact multiplicative order, or Singular: that of t mod m_p, the lcm
        over GF(q) of m_A's Frobenius conjugates.  m_A is minpoly if the caller
        holds it (a squarefree charpoly is m_A), else self.minpoly().  m_p lies
        over GF(p), as does t**e - 1, which m_A divides iff m_p does.  The
        search starts from a multiple N of the order: bound = [(r, e), ...]
        with distinct primes r gives N = prod(r**e) (NotAnnihilated if the
        order does not divide it), else N = p**ceil(log_p n) * lcm(p**d - 1), d
        over the degrees of m_p's factors.  With a bound, t**N = 1 and
        poly.survives over N's primes prove that the order is N; only if some
        t**(N/r) is 1 does order_from_bound bisect."""
        f = self.field
        m = self.minpoly() if minpoly is None else minpoly
        if m[0] == 0:
            raise Singular("zero determinant, no multiplicative order")
        mp = conj = m
        for _ in range(f.k - 1):
            conj = Poly(f, map(f.frobenius, conj.coeffs))
            if conj == m:  # m lies over a subfield
                break
            mp = mp * (conj // mp.gcd(conj))
        if any(c >= f.p for c in mp.coeffs):
            raise ArithmeticError(f"conjugate lcm of {m!r} is not over GF({f.p})")
        mp = Poly(make_field(f.p, 1), mp.coeffs)
        ring = Ring(f.p, mp.coeffs)  # t**e stays packed: 1 is the int 1
        t = ring.pack_poly(Poly.x(mp.field) % mp)
        if bound is None:
            powers = {f.p: next(e for e in range(1, self.n + 1) if f.p**e >= self.n)}
            for d, _ in factor_degree_components(mp):
                for r, e in factor(f.p**d - 1):
                    powers[r] = max(powers.get(r, 0), e)
            bound = powers.items()
        else:
            N, primes = prod(r**e for r, e in bound), [r for r, e in bound if e >= 1]
            x = ring.pow(t, N // prod(primes))
            if ring.pow(x, prod(primes)) == 1 and survives(x, primes, ring.mul):
                return N
        return order_from_bound(lambda e: ring.pow(t, e) == 1, bound)


class RowSpace:
    """Incremental echelonized row space over a field.

    add() reduces a vector against the current basis and absorbs any
    nonzero residue; contains() is a membership test.  Pivots are the
    first nonzero positions after reduction.
    """

    def __init__(self, field: Field, n: int):
        self.field = field
        self.n = n
        self.pivots: list[int] = []
        self.echelon: list[tuple[int, ...]] = []

    @property
    def dim(self) -> int:
        return len(self.echelon)

    def reduce(self, vec: Sequence[int]) -> list[int]:
        """vec minus the combination of basis rows that clears its pivots."""
        f = self.field
        v = list(vec)
        for row, piv in zip(self.echelon, self.pivots):
            c = v[piv]
            if c:
                v = f.axpy(f.neg(c), v, row)
        return v

    def add(self, vec: Sequence[int]) -> int:
        """The pivot entry of vec reduced by the basis, before it is scaled
        to 1: nonzero, so true, iff vec enlarged the space, else 0."""
        v = self.reduce(vec)
        c = next(filter(None, v), 0)  # the first nonzero entry, found in C
        if not c:
            return 0
        f = self.field  # v scaled to pivot 1 by the row kernel, as 0 + c**-1 * v
        self.echelon.append(tuple(f.axpy(f.inv(c), (0,) * len(v), v)))
        self.pivots.append(v.index(c))
        return c

    def contains(self, vec: Sequence[int]) -> bool:
        return all(c == 0 for c in self.reduce(vec))


def kernel(field: Field, rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """A basis of the right kernel {v : M v = 0} of an m x n matrix: each
    column col_j of M goes into a RowSpace as [col_j | e_j], and an echelon
    row whose pivot lies in the tag is [0 | c] with M c = 0.  There are
    n - rank M such rows, and their tags are independent."""
    if not rows:
        raise WrongShape("kernel of an empty matrix")
    n, m = len(rows[0]), len(rows)
    if any(len(r) != n for r in rows):
        raise WrongShape("ragged matrix")
    space = RowSpace(field, m + n)
    for j, col in enumerate(zip(*rows)):
        space.add(col + tuple(int(i == j) for i in range(n)))
    return [row[m:] for row, piv in zip(space.echelon, space.pivots) if piv >= m]


# ---------------------------------------------------------------------------
# Words in two generators x, y of orders 2 and 3.  A word is a sequence of
# letters "x", "y", "yy"; normalization forbids consecutive letters from
# the same generator (they would collapse).

WORD_LETTERS = ("x", "y", "yy")


def check_word(word: Sequence[str]) -> tuple[str, ...]:
    w = tuple(word)
    if not w:
        raise ValueError("empty generator word")
    for letter in w:
        if letter not in WORD_LETTERS:
            # anything but a str is named by its type: a deep list has no repr
            shown = repr(letter) if isinstance(letter, str) else f"of type {type(letter).__name__}"
            raise ValueError(f"unknown word letter {shown}")
    for a, b in zip(w, w[1:]):
        if (a == "x") == (b == "x"):
            raise ValueError(f"word is not normalized at {a!r} {b!r}")
    return w


def eval_word(word: Sequence[str], x: Mat, y: Mat) -> Mat:
    """Left-to-right product of the word letters evaluated at x, y."""
    w = check_word(word)
    yy = y * y
    lookup = {"x": x, "y": y, "yy": yy}
    acc = lookup[w[0]]
    for letter in w[1:]:
        acc = acc * lookup[letter]
    return acc
