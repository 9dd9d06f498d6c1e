"""Builders for the (2,3) generator pairs of SL_n(q), n in {9, 10, 11}.

Three constructions:

* a generic one for n = 9, 10 whose matrix entries are the alternating-sign
  coefficients of the minimal polynomial of an order-Q element of
  GF(q^(n-1)), valid for n = 9 with q not in {2, 4} and n = 10 with q > 4;
* five hard-coded pairs covering SL_9(2), SL_9(4), SL_10(2), SL_10(3) and
  SL_10(4), each with a word in the generators whose order, together with
  ord(x*y), rules out every maximal subgroup;
* an n = 11 construction for every prime power q, where the last column of
  y is solved from the degree-11 minimal polynomial of an order-Q element
  of GF(q^11) so that the product x*y has exactly that characteristic
  polynomial.

All matrix shapes live here as token grids instantiated at build time, so
each transcription is audited in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .arith import factor, order_from_bound, prime_power_decompose
from .ff import Field, element_of_order, embed, make_field
from .matrix import Mat
from .poly import Poly, minimal_polynomial, read_degree11, signed_coeffs

MAX_Q_BITS = 2048  # bounds q and each stated prime: is_prime takes about 2 s at 2048 bits
MAX_Q_DEGREE = 64  # the largest m in q = p**m: make_field(2, 2000) alone takes over a minute


class UnsupportedN(ValueError):
    """Raised for dimensions this package does not construct."""


class OutOfRange(ValueError):
    """Raised for a q the generic construction excludes, or past MAX_Q_BITS
    or MAX_Q_DEGREE."""


class NotSpecialCase(ValueError):
    """Raised when no hard-coded pair exists for (n, q)."""


@dataclass(frozen=True)
class Witness:
    """A word in the generators together with its claimed exact order."""

    letters: tuple[str, ...]
    claimed_order: int


@dataclass(frozen=True)
class GenPair:
    """A constructed generator pair and the data its order proof needs."""

    n: int
    q: int
    field: Field
    x: Mat
    y: Mat
    tag: str
    Q: int
    Q_factors: tuple[tuple[int, int], ...]
    alphas: Optional[tuple[int, ...]] = None
    f: Optional[Poly] = None
    deltas: Optional[tuple[int, ...]] = None
    l: Optional[Poly] = None
    words: tuple[Witness, ...] = ()
    coprime_claim: Optional[tuple[int, int]] = None

    @cached_property
    def z(self) -> Mat:
        """The product x*y, built to have order Q; computed on first use."""
        return self.x * self.y


def target_order(n: int, q: int) -> int:
    """The order the product x*y is built to have in SL_n(q)."""
    if n not in (9, 10, 11):
        raise UnsupportedN(f"no construction for dimension {n}")
    prime_power_decompose(q)
    if n == 11:
        return (q**11 - 1) // (q - 1)
    Q = q ** (n - 1) - 1
    if q in (3, 7):
        Q //= 2
    return Q


def _parse_grid(field: Field, text: str, symbols: dict[str, int]) -> Mat:
    rows = []
    for line in text.strip().splitlines():
        row = []
        for tok in line.split():
            if tok == ".":
                row.append(0)
            elif tok == "1":
                row.append(1)
            elif tok == "-1":
                row.append(field.neg(1))
            else:
                row.append(symbols[tok])
        rows.append(row)
    return Mat(field, rows)


def _combine(field: Field, const: int, terms: Sequence[tuple[int, int]]) -> int:
    """const + sum of coef*value in the field, with integer coef/const."""
    acc = field.scalar(const)
    for coef, val in terms:
        acc = field.add(acc, field.mul(field.scalar(coef), val))
    return acc


# ---------------------------------------------------------------------------
# Generic construction, n = 9 and 10.  Tokens: aK is the K-th alternating
# coefficient of f, r is the inverse of the last one.

_X9 = """
-1  .  .  .  .  . a5r  . a5
 . -1  .  .  .  . a4r  . a4
 .  .  . -1  .  . a3r  . a6
 .  . -1  .  .  . a6r  . a3
 .  .  .  . -1  . a2r  . a2
 .  .  .  .  .  . a1r -1 a7
 .  .  .  .  .  .  .   . a8
 .  .  .  .  . -1 a7r  . a1
 .  .  .  .  .  .  r   .  .
"""

_Y9 = """
 .  .  1  .  .  .  .  .  .
 1  .  .  .  .  .  .  .  .
 .  1  .  .  .  .  .  .  .
 .  .  .  .  .  1  .  .  .
 .  .  .  1  .  .  .  .  .
 .  .  .  .  1  .  .  .  .
 .  .  .  .  .  .  .  .  1
 .  .  .  .  .  .  1  .  .
 .  .  .  .  .  .  .  1  .
"""

_X10 = """
 .  .  . -1  .  .  . a2r  . a3
 .  .  .  .  . -1  . a4r  . a7
 .  . -1  .  .  .  . a5r  . a5
-1  .  .  .  .  .  . a3r  . a2
 .  .  .  .  .  .  . a1r -1 a8
 . -1  .  .  .  .  . a7r  . a4
 .  .  .  .  .  . -1 a6r  . a6
 .  .  .  .  .  .  .  .   . a9
 .  .  .  . -1  .  . a8r  . a1
 .  .  .  .  .  .  .  r   .  .
"""

_Y10 = """
 1  .  .  .  .  .  .  .  .  .
 .  .  1  .  .  .  .  .  .  .
 .  .  .  .  .  .  1  .  .  .
 .  .  .  .  .  1  .  .  .  .
 .  .  .  1  .  .  .  .  .  .
 .  .  .  .  1  .  .  .  .  .
 .  1  .  .  .  .  .  .  .  .
 .  .  .  .  .  .  .  .  .  1
 .  .  .  .  .  .  .  1  .  .
 .  .  .  .  .  .  .  .  1  .
"""


def _min_poly_of_order(q: int, d: int, Q: int) -> tuple[Field, tuple, Poly]:
    """GF(q), the factors of Q, and the minimal polynomial over GF(q) of the
    canonical element of order Q in GF(q**d)."""
    p, m = prime_power_decompose(q)
    small, big = make_field(p, m), make_field(p, m * d)
    emb = embed(small, big)
    Qf = tuple(factor(Q))
    return small, Qf, minimal_polynomial(element_of_order(big, Q, list(Qf)), emb)


@lru_cache(maxsize=None)
def build_generic(n: int, q: int, unchecked: bool = False) -> GenPair:
    """The parametrized pair for n = 9 or 10.

    Excluded values (q in {2, 4} for n = 9; q < 5 for n = 10) raise
    OutOfRange: the construction still assembles there but the pair no
    longer generates the group.  Pass unchecked=True to build anyway,
    e.g. to inspect the invariant subspaces that appear.
    """
    if n not in (9, 10):
        raise UnsupportedN(f"generic construction covers n = 9 and 10, not {n}")
    excluded = coverage(n, q) != f"generic{n}"
    if excluded and not unchecked:
        if n == 9:
            raise OutOfRange("n = 9 needs q outside {2, 4}")
        raise OutOfRange("n = 10 needs q > 4")
    # Outside the supported range the halving convention loses its purpose
    # (the pair no longer generates either way), so the raw instantiation
    # takes the full multiplicative order; this is also the variant whose
    # invariant subspaces the line scanner is meant to expose.
    Q = q ** (n - 1) - 1 if excluded else target_order(n, q)
    small, Qf, f = _min_poly_of_order(q, n - 1, Q)
    alphas = tuple(signed_coeffs(f))
    last = alphas[-1]
    # a sanity anchor: last is the norm of an element of order Q
    order = order_from_bound(lambda e: small.pow(last, e) == 1, factor(q - 1))
    if order != (q - 1) * Q // (q ** (n - 1) - 1):
        raise ArithmeticError(f"trailing coefficient {last} has the wrong order")  # unreachable
    r = small.inv(last)
    symbols = {"r": r}
    for i, a in enumerate(alphas, start=1):
        symbols[f"a{i}"] = a
        symbols[f"a{i}r"] = small.mul(a, r)
    x = _parse_grid(small, _X9 if n == 9 else _X10, symbols)
    y = _parse_grid(small, _Y9 if n == 9 else _Y10, {})
    return GenPair(
        n=n, q=q, field=small, x=x, y=y,
        tag=f"generic{n}", Q=Q, Q_factors=Qf, alphas=alphas, f=f,
    )


# ---------------------------------------------------------------------------
# Hard-coded pairs.  Token h is the canonical generator of GF(4)*.

_SPECIAL: dict[tuple[int, int], dict] = {
    (9, 2): dict(
        x="""
 1 . . . . . . . .
 . . 1 . . . . . .
 . 1 . . . . . . .
 . . . . 1 . . . .
 . . . 1 . . . . .
 . . . . . 1 1 . 1
 . . . . . 1 . 1 1
 . . . . . . 1 1 1
 . . . . . 1 1 1 .
""",
        y="""
 . 1 . . . . . . .
 1 1 . . . . . . .
 . . . 1 . . . . .
 . . 1 1 . . . . .
 . . . . . 1 . . .
 . . . . 1 1 . . .
 . . . . . . . . 1
 . . . . . . 1 . .
 . . . . . . . 1 .
""",
        z_order=73,
        word=("x", "y", "x", "yy", "x", "yy"),
        word_order=3 * 127,
        coprime=(73, 127),
    ),
    (9, 4): dict(
        x="""
 . 1 . . . . . . .
 1 . . . . . . . .
 . . . 1 . . . . .
 . . 1 . . . . . .
 . . . . 1 . . . .
 . . . . . . 1 . .
 . . . . . 1 . . .
 . . . . . . . 1 h
 . . . . . . . . 1
""",
        y="""
 1 . . . . . . . .
 . . 1 . . . . . .
 . 1 1 . . . . . .
 . . . . . 1 . . .
 . . . 1 . . . . .
 . . . . 1 . . . .
 . . . . . . 1 1 1
 . . . . . . 1 1 .
 . . . . . . . 1 .
""",
        z_order=3 * 5 * 43 * 127,
        word=(
            "x", "yy", "x", "yy",
            "x", "y", "x", "y", "x", "y",
            "x", "yy",
            "x", "y", "x", "y",
            "x", "yy",
            "x", "y", "x", "y",
            "x", "yy",
            "x", "y",
        ),
        word_order=3 * 7 * 19 * 73,
        coprime=(43, 73),
    ),
    (10, 2): dict(
        x="""
 . 1 . . . . . . . .
 1 . . . . . . . . .
 . . . 1 . . . . . .
 . . 1 . . . . . . .
 . . . . . 1 . . . .
 . . . . 1 . . . . .
 . . . . . . 1 1 . 1
 . . . . . . 1 . 1 1
 . . . . . . . 1 1 1
 . . . . . . 1 1 1 .
""",
        y="""
 1 . . . . . . . . .
 . . 1 . . . . . . .
 . 1 1 . . . . . . .
 . . . . 1 . . . . .
 . . . 1 1 . . . . .
 . . . . . . 1 . . .
 . . . . . 1 1 . . .
 . . . . . . . . . 1
 . . . . . . . 1 . .
 . . . . . . . . 1 .
""",
        z_order=3 * 11 * 31,
        word=("x", "y", "x", "yy", "x", "yy"),
        word_order=73,
        coprime=(11, 73),
    ),
    (10, 3): dict(
        x="""
 . 1 . . . . . . .  .
 1 . . . . . . . .  .
 . . 1 . . . . . .  .
 . . . . 1 . . . .  .
 . . . 1 . . . . .  .
 . . . . . 1 . . .  .
 . . . . . . . 1 .  .
 . . . . . . 1 . .  .
 . . . . . . . . -1 1
 . . . . . . . . .  1
""",
        y="""
 1 . . . . . . . .  .
 . . . 1 . . . . .  .
 . 1 . . . . . . .  .
 . . 1 . . . . . .  .
 . . . . . . 1 . .  .
 . . . . 1 . . . .  .
 . . . . . 1 . . .  .
 . . . . . . . . 1  1
 . . . . . . . 1 . -1
 . . . . . . . . 1  .
""",
        z_order=11 * 11 * 61,
        word=(
            "x", "y", "x", "y",
            "x", "yy",
            "x", "y", "x", "y",
            "x", "yy",
            "x", "y",
            "x", "yy",
            "x", "y",
        ),
        word_order=2 * 13 * 757,
        coprime=(61, 757),
    ),
    (10, 4): dict(
        x="""
 1 . . . . . . . . .
 . . 1 . . . . . . .
 . 1 . . . . . . . .
 . . . . 1 . . . . .
 . . . 1 . . . . . .
 . . . . . 1 . . . .
 . . . . . . . 1 . .
 . . . . . . 1 . . .
 . . . . . . . . 1 h
 . . . . . . . . . 1
""",
        y="""
 . 1 . . . . . . . .
 1 1 . . . . . . . .
 . . . 1 . . . . . .
 . . 1 1 . . . . . .
 . . . . . . 1 . . .
 . . . . 1 . . . . .
 . . . . . 1 . . . .
 . . . . . . . 1 1 1
 . . . . . . . 1 1 .
 . . . . . . . . 1 .
""",
        z_order=3 * 19 * 73,
        word=(
            "x", "yy", "x", "yy", "x", "yy",
            "x", "y",
            "x", "yy", "x", "yy", "x", "yy",
            "x", "yy", "x", "yy", "x", "yy",
        ),
        word_order=5 * 11 * 31 * 41,
        coprime=(41, 73),
    ),
}


@lru_cache(maxsize=None)
def build_special(n: int, q: int) -> GenPair:
    """One of the five hard-coded pairs, with its order witnesses."""
    data = _SPECIAL.get((n, q))
    if data is None:
        raise NotSpecialCase(f"no hard-coded pair for (n, q) = ({n}, {q})")
    p, m = prime_power_decompose(q)
    field = make_field(p, m)
    symbols = {}
    if q == 4:
        symbols["h"] = element_of_order(field, 3, factor(3))
    x = _parse_grid(field, data["x"], symbols)
    y = _parse_grid(field, data["y"], symbols)
    Q = data["z_order"]
    return GenPair(
        n=n, q=q, field=field, x=x, y=y,
        tag="special", Q=Q, Q_factors=tuple(factor(Q)),
        words=(
            Witness(("x", "y"), Q),
            Witness(data["word"], data["word_order"]),
        ),
        coprime_claim=data["coprime"],
    )


# ---------------------------------------------------------------------------
# n = 11.

_X11 = """
 . . . . .  . . . . . 1
 . . . . .  . . . . 1 .
 . . . . .  . . . 1 . .
 . . . . .  . . 1 . . .
 . . . . .  . 1 . . . .
 . . . . . -1 . . . . .
 . . . . 1  . . . . . .
 . . . 1 .  . . . . . .
 . . 1 . .  . . . . . .
 . 1 . . .  . . . . . .
 1 . . . .  . . . . . .
"""

_Y11 = """
-1 -1 .  .  .  .  .  .  .  . d1
 1  . .  .  .  .  .  .  .  . d2
 .  . -1 -1 .  .  .  .  .  . d3
 .  . 1  .  .  .  .  .  .  . d4
 .  . .  .  -1 -1 .  .  .  . d5
 .  . .  .  1  .  .  .  .  . d6
 .  . .  .  .  .  -1 -1 .  . d7
 .  . .  .  .  .  1  .  .  . d8
 .  . .  .  .  .  .  .  -1 -1 d9
 .  . .  .  .  .  .  .  1  . d10
 .  . .  .  .  .  .  .  .  . 1
"""


def deltas_from_min_poly(field: Field, ten: Sequence[int]) -> tuple[int, ...]:
    """Solve the last column of y from the ten alternating coefficients
    (a, b, c, d, e, f, g, h, k, m) of the target degree-11 polynomial, so
    that the product x*y has exactly that characteristic polynomial."""
    a, b, c, dd, ee, ff, g, h, k, m = ten
    return (
        a,
        _combine(field, 1, [(-1, m)]),
        _combine(field, -1, [(-2, a), (-1, c)]),
        _combine(field, -2, [(1, a), (2, m), (-1, k), (1, h)]),
        _combine(field, 3, [(1, a), (-1, m), (1, c), (1, b), (1, ee)]),
        _combine(field, 1, [(-1, a), (-1, c), (1, g), (-1, m), (1, k), (-1, h), (-1, ff)]),
        _combine(field, 3, [(-1, m), (1, k), (-1, h), (1, g), (1, a), (1, b), (1, dd)]),
        _combine(field, 1, [(-1, a), (1, k), (-1, m), (-1, b), (-1, dd)]),
        _combine(field, -4, [(1, m), (-1, b), (-1, k)]),
        _combine(field, 1, [(1, b)]),
    )


def charpoly_from_deltas(field: Field, deltas: Sequence[int]) -> Poly:
    """Closed-form characteristic polynomial of the n = 11 product x*y as
    a function of the ten parameters in the last column of y."""
    d1, d2, d3, d4, d5, d6, d7, d8, d9, d10 = deltas
    coeffs = [
        field.neg(1),
        _combine(field, 1, [(-1, d2)]),
        _combine(field, 2, [(1, d2), (1, d9), (1, d10)]),
        _combine(field, -2, [(-1, d1), (1, d2), (1, d4), (-1, d9), (-1, d10)]),
        _combine(field, 0, [(1, d1), (-1, d2), (-1, d4), (-1, d7), (-1, d8), (-1, d9), (-1, d10)]),
        _combine(field, 1, [(1, d1), (1, d3), (-1, d6), (1, d7), (1, d8), (1, d9), (1, d10)]),
        _combine(field, 0, [(-1, d1), (1, d2), (-1, d3), (-1, d5), (1, d10)]),
        _combine(field, -1, [(-1, d1), (-1, d8), (-1, d9), (-2, d10)]),
        _combine(field, 1, [(2, d1), (1, d3)]),
        _combine(field, -1, [(1, d10)]),
        field.neg(d1),
        1,
    ]
    return Poly(field, coeffs)


@lru_cache(maxsize=None)
def build_sl11(q: int) -> GenPair:
    """The n = 11 pair over GF(q), for any prime power q."""
    Q = target_order(11, q)
    small, Qf, l = _min_poly_of_order(q, 11, Q)
    ten = read_degree11(l)
    deltas = deltas_from_min_poly(small, ten)
    symbols = {f"d{i}": d for i, d in enumerate(deltas, start=1)}
    x = _parse_grid(small, _X11, {})
    y = _parse_grid(small, _Y11, symbols)
    return GenPair(
        n=11, q=q, field=small, x=x, y=y,
        tag="sl11", Q=Q, Q_factors=Qf,
        deltas=deltas, l=l,
    )


def coverage(n: int, q: int) -> str:
    """Tag of the construction that covers (n, q) for a prime power q.

    "sl11" for n = 11, "special" for the five hard-coded pairs, else
    "generic9" or "generic10".  The generic construction's excluded q
    (q in {2, 4} for n = 9, q <= 4 for n = 10) are exactly the hard-coded
    ones.
    """
    if n == 11:
        return "sl11"
    if n not in (9, 10):
        raise UnsupportedN(f"no construction for dimension {n}")
    return "special" if (n, q) in _SPECIAL else f"generic{n}"


@lru_cache(maxsize=None)
def build(n: int, q: int) -> GenPair:
    """Dispatch to the construction that covers (n, q)."""
    if q.bit_length() > MAX_Q_BITS:
        raise OutOfRange(f"q has {q.bit_length()} bits, more than {MAX_Q_BITS}")
    tag = coverage(n, q)
    if (m := prime_power_decompose(q)[1]) > MAX_Q_DEGREE:
        raise OutOfRange(f"q = p**{m}, a degree above {MAX_Q_DEGREE}")
    if tag == "sl11":
        return build_sl11(q)
    if tag == "special":
        return build_special(n, q)
    return build_generic(n, q)
