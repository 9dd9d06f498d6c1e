"""Certificates for the constructed generator pairs.

A certificate is a JSON-ready dict recording one constructed pair together
with every computed fact its generation argument rests on.  Its keys, in
order: version, n, q, p, m, construction (plus words and prime_pair for a
special pair), field, matrices, Q, Q_factors, orders, ppd (generic9 and
generic10: the least prime r | Q modulo which q has order n - 1), charpoly,
alphas (generic) or deltas (sl11), irreducibility, maxsub_scan (sl11),
assumptions, seed.  irreducibility rests on one argument for every tag:
for charpoly(z) = f_1 ... f_k with distinct monic irreducibles f_i, the
ker f_i(z) are simple, non-isomorphic F_q[z]-modules, so every
<x, y>-invariant subspace, being z-invariant, is a sum of them.  Every
tag reads the f_i off the distinct-degree parts of charpoly(z): at most
two, each irreducible, of degrees summing to n ("z decomposition").
For k = 2 (generic tags: t - a and f, by "charpoly identity"; special
pairs over GF(4)) meataxe.scan_components checks the two candidates.
The seed is recorded only.
One section list, _sections, feeds both sides:
certify() takes each section from it, and verify() rebuilds each one from
the serialized matrices and the facts a certificate states, then compares.
What cannot be recomputed (the completeness of the published subgroup
classifications) is spelled out as assumption strings.

Serialization conventions: every integer is a decimal string, field
elements use their canonical integer encoding, polynomials are
little-endian coefficient lists, matrices are row-major lists of rows.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import zip_longest
from math import gcd, lcm, prod
from typing import Optional

from .arith import NotAnnihilated, factor, is_prime, prime_power_decompose
from .construct import (
    MAX_Q_BITS,
    MAX_Q_DEGREE,
    GenPair,
    Witness,
    build,
    charpoly_from_deltas,
    coverage,
    deltas_from_min_poly,
    target_order,
)
from .ff import Field, InvalidPrime, make_field
from .matrix import Mat, check_word, eval_word
from .meataxe import scan_components
from .poly import Poly, factor_degree_components, from_signed_coeffs, read_degree11

VERSION = "3"


class ClaimFailed(ArithmeticError):
    """A fact a certificate states does not hold; claim names it.

    An exception rather than an assert, so `python -O` keeps the check.
    """

    def __init__(self, claim: str):
        super().__init__(f"claim failed: {claim}")
        self.claim = claim


class ScanContradictsTable(RuntimeError):
    """The Q-divisibility scan did not single out case 7.

    The construction for dimension 11 relies on case 7 being the only row
    of the subgroup-order table whose order Q divides.  Any other outcome
    means a transcription bug in the table, so it is an error, not data.
    """


@dataclass(frozen=True)
class MaxSubEntry:
    """One row of the maximal-subgroup order table for dimension 11.

    orders holds (q0, order) pairs; q0 is the subfield size the row is
    instantiated at and None for rows that do not range over subfields.
    Rows whose side condition fails carry an empty orders tuple and a
    human-readable reason instead.
    """

    case: int
    label: str
    applicable: bool
    reason: str
    orders: tuple[tuple[Optional[int], int], ...]


@dataclass(frozen=True)
class ScanRow:
    """A table row with one Q-divisibility flag per listed order."""

    entry: MaxSubEntry
    divisible: tuple[bool, ...]


def _ladder(base: int, exps) -> int:
    return prod(base**i - 1 for i in exps)


def maxsub_table(q: int) -> tuple[MaxSubEntry, ...]:
    """All fourteen maximal-subgroup order formulas for SL_11(q).

    Orders are computed exactly as printed in the published
    classification; side conditions are implemented verbatim, with no
    generalization.  Rows 8 and 11 range over every admissible subfield
    size q0.
    """
    p, m = prime_power_decompose(q)
    d = gcd(11, q - 1)
    entries = []

    def add(case, label, orders=(), reason=""):
        entries.append(
            MaxSubEntry(case, label, applicable=not reason, reason=reason,
                        orders=tuple(orders))
        )

    add(1, "E_q^10:GL_10(q)", [(None, q**55 * _ladder(q, range(1, 11)))])
    add(2, "E_q^18:(SL_9(q) x SL_2(q)):(q-1)",
        [(None, q**55 * _ladder(q, (1, 2, 2, 3, 4, 5, 6, 7, 8, 9)))])
    add(3, "E_q^24:(SL_8(q) x SL_3(q)):(q-1)",
        [(None, q**55 * _ladder(q, (1, 2, 2, 3, 3, 4, 5, 6, 7, 8)))])
    add(4, "E_q^28:(SL_7(q) x SL_4(q)):(q-1)",
        [(None, q**55 * _ladder(q, (1, 2, 2, 3, 3, 4, 4, 5, 6, 7)))])
    add(5, "E_q^30:(SL_6(q) x SL_5(q)):(q-1)",
        [(None, q**55 * _ladder(q, (1, 2, 2, 3, 3, 4, 4, 5, 5, 6)))])
    if q >= 5:
        add(6, "(q-1)^10:S_11",
            [(None, 2**8 * 3**4 * 5**2 * 7 * 11 * (q - 1) ** 10)])
    else:
        add(6, "(q-1)^10:S_11", reason="needs q >= 5")
    add(7, "((q^11-1)/(q-1)):11", [(None, 11 * (q**11 - 1) // (q - 1))])
    subfield_sizes = sorted(p ** (m // r) for r, _ in factor(m)) if m > 1 else []
    if subfield_sizes:
        add(8, "SL_11(q0).(11,(q-1)/(q0-1))",
            [(q0, q0**55 * _ladder(q0, range(2, 12)) * gcd(11, (q - 1) // (q0 - 1)))
             for q0 in subfield_sizes])
    else:
        add(8, "SL_11(q0).(11,(q-1)/(q0-1))", reason="needs q = q0^r with r prime")
    if (m == 1 and q % 11 == 1) or (m == 5 and p % 11 in (3, 4, 5, 9)):
        add(9, "11^(1+2):Sp_2(11)", [(None, 2**3 * 3 * 5 * 11**4)])
    else:
        add(9, "11^(1+2):Sp_2(11)",
            reason="needs prime q with q = 1 (mod 11), or q = p^5 with "
                   "p in {3, 4, 5, 9} (mod 11)")
    if q % 2 == 1:
        add(10, "(11,q-1) x SO_11(q)",
            [(None, d * q**25 * _ladder(q, (2, 4, 6, 8, 10)))])
    else:
        add(10, "(11,q-1) x SO_11(q)", reason="needs odd q")
    if m % 2 == 0:
        q0 = p ** (m // 2)
        unitary = q0**55 * prod(
            q0**i - 1 if i % 2 == 0 else q0**i + 1 for i in range(2, 12)
        ) * gcd(11, q0 - 1)
        add(11, "(11,q0-1) x SU_11(q0)", [(q0, unitary)])
    else:
        add(11, "(11,q0-1) x SU_11(q0)", reason="needs q = q0^2")
    if m == 1 and q != 2 and q % 23 in (1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18):
        add(12, "(11,q-1) x L_2(23)", [(None, 2**3 * 3 * 11 * 23 * d)])
    else:
        add(12, "(11,q-1) x L_2(23)",
            reason="needs prime q other than 2 with q mod 23 in "
                   "{1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18}")
    if m == 1 and q % 3 == 1:
        add(13, "(11,q-1) x U_5(2)", [(None, 2**10 * 3**5 * 5 * 11 * d)])
    else:
        add(13, "(11,q-1) x U_5(2)", reason="needs prime q with q = 1 (mod 3)")
    if q == 2:
        add(14, "M_24", [(None, 2**10 * 3**3 * 5 * 7 * 11 * 23)])
    else:
        add(14, "M_24", reason="needs q = 2")
    return tuple(entries)


def q_divisibility_scan(q: int) -> tuple[ScanRow, ...]:
    """Flag every table order that Q = (q^11-1)/(q-1) divides.

    Raises ScanContradictsTable unless case 7 and only case 7 is flagged;
    that uniqueness is exactly what lets an order-Q element rule out all
    other maximal overgroups.
    """
    Q = (q**11 - 1) // (q - 1)
    rows = []
    hits = set()
    for entry in maxsub_table(q):
        flags = tuple(order % Q == 0 for _, order in entry.orders)
        if any(flags):
            hits.add(entry.case)
        rows.append(ScanRow(entry, flags))
    if hits != {7}:
        raise ScanContradictsTable(
            f"q = {q}: Q divides the orders of cases {sorted(hits)}, expected only 7"
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# Serialization helpers.  All integers become decimal strings.


_CANONICAL_INT = re.compile("0|[1-9][0-9]*")


def _int(s) -> int:
    if not isinstance(s, str) or not _CANONICAL_INT.fullmatch(s):
        # anything but a str is named by its type: a deep list has no repr
        shown = repr(s) if isinstance(s, str) else f"a {type(s).__name__}"
        raise ValueError(f"expected a canonical decimal string, got {shown}")
    return int(s)


def _field_json(field: Field) -> list:
    return [str(field.p), str(field.k), [str(c) for c in field.modulus]]


def _mat_json(mat: Mat) -> list:
    return [[str(e) for e in row] for row in mat.rows]


def _poly_json(f: Optional[Poly]) -> Optional[list]:
    return None if f is None else [str(c) for c in f.coeffs]


def _scan_json(q: int) -> list:
    report = []
    for row in q_divisibility_scan(q):
        entry = row.entry
        item = {"case": str(entry.case), "label": entry.label,
                "applicable": entry.applicable}
        if not entry.applicable:
            item["reason"] = entry.reason
        item["orders"] = [
            ({} if q0 is None else {"q0": str(q0)})
            | {"order": str(order), "divisible": flag}
            for (q0, order), flag in zip(entry.orders, row.divisible)
        ]
        report.append(item)
    return report


def _assumption_lines(tag: str, n: int, q: int, Q: int,
                      prime_pair: Optional[tuple[int, int]], ppd: Optional[int]) -> list[str]:
    if tag == "special":
        head = (f"classification input, not recomputed here: no maximal subgroup "
                f"of SL_{n}({q}) has order divisible by "
                f"{prime_pair[0]}*{prime_pair[1]}")
    elif tag == "sl11":
        head = (f"classification input, not recomputed here: the fourteen-row "
                f"table of maximal subgroup orders for SL_11({q}) is complete "
                f"(Bray, Holt & Roney-Dougal 2013)")
    else:
        head = (f"classification input, not recomputed here (Guralnick, Penttila, Praeger "
                f"& Saxl 1999, for the primitive prime divisor {ppd} of {q}^{n - 1} - 1): "
                f"every maximal subgroup of SL_{n}({q}) either stabilizes a line or a "
                f"hyperplane of the natural module or has no element of order {Q}")
    tail = (f"the images of x and y in the quotient by the center again have "
            f"orders 2 and 3 and generate PSL_{n}({q})")
    return [head, tail]


# ---------------------------------------------------------------------------
# The certificate, section by section: certify emits it, verify compares.


def _prove(fact: bool, claim: str) -> None:
    if not fact:
        raise ClaimFailed(claim)


def _has_prime_order(a: Mat, r: int) -> bool:
    """For a prime r, a has order r iff a != I and a**r = I: no factoring."""
    return not a.is_identity and (a**r).is_identity


def _has_order(a: Mat, N: int, factors, charpoly: Optional[Poly] = None) -> bool:
    """a has order N, given N = prod(r**e) over (r, e) in factors with
    distinct primes r: t**N = 1 and one product tree over the primes modulo
    m_a, no factoring.  A squarefree charpoly of a is m_a; without one,
    Mat.order spins a for m_a."""
    minpoly = charpoly if charpoly is not None and charpoly.is_squarefree else None
    try:
        return a.order(factors, minpoly) == N
    except NotAnnihilated:
        return False


def _is_factorization(Q: int, fs, qn: int) -> bool:
    """fs lists ascending primes r with exponents e whose product is Q, and
    each r**e is below qn = q**n, as every prime power dividing an element
    order in GL_n(q) is.

    r**e >= 2**(e * (bitlen(r) - 1)), so every true factor passes the
    exponent bound, and the bound keeps each power below 2**(2 * bitlen(Q))
    before it is taken.  is_prime runs last, on primes below qn of at most
    MAX_Q_BITS bits, checked before r**e."""
    bits = Q.bit_length()
    return (all(r1 < r2 for (r1, _), (r2, _) in zip(fs, fs[1:]))
            and all(1 <= e and e * max(r.bit_length() - 1, 1) <= bits for r, e in fs)
            and all(r.bit_length() <= MAX_Q_BITS and r**e < qn for r, e in fs)
            and prod(r**e for r, e in fs) == Q
            and all(is_prime(r) for r, _ in fs))


_ORDERS = {"x": "order of x", "y": "order of y", "z": "order of z"}
_CHARPOLY = {"z": "characteristic polynomial", "expected": "expected charpoly"}
_IRREDUCIBILITY = {"scan": "scan verdict", "seed": "seed consistency"}


def _sections(pair: GenPair, seed: int):
    """Yield the certificate of pair as (key, value, claim), in key order.

    pair carries the facts a certificate states but cannot recompute; every
    other value is derived here.  claim names what a differing value breaks:
    one name, or a dict with one name per entry of a dict value.  Each
    section is yielded before the facts behind it are proved, and a fact
    that does not hold raises ClaimFailed.  So certify, which takes every
    section, runs every check, and verify, which stops at the first section
    that differs, skips the proofs after it.
    """
    n, q, field, tag, Q, fs = pair.n, pair.q, pair.field, pair.tag, pair.Q, pair.Q_factors
    x, y = pair.x, pair.y
    yield "version", VERSION, "version"
    yield "n", str(n), "construction tag"
    yield "q", str(q), "q size"
    yield "p", str(field.p), "prime power decomposition"
    yield "m", str(field.k), "prime power decomposition"
    construction: dict = {"tag": tag}
    if tag == "special":
        construction["words"] = [
            {"letters": list(w.letters), "order": str(w.claimed_order)}
            for w in pair.words
        ]
        construction["prime_pair"] = [str(v) for v in pair.coprime_claim]
    yield "construction", construction, "construction shape"
    yield "field", _field_json(field), "field descriptor"
    yield "matrices", {"x": _mat_json(x), "y": _mat_json(y)}, "schema key order"
    _prove(x.det() == 1 and y.det() == 1, "determinant one")

    yield "Q", str(Q), "Q value"
    yield "Q_factors", [[str(r), str(e)] for r, e in fs], "Q factorization"
    _prove(_is_factorization(Q, fs, q**n), "Q factorization")
    yield "orders", {"x": "2", "y": "3", "z": str(Q)}, _ORDERS
    _prove(_has_prime_order(x, 2), "order of x")
    _prove(_has_prime_order(y, 3), "order of y")
    cp = pair.z.charpoly()  # also the charpoly section's: z is spun for it alone
    _prove(_has_order(pair.z, Q, fs, cp), "order of z")
    if tag != "special":
        _prove(Q == target_order(n, q), "Q value")
    ppd = None
    if tag == "sl11":
        _prove(gcd(6, Q) == 1, "gcd(6, Q)")
    elif tag != "special":  # r | Q | q^(n-1) - 1, and q has order n - 1 mod r
        ppd = next((r for r, _ in fs if all(pow(q, (n - 1) // s, r) != 1
                                            for s, _ in factor(n - 1))), None)
        yield "ppd", str(ppd), "primitive prime divisor"
        _prove(ppd is not None, "primitive prime divisor")

    expected = None
    if tag == "sl11":
        deltas = pair.deltas
        _prove(len(deltas) == 10 and all(v < field.order for v in deltas), "delta list")
        expected = charpoly_from_deltas(field, deltas)
    elif tag != "special":
        alphas = pair.alphas
        _prove(len(alphas) == n - 1 and all(a < field.order for a in alphas)
               and alphas[-1] != 0, "alpha list")
        expected = Poly.x_minus(field, field.inv(alphas[-1])) * from_signed_coeffs(field, alphas)
    yield "charpoly", {"z": _poly_json(cp), "expected": _poly_json(expected)}, _CHARPOLY
    _prove(expected is None or expected == cp, "charpoly identity")
    if tag == "sl11":
        yield "deltas", [str(v) for v in deltas], "delta list"
        _prove(deltas_from_min_poly(field, read_degree11(expected)) == tuple(deltas),
               "delta assignment")
    elif tag != "special":
        yield "alphas", [str(a) for a in alphas], "alpha list"

    yield "irreducibility", {"scan": "irreducible", "seed": str(seed)}, _IRREDUCIBILITY
    # parts are squarefree, so their degrees sum to cp.degree iff cp is
    parts = list(factor_degree_components(cp))
    _prove(len(parts) <= 2 and all(g.degree == d for d, g in parts)
           and sum(d for d, _ in parts) == cp.degree, "z decomposition")
    _prove(len(parts) == 1 or scan_components(x, y, pair.z, parts[0][1]).irreducible,
           "scan verdict")
    for w in pair.words:  # every element order in GL_n(q) is below q**n
        c = w.claimed_order
        _prove(0 < c < q**n and _has_order(eval_word(w.letters, x, y), c, factor(c)),
               "witness word order")
    if tag == "special":
        pp = pair.coprime_claim
        # every prime dividing |SL_n(q)| is below q**n: is_prime stays bounded
        _prove(len(pp) == 2 and pp[0] != pp[1] and max(pp) < q**n
               and all(map(is_prime, pp)), "prime pair")
        reached = lcm(Q, *(w.claimed_order for w in pair.words))
        _prove(all(reached % v == 0 for v in pp), "prime pair divides group order")

    if tag == "sl11":
        yield "maxsub_scan", _scan_json(q), "maxsub table"
    yield "assumptions", _assumption_lines(tag, n, q, Q, pair.coprime_claim, ppd), "assumptions"
    yield "seed", str(seed), "seed consistency"


def certify(n: int, q: int, seed: int = 0) -> dict:
    """Build the pair for (n, q) and record every fact about it.

    Runs every check verify runs; a fact that fails raises ClaimFailed.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return {key: value for key, value, _ in _sections(build(n, q), seed)}


def dumps(cert: dict) -> str:
    return json.dumps(cert, indent=2) + "\n"


def loads(text: str) -> dict:
    return json.loads(text)


@dataclass(frozen=True)
class VerifyResult:
    """verify() outcome; failed_claim names the first claim that broke."""

    ok: bool
    failed_claim: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify(cert) -> VerifyResult:
    """Recompute every claim of a certificate from its matrices alone."""
    try:
        _verify(cert)
    except ClaimFailed as exc:
        return VerifyResult(False, exc.claim)
    except ScanContradictsTable:
        return VerifyResult(False, "divisibility scan")
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return VerifyResult(False, f"malformed certificate ({exc})")
    return VerifyResult(True, None)


def _parse_mat(field: Field, rows_json, n: int) -> Mat:
    if not isinstance(rows_json, list) or len(rows_json) != n:
        raise ValueError("matrix row count mismatch")
    rows = []
    for row in rows_json:
        if not isinstance(row, list) or len(row) != n:
            raise ValueError("matrix row length mismatch")
        parsed = [_int(e) for e in row]
        if any(e >= field.order for e in parsed):
            raise ValueError("matrix entry out of field range")
        rows.append(parsed)
    return Mat(field, rows)


def _same(a, b) -> bool:
    """JSON equality that keeps key order and tells true from 1."""
    if type(a) is not type(b) or a != b:
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):  # a string equals only a string
        return set(map(type, a)) == {str} or all(map(_same, a, b))
    return True


def _mismatch(value, got, claim) -> Optional[str]:
    """The claim that section `got` breaks, or None if it equals value."""
    if isinstance(claim, str):
        return None if _same(value, got) else claim
    if not isinstance(got, dict):
        return "schema key order"
    for k in value:
        if k not in got or not _same(value[k], got[k]):
            return claim[k]
    return None if list(got) == list(value) else "schema key order"


def _verify(cert) -> None:
    """Parse the facts a certificate states, then walk _sections with it."""
    _prove(isinstance(cert, dict) and cert.get("version") == VERSION, "version")
    n, q = _int(cert["n"]), _int(cert["q"])
    _prove(q.bit_length() <= MAX_Q_BITS, "q size")
    p, m = _int(cert["p"]), _int(cert["m"])
    # p**m >= 2**((bitlen(p) - 1) * m): a true p passes, and p**m stays small
    _prove(0 < m and (p.bit_length() - 1) * m < q.bit_length() and p**m == q,
           "prime power decomposition")
    _prove(m <= MAX_Q_DEGREE, "q size")
    construction = cert["construction"]
    tag = construction["tag"]
    _prove(n in (9, 10, 11) and tag == coverage(n, q), "construction tag")

    try:  # the one primality test of p = q**(1/m)
        field = make_field(p, m)
    except InvalidPrime:
        raise ClaimFailed("prime power decomposition") from None
    x = _parse_mat(field, cert["matrices"]["x"], n)
    y = _parse_mat(field, cert["matrices"]["y"], n)
    if tag == "special":
        stated = {
            "words": tuple(Witness(check_word(w["letters"]), _int(w["order"]))
                           for w in construction["words"]),
            "coprime_claim": tuple(_int(v) for v in construction["prime_pair"]),
        }
    elif tag == "sl11":
        stated = {"deltas": tuple(_int(v) for v in cert["deltas"])}
    else:
        stated = {"alphas": tuple(_int(a) for a in cert["alphas"])}
    pair = GenPair(n=n, q=q, field=field, x=x, y=y, tag=tag,
                   Q=_int(cert["Q"]),
                   Q_factors=tuple((_int(r), _int(e)) for r, e in cert["Q_factors"]),
                   **stated)
    for section, key in zip_longest(_sections(pair, _int(cert["seed"])), cert):
        _prove(section is not None and section[0] == key, "schema key order")
        _, value, claim = section
        wrong = _mismatch(value, cert[key], claim)
        if wrong:
            raise ClaimFailed(wrong)
