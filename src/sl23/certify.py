"""Certificates for the constructed generator pairs.

A certificate is a JSON-ready dict recording one constructed pair together
with every computed fact its generation argument rests on: exact element
orders, the characteristic-polynomial identity for the product, both
irreducibility verdicts, and for dimension 11 the table of maximal
subgroup orders with its Q-divisibility scan.  verify() recomputes all of
it from the serialized matrices alone, so a certificate never has to be
taken on faith.  The entries that cannot be recomputed (the completeness
of the published subgroup classification) are spelled out as explicit
assumption strings.

Serialization conventions: every integer is a decimal string, field
elements use their canonical integer encoding, polynomials are
little-endian coefficient lists, matrices are row-major lists of rows.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Optional

from .arith import NotAnnihilated, factor, is_prime, prime_power_decompose
from .construct import (
    OutOfRange,
    build,
    charpoly_from_deltas,
    coverage,
    deltas_from_min_poly,
    target_order,
)
from .ff import Field, make_field
from .matrix import Mat, RowSpace, check_word, eval_word
from .meataxe import InconclusiveAfterRetries, Verdict, is_irreducible_module, scan_lines
from .poly import Poly, WrongShape, from_signed_coeffs, is_irreducible, read_degree11

VERSION = "1"
MAX_Q_BITS = 4096  # verify's input limit: is_prime(q) alone takes seconds at 14,000 bits


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
        raise ValueError(f"expected a canonical decimal string, got {s!r}")
    return int(s)


def _keys(section) -> Optional[list]:
    """The keys of a JSON object in order; None for any other value."""
    return list(section) if isinstance(section, dict) else None


def _field_json(field: Field) -> list:
    return [str(field.p), str(field.k), [str(c) for c in field.modulus]]


def _mat_json(mat: Mat) -> list:
    return [[str(e) for e in row] for row in mat.rows]


def _poly_json(f: Poly) -> list:
    return [str(c) for c in f.coeffs]


def _verdict_word(v: Verdict) -> str:
    return "irreducible" if v.irreducible else "reducible"


def _witness_json(check: str, v: Verdict) -> dict:
    return {
        "check": check,
        "side": v.side,
        "basis": [[str(c) for c in vec] for vec in v.basis],
    }


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
                      prime_pair: Optional[tuple[int, int]]) -> list[str]:
    if tag == "special":
        head = (f"classification input, not recomputed here: no maximal subgroup "
                f"of SL_{n}({q}) has order divisible by "
                f"{prime_pair[0]}*{prime_pair[1]}")
    elif tag == "sl11":
        head = (f"classification input, not recomputed here: the fourteen-row "
                f"table of maximal subgroup orders for SL_11({q}) is complete")
    else:
        head = (f"classification input, not recomputed here: every maximal "
                f"subgroup of SL_{n}({q}) either stabilizes a line or a "
                f"hyperplane of the natural module or has no element of "
                f"order {Q}")
    tail = (f"the images of x and y in the quotient by the center again have "
            f"orders 2 and 3 and generate PSL_{n}({q})")
    return [head, tail]


# ---------------------------------------------------------------------------


def _has_prime_order(a: Mat, r: int) -> bool:
    """For a prime r, a has order r iff a != I and a**r = I: no factoring."""
    return not a.is_identity and (a**r).is_identity


def _has_order(a: Mat, N: int, factors) -> bool:
    """a has order N, given N = prod(r**e) over (r, e) in factors with
    distinct primes r: one Krylov spin and a power per prime, no factoring."""
    try:
        return a.order(factors) == N
    except NotAnnihilated:
        return False


def certify(n: int, q: int, seed: int = 0) -> dict:
    """Build the pair for (n, q) and record every checked fact about it."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if q.bit_length() > MAX_Q_BITS:
        raise OutOfRange(f"q has {q.bit_length()} bits, more than {MAX_Q_BITS}")
    pair = build(n, q)
    field = pair.field
    x, y, z = pair.x, pair.y, pair.z
    if not (_has_prime_order(x, 2) and _has_prime_order(y, 3)
            and _has_order(z, pair.Q, pair.Q_factors)):
        raise ArithmeticError(f"x, y, x*y do not have orders 2, 3, {pair.Q}")
    cp = z.charpoly()
    if pair.tag == "special":
        expected = None
    elif pair.tag == "sl11":
        expected = pair.l
        if gcd(6, pair.Q) != 1:
            raise ArithmeticError(f"Q = {pair.Q} is not prime to 6")
    else:
        expected = Poly.x_minus(field, field.inv(pair.alphas[-1])) * pair.f
    if expected is not None and cp != expected:
        raise ArithmeticError("characteristic polynomial of x*y is not the target")
    scan = scan_lines(x, y)
    mx = is_irreducible_module([x, y], seed=seed)

    construction: dict = {"tag": pair.tag}
    if pair.tag == "special":
        for w in pair.words:
            if eval_word(w.letters, x, y).order() != w.claimed_order:
                raise ArithmeticError(f"word {w.letters} does not have order {w.claimed_order}")
        construction["words"] = [
            {"letters": list(w.letters), "order": str(w.claimed_order)}
            for w in pair.words
        ]
        construction["prime_pair"] = [str(v) for v in pair.coprime_claim]

    cert = {
        "version": VERSION,
        "n": str(n),
        "q": str(q),
        "p": str(field.p),
        "m": str(field.k),
        "construction": construction,
        "field": _field_json(field),
        "matrices": {"x": _mat_json(x), "y": _mat_json(y)},
        "Q": str(pair.Q),
        "Q_factors": [[str(r), str(e)] for r, e in pair.Q_factors],
        "orders": {"x": "2", "y": "3", "z": str(pair.Q)},
        "charpoly": {
            "z": _poly_json(cp),
            "expected": None if expected is None else _poly_json(expected),
        },
    }
    if pair.alphas is not None:
        cert["alphas"] = [str(a) for a in pair.alphas]
    if pair.deltas is not None:
        cert["deltas"] = [str(v) for v in pair.deltas]
    irr = {"scan": _verdict_word(scan), "meataxe": _verdict_word(mx),
           "seed": str(seed)}
    if not scan.irreducible:
        irr["witness"] = _witness_json("scan", scan)
    elif not mx.irreducible:
        irr["witness"] = _witness_json("meataxe", mx)
    cert["irreducibility"] = irr
    if n == 11:
        cert["maxsub_scan"] = _scan_json(q)
    cert["assumptions"] = _assumption_lines(pair.tag, n, q, pair.Q,
                                            pair.coprime_claim)
    cert["seed"] = str(seed)
    return cert


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
        return _verify(cert)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        return VerifyResult(False, f"malformed certificate ({exc})")


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


def _verify(cert: dict) -> VerifyResult:
    def no(claim: str) -> VerifyResult:
        return VerifyResult(False, claim)

    if not isinstance(cert, dict) or cert.get("version") != VERSION:
        return no("version")
    n = _int(cert["n"])
    q = _int(cert["q"])
    if q.bit_length() > MAX_Q_BITS:
        return no("q size")
    p = _int(cert["p"])
    m = _int(cert["m"])
    if prime_power_decompose(q) != (p, m):
        return no("prime power decomposition")

    tag = cert["construction"]["tag"]
    if n not in (9, 10, 11) or tag != coverage(n, q):
        return no("construction tag")
    generic = tag in ("generic9", "generic10")

    keys = ["version", "n", "q", "p", "m", "construction", "field", "matrices",
            "Q", "Q_factors", "orders", "charpoly"]
    if generic:
        keys.append("alphas")
    elif tag == "sl11":
        keys.append("deltas")
    keys.append("irreducibility")
    if tag == "sl11":
        keys.append("maxsub_scan")
    keys += ["assumptions", "seed"]
    if _keys(cert) != keys:
        return no("schema key order")
    ckeys = ["tag", "words", "prime_pair"] if tag == "special" else ["tag"]
    if _keys(cert["construction"]) != ckeys:
        return no("construction shape")
    if _keys(cert["matrices"]) != ["x", "y"]:
        return no("schema key order")
    if _keys(cert["orders"]) != ["x", "y", "z"]:
        return no("schema key order")
    if _keys(cert["charpoly"]) != ["z", "expected"]:
        return no("schema key order")

    fd = cert["field"]
    if not isinstance(fd, list) or len(fd) != 3:
        return no("field descriptor")
    if _int(fd[0]) != p or _int(fd[1]) != m:
        return no("field descriptor")
    field = make_field(p, m)
    if [_int(c) for c in fd[2]] != list(field.modulus):
        return no("field descriptor")

    x = _parse_mat(field, cert["matrices"]["x"], n)
    y = _parse_mat(field, cert["matrices"]["y"], n)
    if x.det() != 1 or y.det() != 1:
        return no("determinant one")
    if not _has_prime_order(x, 2) or _int(cert["orders"]["x"]) != 2:
        return no("order of x")
    if not _has_prime_order(y, 3) or _int(cert["orders"]["y"]) != 3:
        return no("order of y")
    z = x * y
    Q = _int(cert["Q"])
    if _int(cert["orders"]["z"]) != Q:
        return no("order of z")

    fs = [(_int(r), _int(e)) for r, e in cert["Q_factors"]]
    if any(r2 <= r1 for (r1, _), (r2, _) in zip(fs, fs[1:])):
        return no("Q factorization")
    if any(not is_prime(r) or e < 1 for r, e in fs):
        return no("Q factorization")
    if prod(r**e for r, e in fs) != Q:
        return no("Q factorization")
    if not _has_order(z, Q, fs):
        return no("order of z")

    if generic and Q != target_order(n, q):
        return no("Q value")
    if tag == "sl11":
        if Q != (q**11 - 1) // (q - 1):
            return no("Q value")
        if gcd(6, Q) != 1:
            return no("gcd(6, Q)")

    cp = z.charpoly()
    if cert["charpoly"]["z"] != _poly_json(cp):
        return no("characteristic polynomial")
    exp_json = cert["charpoly"]["expected"]
    if generic:
        alphas = [_int(a) for a in cert["alphas"]]
        if len(alphas) != n - 1 or any(a >= field.order for a in alphas):
            return no("alpha list")
        f = from_signed_coeffs(field, alphas)
        if not is_irreducible(f):
            return no("irreducibility of f")
        expected = Poly.x_minus(field, field.inv(alphas[-1])) * f
        if exp_json != _poly_json(expected):
            return no("expected charpoly")
        if expected != cp:
            return no("charpoly identity")
    elif tag == "sl11":
        deltas = [_int(v) for v in cert["deltas"]]
        if len(deltas) != 10 or any(v >= field.order for v in deltas):
            return no("delta list")
        if not isinstance(exp_json, list):
            return no("expected charpoly")
        coeffs = [_int(c) for c in exp_json]
        if any(c >= field.order for c in coeffs):
            return no("expected charpoly")
        expected = Poly(field, coeffs)
        if _poly_json(expected) != exp_json:
            return no("expected charpoly")
        try:
            ten = read_degree11(expected)
        except WrongShape:
            return no("expected charpoly")
        if list(deltas_from_min_poly(field, ten)) != deltas:
            return no("delta assignment")
        if charpoly_from_deltas(field, deltas) != cp:
            return no("closed-form charpoly")
        if expected != cp:
            return no("charpoly identity")
    else:
        if exp_json is not None:
            return no("expected charpoly")

    irr = cert["irreducibility"]
    if _keys(irr) not in (["scan", "meataxe", "seed"],
                     ["scan", "meataxe", "seed", "witness"]):
        return no("schema key order")
    seed = _int(irr["seed"])
    if _int(cert["seed"]) != seed:
        return no("seed consistency")
    scan = scan_lines(x, y)
    if irr["scan"] != _verdict_word(scan):
        return no("scan verdict")
    try:
        mx = is_irreducible_module([x, y], seed=seed)
    except InconclusiveAfterRetries:
        return no("meataxe verdict")
    if irr["meataxe"] != _verdict_word(mx):
        return no("meataxe verdict")
    if scan.irreducible and mx.irreducible:
        if "witness" in irr:
            return no("witness invariance")
    else:
        w = irr.get("witness")
        if not isinstance(w, dict) or w.get("check") not in ("scan", "meataxe"):
            return no("witness invariance")
        if w.get("side") not in ("natural", "dual"):
            return no("witness invariance")
        basis = [[_int(c) for c in vec] for vec in w["basis"]]
        if not basis or len(basis) >= n:
            return no("witness invariance")
        space = RowSpace(field, n)
        for vec in basis:
            if len(vec) != n or any(c >= field.order for c in vec):
                return no("witness invariance")
            space.add(vec)
        if space.dim == 0 or space.dim >= n:
            return no("witness invariance")
        gens = (x, y) if w["side"] == "natural" else (x.T, y.T)
        for vec in basis:
            if not all(space.contains(g.apply(vec)) for g in gens):
                return no("witness invariance")

    if tag == "sl11":
        try:
            report = _scan_json(q)
        except ScanContradictsTable:
            return no("divisibility scan")
        if cert["maxsub_scan"] != report:
            return no("maxsub table")

    prime_pair = None
    if tag == "special":
        word_orders = []
        for wj in cert["construction"]["words"]:
            word = check_word(wj["letters"])
            claimed = _int(wj["order"])
            if eval_word(word, x, y).order() != claimed:
                return no("witness word order")
            word_orders.append(claimed)
        pp = [_int(v) for v in cert["construction"]["prime_pair"]]
        if len(pp) != 2 or pp[0] == pp[1] or not all(is_prime(v) for v in pp):
            return no("prime pair")
        reached = lcm(Q, *word_orders)
        if any(reached % v for v in pp):
            return no("prime pair divides group order")
        prime_pair = (pp[0], pp[1])

    if cert["assumptions"] != _assumption_lines(tag, n, q, Q, prime_pair):
        return no("assumptions")
    return VerifyResult(True, None)
