"""Certificates: emission, re-verification, tamper detection.

Every certificate must verify from its serialized matrices alone, byte
identical across runs, and any single-entry edit must flip the verdict
with a meaningful failed-claim name.
"""

import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time
from math import gcd

import pytest

from sl23 import construct
from sl23.arith import factor, is_prime
from sl23.certify import (
    MAX_Q_BITS,
    MAX_Q_DEGREE,
    VERSION,
    ClaimFailed,
    VerifyResult,
    _assumption_lines,
    _has_order,
    _sections,
    certify,
    dumps,
    loads,
    maxsub_table,
    q_divisibility_scan,
    verify,
)
from sl23.construct import OutOfRange, Witness, build_generic, build_special
from sl23.ff import make_field
from sl23.matrix import Mat
from sl23.meataxe import Verdict, scan_components
from sl23.poly import Poly, factor_degree_components

ALL_CASES = [(9, 3), (9, 2), (10, 2), (10, 5), (11, 2), (11, 3)]


@pytest.fixture(scope="module")
def base():
    return certify(9, 3)


@pytest.fixture(scope="module")
def c11():
    return certify(11, 2)


@pytest.fixture(scope="module")
def c103():
    return certify(10, 3)


def tampered(cert, path, value):
    c = copy.deepcopy(cert)
    node = c
    for k in path[:-1]:
        node = node[k]
    node[path[-1]] = value
    return verify(c)


# --- maximal subgroup order table ------------------------------------------


def test_maxsub_table_q2():
    t2 = {e.case: e for e in maxsub_table(2)}
    assert len(t2) == 14
    assert t2[14].applicable
    assert t2[14].orders == ((None, 244823040),)
    assert t2[7].orders == ((None, 22517),)
    assert not t2[6].applicable and "q >= 5" in t2[6].reason
    assert not t2[12].applicable  # q = 2 is excluded by name
    assert not t2[10].applicable  # q even
    assert not t2[8].applicable  # 2 is not a proper power
    assert not t2[11].applicable  # 2 is not a square
    order1 = 2**55
    for i in range(1, 11):
        order1 *= 2**i - 1
    assert t2[1].orders == ((None, order1),)
    assert t2[1].label.startswith("E_")


def test_maxsub_table_q4():
    t4 = {e.case: e for e in maxsub_table(4)}
    assert t4[8].applicable
    assert len(t4[8].orders) == 1 and t4[8].orders[0][0] == 2
    o8 = 2**55
    for i in range(2, 12):
        o8 *= 2**i - 1
    o8 *= gcd(11, (4 - 1) // (2 - 1))
    assert t4[8].orders[0][1] == o8
    assert t4[11].applicable and t4[11].orders[0][0] == 2
    o11 = 2**55 * gcd(11, 1)
    for i in range(2, 12):
        o11 *= 2**i - 1 if i % 2 == 0 else 2**i + 1
    assert t4[11].orders[0][1] == o11
    assert not t4[14].applicable
    assert not t4[9].applicable


def test_maxsub_table_odd_q():
    t3 = {e.case: e for e in maxsub_table(3)}
    assert t3[10].applicable and t3[12].applicable
    assert not t3[13].applicable  # needs q = p with p = 1 (mod 3)
    assert t3[12].orders == ((None, 2**3 * 3 * 11 * 23 * gcd(11, 2)),)
    t7 = {e.case: e for e in maxsub_table(7)}
    assert t7[13].applicable
    assert t7[13].orders == ((None, 2**10 * 3**5 * 5 * 11 * gcd(11, 6)),)
    t5 = {e.case: e for e in maxsub_table(5)}
    assert t5[6].applicable
    assert t5[6].orders[0][1] == 39916800 * 4**10


def test_maxsub_table_prime_powers():
    t64 = {e.case: e for e in maxsub_table(64)}
    assert [q0 for q0, _ in t64[8].orders] == [4, 8]  # 64 = 4^3 = 8^2
    t23 = {e.case: e for e in maxsub_table(23)}
    assert not t23[12].applicable  # 23 = 0 (mod 23), not in the residue list


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_divisibility_scan_hits_only_cyclic_normalizer(q):
    rows = q_divisibility_scan(q)
    hot = [r.entry.case for r in rows if any(r.divisible)]
    assert hot == [7], (q, hot)


# --- certificate round trips -------------------------------------------------


@pytest.mark.parametrize("n,q", ALL_CASES)
def test_round_trip(n, q):
    cert = certify(n, q)
    r = verify(cert)
    assert r.ok, (n, q, r.failed_claim)
    assert bool(r)
    r2 = verify(loads(dumps(cert)))
    assert r2.ok, (n, q, r2.failed_claim)


@pytest.mark.parametrize("n,q", ALL_CASES)
def test_byte_stable(n, q):
    assert dumps(certify(n, q)) == dumps(certify(n, q))


# sha256 of dumps(certify(n, q, 1)).  The field layer may be rewritten,
# but these bytes may change only together with VERSION.
PINNED_SHA256 = {
    (9, 9): "ebb9d6577fd41442c71e91a80c26a8d9a2614ce097ca0b2ab94828ba0abe98bb",
    (10, 9): "518a0564896f2e9bb10dd95658a1ca2a6c2069e7902fdb2d0c5e95dd230599b7",
    (11, 9): "2b36af84f2a2fa683113f848260c31f38ee3a017d0240febf659a038136ab3c9",
    (9, 16): "d44211f3362fb4cf6dfeea8558310a0a70c364ebe5fcfabd110366b96ebec0de",
    (11, 2): "34fa546d1b0702385f98d82122c7d1de87f41152a2265de525ab10f80c74266e",
    (10, 7): "f4d736d8b7b21e9d5180def96e575ceab913187c010b804071e1a84f0f1d041a",
    (9, 25): "e9374bfb9d693eaa4f69c938169f133c68b324753661dfc28a3e94cc33f811cc",
    # untabled extension fields (q > 256), where the field is a packed Ring
    (9, 289): "518739a1a4de20af38d1fbf01d179dd948d1fb6bd37daeb778572f4036a65492",
    (10, 512): "639676582c6883907fe9d20d972622e17c5b56a3e00d53b67dd17d16c2928596",
    (11, 343): "c74d7de463ea9a36d37f39abfaa67a664732260434460aa787d315f67fd60202",
    (9, 1024): "fb4d3c933e4ba88c574a37025b16390dbd7997fecd0c3c2d39f15b2312b56363",
    (11, 4096): "7c1f8a8849a48133ba79dd0d8ae7ce99e80b27a73d2e04dddfb1ff6fd774407c",
    # the largest tabled fields, GF(2^8) and GF(3^5)
    (9, 256): "a6e5b0806d9807eef20fbe9da3ec1e3e11689c7b66af3c2f508133bd837db078",
    (10, 243): "ea6c9a0e0d660755a811f198ecfe745a366ffb0e4741e598a6966727459d2d1d",
}


@pytest.mark.parametrize("n,q", sorted(PINNED_SHA256))
def test_pinned_certificate_bytes(n, q):
    text = dumps(certify(n, q, 1))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256[(n, q)]


def test_serialization_shape(base):
    text = dumps(base)
    assert text.endswith("\n")
    obj = json.loads(text)
    assert list(obj) == list(base)
    # all leaf integers are decimal strings
    assert obj["q"] == "3"
    assert isinstance(obj["matrices"]["x"][0][0], str)


def test_verify_result_truthiness():
    good = VerifyResult(True, None)
    bad = VerifyResult(False, "order of z")
    assert bool(good) and not bool(bad)
    assert bad.failed_claim == "order of z"


# --- tamper detection ---------------------------------------------------------


def test_tamper_matrix_entry(base):
    flip = "1" if base["matrices"]["x"][0][0] != "1" else "0"
    r = tampered(base, ("matrices", "x", 0, 0), flip)
    assert not r.ok and r.failed_claim


def test_tamper_order(base):
    r = tampered(base, ("orders", "z"), "5")
    assert not r.ok and r.failed_claim == "order of z"


def test_tamper_generator_orders(base):
    # each swap keeps det 1, so the order claims are what must break
    identity = [["1" if i == j else "0" for j in range(9)] for i in range(9)]
    for name, value, claim in [("x", base["matrices"]["y"], "order of x"),
                               ("y", base["matrices"]["x"], "order of y"),
                               ("x", identity, "order of x")]:
        r = tampered(base, ("matrices", name), value)
        assert not r.ok and r.failed_claim == claim, (name, claim)


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        certify(11, 2, -5)


def test_tamper_alpha(base):
    r = tampered(base, ("alphas", 2), "0")
    assert not r.ok and r.failed_claim


def test_tamper_assumptions(base):
    r = tampered(base, ("assumptions", 0), "trust me")
    assert not r.ok and r.failed_claim == "assumptions"


def test_tamper_q_factor(base):
    r = tampered(base, ("Q_factors", 0, 0), "4")
    assert not r.ok and r.failed_claim == "Q factorization"


def test_consistent_multiple_of_the_order_fails_as_order_of_z(base):
    # Q, orders.z and Q_factors agree with each other, so only the order of
    # z, checked against that factorisation, can break
    Q = int(base["Q"])
    for mult in (2, 3, 101):
        c = copy.deepcopy(base)
        c["Q"] = c["orders"]["z"] = str(Q * mult)
        c["Q_factors"] = [[str(r), str(e)] for r, e in factor(Q * mult)]
        r = verify(c)
        assert not r.ok and r.failed_claim == "order of z", mult


def test_bad_factorization_fails_before_the_order_of_z(base):
    c = copy.deepcopy(base)
    c["Q"] = c["orders"]["z"] = str(2 * int(base["Q"]))  # Q_factors give Q
    r = verify(c)
    assert not r.ok and r.failed_claim == "Q factorization"


def test_huge_q_factor_exponent_fails_fast(base):
    # 2**(10**8) alone takes most of a second and 57 MiB; the exponent is
    # bounded before any power is taken
    t0 = time.perf_counter()
    r = tampered(base, ("Q_factors",), [["2", str(10**8)]])
    assert time.perf_counter() - t0 < 0.1
    assert r == VerifyResult(False, "Q factorization")


def _stated_order_of_z(cert, Q, fs):
    cert["Q"] = cert["orders"]["z"] = str(Q)
    cert["Q_factors"] = [[str(r), str(e)] for r, e in fs]


def _mersenne_q(cert):
    # 2**4423 - 1 is prime; is_prime alone on it takes seconds
    Q = 2**4423 - 1
    _stated_order_of_z(cert, Q, [(Q, 1)])


def _mersenne_prime_pair(cert):
    cert["construction"]["prime_pair"] = [str(2**4423 - 1), "127"]


def _order_two_z_with_huge_two_power(cert):
    # z = x y has order 2, stated as 2**4000: order_from_bound would divide
    # 2 out one power at a time
    def diag2(block):
        rows = [r + [0] * 7 for r in block] + [[0] * (2 + i) + [1] + [0] * (6 - i)
                                               for i in range(7)]
        return [[str(c) for c in r] for r in rows]

    cert["matrices"] = {"x": diag2([[0, 1], [1, 0]]), "y": diag2([[0, 1], [1, 1]])}
    _stated_order_of_z(cert, 2**4000, [(2, 4000)])


@pytest.mark.parametrize("n,q,craft,claim", [
    (9, 5, _mersenne_q, "Q factorization"),
    (9, 2, _mersenne_prime_pair, "prime pair"),
    (9, 8, _order_two_z_with_huge_two_power, "Q factorization"),
])
def test_stated_primes_are_bounded_before_they_are_tested(n, q, craft, claim):
    # every prime power dividing an element order of GL_n(q), and every
    # prime dividing |SL_n(q)|, is below q**n
    c = certify(n, q)
    craft(c)
    t0 = time.perf_counter()
    r = verify(c)
    assert time.perf_counter() - t0 < 0.5
    assert r == VerifyResult(False, claim)


def _forged_sl11(q, Q):
    # x = y = I over GF(q), with Q stated as its own prime factor
    one = [[str(int(i == j)) for j in range(11)] for i in range(11)]
    return {"version": VERSION, "n": "11", "q": str(q), "p": str(q), "m": "1",
            "construction": {"tag": "sl11"}, "field": [str(q), "1", ["0", "1"]],
            "matrices": {"x": one, "y": one}, "Q": str(Q), "Q_factors": [[str(Q), "1"]],
            "orders": {"x": "2", "y": "3", "z": str(Q)}, "deltas": ["0"] * 10, "seed": "0"}


def test_stated_prime_bound_has_both_sides(monkeypatch):
    # 2**89 - 1 is prime and has 89 bits; the least prime above 2**89 has 90
    above = 2**89 + 1
    while not is_prime(above):
        above += 2
    monkeypatch.setattr("sl23.certify.MAX_Q_BITS", 89)
    assert verify(_forged_sl11(8191, 2**89 - 1)) == VerifyResult(False, "order of x")
    assert verify(_forged_sl11(8191, above)) == VerifyResult(False, "Q factorization")
    monkeypatch.undo()
    assert verify(_forged_sl11(8191, above)) == VerifyResult(False, "order of x")


def test_huge_stated_prime_fails_before_it_is_tested():
    # 11 kB: is_prime on the 9689-bit Mersenne prime alone would take minutes
    forged = _forged_sl11(2**1279 - 1, 2**9689 - 1)
    assert 1279 <= MAX_Q_BITS < 9689
    t0 = time.perf_counter()
    assert verify(forged) == VerifyResult(False, "Q factorization")
    assert time.perf_counter() - t0 < 5  # prime_power_decompose(q) is most of it


def test_huge_q_is_tested_for_primality_once(monkeypatch):
    # is_prime(q) at 1279 bits is most of this forgery's cost; make_field,
    # uncached here as in a fresh process, runs the one test
    q, calls = 2**1279 - 1, []

    def counting(r):
        calls.append(r)
        return is_prime(r)

    for module in ("sl23.arith", "sl23.ff", "sl23.certify"):
        monkeypatch.setattr(f"{module}.is_prime", counting)
    monkeypatch.setattr("sl23.certify.make_field", make_field.__wrapped__)
    assert verify(_forged_sl11(q, 2**9689 - 1)) == VerifyResult(False, "Q factorization")
    assert calls.count(q) == 1


@pytest.mark.parametrize("q,p,m,claim", [
    (15, 15, 1, "prime power decomposition"),  # a composite stated as its own p
    (1, 1, 2, "prime power decomposition"),
    (1, 1, MAX_Q_DEGREE + 1, "q size"),
    # p**m alone would take seconds: only the bit lengths are compared
    (2**2047, 10**4000 + 1, 2047, "prime power decomposition"),
], ids=["composite-p", "unit-p", "unit-p-past-the-degree-limit", "huge-p"])
def test_stated_prime_power_is_checked_before_p_is_tested(base, q, p, m, claim):
    c = copy.deepcopy(base)
    c.update(q=str(q), p=str(p), m=str(m))
    t0 = time.perf_counter()
    assert verify(c) == VerifyResult(False, claim)
    assert time.perf_counter() - t0 < 1


def test_reducible_verdict_is_a_failed_claim(monkeypatch):
    # the raw (10, 3) instantiation has an invariant line, yet x*y has order
    # 3^9 - 1 = 2 * 13 * 757: labelled special with the prime pair (13, 757)
    # it passes every check except irreducibility
    raw = build_generic(10, 3, unchecked=True)
    pair = dataclasses.replace(raw, tag="special", alphas=None, f=None,
                               words=(Witness(("x", "y"), raw.Q),),
                               coprime_claim=(13, 757))
    monkeypatch.setattr("sl23.certify.build", lambda n, q: pair)
    with pytest.raises(ClaimFailed, match="scan verdict"):
        certify(10, 3)
    monkeypatch.setattr("sl23.certify.scan_components",
                        lambda x, y, z, g: Verdict(irreducible=True))
    cert = certify(10, 3)
    monkeypatch.undo()
    assert verify(cert) == VerifyResult(False, "scan verdict")
    # a reducible verdict with its invariant-line witness fails the same way
    a = raw.field.inv(raw.alphas[-1])
    line = scan_components(raw.x, raw.y, raw.z, Poly.x_minus(raw.field, a))
    assert not line.irreducible
    cert["irreducibility"] = {
        "scan": "reducible", "seed": "0",
        "witness": {"check": "scan", "side": line.side,
                    "basis": [[str(c) for c in vec] for vec in line.basis]},
    }
    assert verify(cert) == VerifyResult(False, "scan verdict")


def test_early_exits_skip_the_module_checks(monkeypatch):
    # the early and mid tampers of the benchmark's verify corpus fail
    # before either irreducibility check runs
    cert = certify(9, 17)

    def unreachable(*args, **kwargs):
        raise AssertionError("an irreducibility check ran")

    monkeypatch.setattr("sl23.certify.scan_components", unreachable)
    for name in ("x", "y"):
        for i in range(9):
            for j in range(9):
                c = copy.deepcopy(cert)
                row = c["matrices"][name][i]
                row[j] = str((int(row[j]) + 1) % 17)
                r = verify(c)
                assert r.failed_claim in ("determinant one", "order of x",
                                          "order of y"), (name, i, j, r)
    r = tampered(cert, ("orders", "z"), str(int(cert["orders"]["z"]) + 1))
    assert r == VerifyResult(False, "order of z")
    r = tampered(cert, ("irreducibility", "seed"), "1")
    assert r == VerifyResult(False, "seed consistency")


def _unreachable(monkeypatch, *names):
    """Patch each named sl23.meataxe routine to raise if it is called."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a full irreducibility check ran")

    for name in names:
        monkeypatch.setattr(f"sl23.meataxe.{name}", unreachable)


# The two test names below date from when the special pairs still ran the
# MeatAxe and the full line scan; now no tag runs either, and every tag
# proves irreducibility from the primary decomposition of z.
@pytest.mark.parametrize("n,q,tag", [(9, 5, "generic9"), (10, 5, "generic10"),
                                     (11, 2, "sl11"), (9, 2, "special")])
def test_only_special_pairs_run_the_meataxe(monkeypatch, n, q, tag):
    _unreachable(monkeypatch, "is_irreducible_module")
    cert = certify(n, q)
    assert cert["construction"]["tag"] == tag
    assert list(cert["irreducibility"]) == ["scan", "seed"]
    assert certify(n, q) == cert
    assert verify(cert) == VerifyResult(True, None)


ACCEPTANCE_TAGS = (
    [(9, q, "special") for q in (2, 4)] + [(10, q, "special") for q in (2, 3, 4)]
    + [(9, q, "generic9") for q in (3, 5, 7, 8, 9, 11, 13, 16)]
    + [(10, q, "generic10") for q in (5, 7, 8, 9, 11, 13, 16)]
    + [(11, q, "sl11") for q in (2, 3, 4, 5, 7, 8, 9)])
assert len(ACCEPTANCE_TAGS) == 27


@pytest.mark.parametrize("n,q,tag", ACCEPTANCE_TAGS + [(11, 17, "sl11")])
def test_only_special_pairs_run_the_full_line_scan(monkeypatch, n, q, tag):
    # neither the line scan nor the MeatAxe runs for any acceptance pair;
    # certify and verify each run scan_components once when charpoly(z) has
    # two irreducible factors (generic tags, and the special pairs over
    # GF(4)), and not at all when it is irreducible (sl11, other specials)
    _unreachable(monkeypatch, "scan_lines", "is_irreducible_module")
    calls = []

    def counted(*args):
        calls.append(args)
        return scan_components(*args)

    monkeypatch.setattr("sl23.certify.scan_components", counted)
    cert = certify(n, q)
    assert cert["construction"]["tag"] == tag
    assert list(cert["irreducibility"]) == ["scan", "seed"]
    assert verify(cert) == VerifyResult(True, None)
    two = tag.startswith("generic") or (tag == "special" and q == 4)
    assert len(calls) == (2 if two else 0)


@pytest.mark.parametrize("n,q", [(9, 5), (10, 7), (10, 4)])
def test_a_reducible_eigenline_verdict_fails_as_scan_verdict(monkeypatch, n, q):
    cert = certify(n, q)
    line = Verdict(irreducible=False, side="natural", basis=((1,) + (0,) * (n - 1),))
    monkeypatch.setattr("sl23.certify.scan_components", lambda x, y, z, g: line)
    with pytest.raises(ClaimFailed, match="scan verdict"):
        certify(n, q)
    assert verify(cert) == VerifyResult(False, "scan verdict")


def _perm(field, n, cycles, negated=()):
    """The monomial matrix sending e_j to +-e_p(j), p given by its cycles,
    with sign -1 for j in negated."""
    p = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            p[a] = b
    return Mat(field, [[(field.neg(1) if j in negated else 1) if p[j] == i else 0
                        for j in range(n)] for i in range(n)])


# With y = (0 1 2)(3 4 5)(6 7 8), these involutions x make z = x*y an
# 8-cycle over GF(2), charpoly (t + 1)**9: not squarefree, though its one
# distinct-degree part t + 1 is irreducible; a 9-cycle over GF(2), charpoly
# t**9 + 1 = (t + 1)(t**2 + t + 1)(t**6 + t**3 + 1): three parts; and over
# GF(3), with e_4 negated so that det x = 1, a signed 10-cycle with charpoly
# t**10 + 1 = (t**2 + 1) times two quartics: a degree-4 part of degree 8.
# Each pair has det 1, true orders and words, and a prime pair dividing
# them, so only the decomposition of z is wrong.  The GF(2) modules fix the
# all-ones line; the GF(3) one is irreducible (the MeatAxe says so), but the
# two-component argument does not prove it.
@pytest.mark.parametrize("q,x_cycles,negated,Q,fs,words,prime_pair", [
    (2, [[0, 1], [2, 3], [4, 6]], (), 8, ((2, 3),), ((("x", "y"), 8), (("y",), 3)), (2, 3)),
    (2, [[0, 3], [1, 6]], (), 9, ((3, 2),), ((("x", "y"), 9), (("x",), 2)), (2, 3)),
    (3, [[0, 3], [1, 6], [2, 9]], (4,), 20, ((2, 2), (5, 1)), ((("x", "y"), 20),), (2, 5)),
], ids=["8-cycle", "9-cycle", "signed-10-cycle"])
def test_z_decomposition_is_a_named_claim(monkeypatch, q, x_cycles, negated, Q, fs, words,
                                          prime_pair):
    field, n = make_field(q, 1), 9 if q == 2 else 10
    x, y = _perm(field, n, x_cycles, negated), _perm(field, n, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
    pair = dataclasses.replace(
        build_special(n, q), x=x, y=y, Q=Q, Q_factors=fs,
        words=tuple(Witness(w, c) for w, c in words), coprime_claim=prime_pair)
    assert pair.z.charpoly().is_squarefree == (Q != 8)
    monkeypatch.setattr("sl23.certify.build", lambda n, q: pair)
    with pytest.raises(ClaimFailed, match="z decomposition"):
        certify(n, q)
    cert = {}  # every section up to the failed claim, then the last two
    with pytest.raises(ClaimFailed, match="z decomposition"):
        for key, value, _ in _sections(pair, 0):
            cert[key] = value
    cert["assumptions"] = _assumption_lines("special", n, q, Q, prime_pair, None)
    cert["seed"] = "0"
    assert verify(json.loads(json.dumps(cert))) == VerifyResult(False, "z decomposition")


def test_sl11_charpoly_must_be_irreducible(monkeypatch):
    # three parts are more than the two-component argument covers
    monkeypatch.setattr("sl23.certify.factor_degree_components",
                        lambda f: ((d, f) for d in (1, 2, 8)))
    with pytest.raises(ClaimFailed, match="z decomposition"):
        certify(11, 2)


@pytest.mark.parametrize("n,q", [(9, 5), (10, 7), (11, 3), (9, 4), (10, 4)])
def test_z_decomposition_parts_are_the_factors_of_each_tag(n, q):
    # the parts "z decomposition" checks are t - 1/alpha_(n-1) and f for the
    # generic tags, l for sl11, and two irreducibles for the GF(4) special pairs
    pair = construct.build(n, q)
    parts = list(factor_degree_components(pair.z.charpoly()))
    if pair.tag == "sl11":
        assert parts == [(11, pair.l)]
    elif pair.tag == "special":
        assert [d for d, _ in parts] == ([2, 7] if n == 9 else [1, 9])
        assert all(g.degree == d for d, g in parts)
    else:
        lin = Poly.x_minus(pair.field, pair.field.inv(pair.alphas[-1]))
        assert parts == [(1, lin), (n - 1, pair.f)]


@pytest.fixture(scope="module")
def g95():
    return certify(9, 5)


def test_ppd_is_derived_from_the_factors_of_q(g95):
    # 5^8 - 1 = 2^5 * 3 * 13 * 313; 5 has order 1, 2, 4 and 8 modulo them
    assert list(g95)[list(g95).index("orders") + 1] == "ppd"
    assert g95["ppd"] == "313"
    assert "primitive prime divisor 313 of 5^8 - 1" in g95["assumptions"][0]
    assert "Bray, Holt & Roney-Dougal" in certify(11, 2)["assumptions"][0]
    # 2 divides q - 1 = 4 and Q, but is no primitive prime divisor
    r = tampered(g95, ("ppd",), "2")
    assert r == VerifyResult(False, "primitive prime divisor")


def test_missing_ppd_is_a_failed_claim(monkeypatch):
    # with factor(n - 1) read as [(1, 1)], a ppd r would need q^(n-1) != 1
    # mod r, which no prime of Q has: certify fails by name, not StopIteration
    monkeypatch.setattr("sl23.certify.factor", lambda m: [(1, 1)])
    with pytest.raises(ClaimFailed, match="primitive prime divisor"):
        certify(9, 5)


def test_version_1_certificates_are_refused(g95):
    irr = g95["irreducibility"]
    r = tampered(g95, ("irreducibility",),
                 {"scan": irr["scan"], "meataxe": "irreducible", "seed": irr["seed"]})
    assert r == VerifyResult(False, "schema key order")
    assert tampered(g95, ("version",), "1") == VerifyResult(False, "version")


def test_version_2_certificates_are_refused():
    # VERSION "2" special certificates carried a MeatAxe verdict; any
    # version-"2" certificate now fails at its first key
    assert VERSION == "3"
    for n, q in ((9, 5), (10, 4)):
        cert = certify(n, q)
        irr = cert["irreducibility"]
        cert["version"] = "2"
        assert verify(cert) == VerifyResult(False, "version")
        cert["irreducibility"] = {"scan": irr["scan"], "meataxe": "irreducible",
                                  "seed": irr["seed"]}
        assert verify(cert) == VerifyResult(False, "version")


@pytest.mark.parametrize("tag,n,q", [("generic9", 9, 3), ("generic10", 10, 5),
                                     ("special", 10, 3), ("sl11", 11, 2)])
def test_schema_mutations_fail_with_a_named_claim(tag, n, q):
    cert = certify(n, q)
    assert cert["construction"]["tag"] == tag
    keys = list(cert)

    def reordered(order, extra=()):
        return dict([(k, cert[k]) for k in order] + list(extra))

    for i, key in enumerate(keys):
        r = verify(reordered(keys[:i] + keys[i + 1:]))
        assert not r.ok and r.failed_claim, ("delete", key)
        if i + 1 < len(keys):
            swapped = keys[:i] + [keys[i + 1], key] + keys[i + 2:]
            assert verify(reordered(swapped)) == VerifyResult(
                False, "schema key order"), ("swap", key)
    assert verify(reordered(keys, [("extra", "x")])) == VerifyResult(
        False, "schema key order")


GENERIC_AND_SL11 = ([(9, q) for q in (3, 5, 7, 8, 9, 11, 13, 16)]
                    + [(10, q) for q in (5, 7, 8, 9, 11, 13, 16)]
                    + [(11, q) for q in (2, 3, 4, 5, 7, 8, 9)])


def test_order_of_z_needs_no_factoring(monkeypatch):
    def no_factoring(n):
        raise AssertionError(f"factor({n}) called for a matrix order")

    monkeypatch.setattr("sl23.matrix.factor", no_factoring)
    for n, q in GENERIC_AND_SL11:
        r = verify(certify(n, q))
        assert r.ok, (n, q, r.failed_claim)


SPECIAL = [(9, 2), (9, 4), (10, 2), (10, 3), (10, 4)]
VERIFY_PRIMES = [(n, q) for n in (9, 10, 11) for q in (17, 19, 23, 29)]


@pytest.mark.parametrize("n,q", SPECIAL + GENERIC_AND_SL11 + VERIFY_PRIMES)
def test_order_of_z_from_its_charpoly_agrees(n, q):
    # charpoly(z) is squarefree for every pair, so it is m_z: the order read
    # modulo it is the spun minimal polynomial's, and Q
    pair = construct.build(n, q)
    z, fs = pair.z, pair.Q_factors
    cp = z.charpoly()
    assert cp.is_squarefree and cp == z.minpoly()
    assert z.order(fs, cp) == z.order(fs) == z.order() == pair.Q
    assert _has_order(z, pair.Q, fs, cp)
    for r, _ in fs:
        assert not _has_order(z, pair.Q // r, factor(pair.Q // r), cp), r
    assert not _has_order(z, pair.Q * 2, factor(pair.Q * 2), cp)


def test_non_squarefree_charpolys_fall_back_to_the_spin():
    f4, f5 = make_field(2, 2), make_field(5, 1)
    jordan = Mat(f5, [[2 if i == j else int(j == i + 1) for j in range(3)] for i in range(3)])
    diag = Mat(f5, [[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    identity = Mat.identity(f4, 3)
    for a, o in ((jordan, 20), (diag, 4), (identity, 1)):
        cp = a.charpoly()
        assert not cp.is_squarefree
        assert a.order() == o and _has_order(a, o, factor(o), cp)
        for wrong in {o * r for r in (2, 3, 5)} | {o // r for r, _ in factor(o)}:
            assert not _has_order(a, wrong, factor(wrong), cp), (a, wrong)
    # (t - 1)^3 is not m_I = t - 1: modulo it t has order 4, not 1
    assert identity.order(None, identity.charpoly()) == 4


@pytest.mark.parametrize("n,q,spins", [(9, 5, 2), (11, 3, 1)])
def test_z_is_spun_only_for_its_charpoly(monkeypatch, n, q, spins):
    # charpoly(z) serves the order of z and the charpoly section, so certify
    # and verify each spin only for it: two spins for (9, 5), one for (11, 3)
    construct.build(n, q)  # cached, so only the certificate's spins count
    calls, spin = [], Mat._spin
    monkeypatch.setattr(Mat, "_spin", lambda self, *a: calls.append(a) or spin(self, *a))
    cert = certify(n, q)
    assert len(calls) == spins
    calls.clear()
    assert verify(cert) == VerifyResult(True, None)
    assert len(calls) == spins


def test_tamper_seed(base):
    r = tampered(base, ("seed",), "1")
    assert not r.ok and r.failed_claim == "seed consistency"


def test_tamper_charpoly(base):
    c = copy.deepcopy(base)
    row = c["charpoly"]["z"]
    row[0] = "1" if row[0] != "1" else "0"
    assert not verify(c).ok


def test_tamper_maxsub_scan(c11):
    c = copy.deepcopy(c11)
    c["maxsub_scan"][6]["orders"][0]["order"] = "1"
    assert not verify(c).ok
    c = copy.deepcopy(c11)
    c["maxsub_scan"][13]["orders"][0]["divisible"] = True
    r = verify(c)
    assert not r.ok and r.failed_claim == "maxsub table"


def test_tamper_witness_word(c103):
    assert verify(c103).ok
    c = copy.deepcopy(c103)
    c["construction"]["words"][1]["order"] = "3"
    r = verify(c)
    assert not r.ok and r.failed_claim == "witness word order"


@pytest.mark.parametrize("order", ["0", str(2**4423 - 1), "twice"],
                         ids=["zero", "mersenne", "twice"])
def test_witness_word_order_is_checked_against_its_claim(c103, order):
    # 0 and a Mersenne prime past q**n fail before anything is factored
    c = copy.deepcopy(c103)
    word = c["construction"]["words"][0]
    word["order"] = str(2 * int(word["order"])) if order == "twice" else order
    t0 = time.perf_counter()
    assert verify(c) == VerifyResult(False, "witness word order")
    assert time.perf_counter() - t0 < 1


def test_large_prime_field_certifies_and_verifies_fast():
    # the embedding of GF(p) keeps no p-entry table
    t0 = time.perf_counter()
    c = certify(9, 1000003)
    assert verify(c).ok
    assert time.perf_counter() - t0 < 2


def test_large_fields_certify_and_verify_within_the_build_gate():
    # every build works in GF(q**8), of degree 80 for q = 3**10; start from
    # the empty caches of a fresh `sl23 certify`
    for cached in (construct.build, construct.build_generic, make_field):
        cached.cache_clear()
    t0 = time.perf_counter()
    for n, q in [(9, 3**10), (9, 10**6 + 3)]:
        assert verify(certify(n, q)).ok, q
    assert time.perf_counter() - t0 < 20


def test_tamper_prime_pair(c103):
    c = copy.deepcopy(c103)
    c["construction"]["prime_pair"] = ["61", "5"]
    r = verify(c)
    assert not r.ok and r.failed_claim in (
        "prime pair",
        "prime pair divides group order",
    )


def test_malformed_certificates(base):
    c = copy.deepcopy(base)
    del c["alphas"]
    assert not verify(c).ok
    c = copy.deepcopy(base)
    c["extra"] = "x"
    assert not verify(c).ok
    assert not verify({"version": "1"}).ok
    assert not verify([1, 2]).ok
    r = verify({"version": "1"})
    assert not r.ok and r.failed_claim == "version"
    c = copy.deepcopy(base)
    c["n"] = "10"  # shape no longer matches the tag
    assert not verify(c).ok


def test_tamper_construction_tag(base):
    r = tampered(base, ("construction", "tag"), "special")
    assert not r.ok


@pytest.mark.parametrize("value", ["junk", ["junk"], 7, None])
@pytest.mark.parametrize(
    "section", ["construction", "matrices", "orders", "charpoly", "irreducibility"]
)
def test_wrong_type_section_is_rejected(base, section, value):
    r = tampered(base, (section,), value)
    assert isinstance(r, VerifyResult)
    assert not r.ok


def test_non_canonical_integers_are_rejected(c11):
    # "٢" is ARABIC-INDIC DIGIT TWO: str.isdigit accepts it and int() reads 2
    assert tampered(c11, ("q",), "\u0662") == VerifyResult(
        False, "malformed certificate (expected a canonical decimal string, got '٢')"
    )
    c = copy.deepcopy(c11)
    assert c["seed"] == c["irreducibility"]["seed"] == "0"
    c["seed"] = c["irreducibility"]["seed"] = "00"
    assert not verify(c).ok
    for bad in ("+2", " 2", "2\n", "0x2", "-0", "", "2.0"):
        assert not tampered(c11, ("q",), bad).ok, bad


def deeply_nested_list(depth=100_000):
    deep = []
    for _ in range(depth):
        deep = [deep]
    return deep


@pytest.mark.parametrize("fixture,path", [
    ("base", ("n",)),
    ("base", ("matrices", "x", 0, 0)),
    ("base", ("Q_factors", 0, 0)),
    ("base", ("seed",)),
    ("base", ("alphas", 0)),
    ("c103", ("construction", "words", 0, "letters", 0)),
])
def test_deeply_nested_value_is_malformed(request, fixture, path):
    # a list too deep to repr or compare recursively
    r = tampered(request.getfixturevalue(fixture), path, deeply_nested_list())
    assert not r.ok and r.failed_claim.startswith("malformed certificate"), r


def test_huge_prime_power_q_is_a_failed_claim(base):
    # the first prime above 10**160, squared: too large for a float root
    p = 10**160 + 1
    while not is_prime(p):
        p += 2
    assert tampered(base, ("q",), str(p * p)) == VerifyResult(
        False, "prime power decomposition"
    )


def test_q_past_the_size_limit_is_a_failed_claim(base):
    # 14,000 bits: one Miller-Rabin test on q alone would take seconds
    q = (1 << 13999) + 1
    assert q.bit_length() > MAX_Q_BITS >= 1064  # the test above stays below
    t0 = time.perf_counter()
    assert tampered(base, ("q",), str(q)) == VerifyResult(False, "q size")
    assert time.perf_counter() - t0 < 1
    with pytest.raises(ValueError):
        certify(9, q)


def test_field_degree_past_the_limit_is_a_failed_claim():
    # a forgery under 1 kB: building GF(2**2000) alone would take over a minute
    forged = {"version": VERSION, "n": "9", "q": str(2**2000), "p": "2", "m": "2000",
              "construction": {"tag": "generic9"}}
    assert 2000 > MAX_Q_DEGREE >= 20  # the largest m the other tests build
    t0 = time.perf_counter()
    assert verify(forged) == VerifyResult(False, "q size")
    assert time.perf_counter() - t0 < 1
    with pytest.raises(OutOfRange):
        certify(9, 2**65)


def test_certify_checks_survive_python_O():
    # python -O strips assert statements; certify must still refuse a pair
    # whose recorded Q is not the order of x*y
    src = os.path.dirname(os.path.dirname(sys.modules["sl23.certify"].__file__))
    script = textwrap.dedent("""
        import dataclasses
        from sl23 import certify as C
        pair = C.build(9, 3)
        C.build = lambda n, q: dataclasses.replace(pair, Q=pair.Q + 1)
        try:
            C.certify(9, 3)
        except ArithmeticError:
            raise SystemExit(0)
        raise SystemExit("certify returned a certificate for a wrong Q")
    """)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# --- assumption strings ---------------------------------------------------------


def test_assumption_lines():
    a9 = certify(9, 3)["assumptions"]
    assert len(a9) == 2
    assert "3280" in a9[0]
    assert "PSL_9(3)" in a9[1]
    a92 = certify(9, 2)["assumptions"]
    assert "73*127" in a92[0]
    a11 = certify(11, 2)["assumptions"]
    assert "fourteen-row" in a11[0]
