"""Field arithmetic: axioms, Frobenius, embeddings, element orders."""

import functools
import itertools
import operator
import os
import random
import subprocess
import sys

import pytest

from sl23.arith import NotAnnihilated, factor, order_from_bound
from sl23.ff import (
    _defining_poly,
    InvalidPrime,
    NoEmbedding,
    NotInSubfield,
    OrderDoesNotDivide,
    element_of_order,
    embed,
    make_field,
)
from sl23.poly import Poly, is_irreducible

SMALL = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2)]

# The defining polynomial of every field the 27 acceptance pairs build,
# small and big.  Certificates carry these moduli, so a change to the
# search would change their bytes.
ACCEPTANCE_MODULI = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (2, 20): (1,) + (0,) * 16 + (1, 0, 0, 1),
    (2, 24): (1,) + (0,) * 19 + (1, 1, 0, 1, 1),
    (2, 27): (1,) + (0,) * 21 + (1, 0, 0, 1, 1, 1),
    (2, 30): (1,) + (0,) * 28 + (1, 1),
    (2, 32): (1,) + (0,) * 24 + (1, 0, 0, 0, 1, 1, 0, 1),
    (2, 36): (1,) + (0,) * 30 + (1, 1, 0, 1, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (3, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 1),
    (3, 16): (1,) + (0,) * 12 + (1, 1, 0, 1),
    (3, 18): (1,) + (0,) * 14 + (1, 0, 2, 1),
    (3, 20): (1,) + (0,) * 16 + (1, 0, 2, 1),
    (5, 1): (0, 1),
    (5, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (5, 9): (1, 0, 0, 0, 0, 0, 0, 2, 3, 1),
    (5, 10): (1, 0, 0, 0, 0, 0, 0, 0, 2, 2, 1),
    (7, 1): (0, 1),
    (7, 8): (1, 0, 0, 0, 0, 0, 1, 2, 1),
    (7, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (7, 10): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1),
    (11, 1): (0, 1),
    (11, 8): (1, 0, 0, 0, 0, 0, 0, 4, 1),
    (11, 9): (1, 0, 0, 0, 0, 0, 0, 0, 4, 1),
    (13, 1): (0, 1),
    (13, 8): (1, 0, 0, 0, 0, 0, 2, 1, 1),
    (13, 9): (1, 0, 0, 0, 0, 0, 0, 1, 2, 1),
}
BIG = [(3, 8), (2, 11), (1000003, 2)]


def sample(field, rng):
    return rng.randrange(field.order)


def nonzero_sample(field, rng):
    return rng.randrange(1, field.order)


@pytest.mark.parametrize("p,k", SMALL + BIG)
def test_field_axioms(p, k):
    field = make_field(p, k)
    rng = random.Random(p * 100 + k)
    zero, one = field.scalar(0), field.scalar(1)
    assert zero == 0
    assert one == 1
    for _ in range(1000):
        a = sample(field, rng)
        b = sample(field, rng)
        c = sample(field, rng)
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(
            field.mul(a, b), field.mul(a, c)
        )
        assert field.add(a, zero) == a
        assert field.mul(a, one) == a
        assert field.mul(a, zero) == zero
        assert field.add(a, field.neg(a)) == zero
        assert field.sub(a, b) == field.add(a, field.neg(b))
        if a != 0:
            assert field.mul(a, field.inv(a)) == one
    with pytest.raises(ZeroDivisionError):
        field.inv(zero)


@pytest.mark.parametrize("p,k", SMALL + BIG)
def test_frobenius(p, k):
    field = make_field(p, k)
    rng = random.Random(p * 1000 + k)
    for _ in range(1000):
        a = sample(field, rng)
        b = sample(field, rng)
        fa = field.frobenius(a)
        assert fa == field.pow(a, p)
        assert field.frobenius(field.add(a, b)) == field.add(fa, field.frobenius(b))
        assert field.frobenius(field.mul(a, b)) == field.mul(fa, field.frobenius(b))
    # k-fold iteration is the identity
    for _ in range(20):
        b = sample(field, rng)
        acc = b
        for _ in range(k):
            acc = field.frobenius(acc)
        assert acc == b


def test_frobenius_fixed_field():
    field = make_field(3, 2)
    fixed = [a for a in field.elements() if field.frobenius(a) == a]
    assert fixed == [0, 1, 2]


def test_dot():
    field = make_field(5, 2)
    rng = random.Random(52)
    for _ in range(200):
        xs = [sample(field, rng) for _ in range(6)]
        ys = [sample(field, rng) for _ in range(6)]
        acc = 0
        for a, b in zip(xs, ys):
            acc = field.add(acc, field.mul(a, b))
        assert field.dot(xs, ys) == acc


def test_make_field_determinism():
    assert make_field(7, 1).modulus == (0, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)
    assert make_field(2, 3).modulus == (1, 0, 1, 1)
    assert make_field(3, 2).modulus == (1, 0, 1)
    for p, k in SMALL + BIG:
        f1 = make_field(p, k)
        f2 = make_field(p, k)
        assert f1 == f2
        assert hash(f1) == hash(f2)
        assert len(f1.modulus) == k + 1
        assert f1.modulus[-1] == 1
        assert f1.order == p**k


def test_make_field_rejects_bad_input():
    with pytest.raises(InvalidPrime):
        make_field(4, 1)
    with pytest.raises(InvalidPrime):
        make_field(1, 2)
    with pytest.raises(ValueError):
        make_field(2, 0)


def test_element_coding():
    for p, k in [(2, 3), (3, 2)]:
        field = make_field(p, k)
        for a in field.elements():
            cs = field.coeffs(a)
            assert len(cs) == k
            assert all(0 <= c < p for c in cs)
            assert field.encode(cs) == a
    field = make_field(3, 2)
    assert field.scalar(-1) == 2
    assert field.scalar(7) == 1


def field_order(field, a, bound_factors):
    return order_from_bound(lambda e: field.pow(a, e) == 1, bound_factors)


def test_element_of_order():
    field = make_field(5, 2)
    group = field.order - 1
    for d in [1, 2, 3, 4, 6, 8, 12, 24]:
        w = element_of_order(field, d, factor(d))
        assert field_order(field, w, factor(group)) == d
    with pytest.raises(OrderDoesNotDivide):
        element_of_order(field, 7, factor(7))
    assert element_of_order(field, 1, []) == 1
    # deterministic: repeated calls agree
    assert element_of_order(field, 8, factor(8)) == element_of_order(
        field, 8, factor(8)
    )


def test_multiplicative_order_errors():
    field = make_field(3, 1)
    assert field_order(field, 2, [(2, 1)]) == 2
    with pytest.raises(NotAnnihilated):
        field_order(field, 2, [(3, 1)])
    # 0 has no multiplicative order: no bound annihilates it
    with pytest.raises(NotAnnihilated):
        field_order(field, 0, [(2, 1)])


def test_embed_ring_homomorphism():
    cases = [(make_field(2, 1), make_field(2, 2)),
             (make_field(2, 2), make_field(2, 4)),
             (make_field(3, 1), make_field(3, 2)),
             (make_field(5, 1), make_field(5, 2))]
    for small, big in cases:
        emb = embed(small, big)
        assert emb.lift(0) == 0
        assert emb.lift(1) == 1
        for a in small.elements():
            assert emb.project(emb.lift(a)) == a
            for b in small.elements():
                assert emb.lift(small.add(a, b)) == big.add(emb.lift(a), emb.lift(b))
                assert emb.lift(small.mul(a, b)) == big.mul(emb.lift(a), emb.lift(b))


def test_embed_membership_test():
    small, big = make_field(2, 1), make_field(2, 2)
    emb = embed(small, big)
    image = {emb.lift(a) for a in small.elements()}
    outside = [b for b in big.elements() if b not in image]
    assert outside
    for b in outside:
        with pytest.raises(NotInSubfield):
            emb.project(b)


# Subfields past the tabled range, in both characteristics and over a
# prime field with 65537 elements.
LARGE_EMBEDDINGS = [((2, 9), (2, 18)), ((3, 6), (3, 12)), ((65537, 1), (65537, 2))]
LARGE_IDS = ["2^9-in-2^18", "3^6-in-3^12", "65537-in-65537^2"]


@pytest.mark.parametrize("small,big", LARGE_EMBEDDINGS, ids=LARGE_IDS)
def test_embed_round_trip_and_homomorphism_on_large_fields(small, big):
    small, big = make_field(*small), make_field(*big)
    emb = embed(small, big)
    assert (emb.lift(0), emb.lift(1)) == (0, 1)
    rng = random.Random(small.order)
    for _ in range(50):
        a, b = rng.randrange(small.order), rng.randrange(small.order)
        assert emb.project(emb.lift(a)) == a
        assert emb.lift(small.add(a, b)) == big.add(emb.lift(a), emb.lift(b))
        assert emb.lift(small.mul(a, b)) == big.mul(emb.lift(a), emb.lift(b))


@pytest.mark.parametrize("small,big", LARGE_EMBEDDINGS, ids=LARGE_IDS)
def test_project_is_a_membership_test_on_large_fields(small, big):
    # b lies in GF(q) iff b**q = b, as every norm w**((|big| - 1)/(q - 1)) does
    small, big = make_field(*small), make_field(*big)
    emb, q = embed(small, big), small.order
    rng = random.Random(big.order)
    outside = 0
    for _ in range(50):
        b = rng.randrange(big.order)
        if big.pow(b, q) == b:
            assert emb.lift(emb.project(b)) == b
        else:
            outside += 1
            with pytest.raises(NotInSubfield):
                emb.project(b)
    assert outside
    for b in (-1, big.order, big.order + 1):  # codes outside the big field
        with pytest.raises(NotInSubfield):
            emb.project(b)
    for _ in range(10):
        b = big.pow(rng.randrange(1, big.order), (big.order - 1) // (q - 1))
        assert big.pow(b, q) == b and emb.lift(emb.project(b)) == b


def test_embed_rejects_impossible():
    with pytest.raises(NoEmbedding):
        embed(make_field(2, 2), make_field(2, 3))
    with pytest.raises(NoEmbedding):
        embed(make_field(2, 1), make_field(3, 2))


def test_pow():
    field = make_field(3, 2)
    rng = random.Random(9)
    for _ in range(200):
        a = nonzero_sample(field, rng)
        e = rng.randrange(0, 50)
        acc = 1
        for _ in range(e):
            acc = field.mul(acc, a)
        assert field.pow(a, e) == acc
    assert field.pow(field.scalar(2), -1) == field.inv(field.scalar(2))


def test_acceptance_field_moduli_are_pinned():
    for (p, k), modulus in ACCEPTANCE_MODULI.items():
        assert make_field(p, k).modulus == modulus, (p, k)



# --- differential checks against a schoolbook oracle ----------------------
#
# The oracle works on digit vectors: coefficient-wise sums, the full
# polynomial product, then reduction by field.modulus from the top down.

# every extension field with at most 256 elements (the tabled ones)
TABLED = [(2, k) for k in range(2, 9)] + [(3, k) for k in range(2, 6)] + [
    (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)]


def digits(field, a):
    return [a // field.p**i % field.p for i in range(field.k)]


def undigits(field, cs):
    v = 0
    for c in reversed(cs):
        v = v * field.p + c % field.p
    return v


def oracle_mul(field, x, y):
    p, k, m = field.p, field.k, field.modulus
    prod = [0] * (2 * k - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                prod[i + j] += xi * yj
    for i in range(2 * k - 2, k - 1, -1):
        c = prod[i] % p
        if c:
            for j in range(k + 1):
                prod[i - k + j] -= c * m[j]
    return undigits(field, prod[:k])


def test_tabled_fields_match_the_oracle_exhaustively():
    assert len(TABLED) == 16
    assert all(p**k <= 256 for p, k in TABLED)
    for p, k in TABLED:
        field = make_field(p, k)
        vecs = [digits(field, a) for a in field.elements()]
        for a, x in enumerate(vecs):
            assert field.neg(a) == undigits(field, [-c for c in x])
            for b, y in enumerate(vecs):
                assert field.add(a, b) == undigits(field, [u + v for u, v in zip(x, y)])
                assert field.sub(a, b) == undigits(field, [u - v for u, v in zip(x, y)])
                assert field.mul(a, b) == oracle_mul(field, x, y), (p, k, a, b)
            if a:
                assert oracle_mul(field, x, vecs[field.inv(a)]) == 1


@pytest.mark.parametrize("p,k", [(3, 50), (251, 10), (17, 2), (2**89 - 1, 2), (2, 40)])
def test_packed_fields_match_the_oracle(p, k):
    field = make_field(p, k)
    rng = random.Random(p + k)
    for _ in range(300):
        a, b = sample(field, rng), sample(field, rng)
        x, y = digits(field, a), digits(field, b)
        assert field.add(a, b) == undigits(field, [u + v for u, v in zip(x, y)])
        assert field.sub(a, b) == undigits(field, [u - v for u, v in zip(x, y)])
        assert field.neg(a) == undigits(field, [-c for c in x])
        assert field.mul(a, b) == oracle_mul(field, x, y)
    for _ in range(10):
        a = nonzero_sample(field, rng)
        acc = 1
        for e in range(40):
            assert field.pow(a, e) == acc
            acc = oracle_mul(field, digits(field, acc), digits(field, a))
        assert oracle_mul(field, digits(field, a), digits(field, field.inv(a))) == 1



@pytest.mark.parametrize("p,k", TABLED + [(2, 11), (3, 8), (2, 1), (5, 1)])
def test_axpy_matches_scalar_arithmetic(p, k):
    # every c in a tabled field; a sample in the packed and prime ones
    field = make_field(p, k)
    rng = random.Random(p * 1000 + k)
    cs = field.elements() if field.order <= 256 else [sample(field, rng) for _ in range(300)]
    for c in cs:
        xs = [sample(field, rng) for _ in range(12)]
        ys = [sample(field, rng) for _ in range(11)] + [0]
        expected = [field.add(x, field.mul(c, y)) for x, y in zip(xs, ys)]
        assert field.axpy(c, xs, ys) == expected, (c, xs, ys)


@pytest.mark.parametrize("k", [9, 12])
def test_char2_dot_and_axpy_match_oracle_products(k):
    # untabled GF(2**k) on the byte-slot Ring, axpy with c packed once; a
    # product of all-ones codes puts every raw slot sum at its largest
    field = make_field(2, k)
    rng, ones = random.Random(k), field.order - 1
    rows = [[ones] * 11, [ones] * 10 + [0], [0] * 11]
    rows += [[sample(field, rng) for _ in range(11)] for _ in range(20)]
    pairs = [([ones] * 32, [ones] * 32)]
    for xs, ys in pairs + list(itertools.product(rows[:6], rows[:3] + rows[6:])):
        products = [oracle_mul(field, digits(field, x), digits(field, y)) for x, y in zip(xs, ys)]
        assert field.dot(xs, ys) == functools.reduce(operator.xor, products), (xs, ys)
    for xs, ys in zip(rows, rows[1:] + rows[:1]):
        for c in (ones, 1, 0, sample(field, rng)):
            expected = [x ^ oracle_mul(field, digits(field, c), digits(field, y))
                        for x, y in zip(xs, ys)]
            assert field.axpy(c, xs, ys) == expected, (c, xs, ys)


# The defining polynomials of the slowest fields a q <= 256 sweep searches
# for, each coded as sum(c_i * p**i) over its coefficients c_0, ..., c_k.
SWEEP_MODULI = {
    (2, 88): 609298613085773104051912705,
    (2, 77): 195978209039090276368385,
    (3, 55): 342437340129013684843408774,
    (5, 33): 181607902050018310546876,
    (13, 18): 134414155055002327883,
    (199, 9): 509102816315774670407,
    (251, 11): 255076434748515990410955258,
    (251, 9): 4190553682342591032267,  # the last sieved prime
    (257, 9): 5043254219894291712266,  # the first unsieved one
}


def test_sweep_field_moduli_are_pinned():
    for (p, k), code in SWEEP_MODULI.items():
        modulus = make_field(p, k).modulus
        assert len(modulus) == k + 1 and modulus[-1] == 1, (p, k)
        assert sum(c * p**i for i, c in enumerate(modulus)) == code, (p, k)


def first_irreducible_by_trial_division(p, k):
    """The first monic (c_0, ..., c_{k-1}, 1) in lexicographic order with no
    monic divisor of degree 1 .. k // 2: no root in GF(p) once k >= 2."""
    field = make_field(p, 1)
    divisors = [Poly(field, low + (1,)) for d in range(2, k // 2 + 1)
                for low in itertools.product(range(p), repeat=d)]
    for low in itertools.product(range(p), repeat=k):
        f = Poly(field, low + (1,))
        if (k == 1 or all(f.evaluate(a) for a in range(p))) and all(f % g for g in divisors):
            return low + (1,)


@pytest.mark.parametrize("p,max_k", [(2, 6), (3, 6), (5, 6), (7, 6), (11, 6), (13, 6),
                                     (251, 3), (257, 3)])
def test_defining_poly_is_the_first_irreducible_on_both_sides_of_the_sieve(p, max_k):
    for k in range(1, max_k + 1):
        assert _defining_poly(p, k) == first_irreducible_by_trial_division(p, k), (p, k)


@pytest.mark.parametrize("p,k", [(199, 9), (3, 44)])
def test_no_candidate_with_a_root_reaches_ben_or(monkeypatch, p, k):
    seen = []
    monkeypatch.setattr("sl23.ff.is_irreducible", lambda f: seen.append(f) or is_irreducible(f))
    modulus = _defining_poly(p, k)
    assert seen[-1].coeffs == modulus
    for f in seen:
        assert all(f.evaluate(a) for a in range(p)), f


def test_a_reducible_modulus_raises_instead_of_hanging():
    # t^4 + 1 = (t + 1)^4 over GF(2): t + 1 is nilpotent, nothing is primitive
    script = "from sl23.ff import Field; Field(2, 4, (1, 0, 0, 0, 1))"
    src = os.path.dirname(os.path.dirname(sys.modules["sl23.ff"].__file__))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=30)
    assert done.returncode == 1
    assert "ArithmeticError: GF(2^4)" in done.stderr
