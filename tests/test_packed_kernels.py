"""The packed big-field kernels of a build against code-level references.

element_of_order, Embedding._find_image and minimal_polynomial run in
Field.packed; each reference below works on element codes with the
field's own add, mul and pow, as those kernels did before they were packed.
poly.survives, the product tree behind element_of_order and Mat.order, is
checked against every prime quotient.
"""

import math
import random

import pytest

from sl23.arith import NotAnnihilated, factor, order_from_bound
from sl23.ff import element_of_order, embed, make_field
from sl23.matrix import Mat
from sl23.poly import DegenerateConjugates, Poly, minimal_polynomial, survives

# (small, big): untabled odd and char-2 extensions, a tabled extension
# (GF(2^8) <= 256), a prime small field, and a prime big field.
CASES = [((3, 2), (3, 6)), ((5, 2), (5, 4)), ((2, 4), (2, 12)), ((2, 4), (2, 8)),
         ((7, 1), (7, 3)), ((211, 1), (211, 1))]
IDS = ["9-in-3^6", "25-in-5^4", "16-in-2^12", "16-in-2^8-tabled", "7-in-7^3", "211"]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def scan_element_of_order(field, Q):
    """The first g**((|F| - 1) / Q) of order Q, ordered by Field.pow."""
    start = field.p if field.k > 1 else 2
    for g in range(start, field.order):
        w = field.pow(g, (field.order - 1) // Q)
        if order_from_bound(lambda e: field.pow(w, e) == 1, factor(Q)) == Q:
            return w


def least_root(field, coeffs):
    """The least code c with sum(coeffs[i] * c**i) = 0, by Horner on codes."""
    for c in field.elements():
        acc = 0
        for a in reversed(coeffs):
            acc = field.add(field.mul(acc, c), a)
        if acc == 0:
            return c


def expanded_minimal_polynomial(w, e):
    """prod(t - w**(q**i)) expanded as a Poly over the big field, projected;
    None if the conjugates are not distinct."""
    big, small = e.big, e.small
    d = big.k // small.k
    conj = [big.pow(w, small.order**i) for i in range(d)]
    if len(set(conj)) != d:
        return None
    prod = Poly.constant(big, 1)
    for c in conj:
        prod = prod * Poly.x_minus(big, c)
    return Poly(small, (e.project(c) for c in prod.coeffs))


@pytest.mark.parametrize("small,big", CASES, ids=IDS)
def test_element_of_order_matches_a_scan(small, big):
    big = make_field(*big)
    for Q in divisors(big.order - 1):
        assert element_of_order(big, Q, factor(Q)) == scan_element_of_order(big, Q), Q


@pytest.mark.parametrize("small,big", CASES, ids=IDS)
def test_the_order_tree_matches_every_prime_quotient(small, big):
    big = make_field(*big)
    N, ring = big.order - 1, big.packed
    primes = [r for r, _ in factor(N)]
    for a in range(1, big.order, max(1, big.order // 300)):
        x = ring.pack(big.pow(a, N // math.prod(primes)))
        expected = all(big.pow(a, N // r) != 1 for r in primes)
        assert survives(x, primes, ring.mul) == expected, a
    assert survives(1, [], ring.mul)  # no prime, so none is 1: N = 1


@pytest.mark.parametrize("p,k", [(5, 1), (2, 3), (3, 2)])
def test_a_surplus_prime_power_falls_back_to_bisection(monkeypatch, p, k):
    # Mat.order settles an exact bound on the tree alone; a surplus prime
    # power is 1 at t**(N/r), and only then does order_from_bound bisect
    f = make_field(p, k)
    a = Mat(f, [[2 if i == j else int(j == i + 1) for j in range(3)] for i in range(3)])
    o = a.order()
    calls, bisect = [], order_from_bound
    monkeypatch.setattr("sl23.matrix.order_from_bound",
                        lambda *args: calls.append(args) or bisect(*args))
    assert a.order(factor(o)) == o and not calls
    surplus = factor(o * p**3 * 7**2)
    assert a.order(surplus) == o and len(calls) == 1
    with pytest.raises(NotAnnihilated):
        a.order(factor(o // p))
    assert len(calls) == 2


@pytest.mark.parametrize("small,big", CASES, ids=IDS)
def test_image_of_generator_is_the_least_root(small, big):
    small, big = make_field(*small), make_field(*big)
    assert embed(small, big).image_of_generator == least_root(big, small.modulus)


@pytest.mark.parametrize("small,big", CASES, ids=IDS)
def test_minimal_polynomial_matches_the_expansion(small, big):
    small, big = make_field(*small), make_field(*big)
    e, rng = embed(small, big), random.Random(big.order)
    ws = [rng.randrange(big.order) for _ in range(40)]
    ws += [element_of_order(big, Q, factor(Q)) for Q in divisors(big.order - 1)]
    degenerate = 0
    for w in ws:
        expected = expanded_minimal_polynomial(w, e)
        if expected is None:
            degenerate += 1
            with pytest.raises(DegenerateConjugates):
                minimal_polynomial(w, e)
        else:
            assert minimal_polynomial(w, e) == expected, w
    assert degenerate < len(ws)
