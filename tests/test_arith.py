"""Integer arithmetic substrate: primality, factoring, Zsigmondy primes."""

import math
import random

import pytest

from sl23.arith import (
    NotPrimePower,
    _iroot,
    factor,
    is_prime,
    order_from_bound,
    prime_power_decompose,
    zsigmondy_primes,
)


def sieve(limit):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return flags


def trial_factor(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_is_prime_agrees_with_sieve_below_million():
    flags = sieve(1_000_000)
    # every sieve prime, plus a seeded sample of composites
    for n in range(2, 1_000_000):
        if flags[n]:
            assert is_prime(n), n
    rng = random.Random(0)
    for _ in range(20000):
        n = rng.randrange(4, 1_000_000)
        assert is_prime(n) == bool(flags[n]), n


def test_is_prime_edges_and_pseudoprimes():
    assert not is_prime(0) and not is_prime(1) and not is_prime(-7)
    assert is_prime(2) and is_prime(3)
    # strong pseudoprimes to small bases must still be rejected
    for n in (3215031751, 3825123056546413051, 341550071728321):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_factor_agrees_with_trial_division():
    rng = random.Random(1)
    for _ in range(2000):
        n = rng.randrange(2, 1_000_000)
        assert factor(n) == trial_factor(n), n


def test_factor_structure():
    assert factor(1) == []
    assert factor(2**10) == [(2, 10)]
    assert factor(2047) == [(23, 1), (89, 1)]
    assert factor(6560) == [(2, 5), (5, 1), (41, 1)]
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randrange(2, 10**12)
        fs = factor(n)
        assert math.prod(r**e for r, e in fs) == n
        assert all(is_prime(r) for r, _ in fs)
        assert [r for r, _ in fs] == sorted({r for r, _ in fs})
    with pytest.raises(ValueError):
        factor(0)


def test_factor_large_semiprime():
    n = 1000003 * 1000033
    assert factor(n) == [(1000003, 1), (1000033, 1)]
    # the q = 9 certificate needs (9^11 - 1)/8 factored
    assert math.prod(r**e for r, e in factor((9**11 - 1) // 8)) == (9**11 - 1) // 8


def test_zsigmondy_primes():
    assert zsigmondy_primes(2, 11) == [23, 89]
    assert zsigmondy_primes(2, 6) == []  # the classical exception
    assert zsigmondy_primes(2, 4) == [5]
    assert zsigmondy_primes(3, 2) == []  # 3 + 1 is a power of two
    assert zsigmondy_primes(2, 1) == []
    assert zsigmondy_primes(3, 5) == [11]
    # a primitive prime divides a^k - 1 but no smaller a^i - 1
    for a, k in ((2, 11), (3, 7), (5, 6)):
        for r in zsigmondy_primes(a, k):
            assert (a**k - 1) % r == 0
            assert all((a**i - 1) % r for i in range(1, k))


def test_prime_power_decompose():
    assert prime_power_decompose(2) == (2, 1)
    assert prime_power_decompose(16) == (2, 4)
    assert prime_power_decompose(27) == (3, 3)
    assert prime_power_decompose(125) == (5, 3)
    assert prime_power_decompose(1000003) == (1000003, 1)
    for bad in (0, 1, 6, 12, 100, -8):
        with pytest.raises(NotPrimePower):
            prime_power_decompose(bad)


def next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def test_prime_power_decompose_beyond_float_range():
    # q ** (1.0 / m) overflows a float here; the roots must be exact integers
    p = next_prime(10**160)
    r = next_prime(p)
    assert prime_power_decompose(p**2) == (p, 2)
    assert prime_power_decompose(p**3) == (p, 3)
    with pytest.raises(NotPrimePower):
        prime_power_decompose(p * r)
    # a float root of (2**61 - 1)**3 is off by more than one
    assert prime_power_decompose((2**61 - 1) ** 3) == (2**61 - 1, 3)


def test_iroot_is_exact():
    rng = random.Random(13)
    for bits in (60, 61, 200, 1000, 4000, 14000):
        n = rng.getrandbits(bits) | 1 << bits - 1
        ms = {2, 3, 4, 5, 7, 13, 64, bits // 13, rng.randrange(2, bits // 13 + 1)}
        for m in sorted(m for m in ms if m <= bits // 13):
            r = rng.getrandbits(bits // m) | 1 << bits // m - 1
            for x in (n, r**m - 1, r**m, r**m + 1):
                root = _iroot(x, m)
                assert root**m <= x < (root + 1) ** m, (bits, m)
            assert _iroot(r**m, m) == r
    assert [_iroot(x, 3) for x in (1, 7, 8, 26, 27)] == [1, 1, 2, 2, 3]


def _counted_order(order, bound):
    """order_from_bound for an element of the given order, and the number
    of is_one calls it made."""
    calls = []

    def is_one(e):
        calls.append(e)
        return e % order == 0

    return order_from_bound(is_one, bound), len(calls)


def test_order_from_bound_calls_once_per_prime_on_an_exact_bound():
    for order in (1, 2, 12, 360, 2**10 * 3**7 * 11, 1000003 * 1000033):
        fs = factor(order)
        assert _counted_order(order, fs) == (order, 1 + len(fs))


def test_order_from_bound_bisects_each_exponent():
    # one check at the bound, one at j = 1, then a bisection of [1, e]
    for e in range(1, 70):
        for j in range(e + 1):
            order, calls = _counted_order(3**j, [(3, e)])
            assert order == 3**j
            assert calls <= math.ceil(math.log2(e)) + 2, (e, j)
    order, calls = _counted_order(2**3 * 5 * 7**2, [(2, 40), (5, 1), (7, 9), (11, 3)])
    assert order == 2**3 * 5 * 7**2
    assert calls <= 1 + sum(math.ceil(math.log2(e)) + 1 for e in (40, 1, 9, 3))
