"""Exact integer arithmetic: primality, factoring, primitive prime divisors,
element orders.

Everything here is deterministic.  Primality uses Miller-Rabin with a fixed
witness set that is known to be exact below 3.3 * 10**24.  Factoring uses
trial division by the primes below 10^4, then splits each composite
cofactor by racing Brent's variant of the Pollard rho method (Brent 1980)
against Pollard's p - 1 method (Pollard 1974; B1 = 10^4, stage 2 up to
2^20), the one that has spent fewer modular products running next and rho
a few thousand products ahead.  Both have fixed parameters, so repeated
runs always walk the same path.  Factorizations are returned as ascending
(prime, exponent) lists.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable, Generator


class NotPrimePower(ValueError):
    """Raised when an integer is not of the form p**m with p prime, m >= 1."""


class NotAnnihilated(ArithmeticError):
    """Raised when an element's stated order bound fails to annihilate it."""


# Exact witness sets for deterministic Miller-Rabin, from the published
# bounds (Pomerance et al., Jaeschke, Sorenson & Webster).  Each entry
# (limit, bases) certifies all n < limit.
_MR_RANGES = [
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (25326001, (2, 3, 5)),
    (3215031751, (2, 3, 5, 7)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, (2, 3, 5, 7, 11)),
    (3474749660383, (2, 3, 5, 7, 11, 13)),
    (341550071728321, (2, 3, 5, 7, 11, 13, 17)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3317044064679887385961981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

# Pseudo-random witness count for inputs beyond the exact table.  The bases
# are drawn from a generator with a fixed seed so results are reproducible.
_MR_EXTRA_ROUNDS = 40


def _mr_witness(a: int, d: int, r: int, n: int) -> bool:
    """True if a witnesses the compositeness of n = d * 2**r + 1."""
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test for nonnegative integers.

    Below 3.3 * 10**24 the fixed Miller-Rabin witness sets are exact; above
    that, 40 extra rounds with reproducibly seeded bases are used (error
    probability below 4**-40).  certify(11, 4093) gets there: its Q,
    (4093**11 - 1) / 4092, is 11 times a 36-digit prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for limit, bases in _MR_RANGES:
        if n < limit:
            return not any(_mr_witness(a % n, d, r, n) for a in bases)
    rng = random.Random(0xC0FFEE)
    bases = _MR_RANGES[-1][1] + tuple(
        rng.randrange(2, n - 1) for _ in range(_MR_EXTRA_ROUNDS)
    )
    return not any(_mr_witness(a % n, d, r, n) for a in bases)


def _sieve(lo: int, hi: int) -> list[int]:
    """The primes p with lo <= p < hi, ascending: a segment of the sieve of
    Eratosthenes over the odd numbers, striking each odd prime below
    sqrt(hi) from its square on."""
    out = [2] if lo <= 2 < hi else []
    lo = max(lo, 3) | 1
    if hi <= lo:
        return out
    flags = bytearray([1]) * len(range(lo, hi, 2))
    for p in _sieve(3, math.isqrt(hi - 1) + 1):
        start = max(p * p, -(-lo // p) * p)
        start += p * (start % 2 == 0)  # the first odd multiple
        flags[(start - lo) // 2 :: p] = bytes(len(range(start, hi, 2 * p)))
    out += itertools.compress(range(lo, hi, 2), flags)
    return out


_TRIAL_LIMIT = 10000
_trial_primes: list[int] | None = None


def _trial_prime_table() -> list[int]:
    global _trial_primes
    if _trial_primes is None:
        _trial_primes = _sieve(2, _TRIAL_LIMIT)
    return _trial_primes


# Pollard p - 1 stage 2 takes the primes in [_TRIAL_LIMIT, _PM1_B2), sieved
# _PM1_BLOCK at a time, in giant steps of _PM1_WHEEL; rho spends
# _RHO_HEAD_START modular products before p - 1 starts.
_PM1_B2 = 1 << 20
_PM1_BLOCK = 1 << 13
_PM1_WHEEL = 2 * 3 * 5 * 7 * 11
_RHO_HEAD_START = 4096


def _brent_rho(n: int) -> Generator[int, None, int]:
    """Brent's cycle method on an odd composite n.  Yields the modular
    products spent so far at each gcd that finds no factor, and returns a
    nontrivial factor.

    The constants (y0 = 2, c = 1, 2, 3, ...) are fixed, so the factor found
    for a given n never varies between runs.
    """
    work = 0
    for c in range(1, 10000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            work += r
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                work += 2 * min(m, r - k)
                g = math.gcd(q, n)
                k += m
                if g == 1:
                    yield work
            r *= 2
        if g == n:
            # backtrack one step at a time
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
    raise RuntimeError(f"rho parameter schedule exhausted for {n}")


def _pollard_pm1(n: int) -> Generator[int, None, int | None]:
    """Pollard's p - 1 method on an odd composite n.  Yields the modular
    products spent so far as it goes, and returns a nontrivial factor, or
    None once a gcd is n or stage 2 ends without one.

    Stage 1 raises x = 2 to every prime power below B1 = _TRIAL_LIMIT.
    Stage 2 writes each prime s in [B1, _PM1_B2) as jD + b, D = _PM1_WHEEL,
    and multiplies x^(jD) - x^-b = x^-b (x^s - 1) into a running product:
    one modular product per prime, with x^-b tabled for the odd b and
    x^(jD) stepped by x^D (Montgomery, Math. Comp. 1987).  The unit x^-b
    changes no gcd, taken with n once per sieved block.  It finds a prime
    r of n when r - 1 is B1-smooth apart from one prime below _PM1_B2.
    """
    x, work, e = 2, 0, 1
    for p in _trial_prime_table():
        pk = p
        while pk * p < _TRIAL_LIMIT:
            pk *= p
        e *= pk
        if e.bit_length() >= 1024:
            x = pow(x, e, n)
            work += e.bit_length()
            e = 1
            yield work
    x = pow(x, e, n)
    g = math.gcd(x - 1, n)
    if g != 1:
        return g if g != n else None
    D = _PM1_WHEEL
    inv, y, xi2 = [0] * D, pow(x, -1, n), pow(x, -2, n)
    for b in range(1, D, 2):  # inv[b] = x^-b for the odd b
        inv[b], y = y, y * xi2 % n
    giant, xD = _TRIAL_LIMIT // D * D, pow(x, D, n)
    xg, acc = pow(x, giant, n), 1
    work += D // 2
    for lo in range(_TRIAL_LIMIT, _PM1_B2, _PM1_BLOCK):
        block = _sieve(lo, min(lo + _PM1_BLOCK, _PM1_B2))
        for s in block:  # x^giant - x^-b = x^-b (x^s - 1) for s = giant + b
            while s >= giant + D:
                giant, xg = giant + D, xg * xD % n
            acc = acc * (xg - inv[s - giant]) % n
        work += len(block)
        g = math.gcd(acc, n)
        if g != 1:
            return g if g != n else None
        yield work
    return None


def _split(n: int) -> int:
    """A nontrivial factor of a composite n with no prime below _TRIAL_LIMIT.

    Brent's rho and Pollard p - 1 race: the one that has spent fewer modular
    products runs to its next gcd, with rho _RHO_HEAD_START products ahead,
    until one finds a factor.  p - 1 may drop out; rho always finishes.
    Both are deterministic, so the factor found never varies between runs.
    """
    rho, pm1 = _brent_rho(n), _pollard_pm1(n)
    rho_work = pm1_work = 0
    while True:
        if pm1 is None or rho_work < pm1_work + _RHO_HEAD_START:
            try:
                rho_work = next(rho)
            except StopIteration as found:
                return found.value
        else:
            try:
                pm1_work = next(pm1)
            except StopIteration as found:
                if found.value:
                    return found.value
                pm1 = None


def factor(n: int) -> list[tuple[int, int]]:
    """Full factorization of n >= 1 as an ascending [(prime, exponent)] list.

    Trial division by the primes below _TRIAL_LIMIT = 10^4 comes first.
    Each composite cofactor left is split by a race of Brent's rho against
    Pollard p - 1 (B1 = 10^4, B2 = 2^20; see _split), with rho given a head
    start of _RHO_HEAD_START products, so a composite that rho splits early
    costs no p - 1 work.  factor(1) == [].  Raises ValueError for n < 1.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    out: dict[int, int] = {}
    for p in _trial_prime_table():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _split(m)
        stack.append(d)
        stack.append(m // d)
    return sorted(out.items())


def zsigmondy_primes(a: int, k: int) -> list[int]:
    """Primes r dividing a**k - 1 but no a**i - 1 with 0 < i < k, ascending.

    Equivalently: prime divisors r of a**k - 1 such that a has order
    exactly k modulo r.  The list is empty precisely at the classical
    exceptions, e.g. zsigmondy_primes(2, 6) == [].
    """
    if a < 2 or k < 1:
        raise ValueError(f"need a >= 2 and k >= 1, got a={a}, k={k}")
    out = []
    for r, _ in factor(a**k - 1):
        # a**k == 1 mod r already holds, so ord divides k; it equals k
        # as soon as no maximal proper divisor of k kills it.
        if all(pow(a, k // s, r) != 1 for s, _ in factor(k)):
            out.append(r)
    return out


def order_from_bound(is_one: Callable[[int], bool], bound_factors) -> int:
    """Exact order of an element from the factors of a multiple N of it;
    is_one(e) says whether its e-th power is 1 (NotAnnihilated if not at N).
    is_one(order // r**j) is monotone in j, so each exponent is found by
    testing j = 1, one call when the bound is exact, then by bisection."""
    order = math.prod(r**e for r, e in bound_factors)
    if not is_one(order):
        raise NotAnnihilated(f"the stated bound {order} does not annihilate")
    for r, e in bound_factors:
        if e < 1 or not is_one(order // r):
            continue
        lo, hi = 1, e  # is_one(order // r**lo) holds; the largest such j <= hi
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if is_one(order // r**mid):
                lo = mid
            else:
                hi = mid - 1
        order //= r**lo
    return order


def prime_power_decompose(q: int) -> tuple[int, int]:
    """Write q = p**m with p prime, or raise NotPrimePower.  Roots are exact
    integer roots, so q may have any size."""
    if q >= 2:
        for p in _trial_prime_table():
            if q % p == 0:
                m = round(math.log(q, p))
                if p**m == q:
                    return p, m
                break
        else:  # every prime factor exceeds _TRIAL_LIMIT > 2**13
            for m in range(1, q.bit_length() // 13 + 1):
                p = _iroot(q, m)
                if p**m == q and is_prime(p):
                    return p, m
    raise NotPrimePower(f"{q} is not a prime power")


def _iroot(n: int, m: int) -> int:
    """floor(n ** (1/m)) exactly, for n >= 1: Newton's method from just
    above a float root of n's top 53 bits, shifted back by u bits."""
    u, v = divmod(max(n.bit_length() - 53, 0), m)  # n >> m*u + v has <= 53 bits
    y = int(math.ldexp((n >> m * u + v) ** (1 / m) * 2 ** (v / m), 60))
    x = (y + (y >> 40) + 1 << u >> 60) + 1
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y
