"""Integer arithmetic substrate: primality, factoring, Zsigmondy primes."""

import bisect
import math
import random

import pytest

from sl23 import arith
from sl23.arith import (
    NotPrimePower,
    _iroot,
    _sieve,
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


def test_sieve_segments_match_the_full_sieve():
    flags = sieve(10**4 + 1)
    primes = [i for i in range(10**4 + 1) if flags[i]]

    def below(t):
        return bisect.bisect_left(primes, t)

    for limit in range(2, 10**4 + 1):
        assert _sieve(2, limit) == primes[: below(limit)], limit
    assert _sieve(0, 2) == [] and _sieve(0, 3) == [2] and _sieve(5, 4) == []
    for lo in range(0, 150):
        for hi in range(lo, 180):
            assert _sieve(lo, hi) == primes[below(lo) : below(hi)], (lo, hi)
    for lo in range(8000, 9000, 97):
        assert _sieve(lo, lo + 1000) == primes[below(lo) : below(lo + 1000)], lo
    # the blocks of Pollard p - 1 stage 2 tile the full sieve
    flags = sieve(2**20)
    lo, hi = arith._TRIAL_LIMIT, 2**20
    step = arith._PM1_BLOCK
    blocks = [_sieve(a, min(a + step, hi)) for a in range(lo, hi, step)]
    assert sum(blocks, []) == [i for i in range(lo, hi) if flags[i]]


def phi11(q):
    return (q**11 - 1) // (q - 1)


def run_out(gen):
    """Run a factoring generator to its end: (last yield, returned value)."""
    work = 0
    try:
        while True:
            work = next(gen)
    except StopIteration as done:
        return work, done.value


def test_factor_pins_the_hardest_sweep_orders():
    # the three sweep Q that rho alone takes longest on; p - 1 finds one
    # prime r of each, r - 1 being 10^4-smooth apart from one prime < 2^20
    assert factor(phi11(191)) == [(34179328063, 1), (1900421426047, 1)]
    assert factor(phi11(199)) == [(11, 1), (75449464927, 1), (117942356533, 1)]
    assert factor(phi11(233)) == [(23, 1), (4494621011, 1), (4581484617271, 1)]
    assert factor(1900421426047 - 1) == [(2, 1), (3, 1), (11, 1), (13, 1), (5881, 1), (376627, 1)]
    assert factor(75449464927 - 1) == [(2, 1), (3, 1), (11, 1), (1877, 1), (609043, 1)]
    assert factor(4494621011 - 1) == [(2, 1), (5, 1), (11, 1), (43, 1), (53, 1), (17929, 1)]
    # and p - 1 alone, in stage 2, splits off exactly that prime
    for n, r in (
        (34179328063 * 1900421426047, 1900421426047),
        (75449464927 * 117942356533, 75449464927),
        (4494621011 * 4581484617271, 4494621011),
    ):
        assert run_out(arith._pollard_pm1(n))[1] == r


@pytest.fixture
def stage_2_blocks(monkeypatch):
    """The lower ends of the p - 1 stage 2 blocks sieved from here on."""
    blocks = []

    def counted(lo, hi):
        if lo >= arith._TRIAL_LIMIT:
            blocks.append(lo)
        return _sieve(lo, hi)

    monkeypatch.setattr(arith, "_sieve", counted)
    return blocks


def test_rho_splits_when_stage_1_takes_both_primes(stage_2_blocks):
    # 10008 = 2^3 3^2 139 and 10036 = 2^2 13 193: stage 1's gcd is n
    n = 10009 * 10037
    assert run_out(arith._pollard_pm1(n))[1] is None
    # stage 1 reaches the last prime below 10^4: 119677 - 1 = 2^2 3 9973,
    # while 2097779 - 1 is twice a prime above 2^20
    assert run_out(arith._pollard_pm1(119677 * 2097779))[1] == 119677
    assert stage_2_blocks == []
    assert factor(n) == [(10009, 1), (10037, 1)]
    assert factor(n**2) == [(10009, 2), (10037, 2)]


def test_rho_splits_a_semiprime_of_safe_primes(stage_2_blocks):
    # r - 1 = 2 * (a prime above 2^20) for both: p - 1 ends stage 2 empty
    r, s = 2097779, 2098079
    assert all(is_prime(t) and is_prime((t - 1) // 2) for t in (r, s))
    assert (r - 1) // 2 > 2**20 and (s - 1) // 2 > 2**20
    assert run_out(arith._pollard_pm1(r * s))[1] is None
    assert stage_2_blocks[-1] + arith._PM1_BLOCK >= 2**20
    assert factor(r * s) == [(r, 1), (s, 1)]


# stage 2's first and last primes, s = +1 and -1 mod 2310, and the primes on
# either side of the first _PM1_BLOCK boundary
@pytest.mark.parametrize("s", [10007, 1048573, 11551, 11549, 18191, 18199])
def test_stage_2_finds_a_prime_at_its_edges(s, stage_2_blocks):
    assert is_prime(s) and arith._TRIAL_LIMIT <= s < 2**20
    assert arith._TRIAL_LIMIT + arith._PM1_BLOCK == 18192
    # r - 1 = 2ks with k 10^4-smooth, so r is found in the block holding s;
    # t - 1 = 2u with u a prime above 2^20, so t never is
    r = next(r for k in range(1, 5000) if is_prime(r := 2 * k * s + 1))
    t = 2097779
    assert is_prime(t) and is_prime((t - 1) // 2) and (t - 1) // 2 > 2**20
    assert run_out(arith._pollard_pm1(r * t))[1] == r
    assert stage_2_blocks[-1] <= s < stage_2_blocks[-1] + arith._PM1_BLOCK


def test_an_early_rho_split_never_reaches_stage_2(stage_2_blocks, monkeypatch):
    started = []
    pm1 = arith._pollard_pm1

    def counted(n):
        started.append(n)
        return (yield from pm1(n))

    monkeypatch.setattr(arith, "_pollard_pm1", counted)
    n = 1000003 * 1000033
    assert run_out(arith._brent_rho(n))[0] < arith._RHO_HEAD_START
    assert factor(n) == [(1000003, 1), (1000033, 1)]
    assert started == [] and stage_2_blocks == []
    # a hard composite does enter stage 2
    assert factor(phi11(191)) == [(34179328063, 1), (1900421426047, 1)]
    assert started and stage_2_blocks


def test_factor_is_deterministic():
    ns = [phi11(199), phi11(233), 10009 * 10037, 2097779 * 2098079, 2**67 - 1]
    assert [factor(n) for n in ns] == [factor(n) for n in ns]


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
