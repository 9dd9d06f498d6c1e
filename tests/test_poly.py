"""Polynomial ring over finite fields: arithmetic, irreducibility, codings."""

import itertools
import random

import pytest

from sl23.ff import embed, make_field
from sl23.poly import (
    DegenerateConjugates,
    NotMonic,
    Poly,
    Ring,
    WrongShape,
    factor_degree_components,
    from_signed_coeffs,
    is_irreducible,
    irreducible_factors,
    minimal_polynomial,
    power,
    read_degree11,
    signed_coeffs,
)


def random_poly(field, rng, max_deg):
    return Poly(field, [rng.randrange(field.order) for _ in range(rng.randrange(max_deg + 1))])


def random_monic(field, rng, deg):
    return Poly(field, [rng.randrange(field.order) for _ in range(deg)] + [1])


FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]


@pytest.mark.parametrize("p,k", FIELDS)
def test_ring_identities(p, k):
    field = make_field(p, k)
    rng = random.Random(p * 10 + k)
    zero = Poly(field)
    one = Poly.constant(field, 1)
    assert zero.is_zero
    assert zero.degree == -1
    assert one.degree == 0
    for _ in range(300):
        f = random_poly(field, rng, 6)
        g = random_poly(field, rng, 6)
        h = random_poly(field, rng, 6)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + zero == f
        assert f * one == f
        assert f - f == zero
        assert f + (-f) == zero
        if f and g:
            assert (f * g).degree == f.degree + g.degree


@pytest.mark.parametrize("p,k", FIELDS)
def test_divmod_property(p, k):
    field = make_field(p, k)
    rng = random.Random(p * 20 + k)
    for _ in range(300):
        f = random_poly(field, rng, 9)
        g = random_poly(field, rng, 5)
        if g.is_zero:
            with pytest.raises(ZeroDivisionError):
                divmod(f, g)
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree
        assert f // g == q
        assert f % g == r


def test_gcd():
    field = make_field(3, 1)
    rng = random.Random(33)
    for _ in range(200):
        common = random_monic(field, rng, rng.randrange(1, 4))
        f = common * random_poly(field, rng, 4)
        g = common * random_poly(field, rng, 4)
        d = f.gcd(g)
        if f.is_zero and g.is_zero:
            assert d.is_zero
            continue
        assert d.is_monic
        if f:
            assert (f % d).is_zero
        if g:
            assert (g % d).is_zero
        if f and g:
            assert (d % common.monic()).is_zero
    t = Poly.x(field)
    assert (t * t - Poly.constant(field, 1)).gcd(t - Poly.constant(field, 1)).degree == 1


def test_power_never_multiplies_by_one():
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a + b  # powers of x in the additive monoid: x**e is e * x

    for e, products in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (12, 4), (255, 14)]:
        calls.clear()
        assert power(7, e, mul, one=0) == 7 * e
        assert len(calls) == products, e
        assert all(0 not in pair for pair in calls), e
    with pytest.raises(ValueError):
        power(7, -1, mul, one=0)


# --- the packed ring F_p[t]/(f) against Poly products and remainders -------

RING_PRIMES = [2, 3, 5, 251, 65537, 2**61 - 1]  # the last needs slots over 64 bits


def ring_moduli(field, rng):
    """For each degree 1-16: a random product of two monic factors (for
    degree > 1, so reducible) and the first irreducible of a random run."""
    for d in range(1, 17):
        if d > 1:
            a = rng.randrange(1, d)
            yield random_monic(field, rng, a) * random_monic(field, rng, d - a), False
        # about one in d monic polynomials is irreducible
        candidates = (random_monic(field, rng, d) for _ in range(50 * d))
        yield next(f for f in candidates if is_irreducible(f)), True


@pytest.mark.parametrize("p", RING_PRIMES)
def test_ring_matches_poly_arithmetic(p):
    field = make_field(p, 1)
    rng = random.Random(p)
    for mod, irreducible in ring_moduli(field, rng):
        d = mod.degree
        ring = Ring(p, mod.coeffs)
        for _ in range(4):
            a, b = (Poly(field, [rng.randrange(p) for _ in range(d)]) for _ in range(2))
            x, y = ring.pack_poly(a), ring.pack_poly(b)
            code = sum(c * p**i for i, c in enumerate(a.coeffs))
            assert ring.pack(code) == x and ring.unpack(x) == code
            assert ring.unpack_poly(ring.mul(x, y), field) == a * b % mod
            e = rng.randrange(30)
            naive = Poly.constant(field, 1) % mod
            for _ in range(e):
                naive = naive * a % mod
            assert ring.unpack_poly(ring.pow(x, e), field) == naive
        if irreducible:  # Frobenius: a**(p**d) = a in GF(p**d)
            assert ring.pow(x, p**d) == x
        assert ring.pow(x, 0) == 1


@pytest.mark.parametrize("p", [3, 5, 251, 2**61 - 1])
@pytest.mark.parametrize("k", [1, 2, 11, 55, 60])
def test_ring_at_the_slot_bounds(p, k):
    # every coefficient p - 1 puts k(p - 1)**2 in a product's middle slot;
    # low coefficients of f all 1, all p - 1 or random set t**k mod f
    field = make_field(p, 1)
    rng = random.Random(k * p)
    top = Poly(field, [p - 1] * k)
    for low in ([1] * k, [p - 1] * k, [rng.randrange(p) for _ in range(k)]):
        mod = Poly(field, low + [1])
        ring = Ring(p, mod.coeffs)
        x = ring.pack_poly(top)
        assert ring.unpack_poly(ring.mul(x, x), field) == top * top % mod
        naive = Poly.constant(field, 1)
        for e in range(1, 4):
            naive = naive * top % mod
            assert ring.unpack_poly(ring.pow(x, e), field) == naive
        a = Poly(field, [rng.randrange(p // 2, p) for _ in range(k)])  # near the bound
        y = ring.pack_poly(a)
        for u, v, pu, pv in ((x, y, top, a), (y, y, a, a), (0, x, Poly(field), top)):
            assert ring.unpack_poly(ring.sub(u, v), field) == pu - pv
            assert ring.unpack_poly(ring.mul(u, v), field) == pu * pv % mod


def carry_less_product(a, b):
    """a*b in GF(2)[t] on bitmasks, one bit of a per step (the bit-serial
    p = 2 Ring.mul that the slots replaced, without its reduction)."""
    r = 0
    while a:
        if a & 1:
            r ^= b
        a >>= 1
        b <<= 1
    return r


def carry_less_mod(r, m):
    while r.bit_length() >= m.bit_length():
        r ^= m << (r.bit_length() - m.bit_length())
    return r


def carry_less_gcd(a, b):
    while b:
        a, b = b, carry_less_mod(a, b)
    return a


@pytest.mark.parametrize("k", [1, 2, 8, 9, 14, 15, 88, 144, 253, 254, 255, 256, 704])
def test_char2_ring_matches_the_carry_less_product(k):
    # slots are 4 bits up to k = 14, 8 up to 254 and 16 above; 704 = 64 * 11.
    # All-ones operands put k in a product's middle slot, and an all-ones
    # modulus (t**k mod f all ones) fills fold's sums
    field, rng, ones = make_field(2, 1), random.Random(k), (1 << k) - 1
    for m in (ones << 1 | 1, 1 << k | rng.getrandbits(k), 1 << k | 1):
        ring = Ring(2, [m >> i & 1 for i in range(k + 1)])
        as_poly = lambda a: ring.pack_poly(Poly(field, [a >> i & 1 for i in range(k + 1)]))
        codes = [ones, ones, 0, 1] + [rng.getrandbits(k) for _ in range(6)]
        for a, b in zip(codes, codes[1:]):
            x, y = ring.pack(a), ring.pack(b)
            assert x == as_poly(a) and ring.unpack(x) == a and ring.unpack(y) == b
            assert ring.unpack(ring.sub(x, y)) == a ^ b
            assert ring.unpack(ring.mul(x, y)) == carry_less_mod(carry_less_product(a, b), m)
        for a in (ones, codes[-1]):
            x, naive = ring.pack(a), 1
            for e in range(4):
                assert ring.unpack(ring.pow(x, e)) == naive
                naive = carry_less_mod(carry_less_product(naive, a), m)
            e = rng.getrandbits(24)
            expected = power(a, e, lambda u, v: carry_less_mod(carry_less_product(u, v), m))
            assert ring.unpack(ring.pow(x, e)) == expected
        pairs = [(ones, ones), (m, ones), (m, b), (0, b), (b, 0), (0, 0)]
        for _ in range(3):  # a common factor of degree k // 3
            c = rng.getrandbits(k // 3) | 1 << k // 3
            pairs.append([carry_less_product(c, rng.getrandbits(k - k // 3)) for _ in range(2)])
        for a, b in pairs:
            assert ring.gcd(as_poly(a), as_poly(b)) == as_poly(carry_less_gcd(a, b))


@pytest.mark.parametrize("p", [2, 3, 5, 251, 2**61 - 1])
def test_ring_gcd_matches_poly_gcd(p):
    field = make_field(p, 1)
    rng = random.Random(p + 1)
    k = 12
    ring = Ring(p, random_monic(field, rng, k).coeffs)

    def check(a, b):
        got = ring.unpack_poly(ring.gcd(ring.pack_poly(a), ring.pack_poly(b)), field)
        assert got == a.gcd(b), (a, b)
        return got

    zero = Poly(field)
    for _ in range(10):
        a = random_poly(field, rng, k)
        assert check(a, zero) == check(zero, a) == check(a, a)
    assert check(zero, zero) == zero
    coprime = 0
    for d in range(1, 5):  # common factors of degree 1-4
        for _ in range(10):
            common = random_monic(field, rng, d)
            a = common * random_monic(field, rng, rng.randrange(k - d + 1))
            b = common * random_poly(field, rng, k - d)
            assert check(a, b).degree >= d
            a, b = random_monic(field, rng, d), random_monic(field, rng, d + 1)
            coprime += check(a, b).degree == 0
    assert coprime > 0


def poly_degree_components(f):
    """The distinct-degree split on Poly arithmetic alone."""
    field, g, out, d = f.field, f.monic(), [], 0
    x = Poly.x(field)
    u = x % g
    while g.degree > 0:
        d += 1
        if 2 * d > g.degree:
            out.append((g.degree, g))
            break
        u = power(u, field.order, lambda a, b: a * b % g, Poly.constant(field, 1))
        h = g.gcd(u - x)
        if h.degree > 0:
            out.append((d, h))
            while (w := g.gcd(h)).degree > 0:
                g = g // w
            u = u % g
    return out


@pytest.mark.parametrize(
    "p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (251, 1), (65537, 1), (2, 2), (3, 2)]
)
def test_split_matches_poly_reference(p, k):
    # packed over GF(p), Poly residues over GF(4) and GF(9)
    field = make_field(p, k)
    rng = random.Random(p + 7)
    verdicts = set()
    for d in range(1, 13 if k == 1 else 7):
        for _ in range(8):
            f = random_monic(field, rng, d)
            verdicts.add(irreducible := is_irreducible(f))
            assert irreducible == (poly_degree_components(f)[0][0] == d), f
            h = random_monic(field, rng, rng.randrange(1, 4))
            g = f * h * h * random_monic(field, rng, 1)  # repeated factors
            assert list(factor_degree_components(g)) == poly_degree_components(g), g
    assert verdicts == {False, True}


@pytest.mark.parametrize(
    "p,k,max_degree", [(2, 1, 7), (3, 1, 5), (5, 1, 4), (2, 2, 3), (3, 2, 3)]
)
def test_batched_ben_or_matches_poly_reference_on_every_monic(p, k, max_degree):
    # every monic polynomial, so every product with repeated factors too;
    # packed over GF(p), Poly residues over GF(4) and GF(9)
    field = make_field(p, k)
    for d in range(1, max_degree + 1):
        for low in itertools.product(range(field.order), repeat=d):
            f = Poly(field, low + (1,))
            assert is_irreducible(f) == (poly_degree_components(f)[0][0] == d), f


def test_batched_ben_or_when_the_running_product_vanishes():
    # t**(Q**d) - t is 0 mod f once f divides it, and so is the product
    for p in (2, 3, 5):
        field = make_field(p, 1)
        t, one = Poly.x(field), Poly.constant(field, 1)
        for d in (1, 2, 3):
            f = power(t, p**d, Poly.__mul__) - t  # every irreducible of degree | d
            assert not is_irreducible(f), (p, d)
        assert not is_irreducible(t * (t + one)), p
        assert not is_irreducible(t * t * t), p


def test_batched_ben_or_checks_round_one_and_the_last_round(monkeypatch):
    rounds = []
    monkeypatch.setattr("sl23.poly.power", lambda *args: rounds.append(1) or power(*args))
    field = make_field(10**6 + 3, 1)
    t = Poly.x(field)
    irreducible = next(f for c in range(1, field.order)
                       if is_irreducible(f := power(t, 9, Poly.__mul__) + Poly.x_minus(field, c)))
    rounds.clear()
    assert not is_irreducible(irreducible * Poly.x_minus(field, 5))  # root: out at round 1
    assert len(rounds) == 1
    cubic = next(f for c in range(1, field.order)
                 if is_irreducible(f := t * t * t + Poly.x_minus(field, c)))
    assert not is_irreducible(cubic * cubic)  # first factor only at round 3 = 6 // 2
    rounds.clear()
    assert is_irreducible(irreducible)
    assert len(rounds) == 9 // 2
    # a product exits at the round of its least factor degree
    for (p, k), (a, b) in (((2, 1), (5, 11)), ((2, 2), (3, 5))):  # GF(4): Poly residues
        field = make_field(p, k)
        g, h = (next(f for low in itertools.product(range(field.order), repeat=d)
                     if is_irreducible(f := Poly(field, low + (1,)))) for d in (a, b))
        rounds.clear()
        assert not is_irreducible(g * h)
        assert len(rounds) == a, (p, k)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (251, 1), (2, 2), (2, 3), (3, 2)])
def test_irreducible_factors_divide_out(p, k):
    # packed over GF(p), Poly residues over GF(4), GF(8) and GF(9)
    field = make_field(p, k)
    rng = random.Random(p * 10 + k)
    for _ in range(12):
        h = random_monic(field, rng, rng.randrange(1, 4))
        f = random_monic(field, rng, rng.randrange(1, 8)) * h * h  # repeated factors
        factors = list(irreducible_factors(f, rng))
        assert len(set(factors)) == len(factors), f
        assert [g.degree for g in factors] == sorted(g.degree for g in factors), f
        rest = f
        for g in factors:
            assert g.is_monic and is_irreducible(g) and (f % g).is_zero, (f, g)
            while (rest % g).is_zero:
                rest //= g
        assert rest.degree == 0, f


@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (2, 2), (3, 2)])
def test_irreducible_factors_split_a_component(p, k):
    # two irreducible cubics and two or three linears: both components of f
    # hold several factors, so only the equal-degree split separates them
    field = make_field(p, k)
    rng = random.Random(p * 10 + k)
    cubics = []
    while len(cubics) < 2:
        g = random_monic(field, rng, 3)
        if is_irreducible(g) and g not in cubics:
            cubics.append(g)
    expected = [Poly.x_minus(field, c) for c in range(min(3, field.order))] + cubics
    f = Poly.constant(field, 1)
    for g in expected:
        f = f * g
    got = list(irreducible_factors(f, rng))
    assert [g.degree for g in got] == sorted(g.degree for g in expected)
    assert set(got) == set(expected)


@pytest.mark.parametrize("p", [65537, 2**61 - 1])
def test_is_irreducible_matches_euler_criterion(p):
    field = make_field(p, 1)
    rng = random.Random(p + 2)
    t2 = Poly(field, [0, 0, 1])
    for c in [rng.randrange(1, p) for _ in range(40)]:
        square = pow(c, (p - 1) // 2, p) == 1
        assert is_irreducible(t2 - Poly.constant(field, c)) != square, c


def test_is_irreducible_matches_cube_criterion():
    p = 2**61 - 1
    assert p % 3 == 1
    field = make_field(p, 1)
    rng = random.Random(3)
    t3 = Poly(field, [0, 0, 0, 1])
    cubes = [pow(rng.randrange(1, p), 3, p) for _ in range(10)]
    for c in cubes + [rng.randrange(1, p) for _ in range(30)]:
        cube = pow(c, (p - 1) // 3, p) == 1  # a cubic without a root is irreducible
        assert is_irreducible(t3 - Poly.constant(field, c)) != cube, c


def test_evaluate():
    field = make_field(7, 1)
    f = Poly(field, [3, 0, 2, 1])  # t^3 + 2 t^2 + 3
    assert f.evaluate(0) == 3
    assert f.evaluate(1) == (1 + 2 + 3) % 7
    assert f.evaluate(2) == (8 + 8 + 3) % 7


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (3, 2), (251, 1)])
def test_derivative_is_a_derivation(p, k):
    field = make_field(p, k)
    rng = random.Random(p * 10 + k)
    t = Poly.x(field)
    assert t.derivative() == Poly.constant(field, 1)
    assert Poly.constant(field, field.order - 1).derivative().is_zero
    for _ in range(40):
        f, g = random_poly(field, rng, 8), random_poly(field, rng, 8)
        assert (f + g).derivative() == f.derivative() + g.derivative()
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        # (t - a)^p = t^p - a^p, so a p-th power has derivative 0
        assert power(f, p, Poly.__mul__, Poly.constant(field, 1)).derivative().is_zero


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (3, 2), (251, 1)])
def test_p_th_powers_are_not_squarefree(p, k):
    field = make_field(p, k)
    rng = random.Random(p + k)
    t = Poly.x(field)
    tp = power(t, p, Poly.__mul__)
    assert tp.derivative().is_zero and not tp.is_squarefree
    for a in [1, field.order - 1] + [rng.randrange(field.order) for _ in range(5)]:
        f = tp - Poly.constant(field, field.pow(a, p))  # (t - a)^p
        assert f.derivative().is_zero and not f.is_squarefree, a
    g = random_monic(field, rng, 3)
    assert not power(g, p, Poly.__mul__).is_squarefree
    assert not Poly(field).is_squarefree
    assert Poly.constant(field, 1).is_squarefree


@pytest.mark.parametrize("p,k,max_degree", [(2, 1, 8), (3, 1, 5), (3, 2, 3)])
def test_is_squarefree_counts_every_monic_polynomial(p, k, max_degree):
    # Carlitz: GF(q) has q^d - q^(d-1) squarefree monics of degree d >= 2
    field = make_field(p, k)
    q = field.order
    for d in range(2, max_degree + 1):
        hits = sum(Poly(field, low + (1,)).is_squarefree
                   for low in itertools.product(range(q), repeat=d))
        assert hits == q**d - q ** (d - 1), (q, d)


def test_is_squarefree_matches_a_square_factor_over_gf251():
    field = make_field(251, 1)
    rng = random.Random(251)
    for _ in range(60):
        f, g = random_monic(field, rng, rng.randrange(1, 5)), random_monic(field, rng, 1)
        assert not (f * g * g).is_squarefree
        roots = rng.sample(range(251), rng.randrange(1, 9))
        h = Poly.constant(field, 1)
        for a in roots:
            h = h * Poly.x_minus(field, a)
        assert h.is_squarefree  # distinct linear factors
        assert (h * Poly.x_minus(field, roots[0])).is_squarefree is False


def test_is_irreducible_known_cases():
    f2 = make_field(2, 1)
    f3 = make_field(3, 1)
    t2 = Poly.x(f2)
    t3 = Poly.x(f3)
    one2 = Poly.constant(f2, 1)
    one3 = Poly.constant(f3, 1)
    assert is_irreducible(t2 * t2 + t2 + one2)
    assert not is_irreducible(t2 * t2 + one2)  # (t+1)^2 over GF(2)
    assert is_irreducible(t3 * t3 + one3)
    assert is_irreducible(t2 * t2 * t2 + t2 + one2)
    assert is_irreducible(Poly.x_minus(f3, 2))
    with pytest.raises(NotMonic):
        is_irreducible(t3.scale(2))
    with pytest.raises(WrongShape):
        is_irreducible(one3)


def test_is_irreducible_rejects_random_products():
    field = make_field(3, 1)
    rng = random.Random(303)
    for _ in range(100):
        f = random_monic(field, rng, rng.randrange(1, 4))
        g = random_monic(field, rng, rng.randrange(1, 4))
        assert not is_irreducible(f * g)


def test_is_irreducible_extension_field():
    field = make_field(2, 2)
    # count monic irreducible quadratics over GF(4): (16 - 4) / 2 = 6
    hits = 0
    for b in field.elements():
        for c in field.elements():
            if is_irreducible(Poly(field, [c, b, 1])):
                hits += 1
    assert hits == 6


def mobius(n):
    mu, r = 1, 2
    while r * r <= n:
        if n % r == 0:
            n //= r
            if n % r == 0:
                return 0
            mu = -mu
        r += 1
    return -mu if n > 1 else mu


@pytest.mark.parametrize(
    "p,k,max_degree", [(2, 1, 8), (3, 1, 5), (2, 2, 4), (5, 1, 4), (7, 1, 3)]
)
def test_is_irreducible_counts_every_monic_polynomial(p, k, max_degree):
    # Gauss: GF(q) has (1/d) * sum over e | d of mu(e) q^(d/e) monic
    # irreducibles of degree d
    field = make_field(p, k)
    q = field.order
    for d in range(1, max_degree + 1):
        expected = sum(mobius(e) * q ** (d // e) for e in range(1, d + 1) if d % e == 0) // d
        hits = sum(
            is_irreducible(Poly(field, low + (1,)))
            for low in itertools.product(range(q), repeat=d)
        )
        assert hits == expected, (q, d)


def test_minimal_polynomial():
    small, big = make_field(2, 1), make_field(2, 2)
    e = embed(small, big)
    gen = next(a for a in big.elements() if a not in (0, 1))
    mp = minimal_polynomial(gen, e)
    assert mp == Poly(small, [1, 1, 1])
    assert is_irreducible(mp)
    with pytest.raises(DegenerateConjugates):
        minimal_polynomial(1, e)
    small3, big3 = make_field(3, 1), make_field(3, 2)
    e3 = embed(small3, big3)
    seen = set()
    for w in big3.elements():
        try:
            mp = minimal_polynomial(w, e3)
        except DegenerateConjugates:
            continue
        assert mp.degree == 2
        assert is_irreducible(mp)
        # w is a root, checked inside the big field
        lifted = [e3.lift(c) for c in mp.coeffs]
        acc = 0
        for c in reversed(lifted):
            acc = big3.add(big3.mul(acc, w), c)
        assert acc == 0
        seen.add(mp)
    assert len(seen) == 3  # (9 - 3) / 2 irreducible quadratics hit


def test_signed_coeffs_round_trip():
    field = make_field(5, 1)
    rng = random.Random(505)
    for _ in range(200):
        d = rng.randrange(1, 13)
        signed = [rng.randrange(5) for _ in range(d)]
        f = from_signed_coeffs(field, signed)
        assert f.is_monic
        assert f.degree == d
        assert signed_coeffs(f) == signed
    with pytest.raises(NotMonic):
        signed_coeffs(Poly(field, [1, 2]))


def test_degree11_coding():
    field = make_field(3, 1)
    rng = random.Random(311)
    for _ in range(100):
        ten = tuple(rng.randrange(3) for _ in range(10))
        l = from_signed_coeffs(field, list(ten) + [1])
        assert l.is_monic
        assert l.degree == 11
        assert l[0] == field.neg(1)
        assert read_degree11(l) == ten
    with pytest.raises(WrongShape):
        read_degree11(Poly.x(field))
    # wrong constant term
    bad = from_signed_coeffs(field, [0] * 10 + [2])
    with pytest.raises(WrongShape):
        read_degree11(bad)


def test_monic_and_scale():
    field = make_field(5, 1)
    f = Poly(field, [2, 4, 3])
    g = f.monic()
    assert g.is_monic
    assert g.scale(3) == f
    assert f.scale(0).is_zero
