"""Differential checks against sympy, skipped where sympy is not installed:
polynomial factors and irreducibility over GF(p), characteristic
polynomials reduced mod p, and integer factorization."""

import random

import pytest

pytest.importorskip("sympy")

from sympy import Matrix, factorint, primerange  # noqa: E402
from sympy.polys.domains import ZZ  # noqa: E402
from sympy.polys.galoistools import gf_factor, gf_irreducible_p  # noqa: E402

from sl23.arith import factor  # noqa: E402
from sl23.ff import make_field  # noqa: E402
from sl23.matrix import Mat  # noqa: E402
from sl23.poly import Poly, irreducible_factors, is_irreducible  # noqa: E402

PRIMES = [2, 3, 5, 251]


def big_endian(f: Poly) -> list[int]:
    return list(reversed(f.coeffs))


@pytest.mark.parametrize("p", PRIMES)
def test_factors_and_irreducibility_match_galoistools(p):
    field = make_field(p, 1)
    rng = random.Random(p)
    for d in range(1, 13):
        for _ in range(4):
            f = Poly(field, [rng.randrange(p) for _ in range(d)] + [1])
            _, expected = gf_factor(big_endian(f), p, ZZ)
            got = list(irreducible_factors(f, rng))
            assert sorted(map(big_endian, got)) == sorted(g for g, _ in expected), f
            assert is_irreducible(f) == gf_irreducible_p(big_endian(f), p, ZZ), f


@pytest.mark.parametrize("p", PRIMES)
def test_charpoly_matches_integer_charpoly_mod_p(p):
    field = make_field(p, 1)
    rng = random.Random(p + 1)
    for n in range(1, 9):
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        expected = [c % p for c in Matrix(rows).charpoly().all_coeffs()]
        assert big_endian(Mat(field, rows).charpoly()) == expected, rows


def test_factor_matches_factorint():
    rng = random.Random(7)
    ns = [1, 2, 2**61 - 1, 3**20 * 7, (2**31 - 1) * (2**13 - 1)]
    ns += [rng.randrange(1, 10**12) for _ in range(40)]
    # semiprimes of two 30-bit primes
    ns += [536870923 * 1073741789, 805306357 * 805306457, 671088667 * 939524087]
    for n in ns:
        assert factor(n) == sorted(factorint(n).items()), n
    # the Q of SL_11(q) for prime q <= 256; sympy's own rho takes seconds on
    # q = 191 and 199, so it falls back on p - 1 and ECM instead
    for q in primerange(2, 257):
        n = (q**11 - 1) // (q - 1)
        assert factor(n) == sorted(factorint(n, use_rho=False).items()), q
