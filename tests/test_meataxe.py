"""Module irreducibility testing, cross-checked by exhaustive spinning."""

import random

import pytest

from sl23.construct import build_generic, build_sl11, build_special
from sl23.ff import make_field
from sl23.matrix import Mat
from sl23.meataxe import (
    ZeroSeed,
    _poly_at_matrix,
    is_irreducible_module,
    scan_components,
    scan_lines,
    spin,
)
from sl23.poly import (
    Poly,
    factor_degree_components,
    from_signed_coeffs,
    irreducible_factors,
    is_irreducible,
)


def brute_force_reducible(gens):
    """Reducible iff some nonzero vector spins to a proper subspace."""
    n = gens[0].n
    q = gens[0].field.order
    for code in range(1, q**n):
        vec = []
        c = code
        for _ in range(n):
            c, r = divmod(c, q)
            vec.append(r)
        if spin(tuple(vec), gens).dimension < n:
            return True
    return False


def test_spin_basics():
    f3 = make_field(3, 1)
    ident = Mat.identity(f3, 4)
    assert spin((1, 0, 0, 0), [ident]).dimension == 1
    cyc = Mat(f3, [[1 if j == (i + 1) % 4 else 0 for j in range(4)] for i in range(4)])
    assert spin((1, 0, 0, 0), [cyc]).dimension == 4
    sr = spin((0, 1, 0, 0), [cyc, ident])
    assert sr.dimension == 4
    assert len(sr.basis) == 4
    with pytest.raises(ZeroSeed):
        spin((0, 0, 0, 0), [cyc])


@pytest.mark.parametrize("p,k", [(2, 1), (3, 2), (17, 1)])
def test_poly_at_matrix_matches_naive_horner(p, k):
    field, n = make_field(p, k), 5
    rng = random.Random(p**k)
    for d in range(1, n + 1):
        a = Mat(field, [[rng.randrange(field.order) for _ in range(n)] for _ in range(n)])
        g = Poly(field, [rng.randrange(field.order) for _ in range(d)] + [1])
        naive = Mat.zero(field, n)
        for c in reversed(g.coeffs):
            naive = naive * a + Mat.identity(field, n).scale(c)
        assert _poly_at_matrix(g, a) == naive, (d, g)


def test_meataxe_splits_equal_degree_components():
    # every algebra element is diag(a, b): charpoly (t - a)(t - b) with one
    # degree-1 component, whose kernel is the whole space until it is split
    f3 = make_field(3, 1)
    gens = [Mat(f3, [[1, 0], [0, 2]]), Mat(f3, [[2, 0], [0, 1]])]
    v = is_irreducible_module(gens)
    assert not v.irreducible and v.side in ("natural", "dual") and len(v.basis) == 1


def test_scan_lines_identity_pair():
    f3 = make_field(3, 1)
    ident = Mat.identity(f3, 4)
    v = scan_lines(ident, ident)
    assert not v.irreducible
    assert v.side == "natural"
    assert v.basis is not None


_EXCLUDED = {(9, 2), (9, 4), (10, 2), (10, 3), (10, 4)}


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25,
                               27, 29, 31, 32, 49, 64])
def test_scan_eigenlines_agrees_with_scan_lines(n, q):
    # every raw instantiation has charpoly(z) = (t - a) f with f irreducible,
    # so scan_components on g = t - a, the eigenlines of z and z^T, decides
    # what the full scan does; the transposed pair swaps lines and
    # hyperplanes, so its witness is dual
    pair = build_generic(n, q, unchecked=True)
    field = pair.field
    assert is_irreducible(from_signed_coeffs(field, pair.alphas))
    g = Poly.x_minus(field, field.inv(pair.alphas[-1]))
    for x, y, side in ((pair.x, pair.y, "natural"), (pair.x.T, pair.y.T, "dual")):
        full, fast = scan_lines(x, y), scan_components(x, y, x * y, g)
        assert (fast.irreducible, fast.side) == (full.irreducible, full.side)
        assert fast.irreducible == ((n, q) not in _EXCLUDED)
        if not fast.irreducible:
            assert fast.side == side and len(fast.basis) == 1
            gens = [x, y] if side == "natural" else [x.T, y.T]
            assert spin(fast.basis[0], gens).dimension == 1


@pytest.mark.parametrize("n,q", sorted(_EXCLUDED))
def test_scan_components_decides_the_special_pairs(n, q):
    # charpoly(z) is irreducible, or two irreducibles of distinct degrees
    # ((9, 4): 2 and 7, (10, 4): 1 and 9); either way the module verdict is
    # the one scan_lines and the MeatAxe reach, natural and transposed
    pair = build_special(n, q)
    parts = list(factor_degree_components(pair.z.charpoly()))
    assert all(g.degree == d for d, g in parts) and len(parts) == (2 if q == 4 else 1)
    for x, y in ((pair.x, pair.y), (pair.x.T, pair.y.T)):
        assert scan_lines(x, y).irreducible
        assert is_irreducible_module([x, y], seed=0).irreducible
        if len(parts) == 2:
            assert scan_components(x, y, x * y, parts[0][1]).irreducible


def test_scan_components_oracle_agreement():
    # small random pairs whose product has charpoly g*h, g and h distinct
    # irreducibles of any degree; each of g and h must give the verdict of
    # exhaustive spinning, with a witness that really is invariant
    rng = random.Random(7)
    checked = reducible = 0
    while checked < 100:
        field = make_field(rng.choice([2, 3]), 1)
        n = rng.randrange(2, 5)
        x, y = (Mat(field, [[rng.randrange(field.order) for _ in range(n)]
                            for _ in range(n)]) for _ in range(2))
        cp = (x * y).charpoly()
        factors = list(irreducible_factors(cp, rng))
        if len(factors) != 2 or factors[0] * factors[1] != cp:
            continue
        checked += 1
        oracle = brute_force_reducible([x, y])
        reducible += oracle
        for g in factors:
            v = scan_components(x, y, x * y, g)
            assert v.irreducible == (not oracle), (x, y, g)
            if not oracle:
                continue
            gens = [x, y] if v.side == "natural" else [x.T, y.T]
            assert spin(v.basis[0], gens).dimension == g.degree
    assert 0 < reducible < checked


def test_scan_eigenlines_needs_a_simple_eigenvalue():
    # scan_components needs ker g(z) of dimension deg g: a line for a linear
    # g, as t - 1 (a 3-dimensional kernel) and t - 2 (none) are not here
    f5 = make_field(5, 1)
    ident = Mat.identity(f5, 3)
    for g in (Poly.x_minus(f5, 1), Poly.x_minus(f5, 2), Poly(f5, (2, 0, 1))):
        with pytest.raises(ValueError, match="does not have dimension deg g"):
            scan_components(ident, ident, ident, g)


def test_out_of_range_shapes_are_reducible():
    # raw instantiations outside the supported range expose an invariant
    # line, so the scanner must find a witness
    for n, q in [(9, 2), (9, 4), (10, 2), (10, 3), (10, 4)]:
        pair = build_generic(n, q, unchecked=True)
        v = scan_lines(pair.x, pair.y)
        assert not v.irreducible, (n, q)
        assert v.basis is not None


def test_in_range_pairs_are_irreducible():
    pairs = [
        build_generic(9, 3),
        build_generic(9, 5),
        build_generic(10, 5),
        build_special(9, 2),
        build_special(10, 3),
        build_sl11(2),
        build_sl11(3),
    ]
    for pair in pairs:
        v = scan_lines(pair.x, pair.y)
        assert v.irreducible, (pair.n, pair.q)
        m = is_irreducible_module([pair.x, pair.y], seed=0)
        assert m.irreducible, (pair.n, pair.q)


def test_block_diagonal_is_reducible():
    f3 = make_field(3, 1)
    a = Mat(f3, [[1, 1, 0, 0], [2, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]])
    b = Mat(f3, [[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]])
    m = is_irreducible_module([a, b], seed=1)
    assert not m.irreducible
    assert m.basis is not None
    assert 1 <= len(m.basis) < 4


def test_small_natural_module_irreducible():
    f2 = make_field(2, 1)
    s = Mat(f2, [[0, 1], [1, 0]])
    t = Mat(f2, [[1, 1], [0, 1]])
    assert is_irreducible_module([s, t], seed=0).irreducible


def test_oracle_agreement():
    """200 random invertible pairs in dims 2-4 over GF(2)/GF(3); the fast
    verdict must match exhaustive spinning every time."""
    f2 = make_field(2, 1)
    f3 = make_field(3, 1)
    rng = random.Random(99)
    for trial in range(200):
        q, field = rng.choice([(2, f2), (3, f3)])
        n = rng.randrange(2, 5)
        gens = []
        for _ in range(2):
            while True:
                cand = Mat(
                    field, [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
                )
                if cand.det() != 0:
                    gens.append(cand)
                    break
        verdict = is_irreducible_module(gens, seed=trial)
        oracle = brute_force_reducible(gens)
        assert verdict.irreducible == (not oracle), (trial, q, n)
        if not verdict.irreducible:
            assert verdict.basis is not None
