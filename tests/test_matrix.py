"""Matrices over finite fields, checked against slow textbook oracles."""

import itertools
import random
import time

import pytest

from sl23 import poly
from sl23.arith import NotAnnihilated, factor
from sl23.ff import embed, make_field
from sl23.matrix import (
    Mat,
    RowSpace,
    Singular,
    WrongShape,
    check_word,
    eval_word,
    factor_degree_components,
    kernel,
)
from sl23.poly import Poly


def charpoly_cofactor(m):
    """det(tI - A) via polynomial-entry cofactor expansion. Slow oracle."""
    f = m.field
    n = m.n
    entries = [
        [
            (Poly.x(f) - Poly.constant(f, m.rows[i][j]))
            if i == j
            else Poly.constant(f, f.neg(m.rows[i][j]))
            for j in range(n)
        ]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        acc = Poly.constant(f, 0)
        r0 = rows[0]
        for idx, c in enumerate(cols):
            term = entries[r0][c] * det(rows[1:], cols[:idx] + cols[idx + 1 :])
            acc = acc - term if idx % 2 else acc + term
        return acc

    return det(tuple(range(n)), tuple(range(n)))


def test_charpoly_matches_cofactor_oracle():
    rng = random.Random(7)
    for trial in range(60):
        p, k = rng.choice([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (7, 1)])
        f = make_field(p, k)
        n = rng.randrange(1, 6)
        m = Mat(f, [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)])
        cp = m.charpoly()
        oracle = charpoly_cofactor(m)
        assert cp == oracle, (trial, p, k, n)
        # det = (-1)^n * cp(0)
        d0 = cp.evaluate(0)
        want = d0 if n % 2 == 0 else f.neg(d0)
        assert m.det() == want, trial


def test_det_multiplicative():
    f = make_field(3, 1)
    rng = random.Random(71)
    for _ in range(100):
        n = rng.randrange(1, 5)
        a = Mat(f, [[rng.randrange(3) for _ in range(n)] for _ in range(n)])
        b = Mat(f, [[rng.randrange(3) for _ in range(n)] for _ in range(n)])
        assert (a * b).det() == f.mul(a.det(), b.det())
    assert Mat.identity(f, 4).det() == 1
    assert Mat.zero(f, 4).det() == 0


def test_companion_matrix_charpoly():
    f5 = make_field(5, 1)
    coeffs = (2, 3, 0, 1, 1)  # t^4 + t^3 + 3t + 2
    comp = Mat(
        f5,
        [
            [0, 0, 0, f5.neg(coeffs[0])],
            [1, 0, 0, f5.neg(coeffs[1])],
            [0, 1, 0, f5.neg(coeffs[2])],
            [0, 0, 1, f5.neg(coeffs[3])],
        ],
    )
    assert comp.charpoly().coeffs == coeffs


def test_permutation_matrix_order_and_det():
    f2 = make_field(2, 1)
    perm = Mat(
        f2, [[1 if j == (i + 1) % 11 else 0 for j in range(11)] for i in range(11)]
    )
    assert perm.order() == 11
    assert perm.det() == 1  # even permutation
    assert (perm**11).is_identity
    assert not (perm**5).is_identity


def test_primitive_companion_order():
    f3 = make_field(3, 1)
    # t^2 - t - 1 is primitive over GF(3)
    g = Mat(f3, [[0, 1], [1, 1]])
    assert g.order() == 8


def test_order_rejects_singular():
    f3 = make_field(3, 1)
    with pytest.raises(Singular):
        Mat(f3, [[1, 2], [2, 1]]).order()


def companion(f, coeffs):
    """Companion matrix of the monic t**n + coeffs[n-1] t**(n-1) + ... + coeffs[0]."""
    n = len(coeffs)
    return Mat(f, [[1 if j == i - 1 else 0 for j in range(n - 1)] + [f.neg(coeffs[i])]
                   for i in range(n)])


def block_diag(a, b):
    n = a.n + b.n
    rows = [list(r) + [0] * b.n for r in a.rows] + [[0] * a.n + list(r) for r in b.rows]
    return Mat(a.field, rows)


def jordan_one(f, n):
    return Mat(f, [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)])


def assert_exact_order(m, o):
    """The __pow__ oracle: m**o = I and m**(o/r) != I for each prime r | o."""
    assert (m**o).is_identity
    for r, _ in factor(o):
        assert not (m ** (o // r)).is_identity, (o, r)


def test_order_against_power_oracle():
    rng = random.Random(2027)
    fields = [make_field(2, 1), make_field(3, 1), make_field(2, 2),
              make_field(5, 1), make_field(3, 2)]
    for trial in range(100):
        f = fields[trial % len(fields)]
        n = rng.randrange(1, 7)
        while True:  # singular draws are rejected by order() on the way
            m = Mat(f, [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)])
            if m.det() != 0:
                break
            with pytest.raises(Singular):
                m.order()
        assert_exact_order(m, m.order())


@pytest.mark.parametrize("p", [31, 65537])
def test_order_over_large_primes_against_power_oracle(p):
    f = make_field(p, 1)
    rng = random.Random(p)
    for n in range(1, 6):
        # a scalar matrix has a degree-1 minimal polynomial
        scalar = Mat.identity(f, n).scale(rng.randrange(2, p))
        assert_exact_order(scalar, scalar.order())
        for _ in range(6):
            m = Mat(f, [[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            if m.det() != 0:
                assert_exact_order(m, m.order())


def test_order_structured_cases():
    f2, f3, f5 = make_field(2, 1), make_field(3, 1), make_field(5, 1)
    # t^4 + t + 1 is primitive over GF(2): its companion matrix has order 15,
    # while e_1 alone only sees the eigenvalue 1 of diag(1, C)
    c = companion(f2, (1, 1, 0, 0))
    assert c.order() == 15
    d = block_diag(Mat.identity(f2, 1), c)
    assert d.order() == 15
    assert_exact_order(d, 15)
    # unipotent Jordan blocks: the p-part of the bound
    assert jordan_one(f2, 5).order() == 8
    assert_exact_order(jordan_one(f2, 5), 8)
    assert jordan_one(f3, 4).order() == 9
    assert_exact_order(jordan_one(f3, 4), 9)
    # a scalar matrix: 2 has order 4 mod 5
    assert Mat.identity(f5, 3).scale(2).order() == 4
    assert Mat.identity(f5, 3).order() == 1
    # diag(B, B) has the order of B; t^2 - t - 1 is primitive over GF(3)
    b = companion(f3, (2, 2))
    assert block_diag(b, b).order() == b.order() == 8


def random_invertible(f, n, rng):
    while True:
        m = Mat(f, [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)])
        if m.det() != 0:
            return m


def test_extension_field_orders_where_the_norm_would_be_wrong():
    # the identity over GF(4) has m_A = t - 1 with norm (t - 1)^2, modulo
    # which t has order 2; the lcm of the conjugates is t - 1 again
    f4, f9, f16 = make_field(2, 2), make_field(3, 2), make_field(2, 4)
    cases = [
        (Mat.identity(f4, 3), 1),
        (Mat.identity(f9, 2), 1),
        (Mat.identity(f16, 4), 1),
        (Mat.identity(f4, 2).scale(2), 3),  # omega * I: m_A = t - omega
        (Mat(f4, [[2, 1], [0, 2]]), 6),  # J_2(omega)
        (Mat.identity(f9, 3).scale(f9.neg(1)), 2),
    ]
    for m, want in cases:
        assert m.order() == want, (m, want)
        assert_exact_order(m, want)


def test_orders_over_gf16_of_matrices_over_gf4():
    # entries in the subfield GF(4): the conjugates of m_A repeat after two
    small, big = make_field(2, 2), make_field(2, 4)
    lift = embed(small, big).lift
    rng = random.Random(416)
    for trial in range(40):
        a = random_invertible(small, 1 + trial % 4, rng)
        b = Mat(big, ((lift(c) for c in row) for row in a.rows))
        assert b.order() == a.order()
        assert_exact_order(b, b.order())


@pytest.mark.parametrize("p,k", [(2, 9), (17, 2)])
def test_orders_over_untabled_extension_fields(p, k):
    f = make_field(p, k)
    rng = random.Random(p**k)
    for trial in range(16):
        m = random_invertible(f, 1 + trial % 4, rng)
        assert_exact_order(m, m.order())


def poly_at(g, m):
    acc = Mat.zero(m.field, m.n)
    for c in reversed(g.coeffs):
        acc = acc * m + Mat.identity(m.field, m.n).scale(c)
    return acc


def minpoly_degree_oracle(m):
    """Least d with I, A, ..., A**d linearly dependent, on flattened matrices."""
    space = RowSpace(m.field, m.n * m.n)
    power = Mat.identity(m.field, m.n)
    d = 0
    while space.add([c for row in power.rows for c in row]):
        power = power * m
        d += 1
    return d


def test_minpoly_against_linear_dependence_oracle():
    rng = random.Random(4)
    f2, f3 = make_field(2, 1), make_field(3, 1)
    cases = [
        block_diag(Mat.identity(f2, 1), companion(f2, (1, 1, 0, 0))),
        jordan_one(f2, 5),
        Mat.identity(f3, 4).scale(2),
        block_diag(companion(f3, (2, 2)), companion(f3, (2, 2))),
        Mat.zero(f3, 3),
    ]
    fields = [f2, f3, make_field(2, 2), make_field(5, 1), make_field(3, 2)]
    for trial in range(60):
        f = fields[trial % len(fields)]
        n = rng.randrange(1, 6)
        # sparse entries give repeated factors and short local polynomials
        cases.append(Mat(f, [[rng.randrange(f.order) if rng.random() < 0.4 else 0
                              for _ in range(n)] for _ in range(n)]))
    for m in cases:
        g = m.minpoly()
        assert g.is_monic
        assert g.degree == minpoly_degree_oracle(m), m
        assert poly_at(g, m) == Mat.zero(m.field, m.n)
        assert (m.charpoly() % g).is_zero


def unit_vector_lcm(m):
    """lcm over the unit vectors e_i of the monic least g with g(A) e_i = 0,
    each read off a kernel vector of the Krylov columns e_i, ..., A**d e_i."""
    f, n = m.field, m.n
    acc = Poly.constant(f, 1)
    for i in range(n):
        krylov, space = [], RowSpace(f, n)
        v = tuple(1 if j == i else 0 for j in range(n))
        while True:
            krylov.append(v)
            if not space.add(v):
                break
            v = m.apply(v)
        (dep,) = kernel(f, [list(col) for col in zip(*krylov)])
        g = Poly(f, dep).monic()
        acc = acc * (g // acc.gcd(g))
    return acc


def non_cyclic_cases(f):
    """Matrices whose minimal polynomial has degree below n, so no single
    vector reaches degree n and the unit vectors must finish the lcm."""
    c = f.order - 1 if f.order > 2 else 1
    j3, j2 = jordan_one(f, 3), jordan_one(f, 2)
    b = companion(f, (c, 1))
    return [
        Mat.identity(f, 4).scale(c),
        block_diag(j3, j2),
        block_diag(b, b),
        block_diag(block_diag(b, Mat.identity(f, 1)), Mat.identity(f, 1)),
    ]


MINPOLY_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (17, 1)]


@pytest.mark.parametrize("p,k", MINPOLY_FIELDS)
def test_minpoly_is_the_unit_vector_lcm(p, k):
    f = make_field(p, k)
    rng = random.Random(p * 100 + k)
    cases = non_cyclic_cases(f) + [companion(f, (1, 0, 2 % p, 1))]
    for trial in range(12):
        n = 1 + trial % 6
        cases.append(Mat(f, [[rng.randrange(f.order) if rng.random() < 0.5 else 0
                              for _ in range(n)] for _ in range(n)]))
    for m in cases:
        assert m.minpoly() == unit_vector_lcm(m), m
    for m in non_cyclic_cases(f):
        assert m.minpoly().degree < m.n


@pytest.mark.parametrize("p,k", MINPOLY_FIELDS)
def test_order_with_a_bound_is_the_exact_order(p, k):
    f = make_field(p, k)
    rng = random.Random(p * 1000 + k)
    cases = non_cyclic_cases(f) + [random_invertible(f, 1 + t % 6, rng) for t in range(10)]
    for m in cases:
        o = m.order()
        for extra in (1, 2, 3, p, f.order - 1, 2 * 5 * 7):
            assert m.order(factor(o * extra)) == o, (m, extra)
        for r, _ in factor(o):
            with pytest.raises(NotAnnihilated):
                m.order(factor(o // r))


def test_order_with_a_huge_prime_power_bound_is_fast():
    # an involution over GF(8) against the bound 2**4000: the exponent of 2
    # is found by bisection, not by dividing 2 out 3999 times
    f = make_field(2, 3)
    swap = cycle_permutation(f, [2] + [1] * 7)
    t0 = time.perf_counter()
    assert swap.order([(2, 4000)]) == 2
    assert time.perf_counter() - t0 < 0.5


def nilpotent(f, n):
    return Mat(f, [[int(j == i + 1) for j in range(n)] for i in range(n)])


def cycle_permutation(f, lengths):
    """The permutation matrix of disjoint cycles of the given lengths."""
    image = []
    for length in lengths:
        start = len(image)
        image += [start + (i + 1) % length for i in range(length)]
    n = len(image)
    return Mat(f, [[int(image[j] == i) for j in range(n)] for i in range(n)])


def poly_product(f, polys):
    acc = Poly.constant(f, 1)
    for g in polys:
        acc = acc * g
    return acc


CHARPOLY_FIELDS = [(2, 1), (2, 2), (3, 2), (2, 9), (17, 2), (65537, 1)]


@pytest.mark.parametrize("p,k", CHARPOLY_FIELDS)
def test_charpoly_multiplies_every_krylov_piece(p, k):
    # each matrix is block diagonal or non-cyclic from e_0, so the spin from
    # e_0 stops short of degree n and charpoly needs two or more pieces
    f = make_field(p, k)
    rng = random.Random(p * 10 + k)
    c = rng.randrange(1, f.order)
    a = Mat(f, [[rng.randrange(f.order) for _ in range(3)] for _ in range(3)])
    small = [
        Mat.identity(f, 4).scale(c),
        Mat.zero(f, 3),
        nilpotent(f, 5),
        cycle_permutation(f, (3, 3)),
        cycle_permutation(f, (2, 2, 1, 1)),
        block_diag(a, a),
        block_diag(a, companion(f, (c, 1, 0))),
    ]
    for m in small:
        assert m.charpoly() == charpoly_cofactor(m), m
    # up to n = 11, against closed forms
    m1 = f.neg(1)
    t3, t2 = Poly(f, (m1, 0, 0, 1)), Poly(f, (m1, 0, 1))  # t**3 - 1, t**2 - 1
    known = [
        (Mat.identity(f, 11).scale(c), poly_product(f, [Poly.x_minus(f, c)] * 11)),
        (Mat.zero(f, 10), poly_product(f, [Poly.x(f)] * 10)),
        (nilpotent(f, 11), poly_product(f, [Poly.x(f)] * 11)),
        (cycle_permutation(f, (3, 3, 3, 2)), poly_product(f, [t3] * 3 + [t2])),
    ]
    for m, cp in known:
        assert m.charpoly() == cp, m
    # and cp(block_diag(a, b)) = cp(a) cp(b), cp(A)(A) = 0
    for x, y in itertools.combinations(small + [a], 2):
        if x.n + y.n <= 11:
            m = block_diag(x, y)
            cp = m.charpoly()
            assert cp == x.charpoly() * y.charpoly(), m
            assert poly_at(cp, m) == Mat.zero(f, m.n)


def test_pow_and_identity():
    f5 = make_field(5, 1)
    m = Mat(f5, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert m**0 == Mat.identity(f5, 3)
    assert m**3 == m * m * m
    o = m.order()
    assert (m**o).is_identity
    assert all(not (m**i).is_identity for i in range(1, min(o, 30)))


def test_one_wrong_shape_class():
    assert WrongShape is poly.WrongShape


def test_wrong_shapes_rejected():
    f3 = make_field(3, 1)
    with pytest.raises(WrongShape):
        Mat(f3, [[1, 2], [1]])
    with pytest.raises(WrongShape):
        Mat(f3, [])
    a = Mat(f3, [[1, 0], [0, 1]])
    b = Mat(f3, [[1]])
    with pytest.raises(WrongShape):
        a * b


def test_distinct_degree_components():
    f3 = make_field(3, 1)
    lin = Poly.x_minus(f3, 1)
    a = Poly(f3, (1, 0, 1)) * Poly(f3, (2, 1, 1)) * lin * lin * lin
    comps = factor_degree_components(a)
    assert [(d, g.coeffs) for d, g in comps] == [
        (1, Poly.x_minus(f3, 1).coeffs),
        (2, (Poly(f3, (1, 0, 1)) * Poly(f3, (2, 1, 1))).coeffs),
    ]


def test_kernel_and_rank():
    f5 = make_field(5, 1)
    rows = [[1, 2, 3], [2, 4, 1], [3, 1, 4]]
    kb = kernel(f5, rows)
    m = Mat(f5, rows)
    for v in kb:
        assert all(c == 0 for c in m.apply(v))
    rs = RowSpace(f5, 3)
    for row in rows:
        rs.add(row)
    assert rs.dim + len(kb) == 3
    # kernel basis vectors are independent
    ind = RowSpace(f5, 3)
    for v in kb:
        assert ind.add(v)
    # full-rank matrix has trivial kernel
    assert kernel(f5, [[1, 0], [1, 1]]) == []


def all_vectors(f, n):
    return list(itertools.product(range(f.order), repeat=n))


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_kernel_matches_exhaustive_enumeration(p, k):
    f = make_field(p, k)
    rng = random.Random(p * 10 + k)
    for m, n in itertools.product(range(1, 5), repeat=2):
        cases = [[[0] * n for _ in range(m)]]
        for density in (0.2, 0.5, 0.9, 0.5):
            cases.append([[rng.randrange(1, f.order) if rng.random() < density else 0
                           for _ in range(n)] for _ in range(m)])
        for rows in cases:
            null = [v for v in all_vectors(f, n)
                    if all(f.dot(row, v) == 0 for row in rows)]
            basis = kernel(f, rows)
            assert f.order ** len(basis) == len(null), (m, n, rows)
            assert all(tuple(v) in null for v in basis), (m, n, rows)
            ind = RowSpace(f, n)
            assert all(ind.add(v) for v in basis), (m, n, rows)


def det_leibniz(m):
    """Sum over permutations of the signed products.  Slow oracle."""
    f, n, acc = m.field, m.n, 0
    for perm in itertools.permutations(range(n)):
        term = 1
        for i, j in enumerate(perm):
            term = f.mul(term, m.rows[i][j])
        odd = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2
        acc = f.add(acc, f.neg(term) if odd else term)
    return acc


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3)])
def test_det_matches_leibniz(p, k):
    f = make_field(p, k)
    rng = random.Random(p * 10 + k)
    for n in range(1, 6):
        for _ in range(6):
            rows = [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)]
            perm = rng.sample(range(n), n)
            cases = [rows, [rows[i] for i in perm],
                     [[rng.randrange(1, f.order) if j == perm[i] else 0
                       for j in range(n)] for i in range(n)]]
            if n > 1:
                c = rng.randrange(f.order)
                cases.append(rows[:-1] + [f.axpy(c, rows[0], rows[-2])])
            for case in cases:
                m = Mat(f, case)
                assert m.det() == det_leibniz(m), (n, case)


def test_rowspace_membership():
    f3 = make_field(3, 1)
    rs = RowSpace(f3, 4)
    assert rs.add((1, 2, 0, 1))
    assert rs.add((0, 1, 1, 0))
    assert not rs.add((1, 0, 1, 1))  # (1,2,0,1) - 2*(0,1,1,0)
    assert rs.dim == 2
    assert rs.contains((2, 2, 1, 2))
    assert not rs.contains((0, 0, 0, 1))


def test_eval_word():
    f3 = make_field(3, 1)
    x = Mat(f3, [[0, 1], [1, 0]])
    y = Mat(f3, [[0, 2], [1, 2]])
    assert (y**3).is_identity
    w = eval_word(("x", "y", "x", "yy"), x, y)
    assert w == x * y * x * (y * y)
    with pytest.raises(ValueError):
        eval_word((), x, y)


def test_check_word_normalization():
    assert check_word(("x", "y", "x", "yy"))
    with pytest.raises(ValueError):
        check_word(())
    with pytest.raises(ValueError):
        check_word(("x", "x"))
    with pytest.raises(ValueError):
        check_word(("y", "yy"))
    with pytest.raises(ValueError):
        check_word(("z",))


def test_transpose():
    f5 = make_field(5, 1)
    m = Mat(f5, [[1, 2, 0], [0, 1, 3], [4, 0, 1]])
    assert m.T.charpoly() == m.charpoly()
    assert m.T.T == m
    assert m.T.det() == m.det()


def test_apply_is_matrix_times_column():
    f3 = make_field(3, 1)
    m = Mat(f3, [[1, 2], [0, 1]])
    assert m.apply((1, 1)) == (0, 1)
    assert m.apply((1, 0)) == (1, 0)
    with pytest.raises(WrongShape):
        m.apply((1, 0, 0))
