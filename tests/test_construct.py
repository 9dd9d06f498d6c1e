"""Generator pair assembly for dimensions 9, 10, 11.

Checks the defining properties (involution, order 3, determinant 1,
product order) plus display-grid cross-checks against hand-typed copies
of the assembled product matrices.
"""

import hashlib
import math
import random

import pytest

from sl23.construct import (
    _X11,
    _Y11,
    _parse_grid,
    build,
    build_generic,
    build_sl11,
    build_special,
    charpoly_from_deltas,
    deltas_from_min_poly,
    target_order,
    NotSpecialCase,
    OutOfRange,
    UnsupportedN,
)
from sl23.ff import make_field
from sl23.matrix import eval_word
from sl23.poly import Poly, is_irreducible, read_degree11

GENERIC9_Q = [3, 5, 7, 8, 9, 11, 13, 16]
GENERIC10_Q = [5, 7, 8, 9, 11, 13, 16]
SPECIAL = [(9, 2), (9, 4), (10, 2), (10, 3), (10, 4)]


def basic_checks(pair):
    assert (pair.x * pair.x).is_identity
    assert not pair.x.is_identity
    y2 = pair.y * pair.y
    assert (y2 * pair.y).is_identity
    assert not pair.y.is_identity
    assert pair.x.det() == 1
    assert pair.y.det() == 1
    assert pair.z == pair.x * pair.y
    assert pair.z.order() == pair.Q


def test_target_order():
    assert target_order(9, 5) == 390624
    assert target_order(9, 3) == 3280  # halved at q = 3
    assert target_order(9, 7) == (7**8 - 1) // 2
    assert target_order(10, 7) == (7**9 - 1) // 2
    assert target_order(10, 5) == 5**9 - 1
    assert target_order(11, 2) == 2047
    assert target_order(11, 3) == (3**11 - 1) // 2
    with pytest.raises(UnsupportedN):
        target_order(8, 3)
    with pytest.raises(UnsupportedN):
        target_order(12, 3)


def test_generic9():
    pair = build_generic(9, 3)
    basic_checks(pair)
    assert pair.tag == "generic9"
    assert pair.Q == 3280
    assert len(pair.alphas) == 8
    assert is_irreducible(pair.f)
    assert pair.f.degree == 8
    fld = pair.field
    r = fld.inv(pair.alphas[-1])
    assert pair.z.charpoly() == Poly.x_minus(fld, r) * pair.f


def test_generic9_display_grid():
    pair = build_generic(9, 3)
    fld = pair.field
    r = fld.inv(pair.alphas[-1])
    grid = """
     .  . -1  .  .  .  . a5 a5r
    -1  .  .  .  .  .  . a4 a4r
     .  .  .  .  . -1  . a6 a3r
     . -1  .  .  .  .  . a3 a6r
     .  .  . -1  .  .  . a2 a2r
     .  .  .  .  .  . -1 a7 a1r
     .  .  .  .  .  .  . a8  .
     .  .  .  . -1  .  . a1 a7r
     .  .  .  .  .  .  .  .  r
    """
    sym = {"r": r}
    for i, a in enumerate(pair.alphas, start=1):
        sym[f"a{i}"] = a
        sym[f"a{i}r"] = fld.mul(a, r)
    assert pair.z == _parse_grid(fld, grid, sym)


def test_generic10():
    pair = build_generic(10, 5)
    basic_checks(pair)
    assert pair.tag == "generic10"
    assert pair.Q == 5**9 - 1
    assert len(pair.alphas) == 9
    assert is_irreducible(pair.f)
    assert pair.f.degree == 9
    fld = pair.field
    r = fld.inv(pair.alphas[-1])
    assert pair.z.charpoly() == Poly.x_minus(fld, r) * pair.f


def test_generic10_display_grid():
    pair = build_generic(10, 5)
    fld = pair.field
    r = fld.inv(pair.alphas[-1])
    grid = """
     .  .  .  .  . -1  .  . a3 a2r
     .  .  .  . -1  .  .  . a7 a4r
     .  .  .  .  .  . -1  . a5 a5r
    -1  .  .  .  .  .  .  . a2 a3r
     .  .  .  .  .  .  . -1 a8 a1r
     .  . -1  .  .  .  .  . a4 a7r
     . -1  .  .  .  .  .  . a6 a6r
     .  .  .  .  .  .  .  . a9  .
     .  .  . -1  .  .  .  . a1 a8r
     .  .  .  .  .  .  .  .  .  r
    """
    sym = {"r": r}
    for i, a in enumerate(pair.alphas, start=1):
        sym[f"a{i}"] = a
        sym[f"a{i}r"] = fld.mul(a, r)
    assert pair.z == _parse_grid(fld, grid, sym)


@pytest.mark.parametrize("q", GENERIC9_Q)
def test_generic9_sweep(q):
    pair = build_generic(9, q)
    basic_checks(pair)
    assert is_irreducible(pair.f)


@pytest.mark.parametrize("q", GENERIC10_Q)
def test_generic10_sweep(q):
    pair = build_generic(10, q)
    basic_checks(pair)
    assert is_irreducible(pair.f)


def test_generic_range_guards():
    for n, q in SPECIAL:
        with pytest.raises(OutOfRange):
            build_generic(n, q)


def test_generic_unchecked_builds():
    # outside the supported range the shape still gives a valid pair with
    # ord(z) = q^(n-1) - 1; it just fails to generate the full group
    expected_q = {
        (9, 2): 2**8 - 1,
        (9, 4): 4**8 - 1,
        (10, 2): 2**9 - 1,
        (10, 3): 3**9 - 1,
        (10, 4): 4**9 - 1,
    }
    for (n, q), want in expected_q.items():
        raw = build_generic(n, q, unchecked=True)
        basic_checks(raw)
        assert raw.Q == want, (n, q)


@pytest.mark.parametrize("n,q", SPECIAL)
def test_special_pairs(n, q):
    pair = build_special(n, q)
    basic_checks(pair)
    assert pair.tag == "special"
    assert pair.n == n and pair.q == q
    assert pair.alphas is None
    assert pair.words[0].letters == ("x", "y")
    assert pair.words[0].claimed_order == pair.Q
    for wit in pair.words:
        g = eval_word(wit.letters, pair.x, pair.y)
        assert g.order() == wit.claimed_order, (n, q, wit.claimed_order)
    p1, p2 = pair.coprime_claim
    combined = math.lcm(*(w.claimed_order for w in pair.words))
    assert combined % p1 == 0 and combined % p2 == 0


def test_special_golden_orders():
    golden = {
        (9, 2): (73, 381),
        (9, 4): (81915, 29127),
        (10, 2): (1023, 73),
        (10, 3): (7381, 19682),
        (10, 4): (4161, 69905),
    }
    for (n, q), (oz, word) in golden.items():
        pair = build_special(n, q)
        assert pair.Q == oz
        assert pair.words[1].claimed_order == word


def test_special_rejects_in_range():
    with pytest.raises(NotSpecialCase):
        build_special(9, 3)
    with pytest.raises(NotSpecialCase):
        build_special(10, 5)
    with pytest.raises(NotSpecialCase):
        build_special(11, 2)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_sl11(q):
    pair = build_sl11(q)
    basic_checks(pair)
    assert pair.tag == "sl11"
    assert math.gcd(6, pair.Q) == 1
    assert pair.Q == (q**11 - 1) // (q - 1)
    cp = pair.z.charpoly()
    assert cp == pair.l
    assert cp == charpoly_from_deltas(pair.field, pair.deltas)
    assert pair.deltas == deltas_from_min_poly(pair.field, read_degree11(pair.l))
    assert len(pair.deltas) == 10


def test_sl11_display_grid():
    pair = build_sl11(3)
    fld = pair.field
    grid = """
     .  .  .  .  .  .  .  .  .  .  1
     .  .  .  .  .  .  .  .  1  .  d10
     .  .  .  .  .  .  .  . -1 -1  d9
     .  .  .  .  .  .  1  .  .  .  d8
     .  .  .  .  .  . -1 -1  .  .  d7
     .  .  .  . -1  .  .  .  .  .  nd6
     .  .  .  . -1 -1  .  .  .  .  d5
     .  .  1  .  .  .  .  .  .  .  d4
     .  . -1 -1  .  .  .  .  .  .  d3
     1  .  .  .  .  .  .  .  .  .  d2
    -1 -1  .  .  .  .  .  .  .  .  d1
    """
    sym = {f"d{i}": d for i, d in enumerate(pair.deltas, start=1)}
    sym["nd6"] = fld.neg(pair.deltas[5])
    assert pair.z == _parse_grid(fld, grid, sym)


def test_delta_zero_closed_form():
    f5 = make_field(5, 1)
    zero_cp = charpoly_from_deltas(f5, (0,) * 10)
    s = f5.scalar
    expect = Poly(
        f5, [s(-1), s(1), s(2), s(-2), 0, s(1), 0, s(-1), s(1), s(-1), 0, 1]
    )
    assert zero_cp == expect
    x0 = _parse_grid(f5, _X11, {})
    y0 = _parse_grid(f5, _Y11, {f"d{i}": 0 for i in range(1, 11)})
    assert (x0 * y0).charpoly() == zero_cp


def test_random_delta_charpoly_agreement():
    rng = random.Random(11)
    f7 = make_field(7, 1)
    x = _parse_grid(f7, _X11, {})
    for _ in range(60):
        ds = tuple(rng.randrange(7) for _ in range(10))
        y = _parse_grid(f7, _Y11, {f"d{i}": d for i, d in enumerate(ds, start=1)})
        assert (y * y * y).is_identity
        assert (x * y).charpoly() == charpoly_from_deltas(f7, ds)


def test_dispatcher():
    assert build(9, 2).tag == "special"
    assert build(9, 3).tag == "generic9"
    assert build(10, 4).tag == "special"
    assert build(10, 5).tag == "generic10"
    assert build(11, 5).tag == "sl11"
    with pytest.raises(UnsupportedN):
        build(8, 3)


# sha256 of each rendered pair ("n q tag Q", then the rows of x and y), as
# perfbench's gen-sweep renders it: odd extensions, char 2 and primes, all
# with big fields of degree 8 to 88 above the tabled range.
BUILD_SHA256 = {
    (9, 27): "c8e577630ee6177c062f85b8a9897daeb261c77062893a3c522e5a078781f833",
    (10, 49): "62a9d75e05af8c09d2ef374ac58f1027e26eb1f0fa45dcc62344e69c2669a874",
    (11, 81): "72d88b00777cca46457f75599054611a1d3e0439537acf2657617593e3496d57",
    (10, 125): "fbe5e2f85f124556027e1029c6868905a22ee10a39f0aae0878c103a85d3a744",
    (9, 243): "b641924938de78d95a3d2a7fd96060996054ea132768b182174e598a1a1eb2b5",
    (11, 243): "d03f2a6d49fac5d2052b63684ac6616b3f3f59de309cf631e3212f046f8a39b4",
    (11, 32): "5db41590eb99e9677688a8914f408140c2ead771535f6eebd8e286f2b1e927ae",
    (9, 128): "10be96d484d0ba3addabec92d67451417f5ec9b491351b10b4c129416df3c801",
    (10, 256): "a7cf2c2fae37dd5eec2287d7dc0900e0d17a341fe297387e1052cc76f47bb749",
    (11, 256): "fb6aeb917c0b2c54d805cc6a6f6230e2585c44564ff38aef8cd0269168005269",
    (10, 101): "3566b939c3136cb30d7494195feb254c0b0a434551b03dc162df4cc2476cc7b6",
    (9, 251): "b3930ed4533296d726037d106f12a59c898ccc97d4044af67cdbef141e1832b0",
    (11, 251): "845e925b40662944c619c5e5d33c041b0457e43f9a68821e017f734caccd4915",
}


@pytest.mark.parametrize("n,q", sorted(BUILD_SHA256))
def test_pinned_build_bytes(n, q):
    pair = build(n, q)
    rows = [" ".join(map(str, r)) for m in (pair.x, pair.y) for r in m.rows]
    text = "\n".join([f"{n} {q} {pair.tag} {pair.Q}"] + rows) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == BUILD_SHA256[(n, q)]
