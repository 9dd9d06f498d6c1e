"""Irreducibility testing for the module generated by a set of matrices.

Three checks are provided:

* scan_components decides an order-2 / order-3 pair exactly when z = xy
  has charpoly g*h with g, h distinct monic irreducibles: ker g(z) and
  ker h(z) are then the only candidates.  certify runs it for every tag
  whose charpoly(z) is not itself irreducible.
* scan_lines enumerates every possible common eigenvector of the pair
  (eigenvalue pairs are limited to cube and square roots of unity) and
  repeats the scan on the transposed pair, which detects invariant
  hyperplanes as invariant lines of the dual module.
* is_irreducible_module is the MeatAxe, the classical randomized algebra
  test (Holt & Rees 1994): find an algebra element with an irreducible
  characteristic factor g whose kernel has dimension exactly deg g;
  spinning one kernel vector and one dual kernel vector then decides
  irreducibility outright.  The factors g come from
  poly.irreducible_factors; this file keeps no polynomial code of its own.

scan_lines and the MeatAxe are the differential reference for
scan_components; no certificate runs them.  Each check emits Verdicts
whose reducibility witnesses are re-verified invariant subspaces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .ff import element_of_order
from .matrix import Mat, RowSpace, kernel
from .poly import Poly, irreducible_factors


class ZeroSeed(ValueError):
    """Raised when asked to spin up the zero vector."""


class InconclusiveAfterRetries(RuntimeError):
    """The randomized test exhausted its budget without a usable algebra
    element.  Statistically negligible for honest inputs; report, never
    guess."""


@dataclass(frozen=True)
class SpinResult:
    """Smallest subspace containing the seed and closed under the action."""

    basis: tuple[tuple[int, ...], ...]
    dimension: int


@dataclass(frozen=True)
class Verdict:
    """Outcome of an irreducibility check.

    For a reducible verdict, side says whether the invariant subspace
    lives in the natural module ("natural") or is an invariant subspace
    of the transposed action ("dual", i.e. an invariant hyperplane
    annihilator), and basis spans it.
    """

    irreducible: bool
    side: Optional[str] = None
    basis: Optional[tuple[tuple[int, ...], ...]] = None


def _check_gens(gens: Sequence[Mat]) -> tuple[int, "Field"]:
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    field = gens[0].field
    if any(g.n != n or g.field != field for g in gens):
        raise ValueError("generators disagree in size or field")
    return n, field


def spin(seed: Sequence[int], gens: Sequence[Mat]) -> SpinResult:
    """Close the span of seed under all generators, breadth-first.

    Generators are applied in their listed order to each new basis vector,
    so the resulting basis sequence is deterministic.
    """
    n, field = _check_gens(gens)
    vec = tuple(seed)
    if len(vec) != n:
        raise ValueError("seed length does not match the generators")
    if all(c == 0 for c in vec):
        raise ZeroSeed("cannot spin the zero vector")
    space = RowSpace(field, n)
    space.add(vec)
    basis = [vec]
    queue = [vec]
    while queue and space.dim < n:
        v = queue.pop(0)
        for g in gens:
            u = g.apply(v)
            if space.add(u):
                basis.append(u)
                queue.append(u)
    return SpinResult(basis=tuple(basis), dimension=space.dim)


def _invariant(basis: Sequence[Sequence[int]], gens: Sequence[Mat]) -> bool:
    """Whether every generator maps the span of basis into itself."""
    n, field = _check_gens(gens)
    space = RowSpace(field, n)
    for v in basis:
        space.add(v)
    return all(space.contains(g.apply(v)) for v in basis for g in gens)


def _assert_invariant(basis: Sequence[Sequence[int]], gens: Sequence[Mat]) -> None:
    if not _invariant(basis, gens):
        raise ArithmeticError("witness subspace is not invariant")  # unreachable


def _minus(a: Mat, c: int) -> list:
    """The rows of a - c*I."""
    sub = a.field.sub
    return [[sub(e, c) if i == j else e for j, e in enumerate(row)]
            for i, row in enumerate(a.rows)]


def scan_lines(x: Mat, y: Mat) -> Verdict:
    """Search for a common eigenvector of the pair, then of the transposes.

    Any one-dimensional invariant subspace is spanned by a w with
    y w = lambda w, x w = nu w where lambda cubes and nu squares to 1;
    the at most three cube roots and two square roots of 1 are taken
    directly, in ascending code order, and each eigenspace intersection
    is computed exactly.  A hit on the transposed side certifies an
    invariant hyperplane of the natural module.
    """
    n, field = _check_gens([x, y])
    lambdas = [1]
    if (field.order - 1) % 3 == 0:
        w = element_of_order(field, 3, [(3, 1)])
        lambdas = sorted([1, w, field.mul(w, w)])
    nus = sorted({1, field.neg(1)})
    for side, (xx, yy) in (("natural", (x, y)), ("dual", (x.T, y.T))):
        for lam in lambdas:
            for nu in nus:
                null = kernel(field, _minus(yy, lam) + _minus(xx, nu))
                if null:
                    _assert_invariant([null[0]], [xx, yy])
                    return Verdict(irreducible=False, side=side, basis=(null[0],))
    return Verdict(irreducible=True)


def scan_components(x: Mat, y: Mat, z: Mat, g: Poly) -> Verdict:
    """The module's verdict for z = x*y with charpoly g*h, where g and h are
    distinct monic irreducibles.

    V = ker g(z) + ker h(z), simple non-isomorphic F_q[z]-modules, so these
    two are the only proper nonzero z-invariant subspaces, and an
    <x, y>-invariant subspace is z-invariant.  ker h(z) is invariant iff its
    annihilator ker g(z^T) = ker g(z)^T is invariant under x^T and y^T.  So
    one g(z) and one kernel per side decide: natural side first, as in
    scan_lines.  ValueError if ker g(z) does not have dimension deg g.
    """
    _, field = _check_gens([x, y, z])
    gz = _poly_at_matrix(g, z)
    for side, (xx, yy, rows) in (("natural", (x, y, gz.rows)),
                                 ("dual", (x.T, y.T, gz.T.rows))):
        null = kernel(field, rows)
        if len(null) != g.degree:
            raise ValueError("ker g(z) does not have dimension deg g")
        if _invariant(null, (xx, yy)):
            return Verdict(irreducible=False, side=side, basis=tuple(null))
    return Verdict(irreducible=True)


def _poly_at_matrix(g: Poly, a: Mat) -> Mat:
    """g(A) for a monic g of degree >= 1, by Horner's rule from A + g_(d-1) I,
    so a linear g costs one diagonal shift."""
    field, cs = a.field, g.coeffs
    acc = Mat(field, _minus(a, field.neg(cs[-2])))
    for c in reversed(cs[:-2]):
        acc = Mat(field, _minus(acc * a, field.neg(c)))
    return acc


# ---------------------------------------------------------------------------
# Randomized algebra test.

_BUDGET = 64


def _random_algebra_element(gens: Sequence[Mat], rng: random.Random) -> Mat:
    def word() -> Mat:
        m = gens[rng.randrange(len(gens))]
        for _ in range(rng.randrange(1, 4)):
            m = m * gens[rng.randrange(len(gens))]
        return m

    a = word() + word()
    if rng.randrange(2):
        a = a + word()
    return a


def is_irreducible_module(gens: Sequence[Mat], seed: int = 0) -> Verdict:
    """Decide irreducibility of the module the generators act on.

    Draws up to 64 random elements of the matrix algebra from a generator
    seeded with `seed`.  For an element whose characteristic polynomial
    has an irreducible factor g with nullity(g(A)) equal to deg g, one
    spin of a kernel vector and one spin of a transposed-kernel vector
    give a complete answer: if both fill the space the module is
    irreducible, and any shortfall hands back a verified invariant
    subspace (natural or dual).
    """
    n, field = _check_gens(gens)
    if n == 1:
        return Verdict(irreducible=True)
    rng = random.Random(seed)
    gens_t = [g.T for g in gens]
    for _ in range(_BUDGET):
        a = _random_algebra_element(gens, rng)
        cp = a.charpoly()
        for g in irreducible_factors(cp, rng):
            ga = _poly_at_matrix(g, a)
            null = kernel(field, ga.rows)
            if len(null) != g.degree:
                continue
            sp = spin(null[0], gens)
            if sp.dimension < n:
                _assert_invariant(sp.basis, gens)
                return Verdict(irreducible=False, side="natural", basis=sp.basis)
            null_t = kernel(field, ga.T.rows)
            spd = spin(null_t[0], gens_t)
            if spd.dimension < n:
                _assert_invariant(spd.basis, gens_t)
                return Verdict(irreducible=False, side="dual", basis=spd.basis)
            return Verdict(irreducible=True)
    raise InconclusiveAfterRetries(
        f"no usable algebra element after {_BUDGET} attempts"
    )
