"""Valuation vectors at the four infinite places, and the induced height.

Every embedding of K = Q(lam)[alpha]/(f) into Q((1/lam)) sends alpha to
one of the four series roots of f.  The valuation vector of a nonzero
element collects the order of vanishing at infinity of its image under
each embedding, measured in units of ``a`` = deg(lam(T)); with lam of
degree ``a`` in the ground variable, an entry w means actual valuation
w*a.  Heights come from the negative part: H(z) = -sum(min(0, w_i)).

The series roots are lifted here and nowhere else in the verify
pipeline: ``_root_powers(order)`` holds them with their squares and
cubes, cached per order, and the embeddings, the Vandermonde check and
``search.verify_theorem`` all read that one table (and form root
difference products with ``root_difference_product``).  An embedding
reads the ring's integer numerators N0..N3 against that table and divides
by the denominator D once: no ``RatFunc`` is formed on the way.

Substituting a truncated root series can only vanish to finite order for
a nonzero element, so leads are resolved by adaptive doubling of the
working order, always starting at ``DEFAULT_ORDER`` and giving up (with
PrecisionUnderflow) only at the precision cap; valuation vectors and the
Vandermonde check share that one loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import PrecisionUnderflow, ZeroElement
from .laurent import DEFAULT_ORDER, LaurentSeries, poly_series, quartic_roots
from .polynomials import Poly
from .quartic import RingElem

#: Hard ceiling for the adaptive precision doubling in ``_resolve``.
PRECISION_CAP = 1024


@dataclass(frozen=True)
class ValuationVector:
    """(w1, w2, w3, w4) in units of a = deg lam."""

    w: tuple[int, int, int, int]

    def __sub__(self, other: ValuationVector) -> ValuationVector:
        return ValuationVector(tuple(x - y for x, y in zip(self.w, other.w)))

    @property
    def total(self) -> int:
        return sum(self.w)

    @property
    def height(self) -> int:
        return -sum(min(0, x) for x in self.w)


@lru_cache(maxsize=None)
def _root_powers(order: int) -> tuple[tuple[LaurentSeries, ...], ...]:
    """(S_i^0 unused, S_i, S_i^2, S_i^3) for each of the four roots."""
    table = []
    for s in quartic_roots(order):
        s2 = s * s
        table.append((None, s, s2, s2 * s))
    return tuple(table)


def _int_series(n: tuple[int, ...], order: int) -> LaurentSeries:
    """A Z[lam] coefficient list as an exact series to ``order``."""
    return poly_series(Poly._of(list(n), 1), order)


def embed_series(a: RingElem, i: int, order: int) -> LaurentSeries:
    """Image of ``a`` = sum N_j alpha^j / D under alpha -> the i-th root S:
    sum N_j S^j, scaled by 1/D, or times one series inverse of a non-constant D."""
    if i not in (1, 2, 3, 4):
        raise ValueError(f"embedding index must be 1..4, got {i}")
    powers = _root_powers(order)[i - 1]
    width = order + 8
    acc = _int_series(a._n[0], width)
    for n, p in zip(a._n[1:], powers[1:]):
        if n:
            acc = acc + _int_series(n, width) * p
    d = a._d
    if len(d) > 1:
        return acc * _int_series(d, width).inv()
    return acc if d == (1,) else acc.scale(Fraction(1, d[0]))


def _resolve(images_at, what: str) -> list[LaurentSeries]:
    """``images_at(order)`` at the first doubled order where every lead resolves."""
    order = DEFAULT_ORDER
    while True:
        images = images_at(order)
        if all(s.resolved for s in images):
            return images
        if order >= PRECISION_CAP:
            raise PrecisionUnderflow(
                f"{what} lead unresolved at the precision cap ({PRECISION_CAP})"
            )
        order = min(2 * order, PRECISION_CAP)


def valuation_vector(a: RingElem) -> ValuationVector:
    """Valuations of a nonzero element at the four infinite places."""
    if not a:
        raise ZeroElement("the zero element has no valuation vector")
    images = _resolve(lambda order: [embed_series(a, i, order) for i in (1, 2, 3, 4)],
                      "valuation")
    return ValuationVector(tuple(s.lead for s in images))


def height_infinity(a: RingElem) -> int:
    """H(a) = -sum(min(0, w_i)), in units of a = deg lam."""
    return valuation_vector(a).height


def unit_valuation_identity(r: int, s: int, t: int) -> ValuationVector:
    """Closed-form vector of (alpha-1)^r * alpha^s * (alpha+1)^t.

    The three fundamental units have vectors (1,0,0,-1), (0,1,0,-1) and
    (0,0,1,-1); the identity is their integer combination.
    """
    return ValuationVector((r, s, t, -(r + s + t)))


@dataclass(frozen=True)
class VandermondeReport:
    vector: ValuationVector
    leading_coeff: object  # Fraction of the embedding-1 leading term


def root_difference_product(roots) -> LaurentSeries:
    """prod_{i<j} (roots[j] - roots[i]), multiplied in index order."""
    prod = None
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d = roots[j] - roots[i]
            prod = d if prod is None else prod * d
    return prod


def _vandermonde_products(order: int) -> list[LaurentSeries]:
    roots = [row[1] for row in _root_powers(order)]
    return [root_difference_product(roots[k:] + roots[:k]) for k in range(4)]


def vandermonde_report() -> VandermondeReport:
    """Valuations of prod_{i<j} (root_j - root_i) under each embedding.

    The k-th embedding permutes the roots cyclically, so each entry is
    the lead of the same product with rotated root indices.
    """
    products = _resolve(_vandermonde_products, "Vandermonde")
    vec = ValuationVector(tuple(p.lead for p in products))
    return VandermondeReport(vec, products[0].leading_coeff)


def clear_caches() -> None:
    _root_powers.cache_clear()
