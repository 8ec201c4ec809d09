"""Valuation vectors at the four infinite places, and the induced height.

Every embedding of K = Q(lam)[alpha]/(f) into Q((1/lam)) sends alpha to
one of the four series roots of f.  The valuation vector of a nonzero
element collects the order of vanishing at infinity of its image under
each embedding, measured in units of ``a`` = deg(lam(T)); with lam of
degree ``a`` in the ground variable, an entry w means actual valuation
w*a.  Heights come from the negative part: H(z) = -sum(min(0, w_i)).

The series roots are computed here and nowhere else in the verify
pipeline: ``_root_powers(order)`` holds them with their squares and
cubes, cached per order, and the embeddings, the Vandermonde check and
``search.verify_theorem`` all read that one table (and form root
difference products with ``root_difference_product``).  An embedding
reads the ring's integer numerators N0..N3 against that table on integer
lists -- each reversed N_j times the window of S^j as one short product,
the products aligned by lead over one common denominator -- builds one
series from the sum and divides by the denominator D once: no ``RatFunc``
and no intermediate series is formed on the way.

The product of the six differences dij = roots[j] - roots[i] of the roots
(S1, S2, S3, S4) is formed in pairs, (d01 d23)(d03 d12) times d02 d13,
because each pair is odd or even in t = 1/lam.  S2 and S4 = -1/S2 are odd
in lam, and S3 = (S2 - 1)/(S2 + 1), S1 = -1/S3, so lam -> -lam sends
(S1, S2, S3, S4) to (-S3, -S2, -S1, -S4): d02 is even, d13 odd, and
d01 d23 goes to -d12 d03.  S1 S3 = S2 S4 = -1 and e2 = -6 give
(S1 + S3)(S2 + S4) = -4, so d01 d23 = -2 - S1 S4 - S2 S3 = d03 d12, and
that pair is odd.  Of the five products only the two that form the first
two pairs are dense; the other three multiply parity-pure windows, on
``_int_mul_low``'s half-length path or by the schoolbook loop that skips
their zeros.  The verifier's discriminant check forms the same grouping
with one dense product: once it has checked the symmetry on the roots it
reads d03 d12 off d01 d23 as -(d01 d23)(-t).

Substituting a truncated root series can only vanish to finite order for
a nonzero element, so leads are resolved by adaptive doubling of the
working order, always starting at ``DEFAULT_ORDER`` and giving up (with
PrecisionUnderflow) only at the precision cap; valuation vectors and the
Vandermonde check share that one loop.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm
from operator import add
from typing import NamedTuple

from .errors import PrecisionUnderflow, ZeroElement
from .laurent import DEFAULT_ORDER, LaurentSeries, _series, poly_series, quartic_roots
from .polynomials import Poly, _int_mul_low
from .quartic import RingElem

#: Hard ceiling for the adaptive precision doubling in ``_resolve``.
PRECISION_CAP = 1024


class ValuationVector(NamedTuple):
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


def embed_series(a: RingElem, i: int, order: int) -> LaurentSeries:
    """Image of ``a`` = sum N_j alpha^j / D under alpha -> the i-th root S:
    sum N_j S^j, scaled by 1/D, or times one series inverse of a non-constant D.

    The sum is the series each N_j gives to ``order + 8`` (lead -deg N_j,
    window N_j reversed) times S^j, added up, to the least order of the
    terms: it is formed at once on integer lists, each reversed N_j times
    the window of S^j as a short product, aligned by lead over one common
    denominator.  Its known coefficients, order and so its canonical
    (lead, window, order) are those of the ``LaurentSeries`` products and
    sums that spell the same formula out.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError(f"embedding index must be 1..4, got {i}")
    powers = _root_powers(order)[i - 1]
    width = order + 8
    top = width
    n0 = a._n[0]
    terms = [(1 - len(n0), n0[::-1], (1,), 1)] if n0 else []
    for n, s in zip(a._n[1:], powers[1:]):
        if n:
            top = min(top, s._order + 1 - len(n), s._lead + width)
            terms.append((s._lead + 1 - len(n), n[::-1], s._w._n, s._w._d))
    low = min([top] + [t[0] for t in terms])
    den = lcm(*(t[3] for t in terms))
    acc = [0] * (top - low)
    for lead, n, w, d in terms:
        part = _int_mul_low(n, w, top - lead)
        if d != den:
            part = [v * (den // d) for v in part]
        k = lead - low
        acc[k:k + len(part)] = map(add, acc[k:k + len(part)], part)
    d = a._d
    if len(d) > 1:
        inv_d = poly_series(Poly._of(list(d), 1), width).inv()
        return _series(low, Poly._of(acc, den), top) * inv_d
    return _series(low, Poly._of(acc, den * d[0]), top)


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


class VandermondeReport(NamedTuple):
    vector: ValuationVector
    leading_coeff: object  # Fraction of the embedding-1 leading term


def root_difference_product(roots) -> LaurentSeries:
    """prod_{i<j} (roots[j] - roots[i]) of four roots, formed in pairs as
    (d01 d23)(d03 d12) times d02 d13, with dij = roots[j] - roots[i].

    A series product is known to the sum of the leads plus the shortest
    factor's window, whatever the grouping, so the result is the index-order
    product's (lead, window, order) for any four roots.  The grouping pays
    off on the series roots (module docstring): each pair is odd or even in
    t = 1/lam, and so is every product of pairs.
    """
    if len(roots) != 4:
        raise ValueError(f"root difference product needs four roots, got {len(roots)}")
    r0, r1, r2, r3 = roots
    return ((r1 - r0) * (r3 - r2)) * ((r3 - r0) * (r2 - r1)) * ((r2 - r0) * (r3 - r1))


def vandermonde_report() -> VandermondeReport:
    """Valuations of prod_{i<j} (root_j - root_i) under each embedding.

    The k-th embedding rotates the root indices by k, and a rotation by k
    is the k-th power of a 4-cycle, an odd permutation of the roots: it
    permutes the six differences and negates an odd number of them exactly
    when k is odd.  So the four images are (-1)^k times one product, and
    its lead is every entry of the vector.
    """
    (product,) = _resolve(
        lambda order: [root_difference_product([row[1] for row in _root_powers(order)])],
        "Vandermonde",
    )
    return VandermondeReport(ValuationVector((product.lead,) * 4), product.leading_coeff)


def clear_caches() -> None:
    """Drop the root table: perfbench's tamper fixture, and a cold table for
    ``test_verifier_lifts_the_series_roots_once``."""
    _root_powers.cache_clear()
