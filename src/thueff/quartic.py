"""Arithmetic in K = Q(lam)[alpha] / (alpha^4 - lam*alpha^3 - 6*alpha^2 + lam*alpha + 1).

Elements are stored on the power basis (1, alpha, alpha^2, alpha^3) with
rational-function coefficients.  Products are reduced eagerly with the
rewrite rule

    alpha^4 = lam*alpha^3 + 6*alpha^2 - lam*alpha - 1

applied from the top degree down.  The defining quartic is invariant
under the order-4 Moebius map z -> (z - 1)/(z + 1), so its four roots
inside K are

    a1 = alpha
    a2 = (alpha - 1)/(alpha + 1)
    a3 = -1/alpha
    a4 = -1/a2

and sending alpha to a_i extends to the i-th automorphism of K.  The
conjugate powers are computed once and cached (call ``clear_caches`` if
``REWRITE_ROW`` is ever swapped out, e.g. by a fault-injection test).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import SingularSystem, ZeroDivisor
from .polynomials import LAM, Poly, RatFunc, bareiss_det, clear_denominators

#: Coefficients of alpha^4 on the power basis (the rewrite rule).
REWRITE_ROW = (RatFunc(-1), RatFunc(-LAM), RatFunc(6), RatFunc(LAM))

_RF_ZERO = RatFunc(0)
_RF_ONE = RatFunc(1)


@dataclass(frozen=True)
class RingElem:
    """c0 + c1*alpha + c2*alpha^2 + c3*alpha^3 with RatFunc coefficients."""

    c0: RatFunc
    c1: RatFunc
    c2: RatFunc
    c3: RatFunc

    @staticmethod
    def of(c0=0, c1=0, c2=0, c3=0) -> RingElem:
        return RingElem(_coerce(c0), _coerce(c1), _coerce(c2), _coerce(c3))

    @property
    def coeffs(self) -> tuple[RatFunc, RatFunc, RatFunc, RatFunc]:
        return (self.c0, self.c1, self.c2, self.c3)

    def is_scalar(self) -> bool:
        return not (self.c1 or self.c2 or self.c3)

    def __bool__(self) -> bool:
        return bool(self.c0 or self.c1 or self.c2 or self.c3)

    def __add__(self, other) -> RingElem:
        other = _as_elem(other)
        return RingElem(*(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> RingElem:
        return RingElem(*(-c for c in self.coeffs))

    def __sub__(self, other) -> RingElem:
        return self + (-_as_elem(other))

    def __rsub__(self, other) -> RingElem:
        return _as_elem(other) - self

    def __mul__(self, other) -> RingElem:
        if isinstance(other, (int, RatFunc, Poly)):
            s = _coerce(other)
            return RingElem(*(c * s for c in self.coeffs))
        return ring_mul(self, _as_elem(other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RingElem:
        return ring_pow(self, n)

    def __str__(self) -> str:
        names = ("", "·α", "·α^2", "·α^3")
        parts = [f"({c})" + n for c, n in zip(self.coeffs, names) if c]
        return " + ".join(parts) if parts else "0"


def _coerce(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    return RatFunc(x)


def _as_elem(x) -> RingElem:
    if isinstance(x, RingElem):
        return x
    return RingElem(_coerce(x), _RF_ZERO, _RF_ZERO, _RF_ZERO)


ZERO = RingElem.of(0)
ONE = RingElem.of(1)
ALPHA = RingElem.of(0, 1)


def _reduce(vec: list[RatFunc]) -> RingElem:
    """Fold a degree <= 6 coefficient vector back onto the power basis."""
    row = REWRITE_ROW
    for k in range(len(vec) - 1, 3, -1):
        c = vec[k]
        if c:
            for j in range(4):
                vec[k - 4 + j] = vec[k - 4 + j] + c * row[j]
        vec[k] = _RF_ZERO
    return RingElem(vec[0], vec[1], vec[2], vec[3])


def ring_mul(a: RingElem, b: RingElem) -> RingElem:
    out = [_RF_ZERO] * 7
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs):
            if y:
                out[i + j] = out[i + j] + x * y
    return _reduce(out)


def _times_alpha(vec: tuple[RatFunc, ...]) -> tuple[RatFunc, ...]:
    """Multiply a basis-coefficient vector by alpha (shift and rewrite)."""
    row = REWRITE_ROW
    top = vec[3]
    shifted = [_RF_ZERO, vec[0], vec[1], vec[2]]
    if top:
        shifted = [s + top * r for s, r in zip(shifted, row)]
    return tuple(shifted)


def _solve(matrix: list[list[RatFunc]], rhs: list[RatFunc]) -> list[RatFunc]:
    """Exact solve of a square rational-function system, fraction-free.

    Each augmented row is scaled by the lcm of its denominators (row
    scaling does not change the solution), leaving a polynomial system
    that Cramer's rule solves with Bareiss determinants.  That keeps all
    intermediate divisions exact instead of reducing fractions at every
    elimination step.
    """
    n = len(matrix)
    rows = [clear_denominators([*row, r])[0] for row, r in zip(matrix, rhs)]
    det = bareiss_det([row[:n] for row in rows])
    if not det:
        raise SingularSystem("singular 4x4 system in ring inversion")
    out: list[RatFunc] = []
    for j in range(n):
        numerator = bareiss_det(
            [row[:j] + [row[n]] + row[j + 1 : n] for row in rows]
        )
        out.append(RatFunc(numerator, det))
    return out


def ring_inv(a: RingElem) -> RingElem:
    """Multiplicative inverse via the multiplication-by-a matrix."""
    if not a:
        raise ZeroDivisor("inverse of zero in the quartic ring")
    col = a.coeffs
    matrix: list[list[RatFunc]] = [[], [], [], []]
    for _ in range(4):
        for i in range(4):
            matrix[i].append(col[i])
        col = _times_alpha(col)
    rhs = [_RF_ONE, _RF_ZERO, _RF_ZERO, _RF_ZERO]
    return RingElem(*_solve(matrix, rhs))


def ring_pow(a: RingElem, n: int) -> RingElem:
    if n < 0:
        return ring_pow(ring_inv(a), -n)
    result = ONE
    base = a
    while n:
        if n & 1:
            result = ring_mul(result, base)
        base = ring_mul(base, base)
        n >>= 1
    return result


@lru_cache(maxsize=None)
def conjugates() -> tuple[RingElem, RingElem, RingElem, RingElem]:
    """The four roots of the defining quartic inside K (a1 = alpha)."""
    a2 = ring_mul(ALPHA - 1, ring_inv(ALPHA + 1))
    a3 = -ring_inv(ALPHA)
    a4 = -ring_inv(a2)
    return (ALPHA, a2, a3, a4)


@lru_cache(maxsize=None)
def _conjugate_powers() -> tuple[tuple[RingElem, ...], ...]:
    table = []
    for a in conjugates():
        sq = ring_mul(a, a)
        table.append((ONE, a, sq, ring_mul(sq, a)))
    return tuple(table)


def galois(a: RingElem, i: int) -> RingElem:
    """Apply the i-th automorphism (alpha -> i-th conjugate), i in 1..4."""
    if i not in (1, 2, 3, 4):
        raise ValueError(f"automorphism index must be 1..4, got {i}")
    if i == 1:
        return a
    powers = _conjugate_powers()[i - 1]
    acc = _as_elem(a.c0)
    for c, p in zip(a.coeffs[1:], powers[1:]):
        if c:
            acc = acc + p * c
    return acc


def norm(a: RingElem) -> RatFunc:
    """Product of the four conjugates; lands in the base field Q(lam)."""
    prod = a
    for i in (2, 3, 4):
        prod = ring_mul(prod, galois(a, i))
    if not prod.is_scalar():
        raise RuntimeError(
            "conjugate product left the base field (broken conjugate table?)"
        )
    return prod.c0


def elem_from_xy(x: Poly, y: Poly) -> RingElem:
    """The linear form x - alpha*y, the left side of the norm equation."""
    return RingElem(RatFunc(x), RatFunc(-y), _RF_ZERO, _RF_ZERO)


def f_lambda_eval(x: Poly, y: Poly) -> RatFunc:
    """The quartic form X^4 - lam*X^3*Y - 6*X^2*Y^2 + lam*X*Y^3 + Y^4."""
    if not isinstance(x, Poly):
        x = Poly((x,))
    if not isinstance(y, Poly):
        y = Poly((y,))
    value = (
        x**4 - LAM * x**3 * y - 6 * x**2 * y**2 + LAM * x * y**3 + y**4
    )
    return RatFunc(value)


def min_poly_value(a: RingElem) -> RingElem:
    """a^4 - lam*a^3 - 6*a^2 + lam*a + 1; zero exactly on the conjugates."""
    lam = RatFunc(LAM)
    a2 = ring_mul(a, a)
    a3 = ring_mul(a2, a)
    a4 = ring_mul(a2, a2)
    return a4 - a3 * lam - a2 * 6 + a * lam + ONE


_UNIT_BASES = None


def _unit_bases() -> tuple[tuple[RingElem, RingElem], ...]:
    """(base, base^-1) for the three fundamental units alpha-1, alpha, alpha+1."""
    global _UNIT_BASES
    if _UNIT_BASES is None:
        bases = (ALPHA - 1, ALPHA, ALPHA + 1)
        _UNIT_BASES = tuple((b, ring_inv(b)) for b in bases)
    return _UNIT_BASES


@lru_cache(maxsize=4096)
def _base_power(which: int, e: int) -> RingElem:
    if e == 0:
        return ONE
    base, inv_base = _unit_bases()[which]
    if e > 0:
        return ring_mul(_base_power(which, e - 1), base)
    return ring_mul(_base_power(which, e + 1), inv_base)


def unit_from_exponents(r: int, s: int, t: int) -> RingElem:
    """(alpha-1)^r * alpha^s * (alpha+1)^t, exactly."""
    out = ring_mul(_base_power(0, r), _base_power(1, s))
    return ring_mul(out, _base_power(2, t))


def clear_caches() -> None:
    """Drop every cached table derived from REWRITE_ROW."""
    global _UNIT_BASES
    conjugates.cache_clear()
    _conjugate_powers.cache_clear()
    _base_power.cache_clear()
    _UNIT_BASES = None
