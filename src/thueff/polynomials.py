"""Exact univariate polynomial and rational-function arithmetic over Q.

The coefficient field of everything downstream is Q(lam), the field of
rational functions in one indeterminate ``lam`` with rational coefficients.
This module supplies its two building blocks:

* ``Poly`` -- dense univariate polynomials over Q, stored as integer
  numerators (ascending, no trailing zeros) over one positive common
  denominator, in lowest terms: gcd(denominator, *numerators) = 1.  The
  zero polynomial is ``((), 1)`` and its degree is the ``-inf`` sentinel
  (never fed back into exponent arithmetic).  The arithmetic runs on the
  integers; ``coeffs`` and indexing still yield ``fractions.Fraction``
  values, built on demand.  ``truncate``, ``shift``, ``reversed`` and
  ``low_degree`` serve the series windows of ``laurent``.
* ``RatFunc`` -- quotients of two ``Poly`` values, canonicalized eagerly:
  numerator and denominator are coprime and the denominator is monic, so
  equality of values is equality of representations.  Sums and products
  leave the reduction to the constructor.

``Poly`` sums and products, the gcd and the exact quotient ``//`` (no
remainder operation) run on kernels over integer coefficient lists
(``_int_add``, ``_int_mul``, ``_int_gcd``, ``_int_exquo``), which the
quartic ring's integer form shares.  ``_int_mul_low``, behind
``Poly.mul_low``, is the short product that series windows use: only
the terms below a given power.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as gcd_int, lcm
from typing import Iterable, Sequence, Union

from .errors import UndefinedGcd, ZeroDivisor

CoeffLike = Union[int, Fraction]

_NEG_INF = float("-inf")
_INF = float("inf")


class Poly:
    """A dense univariate polynomial over Q: integer numerators over one denominator."""

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Iterable[CoeffLike] = ()):
        c = [x if type(x) is int else Fraction(x) for x in coeffs]
        d = lcm(*(x.denominator for x in c))
        p = Poly._of([x.numerator * (d // x.denominator) for x in c], d)
        self._n, self._d = p._n, p._d

    @classmethod
    def _of(cls, n: list[int], d: int) -> Poly:
        """sum(n[i] x**i) / d for any nonzero d, brought to lowest terms."""
        while n and not n[-1]:
            n.pop()
        if d < 0:
            n = [-v for v in n]
            d = -d
        if d != 1:
            g = gcd_int(d, *n)
            if g != 1:
                n = [v // g for v in n]
                d //= g
        out = object.__new__(cls)
        out._n = tuple(n)
        out._d = d
        return out

    # -- basic structure ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self._d
        return tuple(Fraction(v, d) for v in self._n)

    @property
    def degree(self):
        """Degree, or ``-inf`` for the zero polynomial."""
        return len(self._n) - 1 if self._n else _NEG_INF

    def __bool__(self) -> bool:
        return bool(self._n)

    def __getitem__(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored range)."""
        if 0 <= i < len(self._n):
            return Fraction(self._n[i], self._d)
        return Fraction(0)

    @property
    def low_degree(self):
        """Index of the lowest nonzero coefficient, or ``inf`` for zero."""
        return next((i for i, v in enumerate(self._n) if v), _INF)

    def is_constant(self) -> bool:
        return len(self._n) <= 1

    def is_monic(self) -> bool:
        return bool(self._n) and self._n[-1] == self._d

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: Poly | CoeffLike) -> Poly:
        other = _as_poly(other)
        a, b, d = self._n, other._n, self._d
        if d != other._d:
            d = lcm(d, other._d)
            a = [v * (d // self._d) for v in a]
            b = [v * (d // other._d) for v in b]
        return Poly._of(_int_add(a, b), d)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        out = object.__new__(Poly)
        out._n = tuple(-v for v in self._n)
        out._d = self._d
        return out

    def __sub__(self, other: Poly | CoeffLike) -> Poly:
        return self + (-_as_poly(other))

    def __rsub__(self, other: CoeffLike) -> Poly:
        return _as_poly(other) - self

    def __mul__(self, other: Poly | CoeffLike) -> Poly:
        other = _as_poly(other)
        if not self._n or not other._n:
            return ZERO
        return Poly._of(_int_mul(self._n, other._n), self._d * other._d)

    __rmul__ = __mul__

    def mul_low(self, other: Poly, n: int) -> Poly:
        """``(self * other).truncate(n)``, without forming the terms from x**n on."""
        return Poly._of(_int_mul_low(self._n, other._n, n), self._d * other._d)

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __floordiv__(self, other: Poly) -> Poly:
        """The exact quotient: ZeroDivisor for a zero ``other``, ValueError
        for one that does not divide.  The long division runs on the integer
        numerators over ``other``'s primitive part (Gauss's lemma)."""
        other = _as_poly(other)
        if not other:
            raise ZeroDivisor("polynomial division by zero")
        c = gcd_int(*other._n)
        q = _int_exquo(self._n, [v // c for v in other._n])
        # (a / d_a) / (c * p / d_b) = (q * d_b) / (c * d_a), with q = a / p
        return Poly._of([v * other._d for v in q], c * self._d)

    def monic(self) -> Poly:
        """Scale to leading coefficient 1 (zero stays zero)."""
        n = self._n
        if not n or n[-1] == self._d:
            return self
        return Poly._of(list(n), n[-1])

    # -- windows ---------------------------------------------------------

    def truncate(self, k: int) -> Poly:
        """The terms below x**k."""
        if k >= len(self._n):
            return self
        return Poly._of(list(self._n[: max(k, 0)]), self._d)

    def shift(self, k: int) -> Poly:
        """x**k * self; a negative k drops the terms below x**(-k) first."""
        if k == 0:
            return self
        n = [0] * k + list(self._n) if k > 0 else list(self._n[-k:])
        return Poly._of(n, self._d)

    def reversed(self) -> Poly:
        """x**deg * self(1/x): the coefficients in reverse order."""
        return Poly._of(list(self._n[::-1]), self._d)

    # -- comparison / hashing / text -------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _as_poly(other)
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __str__(self) -> str:
        if not self._n:
            return "0"
        return ", ".join(str(x) for x in self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,))
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


#: The coefficient-field indeterminate.
LAM = Poly((0, 1))

ZERO = Poly()
ONE = Poly((1,))


# -- integer coefficient lists (ascending) ----------------------------------


def _int_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sum of two integer coefficient lists (trailing zeros may remain)."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return out


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists; ``[]`` if either is empty."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a  # the shorter list in the outer loop: fewer loop set-ups
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _int_mul_low(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The terms below x**n of the product, ``_int_mul(a, b)[:n]``; no term
    at or above x**n is formed."""
    if not a or not b or n <= 0:
        return []
    if len(a) > len(b):
        a, b = b, a
    n = min(n, len(a) + len(b) - 1)
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                if y:
                    out[i + j] += x * y
    return out


def _int_exquo(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The quotient a / b, for a nonzero b that divides a in Z[x]; ValueError
    if b does not.

    Every b that is primitive and divides a over Q qualifies (Gauss's
    lemma), so each long-division step below is an exact integer quotient;
    an inexact step would leave its residue in ``r``.
    """
    lb = b[-1]
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k]
        if c:
            c //= lb
            q[k - db] = c
            for j in range(db + 1):
                r[k - db + j] -= c * b[j]
    if any(r):
        raise ValueError("the divisor does not divide exactly")
    return q


def _int_primitive(n: Sequence[int]) -> list[int]:
    """A nonzero integer coefficient list over its content, with positive lead."""
    g = gcd_int(*n)
    if n[-1] < 0:
        g = -g
    return [v // g for v in n]


def _iprem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of integer coefficient lists (deg a >= deg b)."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db:
        lr = r[-1]
        r = [lb * c for c in r]
        shift = len(r) - 1 - db
        for i in range(db + 1):
            r[shift + i] -= lr * b[i]
        while r and not r[-1]:
            r.pop()
        if not r:
            break
    return r


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The gcd over Q[x] of two nonzero integer coefficient lists (no
    trailing zeros), as a primitive integer list with positive lead."""
    if len(a) == 1 or len(b) == 1:
        return [1]
    x = _int_primitive(a)
    y = _int_primitive(b)
    if len(x) < len(y):
        x, y = y, x
    while True:
        if len(y) == 1:
            return [1]
        r = _iprem(x, y)
        if not r:
            return y
        x, y = y, _int_primitive(r)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor.

    Both arguments zero is undefined (UndefinedGcd).  A nonzero constant
    anywhere collapses the answer to 1 immediately.  The Euclidean chain
    runs as a primitive pseudo-remainder sequence over Z, which avoids
    the rational-coefficient blowup of naive monic division.
    """
    if not a and not b:
        raise UndefinedGcd("gcd(0, 0) is undefined")
    if not a:
        return b.monic()
    if not b:
        return a.monic()
    g = _int_gcd(a._n, b._n)
    return ONE if len(g) == 1 else Poly._of(g, g[-1])


def bareiss_det(rows: list[list[Poly]]) -> Poly:
    """Fraction-free determinant of a square Poly matrix.

    One-step Bareiss elimination: every interior division is exact, so
    no rational functions appear.  Pivots are chosen with minimal degree
    among the nonzero candidates to slow coefficient growth.
    """
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = ONE
    for k in range(n - 1):
        pivot_row = None
        pivot_deg = None
        for r in range(k, n):
            entry = m[r][k]
            if not entry:
                continue
            deg = len(entry._n)
            if pivot_deg is None or deg < pivot_deg:
                pivot_row, pivot_deg = r, deg
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = ZERO
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def clear_denominators(row: Sequence[RatFunc]) -> tuple[list[Poly], Poly]:
    """The row times the lcm of its denominators, and that lcm."""
    scale = ONE
    for e in row:
        d = e.den
        if d != ONE:
            scale = scale // poly_gcd(scale, d) * d
    if scale == ONE:
        return [e.num for e in row], scale
    return [e.num * (scale // e.den) for e in row], scale


def _over_monic(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """The same quotient num/den with den made monic (den nonzero)."""
    lead, d = den._n[-1], den._d
    if lead == d:
        return num, den
    return Poly._of([v * d for v in num._n], num._d * lead), den.monic()


class RatFunc:
    """A rational function num/den over Q, canonical on construction.

    Canonical form: gcd(num, den) = 1 and den monic.  Zero is 0/1.  With
    that normalization, value equality is representation equality, which
    makes hashing and exact comparison trivial.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: Poly | CoeffLike = 0, den: Poly | CoeffLike = 1):
        num = _as_poly(num)
        den = _as_poly(den)
        if not den:
            raise ZeroDivisor("rational function with zero denominator")
        if not num:
            den = ONE
        else:
            if not den.is_constant():
                g = poly_gcd(num, den)
                if g != ONE:
                    num //= g
                    den //= g
            num, den = _over_monic(num, den)
        self._num = num
        self._den = den

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> RatFunc:
        """Wrap coefficients already known canonical (coprime, den monic)."""
        out = object.__new__(cls)
        out._num = num
        out._den = den
        return out

    @property
    def num(self) -> Poly:
        return self._num

    @property
    def den(self) -> Poly:
        return self._den

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1 = self._num, self._den
        n2, d2 = other._num, other._den
        return RatFunc(n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        out = object.__new__(RatFunc)
        out._num = -self._num
        out._den = self._den
        return out

    def __sub__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RatFunc:
        return _as_ratfunc(other) - self

    def __mul__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc(self._num * other._num, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisor("division by the zero rational function")
        return self * other.inv()

    def __rtruediv__(self, other) -> RatFunc:
        return _as_ratfunc(other) / self

    def inv(self) -> RatFunc:
        if not self:
            raise ZeroDivisor("inverse of the zero rational function")
        return RatFunc._raw(*_over_monic(self._den, self._num))

    def __pow__(self, n: int) -> RatFunc:
        if n < 0:
            return self.inv() ** (-n)
        if n == 0:
            return RF_ONE
        return RatFunc._raw(self._num**n, self._den**n)

    # -- comparison / hashing / text -------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._num, self._den))

    def __str__(self) -> str:
        return f"{self._num} | {self._den}"

    def __repr__(self) -> str:
        return f"RatFunc({self._num!r}, {self._den!r})"


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (Poly, int, Fraction)):
        return RatFunc(x)
    return NotImplemented


RF_ZERO = RatFunc(0)
RF_ONE = RatFunc(1)
