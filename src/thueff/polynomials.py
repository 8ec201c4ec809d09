"""Exact univariate polynomial and rational-function arithmetic over Q.

The coefficient field of everything downstream is Q(lam), the field of
rational functions in one indeterminate ``lam`` with rational coefficients.
This module supplies its two building blocks:

* ``Poly`` -- dense univariate polynomials over ``fractions.Fraction``,
  stored as an ascending coefficient tuple with no trailing zeros.  The
  zero polynomial is the empty tuple and its degree is the ``-inf``
  sentinel (never fed back into exponent arithmetic).
* ``RatFunc`` -- quotients of two ``Poly`` values, canonicalized eagerly:
  numerator and denominator are coprime and the denominator is monic, so
  equality of values is equality of representations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as gcd_int
from typing import Iterable, Sequence, Union

from .errors import UndefinedGcd, ZeroDivisor

CoeffLike = Union[int, str, Fraction]

_NEG_INF = float("-inf")


class Poly:
    """A dense univariate polynomial with ``Fraction`` coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Iterable[CoeffLike] = ()):
        c = [x if type(x) is Fraction else Fraction(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self._c = tuple(c)

    # -- basic structure ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    @property
    def degree(self):
        """Degree, or ``-inf`` for the zero polynomial."""
        return len(self._c) - 1 if self._c else _NEG_INF

    def __bool__(self) -> bool:
        return bool(self._c)

    def __getitem__(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored range)."""
        if 0 <= i < len(self._c):
            return self._c[i]
        return Fraction(0)

    @property
    def lc(self) -> Fraction:
        """Leading coefficient; zero for the zero polynomial."""
        return self._c[-1] if self._c else Fraction(0)

    def is_constant(self) -> bool:
        return len(self._c) <= 1

    def is_monic(self) -> bool:
        return bool(self._c) and self._c[-1] == 1

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: Poly | CoeffLike) -> Poly:
        other = _as_poly(other)
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, x in enumerate(b):
            out[i] += x
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-x for x in self._c))

    def __sub__(self, other: Poly | CoeffLike) -> Poly:
        return self + (-_as_poly(other))

    def __rsub__(self, other: CoeffLike) -> Poly:
        return _as_poly(other) - self

    def __mul__(self, other: Poly | CoeffLike) -> Poly:
        other = _as_poly(other)
        a, b = self._c, other._c
        if not a or not b:
            return Poly()
        # Convolve over a shared denominator with machine integers; one
        # Fraction normalization per output coefficient instead of one
        # per term keeps this the cheap inner loop it needs to be.
        da = db = 1
        for x in a:
            d = x.denominator
            da = da // gcd_int(da, d) * d
        for y in b:
            d = y.denominator
            db = db // gcd_int(db, d) * d
        ia = [int(x * da) for x in a]
        ib = [int(y * db) for y in b]
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(ia):
            if x:
                for j, y in enumerate(ib):
                    if y:
                        out[i + j] += x * y
        den = da * db
        return Poly(tuple(Fraction(v, den) for v in out))

    __rmul__ = __mul__

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

    def __divmod__(self, other: Poly) -> tuple[Poly, Poly]:
        """Exact long division; raises ZeroDivisor on a zero divisor."""
        other = _as_poly(other)
        if not other:
            raise ZeroDivisor("polynomial division by zero")
        if not self:
            return Poly(), Poly()
        r = list(self._c)
        d = other._c
        dd = len(d) - 1
        inv_lc = 1 / d[-1]
        q = [Fraction(0)] * max(len(r) - dd, 0)
        for k in range(len(r) - 1, dd - 1, -1):
            c = r[k]
            if not c:
                continue
            c *= inv_lc
            q[k - dd] = c
            for j in range(dd + 1):
                r[k - dd + j] -= c * d[j]
        return Poly(q), Poly(r)

    def __floordiv__(self, other: Poly) -> Poly:
        return divmod(self, other)[0]

    def __mod__(self, other: Poly) -> Poly:
        return divmod(self, other)[1]

    def monic(self) -> Poly:
        """Scale to leading coefficient 1 (zero stays zero)."""
        if not self._c or self._c[-1] == 1:
            return self
        inv = 1 / self._c[-1]
        return Poly(tuple(x * inv for x in self._c))

    def __call__(self, value: Fraction | int) -> Fraction:
        """Evaluate by Horner's rule at a rational point."""
        acc = Fraction(0)
        for x in reversed(self._c):
            acc = acc * value + x
        return acc

    # -- comparison / hashing / text -------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, str)):
            other = _as_poly(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __str__(self) -> str:
        if not self._c:
            return "0"
        return ", ".join(str(x) for x in self._c)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly((x,))
    if isinstance(x, str):
        return Poly((Fraction(x),))
    raise TypeError(f"cannot interpret {x!r} as a polynomial")


#: The coefficient-field indeterminate.
LAM = Poly((0, 1))

ZERO = Poly()
ONE = Poly((1,))


def _int_primitive(p: Poly) -> list[int]:
    """Integer coefficient list of p scaled primitive (positive lead)."""
    scale = 1
    for c in p.coeffs:
        d = c.denominator
        scale = scale // gcd_int(scale, d) * d
    ints = [int(c * scale) for c in p.coeffs]
    g = 0
    for v in ints:
        g = gcd_int(g, v)
    if ints[-1] < 0:
        g = -g
    return [v // g for v in ints]


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
    if a.is_constant() or b.is_constant():
        return ONE
    x = _int_primitive(a)
    y = _int_primitive(b)
    if len(x) < len(y):
        x, y = y, x
    while True:
        if len(y) == 1:
            return ONE
        r = _iprem(x, y)
        if not r:
            break
        g = 0
        for v in r:
            g = gcd_int(g, v)
        x, y = y, [v // g for v in r]
    lead = Fraction(y[-1])
    return Poly(tuple(Fraction(v) / lead for v in y))


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
            deg = len(entry.coeffs)
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
        elif den.is_constant():
            if den.lc != 1:
                num *= 1 / den.lc
            den = ONE
        else:
            g = poly_gcd(num, den)
            if g != ONE:
                num //= g
                den //= g
            if not den.is_monic():
                scale = 1 / den.lc
                num *= scale
                den *= scale
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
        if not self._num:
            return other
        if not other._num:
            return self
        n1, d1 = self._num, self._den
        n2, d2 = other._num, other._den
        if d1 == ONE and d2 == ONE:
            return RatFunc._raw(n1 + n2, ONE)
        g = poly_gcd(d1, d2)
        if g == ONE:
            num = n1 * d2 + n2 * d1
            if not num:
                return RF_ZERO
            return RatFunc._raw(num, d1 * d2)
        # Shared denominator factor: reduce against it once, which is all
        # the cancellation the sum can have (gcd(d1/g, d2/g) = 1).
        d1r = d1 // g
        d2r = d2 // g
        num = n1 * d2r + n2 * d1r
        if not num:
            return RF_ZERO
        h = poly_gcd(num, g)
        if h != ONE:
            num //= h
            g //= h
        return RatFunc._raw(num, g * d1r * d2r)

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
        if not self._num or not other._num:
            return RF_ZERO
        n1, d1 = self._num, self._den
        n2, d2 = other._num, other._den
        if d1 == ONE and d2 == ONE:
            return RatFunc._raw(n1 * n2, ONE)
        # Cross-cancel before multiplying: afterwards numerator and
        # denominator are coprime by construction, no final gcd needed.
        g1 = poly_gcd(n1, d2)
        if g1 != ONE:
            n1 //= g1
            d2 //= g1
        g2 = poly_gcd(n2, d1)
        if g2 != ONE:
            n2 //= g2
            d1 //= g2
        return RatFunc._raw(n1 * n2, d1 * d2)

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
        num, den = self._den, self._num
        if den.lc != 1:
            scale = 1 / den.lc
            num *= scale
            den *= scale
        return RatFunc._raw(num, den)

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


#: lam as a rational function, for building coefficient expressions.
LAM_RF = RatFunc(LAM)

RF_ZERO = RatFunc(0)
RF_ONE = RatFunc(1)
