"""Truncated Laurent series at the infinite place, and series root lifting.

Series live in Q((1/lam)): a value is a finite window of exactly known
coefficients of descending powers of lam.  The representation is

    lead   -- exponent (of 1/lam) of the first known coefficient
    coeffs -- ascending from ``lead``; first entry nonzero unless nothing
              nonzero is known yet
    order  -- exponents >= order are unknown territory

so a series knows every coefficient for exponents below ``order``: zero
below ``lead``, stored values on [lead, order).  A series that is zero as
far as it is known ("zero to order") stores an empty tuple with
``lead == order``.  Truncation orders are tracked pessimistically through
arithmetic; in particular a product of windows of orders m, n with leads
p, q is only known to order min(p + n, q + m).

The quartic

    f(X) = X**4 - lam*X**3 - 6*X**2 + lam*X + 1

has four roots in Q((1/lam)).  Substituting t = 1/lam and dividing by lam
turns f into t*X**4 - X**3 - 6*t*X**2 + X + t, whose reduction at t = 0
is X - X**3 with simple roots -1, 0, 1.  The root at 0 lifts to a unique
series root alpha2 by Newton iteration with doubling precision
(``hensel_lift``).  The other three form its orbit under the order-4
Moebius symmetry sigma(z) = (z - 1)/(z + 1) of f: alpha3 = sigma(alpha2)
has constant term -1, alpha4 = sigma(alpha3) = -1/alpha2 and
alpha1 = sigma(alpha4) = -1/alpha3 has constant term 1 (``quartic_roots``).
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterable, Optional

from .errors import InvalidSetting, PrecisionUnderflow, ZeroDivisor
from .polynomials import Poly, RatFunc

#: Working order used when a caller does not request one.
DEFAULT_ORDER = 8

#: Hard ceiling for adaptive precision doubling (see ``precision_cap``).
PRECISION_CAP = 1024


def precision_cap() -> int:
    """Adaptive-precision ceiling; THUEFF_PRECISION_CAP overrides it."""
    raw = os.environ.get("THUEFF_PRECISION_CAP")
    if raw is None:
        return PRECISION_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise InvalidSetting(
            f"THUEFF_PRECISION_CAP must be a positive integer, got {raw!r}"
        )
    return cap


class LaurentSeries:
    """A truncated Laurent series in 1/lam with Fraction coefficients."""

    __slots__ = ("_lead", "_coeffs", "_order")

    def __init__(self, lead: int, coeffs: Iterable = (), order: Optional[int] = None):
        coeffs = [Fraction(c) for c in coeffs]
        if order is None:
            order = lead + len(coeffs)
        if lead + len(coeffs) != order:
            raise ValueError("coefficient window must span [lead, order)")
        # Fold leading zeros into ``lead`` so the first entry is nonzero.
        start = 0
        while start < len(coeffs) and coeffs[start] == 0:
            start += 1
        lead += start
        self._lead = lead
        self._coeffs = tuple(coeffs[start:])
        self._order = order

    # -- structure --------------------------------------------------------

    @property
    def lead(self) -> int:
        return self._lead

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def order(self) -> int:
        return self._order

    @property
    def resolved(self) -> bool:
        """True when a nonzero leading coefficient is known."""
        return bool(self._coeffs)

    @property
    def leading_coeff(self) -> Fraction:
        if not self._coeffs:
            raise PrecisionUnderflow(
                f"no nonzero coefficient known below order {self._order}"
            )
        return self._coeffs[0]

    @property
    def valuation(self) -> int:
        """Exponent of the leading term (the valuation at infinity)."""
        if not self._coeffs:
            raise PrecisionUnderflow(
                f"valuation unresolved: series is zero to order {self._order}"
            )
        return self._lead

    def coeff_at(self, exponent: int) -> Fraction:
        """Known coefficient of lam**(-exponent).

        Asking past the truncation order is a precision error, not a zero.
        """
        if exponent >= self._order:
            raise PrecisionUnderflow(
                f"coefficient at exponent {exponent} is beyond order {self._order}"
            )
        if exponent < self._lead:
            return Fraction(0)
        return self._coeffs[exponent - self._lead]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        order = min(self._order, other._order)
        lo = min(self._lead, other._lead, order)
        out = []
        for e in range(lo, order):
            a = self._coeffs[e - self._lead] if self._lead <= e else Fraction(0)
            b = other._coeffs[e - other._lead] if other._lead <= e else Fraction(0)
            out.append(a + b)
        return LaurentSeries(lo, out, order)

    def __neg__(self) -> LaurentSeries:
        out = object.__new__(LaurentSeries)
        out._lead = self._lead
        out._coeffs = tuple(-c for c in self._coeffs)
        out._order = self._order
        return out

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        return self + (-other)

    def __mul__(self, other) -> LaurentSeries:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        order = min(self._lead + other._order, other._lead + self._order)
        if not self._coeffs or not other._coeffs:
            return LaurentSeries(order, (), order)
        lo = self._lead + other._lead
        out = [Fraction(0)] * (order - lo)
        for i, a in enumerate(self._coeffs):
            if not a:
                continue
            ea = self._lead + i
            jmax = min(len(other._coeffs), order - ea - other._lead)
            for j in range(jmax):
                b = other._coeffs[j]
                if b:
                    out[ea + other._lead + j - lo] += a * b
        return LaurentSeries(lo, out, order)

    __rmul__ = __mul__

    def scale(self, c) -> LaurentSeries:
        c = Fraction(c)
        if not c:
            return LaurentSeries(self._order, (), self._order)
        return LaurentSeries(
            self._lead, tuple(c * x for x in self._coeffs), self._order
        )

    def inv(self) -> LaurentSeries:
        """Multiplicative inverse, known to order ``order - 2*lead``."""
        if not self._coeffs:
            raise ZeroDivisor("inverse of a series with no known nonzero term")
        u = self._coeffs
        rel = len(u)
        b0 = 1 / u[0]
        out = [b0]
        for k in range(1, rel):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += u[j] * out[k - j]
            out.append(-acc * b0)
        return LaurentSeries(-self._lead, out, self._order - 2 * self._lead)

    def truncate(self, order: int) -> LaurentSeries:
        """Forget everything at exponents >= order (never extends)."""
        if order >= self._order:
            return self
        if order <= self._lead:
            return LaurentSeries(order, (), order)
        return LaurentSeries(self._lead, self._coeffs[: order - self._lead], order)

    # -- comparison / text ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self._lead == other._lead
            and self._coeffs == other._coeffs
            and self._order == other._order
        )

    def __hash__(self) -> int:
        return hash((self._lead, self._coeffs, self._order))

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"LaurentSeries({self._lead}, {list(self._coeffs)}, {self._order})"

    def pretty(self) -> str:
        """Human form, descending powers of lam; zero terms are skipped."""
        parts = []
        for i, c in enumerate(self._coeffs):
            if not c:
                continue
            e = self._lead + i
            sign = "-" if c < 0 else "+"
            body = _term_text(abs(c), e)
            if not parts:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "lead": self._lead,
            "coeffs": [str(c) for c in self._coeffs],
            "order": self._order,
        }


def _term_text(c: Fraction, e: int) -> str:
    """One nonzero term |c| * lam**(-e), written with the Greek variable."""
    frac = c.denominator != 1
    cs = f"({c})" if frac else str(c)
    if e == 0:
        return str(c) if not frac else cs
    if e > 0:
        lam_part = "λ" if e == 1 else f"λ^{e}"
        return f"{cs}/{lam_part}"
    k = -e
    lam_part = "λ" if k == 1 else f"λ^{k}"
    if c == 1:
        return lam_part
    return f"{cs}{lam_part}"


def monomial(exponent: int, order: int, coeff=1) -> LaurentSeries:
    """coeff * lam**(-exponent), exactly known through the given order."""
    if exponent >= order:
        raise ValueError("monomial exponent must sit below the order")
    window = [Fraction(coeff)] + [Fraction(0)] * (order - exponent - 1)
    return LaurentSeries(exponent, window, order)


def constant(value, order: int) -> LaurentSeries:
    """A constant as an exact series window [0, order)."""
    if Fraction(value) == 0:
        return LaurentSeries(order, (), order)
    return monomial(0, order, value)


def zero_to_order(order: int) -> LaurentSeries:
    return LaurentSeries(order, (), order)


def poly_series(p: Poly, order: int) -> LaurentSeries:
    """A polynomial in lam as an exact series (lead = -deg p)."""
    if not p:
        return zero_to_order(order)
    lead = -p.degree
    if lead >= order:
        raise ValueError("order too small to hold the polynomial's lead")
    window = [Fraction(0)] * (order - lead)
    for i, c in enumerate(p.coeffs):
        e = -i
        if e < order:
            window[e - lead] = c
    return LaurentSeries(lead, window, order)


def expand_ratfunc(f: RatFunc, order: int) -> LaurentSeries:
    """Expand a rational function at the infinite place, up to ``order``.

    The lead of the result is deg(den) - deg(num); a zero input expands to
    the zero-to-order window.
    """
    if not f:
        return zero_to_order(order)
    p = f.num.degree
    q = f.den.degree
    if all(not c for c in f.den.coeffs[:-1]):
        # Denominator lam**q (q = 0 included): the expansion is exact, no
        # inversion needed -- each numerator term lam**i becomes lam**(i-q).
        lead = q - p
        if lead >= order:
            return zero_to_order(order)
        window = [Fraction(0)] * (order - lead)
        for i, c in enumerate(f.num.coeffs):
            e = q - i
            if e < order:
                window[e - lead] = c
        return LaurentSeries(lead, window, order)
    margin = order + abs(p) + 2 * abs(q) + 4
    num = poly_series(f.num, margin)
    den = poly_series(f.den, margin)
    return (num * den.inv()).truncate(order)


# -- the quartic and its series roots ------------------------------------------


def _extend_exact(s: LaurentSeries, order: int) -> LaurentSeries:
    """Reinterpret known coefficients as an exact Laurent polynomial.

    Only valid when the caller genuinely means "this finite expansion,
    exactly" -- Newton iterates do, truncated roots do not.
    """
    if order <= s.order:
        return s
    if not s.coeffs:
        return zero_to_order(order)
    window = list(s.coeffs) + [Fraction(0)] * (order - s.order)
    return LaurentSeries(s.lead, window, order)


def _f_tilde(x: LaurentSeries, order: int) -> tuple[LaurentSeries, LaurentSeries]:
    """The reduced quartic and its X-derivative at X = x, t = 1/lam exact.

    Returns (t*X^4 - X^3 - 6t*X^2 + X + t, 4t*X^3 - 3*X^2 - 12t*X + 1),
    both from one set of powers of x.
    """
    t = monomial(1, order + 8)
    x2 = x * x
    x3 = x2 * x
    f = (t * (x2 * x2)) - x3 - (t * x2).scale(6) + x + t
    df = (t * x3).scale(4) - x2.scale(3) - (t * x).scale(12) + constant(1, order + 8)
    return f, df


def hensel_lift(order: int) -> LaurentSeries:
    """Lift the simple root 0 of X - X^3 to the series root alpha2.

    Newton iteration in Q[[1/lam]], doubling the working precision each
    step; the result is the unique series root with constant term 0,
    exactly known below exponent ``order``.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    x = zero_to_order(1)
    prec = 1
    while prec < order:
        prec = min(2 * prec, order)
        xe = _extend_exact(x, prec)
        f, df = _f_tilde(xe, prec)
        x = (xe - f * df.inv()).truncate(prec)
    return x


def quartic_roots(order: int) -> tuple[LaurentSeries, ...]:
    """All four series roots, each known through exponent ``order - 1``.

    One lift gives alpha2; alpha3 = (alpha2 - 1)/(alpha2 + 1),
    alpha4 = -1/alpha2 and alpha1 = -1/alpha3 complete its orbit under
    sigma.  The lift runs two orders deeper because inverting the lead-1
    window alpha2 costs two orders of knowledge.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    deep = order + 2
    r2 = hensel_lift(deep)
    one = constant(1, deep)
    r3 = (r2 - one) * (r2 + one).inv()
    r1 = -(r3.inv())
    r4 = -(r2.inv())
    roots = tuple(s.truncate(order) for s in (r1, r2, r3, r4))
    for i in range(4):
        for j in range(i + 1, 4):
            if (roots[i] - roots[j]).resolved:
                continue
            raise PrecisionUnderflow(
                f"roots {i + 1} and {j + 1} indistinguishable at order {order}"
            )
    return roots


def f_lambda_at_series(x: LaurentSeries) -> LaurentSeries:
    """X^4 - lam*X^3 - 6*X^2 + lam*X + 1 at a series X (lam = exact)."""
    order = x.order + 8
    lam = monomial(-1, order)
    one = constant(1, order)
    x2 = x * x
    x3 = x2 * x
    x4 = x2 * x2
    return x4 - lam * x3 - x2.scale(6) + lam * x + one
