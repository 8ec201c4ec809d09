"""Truncated Laurent series at the infinite place, and series root lifting.

Series live in Q((1/lam)): a value is a finite window of exactly known
coefficients of descending powers of lam.  With t = 1/lam, a series is

    t**lead * w(t), known below t**order

where ``w`` is a ``Poly`` in t with w(0) != 0 and at most
``order - lead`` terms, so a series knows every coefficient for
exponents below ``order``: zero below ``lead``, the coefficients of
``w`` on [lead, order).  A series that is zero as far as it is known
("zero to order") has w = 0 and ``lead == order``.  The arithmetic runs
on ``Poly``'s integer kernel; ``coeffs`` builds the window as
``Fraction``s on demand.  Products, and both products of each Newton
step of ``inv``, are short products (``Poly.mul_low``) that keep only the
terms below the order: a schoolbook loop forms none above it, and two
long dense windows go through two half-width integer products whose
digits from that order on are never read.  Two long windows that are
both even or both odd in t (the roots alpha2 and alpha4 are odd in lam,
so their windows and powers are even in t) multiply as their nonzero
streams, series in t^2 at half the length.
Truncation orders are tracked pessimistically through arithmetic; in
particular a product of windows of orders m, n with leads p, q is only
known to order min(p + n, q + m).

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

from fractions import Fraction
from typing import Iterable, Optional

from .errors import PrecisionUnderflow, ZeroDivisor
from .polynomials import ZERO, Poly, RatFunc

#: Working order used when a caller does not request one.
DEFAULT_ORDER = 8


class LaurentSeries:
    """A truncated Laurent series t**lead * w(t) in t = 1/lam.

    The window ``w`` is a ``Poly``; ``coeffs`` spells it out as
    ``Fraction``s on demand.
    """

    __slots__ = ("_lead", "_w", "_order")

    def __init__(self, lead: int, coeffs: Iterable = (), order: Optional[int] = None):
        coeffs = list(coeffs)
        if order is None:
            order = lead + len(coeffs)
        if lead + len(coeffs) != order:
            raise ValueError("coefficient window must span [lead, order)")
        s = _series(lead, Poly(coeffs), order)
        self._lead, self._w, self._order = s._lead, s._w, s._order

    # -- structure --------------------------------------------------------

    @property
    def lead(self) -> int:
        return self._lead

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The window [lead, order) ascending; empty when zero to order."""
        w = self._w
        if not w:
            return ()
        return w.coeffs + (Fraction(0),) * (self._order - self._lead - w.degree - 1)

    @property
    def order(self) -> int:
        return self._order

    @property
    def resolved(self) -> bool:
        """True when a nonzero leading coefficient is known."""
        return bool(self._w)

    @property
    def leading_coeff(self) -> Fraction:
        if not self._w:
            raise PrecisionUnderflow(
                f"no nonzero coefficient known below order {self._order}"
            )
        return self._w[0]

    @property
    def valuation(self) -> int:
        """Exponent of the leading term (the valuation at infinity)."""
        if not self._w:
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
        return self._w[exponent - self._lead]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: LaurentSeries) -> LaurentSeries:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(self._order, other._order)
        lo = min(self._lead, other._lead, order)
        w = self._w.shift(self._lead - lo) + other._w.shift(other._lead - lo)
        return _series(lo, w, order)

    def __neg__(self) -> LaurentSeries:
        return _series(self._lead, -self._w, self._order)

    def __sub__(self, other: LaurentSeries) -> LaurentSeries:
        return self + (-other)

    def __mul__(self, other) -> LaurentSeries:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order = min(self._lead + other._order, other._lead + self._order)
        lo = self._lead + other._lead
        return _series(lo, self._w.mul_low(other._w, order - lo), order)

    __rmul__ = __mul__

    def scale(self, c) -> LaurentSeries:
        return _series(self._lead, self._w * c, self._order)

    def inv(self) -> LaurentSeries:
        """Multiplicative inverse, known to order ``order - 2*lead``.

        Newton iteration b <- b*(2 - w*b) on the window, doubling the
        number of known terms each step; both products of a step are
        short products that keep only the k terms the step needs.
        """
        w = self._w
        if not w:
            raise ZeroDivisor("inverse of a series with no known nonzero term")
        n = self._order - self._lead
        b = Poly((1 / w[0],))
        k = 1
        while k < n:
            k = min(2 * k, n)
            e = w.mul_low(b, k)
            b = b.mul_low(2 - e, k)
        return _series(-self._lead, b, self._order - 2 * self._lead)

    def truncate(self, order: int) -> LaurentSeries:
        """Forget everything at exponents >= order (never extends)."""
        if order >= self._order:
            return self
        return _series(self._lead, self._w, order)

    # -- comparison / text ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self._lead == other._lead
            and self._w == other._w
            and self._order == other._order
        )

    def __hash__(self) -> int:
        return hash((self._lead, self._w, self._order))

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"LaurentSeries({self._lead}, {list(self.coeffs)}, {self._order})"

    def pretty(self) -> str:
        """Human form, descending powers of lam; zero terms are skipped."""
        parts = []
        for i, c in enumerate(self.coeffs):
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
            "coeffs": [str(c) for c in self.coeffs],
            "order": self._order,
        }


def _series(lead: int, w: Poly, order: int) -> LaurentSeries:
    """t**lead * w known below t**order: drops the terms of ``w`` from
    ``order`` on and folds its low zeros into ``lead``."""
    w = w.truncate(order - lead)
    if w:
        k = w.low_degree
        lead, w = lead + k, w.shift(-k)
    else:
        lead = order
    out = object.__new__(LaurentSeries)
    out._lead = lead
    out._w = w
    out._order = order
    return out


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


def monomial(exponent: int, order: int) -> LaurentSeries:
    """lam**(-exponent), exactly known through the given order."""
    if exponent >= order:
        raise ValueError("monomial exponent must sit below the order")
    return _series(exponent, Poly((1,)), order)


def constant(value, order: int) -> LaurentSeries:
    """A constant as an exact series window [0, order)."""
    return _series(0, Poly((value,)), order)


def zero_to_order(order: int) -> LaurentSeries:
    return _series(order, ZERO, order)


def poly_series(p: Poly, order: int) -> LaurentSeries:
    """A polynomial in lam as an exact series (lead = -deg p)."""
    if not p:
        return zero_to_order(order)
    lead = -p.degree
    if lead >= order:
        raise ValueError("order too small to hold the polynomial's lead")
    return _series(lead, p.reversed(), order)


def expand_ratfunc(f: RatFunc, order: int) -> LaurentSeries:
    """Expand a rational function at the infinite place, up to ``order``.

    The lead of the result is deg(den) - deg(num); a zero input expands to
    the zero-to-order window.
    """
    if not f:
        return zero_to_order(order)
    num, den = f.num, f.den
    p = num.degree
    q = den.degree
    if den.low_degree == q:
        # Denominator lam**q (q = 0 included): the expansion is exact, no
        # inversion needed -- each numerator term lam**i becomes lam**(i-q).
        return _series(q - p, num.reversed(), order)
    margin = order + abs(p) + 2 * abs(q) + 4
    return (poly_series(num, margin) * poly_series(den, margin).inv()).truncate(order)


# -- the quartic and its series roots ------------------------------------------


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
        # The iterate is an exact Laurent polynomial: extend its window.
        xe = _series(x.lead, x._w, prec)
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


def f_lambda_at_series(
    x: LaurentSeries, x2: LaurentSeries, x3: LaurentSeries
) -> LaurentSeries:
    """X^4 - lam*X^3 - 6*X^2 + lam*X + 1 at a series X (lam = exact), given
    X^2 and X^3; X^4 is the one product it forms."""
    order = x.order + 8
    lam = monomial(-1, order)
    one = constant(1, order)
    return x2 * x2 - lam * x3 - x2.scale(6) + lam * x + one
