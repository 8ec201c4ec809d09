"""Truncated Laurent series at the infinite place, and the quartic's series roots.

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
known to order min(p + n, q + m).  The constructors: ``LaurentSeries``,
``monomial`` (a constant c is c * monomial(0, order)), ``zero_to_order``,
``poly_series`` and ``expand_ratfunc``.

The quartic

    f(X) = X**4 - lam*X**3 - 6*X**2 + lam*X + 1

has four roots in Q((1/lam)).  Substituting t = 1/lam and dividing by lam
turns f into t*X**4 - X**3 - 6*t*X**2 + X + t, whose reduction at t = 0
is X - X**3 with simple roots 1, 0, -1; each is the constant term of
exactly one series root, alpha1, alpha2 and alpha3.  In the ring,
(lam^2 + 16)(alpha^3 - alpha) = (1 + alpha^2) f'(alpha), and
df/dlam = X - X^3, so differentiating f(alpha, lam) = 0 gives
dalpha/dlam = (1 + alpha^2)/(lam^2 + 16): in t every root solves the
Riccati equation -(1 + 16t^2) S' = 1 + S^2, and the three roots with a
constant lead are integer recurrences from the seeds 1, 0 and -1
(``_riccati``); the equation is invariant under S(t) -> -S(-t), so
alpha3(t) = -alpha1(-t).  The fourth root, alpha4 = 1/t + U(t), runs
through the same recurrence with the pole 1/t (``quartic_roots``).  The
roots lie in Z[[t]] (alpha4 in t^-1 Z[[t]]): the reduced quartic's
X-derivative is 1 at X = 0, so alpha2 = -t(1 - 5t^2 + ...) lifts over
Z[[t]]; alpha4 = -1/alpha2 (z -> -1/z is a symmetry of f) and
alpha3 = (alpha2 - 1)/(alpha2 + 1), alpha1 = -1/alpha3 divide by series
with constant term +-1, units of Z[[t]].
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
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


def _riccati(seed: int, n: int, pole: int = 0) -> list[int]:
    """The first ``n`` (at least two) coefficients a_k of the root
    S = pole/t + sum a_k t^k of -(1 + 16t^2) S' = 1 + S^2 with a_0 = ``seed``,
    the pole 0 or 1:

        (k+1+2*pole) a_{k+1} = -([k=0](1 - 16*pole) + sum_{i+j=k} a_i a_j
                                 + 16(k-1) a_{k-1}),  i, j >= 0, a_{-1} = 0.

    A pole adds 2 a_{k+1} to S^2 at t^k and -16t^2 * (-1/t^2) = 16 on the
    left at t^0, and S^2 at t^-1, 2 a_0, must then be 0.  The division is
    exact for the seeds 1, 0 and -1 and for the pole with seed 0: each gives
    a root of the quartic (module docstring), in Z[[t]] or t^-1 Z[[t]], and
    the recurrence fixes a_{k+1} from a_0..a_k, so by induction every
    a_{k+1} is that integer.  The convolution runs over its symmetric half.
    ``quartic_roots`` runs it for alpha1; with the seed 0 it is the
    reference of ``_riccati_odd``.
    """
    div = 1 + 2 * pole
    a = [seed, (16 * pole - 1 - seed * seed) // div]
    for k in range(1, n - 1):
        h = (k + 1) // 2
        rhs = 2 * sum(map(mul, a[:h], a[k:k - h:-1])) + 16 * (k - 1) * a[k - 1]
        if k % 2 == 0:
            rhs += a[h] * a[h]
        a.append(-rhs // (k + div))
    return a


def _riccati_odd(n: int, pole: int = 0) -> list[int]:
    """``_riccati(0, n, pole)`` as a recurrence in t^2 at half the length.

    With the seed 0 every even-index a_k is 0: at an even k + 1 each term
    of the recurrence holds an even-index factor, so induction gives
    a_{k+1} = 0.  The odd-index terms b_m = a_{2m+1} then solve the
    recurrence at k = 2m, whose convolution pairs odd indices only:

        (2m+1+2*pole) b_m = -([m=0](1 - 16*pole) + sum_{p+q=m-1} b_p b_q
                              + 16(2m-1) b_{m-1}),  b_{-1} = 0.

    Returns the first max(n, 2) coefficients a_k, zeros included.
    """
    size = max(n, 2)
    div = 1 + 2 * pole
    b = [(16 * pole - 1) // div]
    for m in range(1, size // 2):
        c = m - 1
        h = (c + 1) // 2
        rhs = 2 * sum(map(mul, b[:h], b[c:c - h:-1])) + 16 * (2 * m - 1) * b[c]
        if c % 2 == 0:
            rhs += b[h] * b[h]
        b.append(-rhs // (2 * m + div))
    a = [0] * size
    a[1::2] = b
    return a


def quartic_roots(order: int) -> tuple[LaurentSeries, ...]:
    """All four series roots, each known through exponent ``order - 1``.

    alpha1 and alpha2 are the Riccati windows with constant terms 1 and 0,
    and alpha4 = 1/t + U(t) the one with the pole, from U's seed 0; alpha2
    and U are odd in t and run at half length (``_riccati_odd``).  The
    Riccati equation is invariant under S(t) -> -S(-t), which maps the
    seed 1 to the seed -1, so alpha3(t) = -alpha1(-t): alpha1's window with
    its even-index terms negated.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    a1 = _riccati(1, order)
    a3 = [-v for v in a1]
    a3[1::2] = a1[1::2]
    a4 = [1] + _riccati_odd(order, pole=1)
    return tuple(
        _series(lead, Poly._of(a, 1), order)
        for lead, a in ((0, a1), (0, _riccati_odd(order)), (0, a3), (-1, a4))
    )


def f_lambda_at_series(
    x: LaurentSeries, x2: LaurentSeries, x3: LaurentSeries
) -> LaurentSeries:
    """X^4 - lam*X^3 - 6*X^2 + lam*X + 1 at a series X (lam = exact), given
    X^2 and X^3; X^4 is the one product it forms."""
    order = x.order + 8
    lam = monomial(-1, order)
    return x2 * x2 - lam * x3 - x2.scale(6) + lam * x + monomial(0, order)
