"""Discriminants, genus estimates, and the height-bound chain.

Everything here is closed-form bookkeeping on top of two exact kernels:
a Sylvester-matrix resultant over Q(lam), whose determinant runs on
Z[lam] integer lists (``polynomials.bareiss_det``), and the
Riemann-Hurwitz count.  `bound_report` assembles the chain that caps the
exponent search:

    rank of infinite places  r <= 2a
    genus                    g <= (3/2) r - 3 <= 3a - 3
    bad places               |W| <= 4 + 8a - 2r
    ABC height bound         H <= max(0, 2g - 2 + |W|)
    Siegel-ratio height      H(b1/b2) <= 10a - 4
    single-unit height       H(b) <= 11a - 4
    exponent budget          max(0,-r) + max(0,-s) + max(0,-t)
                               + max(0, r+s+t) <= 11 - 4/a < 11

with a = deg lam.  The budget's left side is an integer, and the strict
inequality holds for every a >= 1, so the budget is 10 uniformly in a.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InconsistentRamification, InvalidDegree, NotMonic
from .polynomials import LAM, RatFunc, _fraction, _int_clear, _int_mul, _int_pow
from .polynomials import bareiss_det

#: Uniform-in-a exponent cap (largest integer below 11 - 4/a for all a >= 1).
EXPONENT_BUDGET = 10


def _xpoly_degree(f: Sequence[RatFunc]) -> int:
    coeffs = list(f)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return len(coeffs) - 1


def _xpoly_derivative(f: Sequence[RatFunc]) -> list[RatFunc]:
    return [c * i for i, c in enumerate(f) if i]


def resultant(f: Sequence[RatFunc], g: Sequence[RatFunc]) -> RatFunc:
    """Sylvester resultant of two X-polynomials over Q(lam).

    Coefficients ascend in X, each an int, ``Fraction``, ``Poly`` or
    ``RatFunc`` (``polynomials._fraction``); degrees m = deg f and n = deg g
    are taken after trimming zeros.  The coefficients of f and of g are each
    put over one denominator in Z[lam], fd and gd, so the Sylvester matrix's
    n rows of f and m rows of g are integer rows that carry 1/fd and 1/gd:
    Res = det / (fd**n * gd**m), with the integer det from ``bareiss_det``.
    """
    fn, fd = _int_clear([_fraction(c) for c in f])
    gn, gd = _int_clear([_fraction(c) for c in g])
    m = _xpoly_degree(fn)
    n = _xpoly_degree(gn)
    if m < 0 or n < 0:
        raise InvalidDegree("resultant of the zero polynomial is undefined")
    if m == 0 and n == 0:
        return RatFunc(1)
    size = m + n
    rows = [[[]] * shift + fn[m::-1] + [[]] * (size - shift - m - 1) for shift in range(n)]
    rows += [[[]] * shift + gn[n::-1] + [[]] * (size - shift - n - 1) for shift in range(m)]
    return RatFunc._of(bareiss_det(rows), _int_mul(_int_pow(fd, n), _int_pow(gd, m)))


def discriminant(f: Sequence[RatFunc]) -> RatFunc:
    """Discriminant of a monic X-polynomial of degree >= 1 over Q(lam).

    disc(f) = (-1)**(n*(n-1)/2) * Res(f, f') for monic f.
    """
    f = list(f)
    n = _xpoly_degree(f)
    if n < 1:
        raise InvalidDegree("discriminant needs degree >= 1")
    if f[n] != 1:
        raise NotMonic("discriminant is implemented for monic polynomials")
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    res = resultant(f, _xpoly_derivative(f))
    return res * sign


def f_lambda_xpoly() -> list[RatFunc]:
    """X^4 - lam*X^3 - 6*X^2 + lam*X + 1, ascending in X."""
    return [RatFunc(1), RatFunc(LAM), RatFunc(-6), RatFunc(-LAM), RatFunc(1)]


def f_lambda_discriminant() -> RatFunc:
    """Closed form: 4*(lam^2 + 16)^3."""
    return discriminant(f_lambda_xpoly())


def mason_abc_bound(genus: int, w_size: int) -> int:
    """ABC-theorem height cap over a function field: max(0, 2g - 2 + |W|)."""
    return max(0, 2 * genus - 2 + w_size)


def riemann_hurwitz_genus(degree: int, ramification_indices: Sequence[int]) -> Fraction:
    """Genus of a degree-d cover of a genus-0 curve from its ramification.

    2g - 2 = -2d + sum(e - 1); a profile forcing g < 0 is inconsistent.
    The exact rational is returned: half-integer outputs flag profiles
    that no actual cover realizes, but they are the formula's honest value.
    """
    if degree < 1:
        raise InvalidDegree("covering degree must be at least 1")
    if any(e < 1 for e in ramification_indices):
        raise ValueError("ramification indices must be >= 1")
    g = Fraction(2 - 2 * degree + sum(e - 1 for e in ramification_indices), 2)
    if g < 0:
        raise InconsistentRamification(
            f"profile implies genus {g} < 0 for degree {degree}"
        )
    return g


class BoundReport(NamedTuple):
    """The full bound chain, specialized to a = deg lam."""

    a: int
    rK_bound: int
    genus_bound: int
    W_bound: int
    W_bound_max: int
    siegel_height_bound: int
    beta_ratio_bound: int
    exponent_budget: int

    def to_json(self) -> dict:
        return self._asdict()


def bound_report(a: int) -> BoundReport:
    """Evaluate the chain at a = deg lam >= 1.

    W_bound is the bad-place count at the extreme rank r = 2a; W_bound_max
    is the worst case over all admissible ranks (r = 0), which is what the
    monotonicity audit of the ABC step uses.
    """
    if a < 1:
        raise InvalidDegree(f"a = deg lam must be >= 1, got {a}")
    return BoundReport(
        a=a,
        rK_bound=2 * a,
        genus_bound=3 * a - 3,
        W_bound=4 + 4 * a,
        W_bound_max=4 + 8 * a,
        siegel_height_bound=10 * a - 4,
        beta_ratio_bound=11 * a - 4,
        exponent_budget=EXPONENT_BUDGET,
    )
