"""Exact polynomial and rational-function arithmetic over Q(lam).

Oracles come first: a classic monic Euclidean gcd over Fraction
coefficients (independent of the primitive-sequence gcd in the package),
a permutation-expansion determinant, and plain ``Fraction``-tuple
polynomial arithmetic (a cross-check of ``Poly``'s integer numerators
over one denominator). Pinned cases cover exact quotients, gcd,
canonical field arithmetic, the text form and the error surface; seeded
random loops check the oracles, the integer representation's canonical
form and the field axioms.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest

import conftest
import property_suites
from thueff.errors import UndefinedGcd, ZeroDivisor
from thueff.polynomials import (
    LAM,
    ONE,
    RF_ONE,
    RF_ZERO,
    ZERO,
    Poly,
    RatFunc,
    _int_mul,
    _int_mul_low,
    bareiss_det,
    poly_gcd,
)


# -- reference oracles (kept deliberately naive) -------------------------------


def euclid_gcd_reference(a: Poly, b: Poly) -> Poly:
    """Textbook Euclidean gcd with rational coefficients, made monic.

    The remainders come from the tuple oracle ``ref_divmod``, never from
    the package under test.
    """
    return Poly(ref_gcd(a.coeffs, b.coeffs))


def permutation_det_reference(rows: list[list[Poly]]) -> Poly:
    """Determinant by the Leibniz sum over all permutations."""
    n = len(rows)
    total = ZERO
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Poly((sign,))
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


# Polynomials over Q as ascending tuples of Fraction with no trailing zero.


def _ref_trim(c: list) -> tuple:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def ref_add(a: tuple, b: tuple) -> tuple:
    n = max(len(a), len(b))
    a, b = a + (Fraction(0),) * (n - len(a)), b + (Fraction(0),) * (n - len(b))
    return _ref_trim([x + y for x, y in zip(a, b)])


def ref_sub(a: tuple, b: tuple) -> tuple:
    return ref_add(a, tuple(-y for y in b))


def ref_mul(a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def ref_divmod(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Schoolbook long division by a nonzero b."""
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] / b[-1]
        q[k] = c
        for j, y in enumerate(b):
            r[k + j] -= c * y
    return _ref_trim(q), _ref_trim(r[: len(b) - 1])


def ref_monic(a: tuple) -> tuple:
    return tuple(x / a[-1] for x in a) if a else a


def ref_gcd(a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def assert_integer_canonical(p: Poly) -> None:
    """Integer numerators, positive denominator, lowest terms, no trailing zero."""
    n, d = p._n, p._d
    assert type(n) is tuple and all(type(v) is int for v in n)
    assert type(d) is int and d > 0
    assert not n or n[-1] != 0
    assert gcd(d, *n) == 1
    assert all(type(c) is Fraction for c in p.coeffs)


def is_canonical(f: RatFunc) -> bool:
    """Reduced form: monic denominator, coprime num/den, zero is 0/1."""
    if not f.num:
        return f.den == ONE
    return f.den.is_monic() and poly_gcd(f.num, f.den) == ONE


# -- the integer representation against the Fraction-tuple reference -----------


def _rand_ref_poly(rng) -> tuple:
    """Up to degree 5, zero included; integer, small-denominator or wide."""
    kind = rng.randrange(3)
    coeffs = []
    for _ in range(rng.randint(0, 6)):
        if kind == 0:
            coeffs.append(Fraction(rng.randint(-9, 9)))
        elif kind == 1:
            coeffs.append(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 12))))
        else:
            coeffs.append(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4)))
    return _ref_trim(coeffs)


def test_integer_kernel_matches_fraction_reference_random():
    rng = random.Random(20261018)
    cases = 0
    for trial in range(1200):
        ra, rb = _rand_ref_poly(rng), _rand_ref_poly(rng)
        if trial % 3 == 0:  # a common factor for gcd and exact division
            rc = _rand_ref_poly(rng)
            ra, rb = ref_mul(ra, rc), ref_mul(rb, rc)
        a, b = Poly(ra), Poly(rb)
        assert a.coeffs == ra and b.coeffs == rb
        k = rng.randint(-1, len(ra) + len(rb))
        for got, want in (
            (a + b, ref_add(ra, rb)),
            (a - b, ref_sub(ra, rb)),
            (a * b, ref_mul(ra, rb)),
            (a.mul_low(b, k), _ref_trim(list(ref_mul(ra, rb)[: max(k, 0)]))),
            (a.monic(), ref_monic(ra)),
        ):
            assert_integer_canonical(got)
            assert got.coeffs == want
            assert got == Poly(want)
        if rb:
            assert (a * b) // b == a
            rq, rr = ref_divmod(ra, rb)
            if rr:
                with pytest.raises(ValueError):
                    a // b
            else:
                q = a // b
                assert_integer_canonical(q)
                assert q.coeffs == rq
        if ra or rb:
            g = poly_gcd(a, b)
            assert_integer_canonical(g)
            assert g.coeffs == ref_gcd(ra, rb)
        cases += 1
    assert cases >= 1000


def _rand_int_list(rng):
    """Small and wide entries, zeros inside, zeros at either end, or empty."""
    out = [
        rng.choice((0, 0, rng.randint(-9, 9), rng.randint(-10**30, 10**30)))
        for _ in range(rng.randint(0, 9))
    ]
    if rng.randrange(4) == 0:
        out = [0] * rng.randint(1, 3) + out
    if rng.randrange(4) == 0:
        out += [0] * rng.randint(1, 3)
    return out


def test_short_product_is_the_low_part_of_the_full_product_random():
    # oracle: ``_int_mul``, the one full product, cut to its first n terms
    rng = random.Random(20261019)
    for _ in range(1500):
        a, b = _rand_int_list(rng), _rand_int_list(rng)
        full = _int_mul(a, b)
        for n in range(-2, len(a) + len(b) + 2):
            assert _int_mul_low(a, b, n) == full[: max(n, 0)], (a, b, n)


def test_short_product_pinned():
    assert _int_mul_low([1, 2], [3, 4], 1) == [3]
    assert _int_mul_low([1, 2], [3, 4], 2) == [3, 10]
    assert _int_mul_low([1, 2], [3, 4], 3) == [3, 10, 8]
    assert _int_mul_low([1, 2], [3, 4], 9) == [3, 10, 8]
    assert _int_mul_low([1, 2], [3, 4], 0) == [] == _int_mul_low([1, 2], [3, 4], -3)
    assert _int_mul_low([], [3, 4], 2) == [] == _int_mul_low([3, 4], [], 2)
    assert _int_mul_low([0, 0, 5], [7, 0], 3) == [0, 0, 35]
    assert Poly((1, Fraction(1, 2))).mul_low(Poly((1, Fraction(-1, 2))), 2) == ONE
    assert ZERO.mul_low(LAM, 3) == ZERO and LAM.mul_low(LAM, 2) == ZERO


def test_short_product_forms_no_term_at_or_above_n():
    formed = []

    class Term:
        """x**e as a coefficient whose products log their exponent."""

        def __init__(self, e):
            self.e = e

        def __mul__(self, other):
            formed.append(self.e + other.e)
            return 1

    for la, lb, n in ((5, 5, 5), (3, 8, 4), (8, 3, 6), (4, 4, 1), (2, 3, 9)):
        formed.clear()
        out = _int_mul_low([Term(i) for i in range(la)], [Term(j) for j in range(lb)], n)
        assert max(formed) < n
        # each product below x**n is formed exactly once
        want = [sum(1 for i in range(la) if 0 <= k - i < lb) for k in range(min(n, la + lb - 1))]
        assert out == want and len(formed) == sum(want)


# -- coefficient windows ---------------------------------------------------------


def test_truncate_pinned():
    p = Poly((3, 0, 5, 7))
    assert p.truncate(2) == Poly((3,))  # the zero x-term is not kept
    assert p.truncate(3) == Poly((3, 0, 5))
    assert p.truncate(4) is p and p.truncate(99) is p
    assert p.truncate(0) == ZERO and p.truncate(-2) == ZERO
    assert ZERO.truncate(3) == ZERO
    # dropping terms can free a factor of the denominator: lowest terms again
    half = Poly((1, Fraction(1, 2))).truncate(1)
    assert half == Poly((1,))
    assert_integer_canonical(half)


def test_shift_pinned():
    p = Poly((Fraction(1, 2), 0, 3))
    assert p.shift(0) is p
    assert p.shift(2) == Poly((0, 0, Fraction(1, 2), 0, 3))
    assert p.shift(-1) == Poly((0, 3))
    assert p.shift(-2) == Poly((3,))
    assert_integer_canonical(p.shift(-2))
    assert p.shift(-3) == ZERO and p.shift(-9) == ZERO
    assert ZERO.shift(4) == ZERO and ZERO.shift(-4) == ZERO


def test_reversed_pinned():
    assert Poly((1, 2, 3)).reversed() == Poly((3, 2, 1))
    assert Poly((0, 0, 5, Fraction(1, 3))).reversed() == Poly((Fraction(1, 3), 5))
    assert LAM.reversed() == ONE
    assert ZERO.reversed() == ZERO


def test_low_degree_pinned():
    assert Poly((4, 1)).low_degree == 0
    assert Poly((0, 0, Fraction(-2, 7), 1)).low_degree == 2
    assert (LAM ** 5).low_degree == (LAM ** 5).degree == 5
    assert ZERO.low_degree == float("inf")


# -- exact quotients -------------------------------------------------------------


def test_exact_quotient_pinned():
    assert Poly((-1, 0, 1)) // Poly((-1, 1)) == Poly((1, 1))
    assert LAM // LAM == ONE
    assert ZERO // LAM == ZERO
    # a divisor with content and a denominator: (6 lam^2) / ((4/3) lam)
    assert Poly((0, 0, 6)) // Poly((0, Fraction(4, 3))) == Poly((0, Fraction(9, 2)))
    assert Poly((4, 6)) // 2 == Poly((2, 3))


def test_exact_quotient_by_zero_raises():
    with pytest.raises(ZeroDivisor):
        LAM // ZERO


def test_inexact_quotient_raises():
    # no floor quotient: a divisor that leaves a remainder is refused
    with pytest.raises(ValueError):
        LAM // (LAM + 1)
    with pytest.raises(ValueError):
        Poly((2, 0, 0, 1)) // Poly((0, 0, 1))
    with pytest.raises(ValueError):
        ONE // LAM


# -- gcd -----------------------------------------------------------------------


def test_gcd_exact_factor():
    assert poly_gcd(Poly((-1, 0, 1)), Poly((-1, 1))) == Poly((-1, 1))


def test_gcd_coprime_constant():
    assert poly_gcd(LAM, ONE) == ONE


def test_gcd_content_does_not_leak():
    # gcd(4 lam^2 + 64, 2 lam): the reference oracle and the packaged
    # gcd must both reduce the shared content away and report 1.
    a = Poly((64, 0, 4))
    b = Poly((0, 2))
    expected = euclid_gcd_reference(a, b)
    assert expected == ONE
    assert poly_gcd(a, b) == expected


def test_gcd_of_double_zero_raises():
    with pytest.raises(UndefinedGcd):
        poly_gcd(ZERO, ZERO)


def test_gcd_one_zero_operand():
    p = Poly((2, 4))
    assert poly_gcd(p, ZERO) == p.monic()
    assert poly_gcd(ZERO, p) == p.monic()


def test_gcd_matches_euclid_reference_random():
    rng = random.Random(20260802)
    for trial in range(400):
        g = conftest.rand_poly(rng, max_deg=2, nonzero=True)
        u = conftest.rand_poly(rng, max_deg=3, nonzero=True)
        v = conftest.rand_poly(rng, max_deg=3, nonzero=True)
        if trial % 3 == 0:
            a, b = g * u, g * v  # guaranteed common factor
        else:
            a, b = u, v
        got = poly_gcd(a, b)
        want = euclid_gcd_reference(a, b)
        assert got == want
        assert got.is_monic()
        # the gcd divides both inputs exactly
        for p in (a, b):
            assert (p // got) * got == p


# -- rational-function field arithmetic ----------------------------------------


def test_add_like_denominators():
    one_over_lam = RatFunc(ONE, LAM)
    assert one_over_lam + one_over_lam == RatFunc(Poly((2,)), LAM)


def test_mul_inverse_pair():
    f = RatFunc(LAM, Poly((1, 1)))
    g = RatFunc(Poly((1, 1)), LAM)
    assert f * g == RF_ONE


def test_div_cancels_common_factor():
    f = RatFunc(Poly((-1, 0, 1)))
    g = RatFunc(Poly((-1, 1)))
    assert f / g == RatFunc(Poly((1, 1)))


def test_div_by_zero_raises():
    with pytest.raises(ZeroDivisor):
        RF_ONE / RF_ZERO
    with pytest.raises(ZeroDivisor):
        RF_ZERO.inv()


def test_zero_denominator_rejected_on_construction():
    with pytest.raises(ZeroDivisor):
        RatFunc(ONE, ZERO)


def test_results_are_canonical_random():
    rng = random.Random(20260803)
    for _ in range(300):
        a = conftest.rand_ratfunc(rng)
        b = conftest.rand_ratfunc(rng)
        for result in (a + b, a - b, a * b):
            assert is_canonical(result)
        if b:
            assert is_canonical(a / b)


def test_canonical_equality_means_zero_difference():
    rng = random.Random(20260804)
    for _ in range(200):
        a = conftest.rand_ratfunc(rng)
        b = conftest.rand_ratfunc(rng)
        same = a - b == RF_ZERO
        assert same == (a == b)


# -- determinants ---------------------------------------------------------------


def test_det_two_by_two():
    rows = [[LAM, ONE], [ONE, LAM]]
    assert bareiss_det(rows) == Poly((-1, 0, 1))


def test_det_zero_row_is_zero():
    rows = [[LAM, ONE], [ZERO, ZERO]]
    assert bareiss_det(rows) == ZERO


def test_det_matches_permutation_expansion_random():
    rng = random.Random(20260805)
    for _ in range(150):
        n = rng.randint(1, 4)
        rows = [
            [conftest.rand_poly(rng, max_deg=2, lo=-4, hi=4) for _ in range(n)]
            for _ in range(n)
        ]
        assert bareiss_det(rows) == permutation_det_reference(rows)


# -- text form ----------------------------------------------------------------------


def test_str_pinned():
    assert str(Poly((1, 0, Fraction(-3, 2)))) == "1, 0, -3/2"
    assert str(RatFunc(LAM, Poly((1, 1)))) == "0, 1 | 1, 1"


# -- negative powers are rejected -------------------------------------------------


def test_negative_poly_power_rejected():
    with pytest.raises(ValueError):
        LAM ** -1


# -- the randomized field-axiom battery (full size in the acceptance gate) --------


def test_field_axioms_smoke():
    assert property_suites.field_axioms(200) == 200
