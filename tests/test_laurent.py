"""Truncated Laurent series in 1/lam and the quartic's series roots.

Two independent oracles: plain Fraction-tuple windows with the truncated
convolution and the inverse recurrence (a cross-check of the series
arithmetic on ``Poly``'s integer kernel and its short products), and the
defining equation itself: every series root is substituted back into the
quartic, on the series kernel and on the Fraction windows, and the
residual must be zero through the advertised precision. alpha4 from its
pole recurrence is checked against Newton's -1/alpha2. Pinned windows
cover the geometric series, the four root expansions, rational-function
expansion, precision bookkeeping and the error surface.
"""

import json
import random
from fractions import Fraction

import pytest

import conftest
import property_suites
from thueff.errors import PrecisionUnderflow, ZeroDivisor
from thueff.laurent import (
    LaurentSeries,
    _riccati,
    expand_ratfunc,
    f_lambda_at_series,
    monomial,
    poly_series,
    quartic_roots,
    zero_to_order,
)
from thueff.polynomials import LAM, ONE, Poly, RatFunc


# -- the Fraction-window reference (kept deliberately naive) ---------------------
#
# A series is (lead, coeffs, order): the window [lead, order) as a tuple of
# Fractions, first entry nonzero, or () with lead == order when nothing
# nonzero is known.  Truncated convolution and the inverse recurrence,
# coefficient by coefficient.


def ref_series(lead, coeffs, order):
    coeffs = [Fraction(c) for c in coeffs]
    start = 0
    while start < len(coeffs) and coeffs[start] == 0:
        start += 1
    return (lead + start, tuple(coeffs[start:]), order)


def ref_add(a, b):
    (la, ca, oa), (lb, cb, ob) = a, b
    order = min(oa, ob)
    lo = min(la, lb, order)
    out = []
    for e in range(lo, order):
        x = ca[e - la] if la <= e else 0
        y = cb[e - lb] if lb <= e else 0
        out.append(x + y)
    return ref_series(lo, out, order)


def ref_neg(a):
    return (a[0], tuple(-c for c in a[1]), a[2])


def ref_mul(a, b):
    (la, ca, oa), (lb, cb, ob) = a, b
    order = min(la + ob, lb + oa)
    if not ca or not cb:
        return (order, (), order)
    lo = la + lb
    out = [Fraction(0)] * (order - lo)
    for i, x in enumerate(ca):
        for j in range(min(len(cb), order - lo - i)):
            out[i + j] += x * cb[j]
    return ref_series(lo, out, order)


def ref_scale(a, c):
    lead, coeffs, order = a
    if not c:
        return (order, (), order)
    return ref_series(lead, [c * x for x in coeffs], order)


def ref_inv(a):
    lead, u, order = a
    b0 = 1 / u[0]
    out = [b0]
    for k in range(1, len(u)):
        out.append(-sum(u[j] * out[k - j] for j in range(1, k + 1)) * b0)
    return ref_series(-lead, out, order - 2 * lead)


def ref_truncate(a, k):
    lead, coeffs, order = a
    if k >= order:
        return a
    if k <= lead:
        return (k, (), k)
    return ref_series(lead, coeffs[: k - lead], k)


def _rand_window(rng):
    """A reference window: zero heads, zeros inside, a shared denominator;
    now and then a long one, or one that is zero to its order."""
    lead = rng.randint(-4, 4)
    if rng.randrange(10) == 0:
        return (lead, (), lead)
    den = rng.choice((1, 1, 2, 3, 6, 35))
    coeffs = []
    for _ in range(rng.randint(0, rng.choice((9, 9, 24)))):
        zero = rng.randrange(3) == 0
        coeffs.append(Fraction(0 if zero else rng.randint(-9, 9), den))
    if coeffs and rng.randrange(4) == 0:
        coeffs[0] = Fraction(0)
    return ref_series(lead, coeffs, lead + len(coeffs))


def _as_ref(s):
    return (s.lead, s.coeffs, s.order)


def test_series_kernel_matches_fraction_reference_random():
    rng = random.Random(20261018)
    checked = 0
    for trial in range(1000):
        ra = _rand_window(rng)
        rb = _rand_window(rng)
        if trial % 4 == 0 and ra[1]:
            # b starts as -a: the sum cancels at the bottom of the window
            keep = rng.randint(1, len(ra[1]))
            tail = [Fraction(rng.randint(-9, 9), 7) for _ in range(rng.randint(0, 4))]
            rb = ref_series(ra[0], [-c for c in ra[1][:keep]] + tail, ra[0] + keep + len(tail))
        elif trial % 4 == 1:
            # b is a cut of a: the same lead and a lower order, which then
            # bounds the order of the product
            rb = ref_truncate(ra, rng.randint(ra[0], ra[2]))
        a = LaurentSeries(*ra)
        b = LaurentSeries(*rb)
        assert _as_ref(a) == ra and _as_ref(b) == rb
        c = rng.choice((0, rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 9))))
        k = rng.randint(ra[0] - 2, ra[2] + 1)
        for got, want in (
            (a + b, ref_add(ra, rb)),
            (a - b, ref_add(ra, ref_neg(rb))),
            (-a, ref_neg(ra)),
            (a * b, ref_mul(ra, rb)),
            (a.scale(c), ref_scale(ra, Fraction(c))),
            (a.truncate(k), ref_truncate(ra, k)),
        ) + (((a.inv(), ref_inv(ra)),) if ra[1] else ()):
            assert _as_ref(got) == want
            assert got == LaurentSeries(*want)
            if got.resolved:
                assert len(got.coeffs) == got.order - got.lead
                assert got.coeffs[0] != 0
            else:
                assert got.coeffs == () and got.lead == got.order
            assert all(type(x) is Fraction for x in got.coeffs)
        for e in range(ra[0] - 2, ra[2]):
            want = ra[1][e - ra[0]] if e >= ra[0] else 0
            assert a.coeff_at(e) == want
        checked += 1
    assert checked == 1000


def test_inv_matches_the_recurrence_at_every_newton_length():
    # Window lengths 1..33, odd ones included, so the Newton steps end on
    # every step length the doubling can take (k -> min(2k, n)).
    rng = random.Random(20261020)
    for n in range(1, 34):
        for _ in range(6):
            lead = rng.randint(-3, 3)
            den = rng.choice((1, 2, 6, 35))
            coeffs = [Fraction(rng.choice((0, rng.randint(-9, 9))), den) for _ in range(n)]
            coeffs[0] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), den)
            ra = ref_series(lead, coeffs, lead + n)
            got = LaurentSeries(*ra).inv()
            assert _as_ref(got) == ref_inv(ra)
            assert len(got.coeffs) == n


# -- arithmetic on explicit windows ---------------------------------------------


def test_inv_geometric_series():
    s = LaurentSeries(0, [1, -1, 0, 0], 4)  # 1 - 1/lam, exact to order 4
    assert s.inv() == LaurentSeries(0, [1, 1, 1, 1], 4)


def test_mul_by_monomial_shifts_root_window():
    alpha2 = quartic_roots(4)[1]
    assert alpha2 == LaurentSeries(1, [-1, 0, 5], 4)
    shifted = monomial(1, 8) * alpha2
    assert shifted == LaurentSeries(2, [-1, 0, 5], 5)


def test_add_own_negation_is_zero_to_order():
    s = LaurentSeries(-1, [2, 0, 7, 1], 3)
    total = s + s.scale(-1)
    assert not total.resolved
    assert total.order == 3


def test_inv_of_zero_window_raises():
    with pytest.raises(ZeroDivisor):
        zero_to_order(4).inv()


# -- expansion of rational functions ----------------------------------------------


def test_expand_polynomial_is_its_own_expansion():
    s = expand_ratfunc(RatFunc(Poly((16, 0, 1))), 4)
    assert s.lead == -2
    assert s.coeffs == (1, 0, 16, 0, 0, 0)
    assert s.order == 4


def test_expand_simple_pole_alternates():
    s = expand_ratfunc(RatFunc(ONE, Poly((1, 1))), 5)
    assert s == LaurentSeries(1, [1, -1, 1, -1], 5)


def test_expand_cancels_removable_factor():
    s = expand_ratfunc(RatFunc(Poly((-1, 0, 1)), Poly((-1, 1))), 3)
    assert s == LaurentSeries(-1, [1, 1, 0, 0], 3)


def test_expand_zero_input():
    assert expand_ratfunc(RatFunc(Poly(())), 6) == zero_to_order(6)


def test_expand_matches_defining_product_random():
    # oracle: expansion times the denominator reproduces the numerator
    rng = random.Random(20260812)
    for _ in range(200):
        f = conftest.rand_ratfunc(rng, max_deg=3, nonzero=True)
        order = rng.randint(1, 9)
        s = expand_ratfunc(f, order)
        den_deg = len(f.den.coeffs) - 1
        num_deg = len(f.num.coeffs) - 1
        back = s * poly_series(f.den, order + den_deg + 4)
        if back.order > -num_deg:
            num = poly_series(f.num, back.order)
        else:
            num = zero_to_order(back.order)  # window ends before the lead
        assert not (back - num).resolved


# -- the four roots -----------------------------------------------------------------


def test_root_at_one_window():
    assert quartic_roots(4)[0] == LaurentSeries(0, [1, -2, 2, 8], 4)


def test_lift_at_seed_zero():
    assert quartic_roots(4)[1] == LaurentSeries(1, [-1, 0, 5], 4)


def test_root_at_minus_one_window():
    assert quartic_roots(4)[2] == LaurentSeries(0, [-1, -2, -2, 8], 4)


def test_lift_rejects_bad_order():
    with pytest.raises(ValueError):
        quartic_roots(0)


def test_orbit_roots_are_the_lifts_at_plus_and_minus_one():
    """alpha1 and alpha3 are the series roots with constant terms 1 and -1.

    Hensel uniqueness: X - X^3 has the simple roots 1 and -1, so for each
    there is exactly one series root of f with lead 0 and that constant
    term, and any window with that constant term on which f vanishes to
    the window's order (less the one order the factor lam costs) is a
    truncation of it.  f' = 4X^3 - 3 lam X^2 - 12X + lam has lead -2 lam
    at X = +-1: the nonzero that makes the root simple.
    """
    for order in (1, 2, 3, 5, 8, 13, 21, 34, 64):
        r1, _, r3, _ = quartic_roots(order)
        lam = monomial(-1, order + 8)
        for s, c0 in ((r1, 1), (r3, -1)):
            assert s.lead == 0 and s.order == order
            assert s.coeff_at(0) == c0
            s2 = s * s
            s3 = s2 * s
            f = f_lambda_at_series(s, s2, s3)
            assert not f.resolved
            assert f.order >= order - 1
            df = s3.scale(4) - (lam * s2).scale(3) - s.scale(12) + lam
            assert df.lead == -1 and df.coeff_at(-1) == -2


def test_roots_low_order_windows():
    r = quartic_roots(2)
    assert r[3] == LaurentSeries(-1, [1, 0, 5], 2)
    assert r[3].pretty() == "λ + 5/λ"
    leads = tuple(s.lead for s in quartic_roots(1))
    assert leads == (0, 1, 0, -1)


def test_roots_pairwise_distinct_at_order_one():
    r = quartic_roots(1)
    for i in range(4):
        for j in range(i + 1, 4):
            assert (r[i].lead, r[i].coeffs) != (r[j].lead, r[j].coeffs)


def test_root_residuals_vanish_to_precision():
    for order in (4, 8, 16):
        for s in quartic_roots(order):
            s2 = s * s
            full = f_lambda_at_series(s, s2, s2 * s)
            assert not full.resolved
            assert full.order >= order - 3


def test_root_residuals_vanish_in_the_fraction_reference():
    # The roots come from the series kernel; the residual here
    # runs on the Fraction-window reference alone, so a fault in the
    # series product cannot hide itself.
    order = 64
    for s in quartic_roots(order):
        x = _as_ref(s)
        lam = ref_series(-1, [1] + [0] * (order + 8), order + 8)
        one = ref_series(0, [1] + [0] * (order + 7), order + 8)
        x2 = ref_mul(x, x)
        x3 = ref_mul(x2, x)
        x4 = ref_mul(x2, x2)
        f = ref_add(x4, ref_neg(ref_mul(lam, x3)))
        f = ref_add(f, ref_scale(x2, Fraction(-6)))
        f = ref_add(f, ref_mul(lam, x))
        f = ref_add(f, one)
        # zero through the order the reference computes for it, which the
        # factor lam and the powers of the lead -1 root bring down by at most 3
        assert x4[1] and f == (f[2], (), f[2])
        assert f[2] >= order - 3


def test_riccati_recurrence_holds_exactly_on_the_integer_windows():
    # (k+1) a_{k+1} = -([k=0] + sum_{i+j=k} a_i a_j + 16(k-1) a_{k-1}) for
    # alpha1, alpha2, alpha3, and for alpha4 = 1/t + U(t) in pole form
    # (k+3) u_{k+1} = 15 [k=0] - sum_{i+j=k} u_i u_j - 16(k-1) u_{k-1} with
    # u_0 = 0, as equalities of integers, the convolution in full: a
    # floor-divided step with a remainder would break one of them.
    n = 256
    roots = quartic_roots(n)
    for s in roots[:3]:
        a = [s.coeff_at(k) for k in range(n)]
        assert all(c.denominator == 1 for c in a)
        for k in range(n - 1):
            rhs = (k == 0) + sum(a[i] * a[k - i] for i in range(k + 1))
            if k:
                rhs += 16 * (k - 1) * a[k - 1]
            assert (k + 1) * a[k + 1] == -rhs, k
    alpha4 = roots[3]
    assert alpha4.lead == -1 and alpha4.coeff_at(-1) == 1 and alpha4.order == n
    u = [alpha4.coeff_at(k) for k in range(n)]
    assert all(c.denominator == 1 for c in u) and u[0] == 0
    for k in range(n - 1):
        rhs = 15 * (k == 0) - sum(u[i] * u[k - i] for i in range(k + 1))
        if k:
            rhs -= 16 * (k - 1) * u[k - 1]
        assert (k + 3) * u[k + 1] == rhs, k


@pytest.mark.parametrize("order", [8, 132, 512, 1024])
def test_alpha4_from_the_recurrence_is_minus_the_inverse_of_alpha2(order):
    # Newton's inverse is the reference: alpha4 = -1/alpha2, with alpha2
    # two orders deeper, since inverting its lead-1 window costs two orders.
    alpha2 = quartic_roots(order + 2)[1]
    assert quartic_roots(order)[3] == -alpha2.inv()


@pytest.mark.parametrize("order", [1, 8, 132])
def test_quartic_roots_form_no_series_inverse(monkeypatch, order):
    expected = quartic_roots(order)

    def refuse(self):
        raise AssertionError("quartic_roots formed a series inverse")

    monkeypatch.setattr(LaurentSeries, "inv", refuse)
    assert quartic_roots(order) == expected


@pytest.mark.parametrize("order", [132, 512])
def test_root_at_minus_one_is_the_reflected_root_at_one(order):
    # -(1 + 16t^2) S' = 1 + S^2 is invariant under S(t) -> -S(-t), which
    # sends the seed 1 to the seed -1: alpha3(t) = -alpha1(-t), alpha1's
    # window with its even-index terms negated.  The seed -1 is run here
    # as a recurrence of its own.
    r1, _, r3, _ = quartic_roots(order)
    assert r1.lead == r3.lead == 0 and r1.order == r3.order == order
    a1 = [r1.coeff_at(k) for k in range(order)]
    a3 = [r3.coeff_at(k) for k in range(order)]
    assert a3 == [c if k % 2 else -c for k, c in enumerate(a1)]
    assert a3 == _riccati(-1, order + 2)[:order]


def test_lift_prefixes_are_stable():
    for order in (3, 5, 9):
        small = quartic_roots(order)
        big = quartic_roots(2 * order)
        for a, b in zip(small, big):
            assert b.truncate(order) == a


# -- precision bookkeeping ----------------------------------------------------------


def test_coeff_at_past_order_is_an_error():
    s = quartic_roots(4)[0]
    assert s.coeff_at(3) == 8
    assert s.coeff_at(-5) == 0
    with pytest.raises(PrecisionUnderflow):
        s.coeff_at(4)


def test_unresolved_lead_properties_raise():
    z = zero_to_order(5)
    with pytest.raises(PrecisionUnderflow):
        z.valuation
    with pytest.raises(PrecisionUnderflow):
        z.leading_coeff


def test_monomial_and_poly_series_window_guards():
    with pytest.raises(ValueError):
        monomial(4, 4)
    with pytest.raises(ValueError):
        poly_series(LAM, -1)


# -- text and JSON forms -------------------------------------------------------------


def test_pretty_pinned_strings():
    assert quartic_roots(4)[0].pretty() == "1 - 2/λ + 2/λ^2 + 8/λ^3"
    assert zero_to_order(3).pretty() == "0"
    assert LaurentSeries(1, [Fraction(1, 2)], 2).pretty() == "(1/2)/λ"
    assert LaurentSeries(-2, [1, 0, -3], 1).pretty() == "λ^2 - 3"


def test_json_round_trip():
    # The form ``roots --format json`` prints, pinned after a JSON round trip.
    data = json.loads(json.dumps(quartic_roots(4)[1].to_json()))
    assert data == {"lead": 1, "coeffs": ["-1", "0", "5"], "order": 4}


# -- the randomized valuation battery (full size in the acceptance gate) -------------


def test_series_valuation_axioms_smoke():
    assert property_suites.series_valuation_axioms(300) == 300
