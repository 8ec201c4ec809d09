"""Discriminants, resultants and the genus/height bound chain.

Oracles first: the resultant of two monic split polynomials must equal
the product of root differences, and the discriminant must match both
the classic cubic formula and the squared root-difference product.
The closed-form discriminant of the quartic family and the bound tables
are pinned afterwards, plus a monotonicity audit of the bound chain.
"""

import random
from fractions import Fraction

import pytest

import conftest
from thueff.bounds import (
    EXPONENT_BUDGET,
    bound_report,
    discriminant,
    f_lambda_discriminant,
    f_lambda_xpoly,
    mason_abc_bound,
    resultant,
    riemann_hurwitz_genus,
)
from thueff.errors import InconsistentRamification, InvalidDegree, NotMonic
from thueff.laurent import expand_ratfunc, quartic_roots
from thueff.polynomials import LAM, Poly, RatFunc
from thueff.quartic import RingElem, norm


def monic_from_roots(roots: list[Fraction | RatFunc]) -> list[RatFunc]:
    """Ascending coefficients of prod (X - r) with roots in Q or Q(lam)."""
    coeffs = [RatFunc(1)]
    for r in roots:
        shifted = [RatFunc(0)] + coeffs
        scaled = [(RatFunc(0) - r) * c for c in coeffs] + [RatFunc(0)]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return coeffs


# -- resultant against the root-product oracle -------------------------------------


def test_resultant_is_root_difference_product():
    rng = random.Random(20260841)
    for _ in range(60):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        a = [conftest.rand_fraction(rng, lo=-5, hi=5, max_den=3) for _ in range(n)]
        b = [conftest.rand_fraction(rng, lo=-5, hi=5, max_den=3) for _ in range(m)]
        got = resultant(monic_from_roots(a), monic_from_roots(b))
        product = Fraction(1)
        for x in a:
            for y in b:
                product *= x - y
        assert got == RatFunc(Poly((product,)))


def test_resultant_is_root_difference_product_over_q_lambda():
    # roots with denominators in Z[lam]: the cleared rows carry 1/fd and
    # 1/gd, so the scale fd**n * gd**m is exercised
    rng = random.Random(20261021)
    for _ in range(40):
        a = [conftest.rand_ratfunc(rng, max_deg=2) for _ in range(rng.randint(1, 3))]
        b = [conftest.rand_ratfunc(rng, max_deg=2) for _ in range(rng.randint(1, 3))]
        product = RatFunc(1)
        for x in a:
            for y in b:
                product *= x - y
        assert resultant(monic_from_roots(a), monic_from_roots(b)) == product


def test_resultant_rejects_zero_polynomial():
    with pytest.raises(InvalidDegree):
        resultant([RatFunc(0)], monic_from_roots([Fraction(1)]))


# -- discriminant oracles ------------------------------------------------------------


def test_cubic_discriminant_formula():
    # disc(X^3 + p*X + q) = -4 p^3 - 27 q^2
    rng = random.Random(20260842)
    for _ in range(60):
        p = conftest.rand_fraction(rng, lo=-6, hi=6, max_den=4)
        q = conftest.rand_fraction(rng, lo=-6, hi=6, max_den=4)
        got = discriminant([RatFunc(Poly((q,))), RatFunc(Poly((p,))), RatFunc(0), RatFunc(1)])
        assert got == RatFunc(Poly((-4 * p**3 - 27 * q**2,)))


def test_unit_cubic_discriminant():
    assert discriminant([RatFunc(-1), RatFunc(0), RatFunc(0), RatFunc(1)]) == RatFunc(-27)


def test_quadratic_discriminant_formula():
    rng = random.Random(20260843)
    for _ in range(60):
        b = conftest.rand_fraction(rng, lo=-8, hi=8, max_den=5)
        c = conftest.rand_fraction(rng, lo=-8, hi=8, max_den=5)
        got = discriminant([RatFunc(Poly((c,))), RatFunc(Poly((b,))), RatFunc(1)])
        assert got == RatFunc(Poly((b * b - 4 * c,)))


def test_discriminant_is_squared_root_difference_product():
    rng = random.Random(20260844)
    for _ in range(40):
        roots = []
        while len(roots) < 3:
            r = conftest.rand_fraction(rng, lo=-5, hi=5, max_den=3)
            if r not in roots:
                roots.append(r)
        product = Fraction(1)
        for i in range(3):
            for j in range(i + 1, 3):
                product *= (roots[i] - roots[j]) ** 2
        assert discriminant(monic_from_roots(roots)) == RatFunc(Poly((product,)))


def test_discriminant_input_guards():
    with pytest.raises(NotMonic):
        discriminant([RatFunc(1), RatFunc(1), RatFunc(2)])
    with pytest.raises(InvalidDegree):
        discriminant([RatFunc(1)])


# -- the quartic family's discriminant ------------------------------------------------


def test_family_discriminant_closed_form():
    disc = f_lambda_discriminant()
    assert disc == RatFunc(Poly((16384, 0, 3072, 0, 192, 0, 4)))
    assert disc == RatFunc(Poly((16, 0, 1)) ** 3 * Poly((4,)))
    assert discriminant(f_lambda_xpoly()) == disc


def test_family_discriminant_is_norm_of_derivative():
    # disc f = N(f'(alpha)) for monic quartic f: the Sylvester determinant
    # (bareiss_det) and the multiplication-matrix determinant (quartic._cramer)
    # agree.  f'(alpha) = lam - 12 alpha - 3 lam alpha^2 + 4 alpha^3.
    assert norm(RingElem(LAM, -12, -3 * LAM, 4)) == f_lambda_discriminant()


def test_family_discriminant_against_series_roots():
    # independent route: square the pairwise differences of the Laurent roots
    order = 8
    roots = quartic_roots(order)
    product = None
    for i in range(4):
        for j in range(i + 1, 4):
            d = roots[i] - roots[j]
            sq = d * d
            product = sq if product is None else product * sq
    direct = expand_ratfunc(f_lambda_discriminant(), product.order)
    assert not (product - direct.truncate(product.order)).resolved
    assert product.valuation == -6


# -- genus and height bounds -----------------------------------------------------------


def test_mason_bound_pinned():
    assert mason_abc_bound(0, 0) == 0
    assert mason_abc_bound(0, 12) == 10
    assert mason_abc_bound(3, 20) == 24


def test_riemann_hurwitz_pinned():
    assert riemann_hurwitz_genus(4, [2, 2, 2, 2, 2, 2]) == 0
    assert riemann_hurwitz_genus(1, []) == 0
    assert riemann_hurwitz_genus(4, [4, 4, 4]) == Fraction(3, 2)


def test_riemann_hurwitz_rejects_unramified_cover_of_higher_degree():
    with pytest.raises(InconsistentRamification):
        riemann_hurwitz_genus(4, [])


def test_riemann_hurwitz_input_guards():
    with pytest.raises(InvalidDegree):
        riemann_hurwitz_genus(0, [])
    with pytest.raises(ValueError):
        riemann_hurwitz_genus(4, [0])


def test_bound_report_degree_one():
    rep = bound_report(1)
    assert rep.a == 1
    assert rep.rK_bound == 2
    assert rep.genus_bound == 0
    assert rep.W_bound == 8
    assert rep.W_bound_max == 12
    assert rep.siegel_height_bound == 6
    assert rep.beta_ratio_bound == 7
    assert rep.exponent_budget == 10


def test_bound_report_degree_two():
    rep = bound_report(2)
    assert rep.rK_bound == 4
    assert rep.genus_bound == 3
    assert rep.siegel_height_bound == 16
    assert rep.beta_ratio_bound == 18
    assert rep.exponent_budget == 10


def test_bound_report_rejects_degree_zero():
    with pytest.raises(InvalidDegree):
        bound_report(0)


def test_bound_chain_audit():
    # The height bound must dominate -4 + 8a + rK for every admissible rK,
    # and the exponent budget must be the largest integer below 11 - 4/a
    # uniformly over a >= 1.
    for a in range(1, 65):
        rep = bound_report(a)
        assert rep.siegel_height_bound == 10 * a - 4
        assert rep.beta_ratio_bound == 11 * a - 4
        assert rep.genus_bound == 3 * a - 3
        assert rep.rK_bound == 2 * a
        for rk in range(0, rep.rK_bound + 1):
            assert -4 + 8 * a + rk <= rep.siegel_height_bound
        for rk in range(2, rep.rK_bound + 1, 2):
            genus = (3 * rk) // 2 - 3
            w_cap = 4 + 8 * a - 2 * rk
            assert mason_abc_bound(genus, w_cap) == -4 + 8 * a + rk
            assert mason_abc_bound(genus, w_cap) <= rep.siegel_height_bound
        # any triple passing the height bound has cost <= the uniform budget
        assert rep.beta_ratio_bound // a <= rep.exponent_budget
        assert rep.exponent_budget == 10
    budgets = {int((11 * a - 4) // a) for a in range(1, 65)}
    assert max(budgets) == EXPONENT_BUDGET == 10


def test_report_json_keys():
    data = bound_report(1).to_json()
    assert data["a"] == 1
    assert data["siegel_height_bound"] == 6
    assert data["beta_ratio_bound"] == 7
    assert data["exponent_budget"] == 10
