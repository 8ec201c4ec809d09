"""Acceptance gate: the eight headline checks, one test per criterion.

Run with -v to get one pass/fail line per criterion. Everything is
asserted exactly (Fraction arithmetic, no tolerances); the randomized
batteries of criterion 7 run at full size here and only here.
"""

import time
from fractions import Fraction

import property_suites
from thueff import quartic, search
from thueff.bounds import bound_report, discriminant, f_lambda_discriminant, f_lambda_xpoly
from thueff.laurent import LaurentSeries, expand_ratfunc, quartic_roots
from thueff.polynomials import Poly, RatFunc
from thueff.quartic import ALPHA, ONE, RingElem, ring_inv, unit_from_exponents
from thueff.valuations import (
    ValuationVector,
    height_infinity,
    unit_valuation_identity,
    valuation_vector,
    vandermonde_report,
)


def test_criterion_1_solution_set_certified_within_time_budget():
    start = time.monotonic()
    cert = search.verify_theorem()
    elapsed = time.monotonic() - start
    assert cert.passed
    assert set(cert.triples_found) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert len(cert.classes) == 4
    by_triple = {c.triple: (c.x_coeff, c.y_coeff, c.xi_factor) for c in cert.classes}
    assert by_triple[(0, 0, 0)] == (1, 0, 1)
    assert by_triple[(0, 1, 0)] == (0, 1, 1)
    assert by_triple[(1, 0, 0)] == (1, 1, -4)
    assert by_triple[(0, 0, 1)] == (1, -1, -4)
    assert elapsed < 300.0


def test_criterion_2_root_expansions_to_order_four():
    roots = quartic_roots(4)
    assert roots[0] == LaurentSeries(0, [1, -2, 2, 8], 4)
    assert roots[1] == LaurentSeries(1, [-1, 0, 5], 4)
    assert roots[2] == LaurentSeries(0, [-1, -2, -2, 8], 4)
    assert roots[3] == LaurentSeries(-1, [1, 0, 5, 0, -21], 4)
    # independent oracle: the elementary symmetric functions of the four
    # series must reproduce the quartic's coefficients (lam, -6, -lam, 1)
    e1 = roots[0] + roots[1] + roots[2] + roots[3]
    assert e1.lead == -1 and e1.coeffs[0] == 1
    assert all(c == 0 for c in e1.coeffs[1:])
    e2 = None
    for i in range(4):
        for j in range(i + 1, 4):
            term = roots[i] * roots[j]
            e2 = term if e2 is None else e2 + term
    assert e2.lead == 0 and e2.coeffs[0] == -6
    assert all(c == 0 for c in e2.coeffs[1:])
    e4 = roots[0] * roots[1] * roots[2] * roots[3]
    assert e4.lead == 0 and e4.coeffs[0] == 1
    assert all(c == 0 for c in e4.coeffs[1:])


def test_criterion_3_inverse_of_alpha_plus_one_closed_form():
    quarter = RatFunc(Poly((Fraction(1, 4),)))
    expected = RingElem(
        quarter * RatFunc(Poly((5,))),
        quarter * RatFunc(Poly((-5, 1))),
        quarter * RatFunc(Poly((-1, -1))),
        quarter,
    )
    got = ring_inv(ALPHA + ONE)
    assert got == expected
    assert quartic.ring_mul(ALPHA + ONE, got) == ONE


def test_criterion_4_discriminant_closed_form_and_series_crosscheck():
    disc = f_lambda_discriminant()
    assert disc == RatFunc(Poly((16384, 0, 3072, 0, 192, 0, 4)))
    assert discriminant(f_lambda_xpoly()) == disc
    roots = quartic_roots(8)
    product = None
    for i in range(4):
        for j in range(i + 1, 4):
            d = roots[i] - roots[j]
            product = d * d if product is None else product * (d * d)
    direct = expand_ratfunc(disc, product.order)
    assert not (product - direct.truncate(product.order)).resolved


def test_criterion_5_fundamental_unit_vectors_and_vandermonde():
    assert valuation_vector(ALPHA - ONE) == ValuationVector((1, 0, 0, -1))
    assert valuation_vector(ALPHA) == ValuationVector((0, 1, 0, -1))
    assert valuation_vector(ALPHA + ONE) == ValuationVector((0, 0, 1, -1))
    rep = vandermonde_report()
    assert rep.vector == ValuationVector((-3, -3, -3, -3))
    assert rep.leading_coeff == -2


def test_criterion_6_bound_reports():
    rep1 = bound_report(1)
    assert (rep1.rK_bound, rep1.genus_bound) == (2, 0)
    assert rep1.siegel_height_bound == 6
    assert rep1.beta_ratio_bound == 7
    assert rep1.exponent_budget == 10
    rep2 = bound_report(2)
    assert (rep2.rK_bound, rep2.genus_bound) == (4, 3)
    assert rep2.siegel_height_bound == 16
    assert rep2.beta_ratio_bound == 18
    assert rep2.exponent_budget == 10


def test_criterion_7_property_batteries_at_full_size():
    for battery in property_suites.ALL_SUITES:
        assert battery(1000) >= 1000, battery.__name__


def test_criterion_8_exponent_box_valuations_and_found_heights():
    for r in range(-3, 4):
        for s in range(-3, 4):
            for t in range(-3, 4):
                beta = unit_from_exponents(r, s, t)
                got = valuation_vector(beta)
                assert got == unit_valuation_identity(r, s, t), (r, s, t)
    for triple in search.search_trivial_units():
        beta = unit_from_exponents(*triple)
        assert height_infinity(beta) <= 7  # beta_ratio_bound at a = 1
