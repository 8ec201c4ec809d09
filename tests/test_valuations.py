"""Valuation vectors at the four infinite places and the height they induce.

The independent oracle: the discriminant's expansion at infinity has
valuation -6, and the Vandermonde product must account for exactly half
of it per embedding, (-3,-3,-3,-3). Pinned vectors for the fundamental
units, both height routes for the conjugate-difference ratio, precision
escalation and the error surface follow.
"""

import random
from fractions import Fraction

import pytest

import conftest
import property_suites
from thueff import quartic, valuations
from thueff.bounds import f_lambda_discriminant
from thueff.errors import PrecisionUnderflow, ZeroElement
from thueff.laurent import expand_ratfunc, quartic_roots
from thueff.polynomials import LAM, Poly, RatFunc
from thueff.valuations import (
    ValuationVector,
    embed_series,
    height_infinity,
    unit_valuation_identity,
    valuation_vector,
    vandermonde_report,
)


# -- discriminant oracle: fixes the scale of everything below ---------------------


def test_discriminant_valuation_at_infinity():
    s = expand_ratfunc(f_lambda_discriminant(), 2)
    assert s.valuation == -6
    assert s.leading_coeff == 4


def test_vandermonde_accounts_for_half_the_discriminant():
    rep = vandermonde_report()
    assert rep.vector == ValuationVector((-3, -3, -3, -3))
    disc_lead = expand_ratfunc(f_lambda_discriminant(), 2).valuation
    for w in rep.vector.w:
        assert 2 * w == disc_lead
    # disc = (Vandermonde product)^2 also at the leading-coefficient level
    assert rep.leading_coeff ** 2 == 4


def test_vandermonde_pinned():
    assert vandermonde_report().vector == ValuationVector((-3, -3, -3, -3))
    assert vandermonde_report().leading_coeff == Fraction(-2)


# -- fundamental-unit vectors --------------------------------------------------------


def test_alpha_vector():
    assert valuation_vector(quartic.ALPHA) == ValuationVector((0, 1, 0, -1))


def test_alpha_minus_one_vector():
    assert valuation_vector(quartic.ALPHA - quartic.ONE) == ValuationVector((1, 0, 0, -1))


def test_alpha_plus_one_vector():
    assert valuation_vector(quartic.ALPHA + quartic.ONE) == ValuationVector((0, 0, 1, -1))


def test_heights_pinned():
    assert height_infinity(quartic.ALPHA) == 1
    assert height_infinity(quartic.ONE) == 0


def test_conjugate_ratio_height_both_routes():
    alpha1 = quartic.ALPHA
    alpha2 = quartic.galois(alpha1, 2)
    alpha3 = quartic.galois(alpha1, 3)
    num = alpha3 - alpha1
    den = alpha2 - alpha3
    assert (valuation_vector(num) - valuation_vector(den)).height == 1
    quotient = quartic.ring_mul(num, quartic.ring_inv(den))
    assert height_infinity(quotient) == 1


# -- the closed-form identity for unit vectors ----------------------------------------


def test_identity_pinned_values():
    assert unit_valuation_identity(0, 0, 0) == ValuationVector((0, 0, 0, 0))
    assert unit_valuation_identity(1, 1, 1) == ValuationVector((1, 1, 1, -3))
    assert unit_valuation_identity(2, -1, 0) == ValuationVector((2, -1, 0, -1))


def test_identity_matches_computed_vectors_small_box():
    for r in range(-2, 3):
        for s in range(-2, 3):
            for t in range(-2, 3):
                beta = quartic.unit_from_exponents(r, s, t)
                got = valuation_vector(beta)
                assert got == unit_valuation_identity(r, s, t)
                assert got.total == 0


def test_conjugate_shift_permutes_the_multiset():
    rng = random.Random(20260831)
    for _ in range(60):
        z = conftest.rand_elem(rng, nonzero=True)
        base = sorted(valuation_vector(z).w)
        for i in (2, 3, 4):
            assert sorted(valuation_vector(quartic.galois(z, i)).w) == base


# -- vector arithmetic ------------------------------------------------------------------


def test_vector_arithmetic_and_scaling():
    v = ValuationVector((1, 0, 0, -1))
    w = ValuationVector((0, 1, 0, -1))
    assert v - w == ValuationVector((1, -1, 0, 0))
    assert v.total == 0
    assert v.height == 1


# -- precision escalation and errors ----------------------------------------------------


def _near_root_elem():
    """alpha minus the first twelve terms of its own first embedding."""
    s = quartic_roots(12)[0]
    window = Poly([s.coeff_at(11 - j) for j in range(12)])
    return quartic.ALPHA - quartic.RingElem.of(RatFunc(window, LAM ** 11))


def test_precision_escalates_past_default_order():
    assert valuation_vector(_near_root_elem()) == ValuationVector((12, 0, 0, -1))


def test_precision_cap_stops_escalation(monkeypatch):
    monkeypatch.setattr(valuations, "PRECISION_CAP", 8)
    with pytest.raises(PrecisionUnderflow):
        valuation_vector(_near_root_elem())


def test_zero_element_rejected():
    with pytest.raises(ZeroElement):
        valuation_vector(quartic.ZERO)


def test_embedding_index_checked():
    with pytest.raises(ValueError):
        embed_series(quartic.ALPHA, 5, 4)


def test_embedding_of_alpha_is_the_root_series():
    for i in (1, 2, 3, 4):
        assert embed_series(quartic.ALPHA, i, 6) == quartic_roots(6)[i - 1]


def _ratfunc_route(a, i, order):
    """The embedding through the canonical ``RatFunc`` coefficients c0..c3,
    each expanded on its own: c0 + c1*S + c2*S^2 + c3*S^3."""
    s = quartic_roots(order)[i - 1]
    acc = expand_ratfunc(a.c0, order + 8)
    power = None
    for c in a.coeffs[1:]:
        power = s if power is None else power * s
        if c:
            acc = acc + expand_ratfunc(c, order + 8) * power
    return acc


def test_embedding_matches_the_ratfunc_route():
    rng = random.Random(20261020)
    elems = [conftest.rand_elem(rng, max_deg=2, nonzero=True, rational_every=2)
             for _ in range(24)]
    # denominators lam^k (an exact expansion) and a square
    elems += [
        _near_root_elem(),
        quartic.RingElem.of(RatFunc(1, LAM + 1), 0, RatFunc(LAM, (LAM - 2) ** 2), 3),
        quartic.RingElem.of(Fraction(1, 6), RatFunc(Poly((1, 0, 5)), LAM ** 3)),
    ]
    assert sum(len(a._d) > 1 for a in elems) >= 5
    for a in elems:
        for order in (8, 20):
            for i in (1, 2, 3, 4):
                got, want = embed_series(a, i, order), _ratfunc_route(a, i, order)
                common = min(got.order, want.order)
                assert got.truncate(common) == want.truncate(common), (a, i, order)
                # a lead the old route resolves, this one resolves too
                assert got.resolved or not want.resolved


# -- randomized batteries at smoke size --------------------------------------------------


def test_unit_product_formula_smoke():
    # the battery always runs the exhaustive |r|,|s|,|t| <= 3 box first
    assert property_suites.unit_product_formula(200) >= 343


def test_height_inverse_symmetry_smoke():
    assert property_suites.height_inverse_symmetry(150) == 150
