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
from thueff import polynomials, quartic, valuations
from thueff.bounds import f_lambda_discriminant
from thueff.errors import PrecisionUnderflow, ZeroElement
from thueff.laurent import expand_ratfunc, poly_series, quartic_roots
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


@pytest.mark.parametrize("order", [8, 128])
def test_rotated_vandermonde_products_are_one_product_up_to_sign(order):
    # The k-th embedding rotates the roots by k, an odd permutation for odd
    # k: the four products are (-1)^k times one series, so
    # ``vandermonde_report`` reads one lead for all four entries.
    roots = [row[1] for row in valuations._root_powers(order)]
    product = valuations.root_difference_product(roots)
    for k in range(4):
        rotated = valuations.root_difference_product(roots[k:] + roots[:k])
        assert rotated == (product if k % 2 == 0 else -product)


def test_vandermonde_report_forms_one_product(monkeypatch):
    calls = []
    original = valuations.root_difference_product

    def counting(roots):
        calls.append(roots[0].order)
        return original(roots)

    monkeypatch.setattr(valuations, "root_difference_product", counting)
    assert vandermonde_report().vector == ValuationVector((-3, -3, -3, -3))
    assert calls == [valuations.DEFAULT_ORDER]


def _index_order_product(roots):
    """prod_{i<j} (roots[j] - roots[i]), multiplied in index order."""
    prod = None
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            d = roots[j] - roots[i]
            prod = d if prod is None else prod * d
    return prod


@pytest.mark.parametrize("order", [8, 16, 64, 128, 256])
def test_root_difference_product_in_pairs_is_the_index_order_product(order):
    # the pairs regroup the same six factors: (lead, window, order) agree
    # with an index-order loop, for every rotation and with truncated roots,
    # all cut alike or each one differently
    full = quartic_roots(order)
    cuts = (
        full,
        tuple(s.truncate(order - 4) for s in full),
        tuple(s.truncate(order - 1) for s in full),
        tuple(s.truncate(order - k) for s, k in zip(full, (4, 1, 0, 1))),
    )
    for roots in cuts:
        for k in range(4):
            rotated = roots[k:] + roots[:k]
            got = valuations.root_difference_product(rotated)
            want = _index_order_product(rotated)
            assert (got.lead, got._w, got.order) == (want.lead, want._w, want.order)


def test_root_difference_pairs_are_parity_pure_at_the_verifier_depth(monkeypatch):
    # the verifier's operands at order 128: each pair has a long odd or even
    # window, and of the five products only the two that form the first two
    # pairs see a dense operand; the other three take ``_int_mul_low``'s
    # half-length path, seen as a nested call.  A grouping that loses that
    # fails here instead of passing as a silent slowdown.
    roots = tuple(row[1].truncate(128) for row in valuations._root_powers(132))
    r0, r1, r2, r3 = roots
    first, second, third = (r1 - r0) * (r3 - r2), (r3 - r0) * (r2 - r1), (r2 - r0) * (r3 - r1)
    for pair in (first, second, third):
        assert len(pair._w._n) >= 2 * polynomials._PACK_MIN
        assert polynomials._parity(pair._w._n) is not None
    assert first == second  # (a1 + a3)(a2 + a4) = -4 makes the first two pairs equal

    calls, depth = [], [0]
    mul_low = polynomials._int_mul_low

    def recording(a, b, n):
        if depth[0]:
            calls[-1][1] = True
        else:
            calls.append([(a, b), False])
        depth[0] += 1
        try:
            return mul_low(a, b, n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(polynomials, "_int_mul_low", recording)
    valuations.root_difference_product(roots)
    pure = [all(polynomials._parity(x) is not None for x in ops) for ops, _ in calls]
    assert pure == [False, False, True, True, True]
    assert [halved for _, halved in calls] == pure


def test_root_difference_product_takes_four_roots():
    roots = quartic_roots(8)
    for bad in (roots[:3], roots + roots[:1], ()):
        with pytest.raises(ValueError, match="four roots"):
            valuations.root_difference_product(bad)


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
    return quartic.ALPHA - quartic.RingElem(RatFunc(window, LAM ** 11))


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
        quartic.RingElem(RatFunc(1, LAM + 1), 0, RatFunc(LAM, (LAM - 2) ** 2), 3),
        quartic.RingElem(Fraction(1, 6), RatFunc(Poly((1, 0, 5)), LAM ** 3)),
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


def _series_route(a, i, order):
    """The embedding as a composition of ``LaurentSeries`` operations: each
    N_j an exact series to order + 8, times S^j from the root table, the
    terms added in turn, then scaled by 1/D or times the series inverse of
    a non-constant D."""
    powers = valuations._root_powers(order)[i - 1]
    width = order + 8

    def series(n):
        return poly_series(Poly(n), width)

    acc = series(a._n[0])
    for n, p in zip(a._n[1:], powers[1:]):
        if n:
            acc = acc + series(n) * p
    d = a._d
    if len(d) > 1:
        return acc * series(d).inv()
    return acc if d == (1,) else acc.scale(Fraction(1, d[0]))


def _siegel_betas():
    """The conjugates b1..b3 of three betas x - alpha*y: linear forms over
    Q(lam) with non-trivial conjugates, as embedding inputs (the Siegel
    check itself embeds the conjugates of alpha)."""
    out = []
    for x, y in ((3, 1), (LAM, 2), (1 + LAM, LAM**2)):
        beta = quartic.elem_from_xy(x, y)
        out += [quartic.galois(beta, i) for i in (1, 2, 3)]
    return out


def _embedding_elements():
    """Seeded elements with zero coordinates, integer and non-constant
    denominators, the near-root element and the Siegel betas."""
    rng = random.Random(20261021)
    elems = []
    while len(elems) < 18:
        coeffs = list(conftest.rand_elem(rng, max_deg=3, lo=-40, hi=40,
                                         rational_every=3).coeffs)
        for j in rng.sample(range(4), rng.randint(1, 2)):
            coeffs[j] = 0  # zero coordinates
        if any(coeffs):
            elems.append(quartic.RingElem(*coeffs))
    elems += [
        quartic.RingElem(0, Fraction(3, 7), 0, LAM**5 - 2),  # integer D != 1, N0 = 0
        quartic.RingElem(Fraction(1, 12), 0, 0, 0),
        quartic.RingElem(RatFunc(1, LAM + 1), 0, RatFunc(LAM, (LAM - 2) ** 2), 3),
        quartic.RingElem(0, 0, RatFunc(LAM**9 + 4, 3 * LAM**2 - 5)),
        _near_root_elem(),
        *_siegel_betas(),
    ]
    assert any(len(a._d) == 1 and a._d != (1,) for a in elems)
    assert sum(len(a._d) > 1 for a in elems) >= 3
    assert sum(not all(a._n) for a in elems) >= 12
    return elems


def _assert_same_embeddings(elems, orders):
    for a in elems:
        for order in orders:
            for i in (1, 2, 3, 4):
                got, want = embed_series(a, i, order), _series_route(a, i, order)
                assert (got.lead, got._w, got.order) == (want.lead, want._w, want.order), (
                    a, i, order)


def test_embedding_is_the_series_composition_exactly():
    _assert_same_embeddings(_embedding_elements(), (8, 16, 132))


def test_embedding_is_the_series_composition_over_rational_windows(monkeypatch):
    # The true root windows are integral; a table whose S, S^2 and S^3
    # carry the denominators 2, 3 and 4 takes the common-denominator path.
    # Its windows are known far past order + 8, so at order 8 a product's
    # order is bounded by its lead plus that width, not by the window.
    table = tuple(
        (None, *(p.scale(Fraction(1, k)) for p, k in zip(row[1:], (2, 3, 4))))
        for row in valuations._root_powers(48)
    )
    assert all(p._w._d > 1 for row in table for p in row[1:])
    monkeypatch.setattr(valuations, "_root_powers", lambda order: table)
    _assert_same_embeddings(_embedding_elements(), (8,))


# -- randomized batteries at smoke size --------------------------------------------------


def test_unit_product_formula_smoke():
    # the battery always runs the exhaustive |r|,|s|,|t| <= 3 box first
    assert property_suites.unit_product_formula(200) >= 343


def test_height_inverse_symmetry_smoke():
    assert property_suites.height_inverse_symmetry(150) == 150
