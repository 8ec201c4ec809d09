"""The exponent-triple search and the end-to-end certificate.

The enumeration oracle is a direct brute-force loop over the search box,
written before anything else is trusted. The scan's integer image is
checked against the images of exact units (up to the one nonzero factor
the image leaves), its two linear forms per t against full products in
that image, and a false survivor of the scan must be dropped by the exact
confirmation; the certificate is exercised clean, byte-identical at three
working orders, with one wrong term in the root table's S^2 row (caught
at the residual check), and with two corrupted rewrite rules (one caught
at the Siegel check with every check evaluating, one whose singular ring
turns the checks that cannot evaluate to ERROR).
"""

import random

import pytest

from thueff import laurent, quartic, search, valuations
from thueff.bounds import EXPONENT_BUDGET
from thueff.cli import render_json
from thueff.errors import NotMonic, ReproductionFailure
from thueff.polynomials import LAM, RatFunc
from thueff.quartic import norm, unit_from_exponents
from thueff.search import (
    TRIVIAL_TRIPLES,
    admissible_exponents,
    budget_cost,
    is_admissible,
    search_trivial_units,
    solution_classes,
    verify_theorem,
)
from thueff.valuations import height_infinity, unit_valuation_identity, valuation_vector


def brute_force_box(budget: int) -> list:
    """Direct enumeration of the cost function over the full box, in lexicographic order."""
    side = range(-budget - 1, budget + 2)  # one beyond, to catch fencepost slips
    return [
        (r, s, t)
        for r in side
        for s in side
        for t in side
        if max(0, -r) + max(0, -s) + max(0, -t) + max(0, r + s + t) <= budget
    ]


def brute_force_box_count(budget: int) -> int:
    return len(brute_force_box(budget))


# -- the admissible box -----------------------------------------------------------


def test_admissible_count_matches_brute_force():
    triples = admissible_exponents(10)
    assert len(triples) == brute_force_box_count(10)
    assert len(triples) == 3871


def test_admissible_list_equals_the_cube_filter():
    for budget in range(13):
        assert admissible_exponents(budget) == brute_force_box(budget), budget


def test_admissible_membership_pinned():
    triples = admissible_exponents(10)
    assert (0, 0, 0) in triples
    assert (10, -10, 0) in triples
    assert (-11, 0, 0) not in triples
    assert budget_cost(0, 0, 0) == 0
    assert budget_cost(10, -10, 0) == 10
    assert budget_cost(-11, 0, 0) == 11
    assert is_admissible(10, -10, 0)
    assert not is_admissible(-11, 0, 0)


def test_admissible_list_is_sorted_lexicographically():
    triples = admissible_exponents(4)
    assert triples == sorted(triples)


def test_admissible_smaller_budgets_nest():
    big = set(admissible_exponents(5))
    for budget in range(5):
        assert set(admissible_exponents(budget)) <= big


# -- the integer image used by the scan ----------------------------------------------


def test_residue_image_matches_scan_tables():
    # The image drops each element's denominator and canonical content, so the
    # table product and the exact unit's image agree up to one nonzero factor.
    row, (t0, t1, t2) = search._power_tables(2)
    for r in range(-2, 3):
        for s in range(-2, 3):
            for t in range(-2, 3):
                product = search._mul(search._mul(t0[r], t1[s], row), t2[t], row)
                image = search._image(unit_from_exponents(r, s, t))
                assert any(product) and any(image)
                assert all(
                    product[i] * image[j] == product[j] * image[i]
                    for i in range(4) for j in range(4)
                ), (r, s, t)


def _full_product_route(budget):
    """Triple -> its unit's image as two full products, ``(r, s)`` part times ``t`` part."""
    row, (t0, t1, t2) = search._power_tables(budget)
    return {
        (r, s, t): search._mul(search._mul(t0[r], t1[s], row), t2[t], row)
        for r, s, t in admissible_exponents(budget)
    }


def test_scan_linear_forms_match_the_full_product_on_the_box():
    route = _full_product_route(EXPONENT_BUDGET)
    row, (t0, t1, t2) = search._power_tables(EXPONENT_BUDGET)
    forms = search._linear_forms(row, t2)
    for (r, s, t), image in route.items():
        x = search._mul(t0[r], t1[s], row)
        c2, c3 = (sum(a * b for a, b in zip(x, form)) for form in forms[t])
        assert (c2, c3) == image[2:], (r, s, t)
    # The scan keeps exactly the triples whose full product has c2 = c3 = 0.
    for budget in range(EXPONENT_BUDGET + 1):
        triples = admissible_exponents(budget)
        expect = [tr for tr in triples if route[tr][2:] == (0, 0)]
        assert search._scan_chunk((max(budget, 1), triples)) == expect, budget


def test_exact_confirmation_drops_a_false_modular_survivor(monkeypatch):
    scan = search._scan_chunk
    # alpha^2 (c2 = 1) and alpha^3 (c2 = 0, c3 = 1): each coordinate is tested
    extra = [(2, 0, 0), (0, 3, 0)]
    monkeypatch.setattr(search, "_scan_chunk", lambda payload: scan(payload) + extra)
    assert search_trivial_units() == list(TRIVIAL_TRIPLES)


def test_scan_refuses_a_rewrite_row_outside_z_lam(monkeypatch):
    # The image is a ring homomorphism only while f is monic over Z[lam].
    row = (RatFunc(-1) / 2, RatFunc(-LAM), RatFunc(6), RatFunc(LAM))
    monkeypatch.setattr(quartic, "REWRITE_ROW", row)
    with pytest.raises(NotMonic):
        search._scan_chunk((1, [(0, 0, 0)]))


# -- the search itself -----------------------------------------------------------------


def test_full_search_finds_exactly_the_trivial_set():
    assert search_trivial_units() == list(TRIVIAL_TRIPLES)


def test_trivial_set_membership_is_about_high_coefficients():
    beta = unit_from_exponents(1, 0, 0)
    assert (beta.c2, beta.c3) == (RatFunc(0), RatFunc(0))
    square = unit_from_exponents(2, 0, 0)
    assert square.c2 == RatFunc(1)
    assert (2, 0, 0) in admissible_exponents(10)
    assert (2, 0, 0) not in search_trivial_units()


def test_search_is_deterministic_across_jobs():
    single = search_trivial_units()
    assert search_trivial_units(jobs=2) == single
    assert search_trivial_units(budget=2, jobs=4) == [
        t for t in TRIVIAL_TRIPLES if budget_cost(*t) <= 2
    ]


def test_search_invariant_under_enumeration_order():
    triples = admissible_exponents(3)
    rng = random.Random(20260851)
    shuffled = triples[:]
    rng.shuffle(shuffled)
    found = search._scan_chunk((3, shuffled))
    assert sorted(found) == search_trivial_units(budget=3)


def test_found_units_have_constant_norm_and_small_height():
    for triple in search_trivial_units():
        beta = unit_from_exponents(*triple)
        n = norm(beta)
        assert n.den.is_constant()
        assert n.num.is_constant()
        assert n  # a unit's norm is a nonzero scalar
        assert height_infinity(beta) <= 7  # 11a - 4 at a = 1


def test_every_admissible_triple_obeys_the_valuation_identity_sampled():
    rng = random.Random(20260852)
    triples = admissible_exponents(10)
    sample = rng.sample(triples, 80)
    for r, s, t in sample:
        beta = unit_from_exponents(r, s, t)
        assert valuation_vector(beta) == unit_valuation_identity(r, s, t)


# -- solution classes --------------------------------------------------------------------


def test_solution_classes_pinned():
    classes = solution_classes()
    by_triple = {c.triple: c for c in classes}
    assert set(by_triple) == set(TRIVIAL_TRIPLES)
    assert sorted(c.xi_factor for c in classes) == [-4, -4, 1, 1]
    eta_alpha = by_triple[(0, 1, 0)]
    assert (eta_alpha.x_coeff, eta_alpha.y_coeff) == (0, 1)
    assert eta_alpha.label == "(0, η)"
    assert by_triple[(0, 0, 0)].label == "(η, 0)"
    assert by_triple[(1, 0, 0)].label == "(η, η)"
    assert by_triple[(0, 0, 1)].label == "(η, -η)"


def test_solution_class_constraints_are_polynomial_identities():
    # F(x_coeff * eta, y_coeff * eta) = xi_factor * eta^4, checked via the
    # homogeneous norm form at eta = 1 (degree-4 homogeneity carries eta).
    from thueff.polynomials import Poly

    for c in solution_classes():
        x = Poly((c.x_coeff,))
        y = Poly((c.y_coeff,))
        assert quartic.f_lambda_eval(x, y) == RatFunc(c.xi_factor)


def test_solution_classes_reject_foreign_triples():
    for triple in ((2, 0, 0), (0, 3, 0)):
        with pytest.raises(ReproductionFailure):
            solution_classes([triple])


# -- the certificate -----------------------------------------------------------------------


def test_certificate_clean_run():
    cert = verify_theorem()
    assert cert.passed
    assert len(cert.checks) == 23
    assert cert.failed_names == []
    assert cert.triples_searched == 3871
    assert cert.triples_found == list(TRIVIAL_TRIPLES)
    assert len(cert.classes) == 4
    assert cert.search_budget == EXPONENT_BUDGET
    assert all(c.status in ("PASS", "FAIL") for c in cert.checks)


def test_certificate_json_is_byte_identical_across_orders():
    # A deeper working order reruns every series check on longer windows;
    # the certificate it prints must not change by a byte.
    texts = {o: render_json(verify_theorem(order=o).to_json()) for o in (8, 64, 128)}
    assert texts[64] == texts[8] and texts[128] == texts[8]


def test_certificate_json_shape():
    data = verify_theorem().to_json()
    assert data["triples_searched"] == 3871
    assert [tuple(t) for t in data["triples_found"]] == list(TRIVIAL_TRIPLES)
    assert len(data["classes"]) == 4
    assert all(c["status"] == "PASS" for c in data["checks"])


def test_verifier_enumerates_the_box_once(monkeypatch):
    calls = []
    enumerate_box = search.admissible_exponents

    def counting(*args):
        calls.append(args)
        return enumerate_box(*args)

    monkeypatch.setattr(search, "admissible_exponents", counting)
    assert verify_theorem().triples_searched == 3871
    assert len(calls) == 1


def test_verifier_lifts_the_series_roots_once(monkeypatch):
    # The verifier and every valuation check read one root table: a cold
    # run makes one Hensel lift for each of its two table orders (12 and 8,
    # lifted two orders deeper), a warm run none.
    lifts = []
    original = laurent.hensel_lift

    def counting(order):
        lifts.append(order)
        return original(order)

    monkeypatch.setattr(laurent, "hensel_lift", counting)
    valuations.clear_caches()
    verify_theorem()
    assert lifts == [14, 10]
    lifts.clear()
    verify_theorem()
    assert lifts == []


def test_tampered_square_row_is_caught_at_the_residual_check(monkeypatch):
    # The residual check reads S^2 from the root table: one wrong term in
    # the first root's S^2 row must turn it red, with S itself untouched.
    original = valuations._root_powers

    def tampered(order):
        rows = list(original(order))
        _, s, s2, s3 = rows[0]
        rows[0] = (None, s, s2 + laurent.monomial(s2.lead + 1, s2.order), s3)
        return tuple(rows)

    monkeypatch.setattr(valuations, "_root_powers", tampered)
    with pytest.raises(ReproductionFailure) as exc_info:
        verify_theorem()
    status = {c.name: c.status for c in exc_info.value.certificate.checks}
    assert status["roots-residuals-vanish"] == "FAIL"
    assert status["roots-match-expansions"] == "PASS"


def test_tampered_rewrite_rule_is_caught_at_the_siegel_check():
    original = quartic.REWRITE_ROW
    quartic.REWRITE_ROW = (RatFunc(-2), RatFunc(-LAM), RatFunc(6), RatFunc(LAM))
    try:
        with pytest.raises(ReproductionFailure) as exc_info:
            verify_theorem()
        cert = exc_info.value.certificate
        assert cert is not None
        assert not cert.passed
        assert "siegel-identity" in cert.failed_names
        # N(alpha) is the determinant of multiplication by alpha, i.e. the
        # constant term 2 of the tampered quartic, and N(x - alpha*y) no
        # longer equals F(x, y): both norm checks see the broken row.
        status = {c.name: c.status for c in cert.checks}
        assert status["norm-alpha"] == "FAIL"
        assert status["solution-classes"] == "FAIL"
        # Every check evaluates under this ring: the failures are FAIL.
        assert all(c.status in ("PASS", "FAIL") for c in cert.checks)
    finally:
        quartic.REWRITE_ROW = original
    # the restored ring is healthy again
    assert verify_theorem().passed


def test_all_zero_rewrite_rule_is_caught_at_the_search_check():
    # alpha^4 = 0 makes alpha a zero divisor: the unit inverses, and so
    # the scan's tables, cannot be built.
    original = quartic.REWRITE_ROW
    quartic.REWRITE_ROW = (RatFunc(0),) * 4
    try:
        with pytest.raises(ReproductionFailure) as exc_info:
            verify_theorem()
        cert = exc_info.value.certificate
        assert "search-trivial-set" in cert.failed_names
        scan = next(c for c in cert.checks if c.name == "search-trivial-set")
        assert "SingularSystem" in scan.detail
        assert cert.triples_found == []
        # With no confirmed hit, the checks about the hits cannot pass.
        assert "found-units-exact" in cert.failed_names
        assert "found-heights-within-bound" in cert.failed_names
        # A check that raised reads ERROR; one that evaluated to false, FAIL.
        status = {c.name: c.status for c in cert.checks}
        assert {n for n, s in status.items() if s == "ERROR"} == {
            "inverse-alpha", "conjugates-are-roots",
            "galois-composition", "siegel-identity", "unit-product-formula",
            "conjugate-ratio-height", "search-trivial-set",
        }
        # N(alpha) = det(x -> alpha*x) = 0 evaluates: a zero norm is a FAIL.
        assert {n for n, s in status.items() if s == "FAIL"} == {
            "rewrite-rule", "inverse-alpha-plus-1", "norm-alpha", "found-units-exact",
            "found-heights-within-bound", "solution-classes",
        }
        assert all(
            "SingularSystem" in c.detail for c in cert.checks if c.status == "ERROR"
        )
    finally:
        quartic.REWRITE_ROW = original
    assert verify_theorem().passed
