"""The exponent-triple search and the end-to-end certificate.

The enumeration oracle is a direct brute-force loop over the search box,
written before anything else is trusted. The scan's integer image is
checked against the images of exact units (up to the one nonzero factor
the image leaves), its two linear forms per t against full products in
that image, and a false survivor of the scan must be dropped by the exact
confirmation; the scan's result must not depend on the evaluation point
LAM0.  The certificate is exercised clean, byte-identical at three
working orders, with one wrong term in the root table's S^2 row or in
alpha3's row, or alpha3 built wrong (caught at the residual check), with
an even term in an odd root or roots that break the lam -> -lam
symmetry (caught at the discriminant check), with two corrupted rewrite
rules (one caught at the Siegel check with every check evaluating, one
whose singular ring turns the checks that cannot evaluate to ERROR), and
with tampered conjugate tables (sigma2 and sigma4 swapped, caught at the
Siegel check alone; a perturbed cube row, caught at the Galois
composition).  The
Siegel check's one sum G stands for every linear beta: the sums of three
sampled betas, formed the long way, must equal x*sum(diff_i) - y*G.
"""

import random
from fractions import Fraction

import pytest

import conftest

from thueff import laurent, polynomials, quartic, search, valuations
from thueff.bounds import EXPONENT_BUDGET
from thueff.cli import render_json
from thueff.errors import NotMonic, ReproductionFailure
from thueff.polynomials import LAM, Poly, RatFunc
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


def test_admissible_box_is_a_new_list_on_every_call():
    # the box is enumerated once per budget; a caller that edits its list
    # edits its own copy, never the next caller's
    for budget in (0, 3, 10):
        first = admissible_exponents(budget)
        first.append((99, 99, 99))
        first[0] = (-99, -99, -99)
        again = admissible_exponents(budget)
        assert again is not first
        assert again == brute_force_box(budget), budget
    with pytest.raises(ValueError):
        admissible_exponents(-1)


# -- the integer image used by the scan ----------------------------------------------


def test_residue_image_matches_scan_tables():
    # The image drops each element's denominator and canonical content, so the
    # table product and the exact unit's image agree up to one nonzero factor.
    row, (t0, t1, t2) = search._power_tables(2)
    for r in range(-2, 3):
        for s in range(-2, 3):
            for t in range(-2, 3):
                product = quartic._image_mul(quartic._image_mul(t0[r], t1[s], row), t2[t], row)
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
        (r, s, t): quartic._image_mul(quartic._image_mul(t0[r], t1[s], row), t2[t], row)
        for r, s, t in admissible_exponents(budget)
    }


def test_scan_linear_forms_match_the_full_product_on_the_box():
    route = _full_product_route(EXPONENT_BUDGET)
    row, (t0, t1, t2) = search._power_tables(EXPONENT_BUDGET)
    forms = search._linear_forms(row, t2)
    for (r, s, t), image in route.items():
        x = quartic._image_mul(t0[r], t1[s], row)
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


@pytest.mark.parametrize("lam0", [0, 2, 7, 1234567])
def test_search_does_not_depend_on_lam0(lam0, monkeypatch):
    # Evaluation at any integer is a ring homomorphism and every survivor
    # is confirmed exactly, so LAM0 bears on cost alone.  At 0 the image
    # keeps 20 triples, and the exact confirmation drops 16 of them.
    monkeypatch.setattr(search, "LAM0", lam0)
    survivors = search._scan_chunk((EXPONENT_BUDGET, search._box(EXPONENT_BUDGET)))
    assert len(survivors) == (20 if lam0 == 0 else 4)
    assert search_trivial_units() == list(TRIVIAL_TRIPLES)


def test_scan_tables_follow_a_changed_lam0(monkeypatch):
    # The scan's tables are images at LAM0: after a scan at the shipped
    # LAM0, a scan at 0 must build them anew, with no hand-cleared cache.
    box = search._box(EXPONENT_BUDGET)
    assert search._scan_chunk((EXPONENT_BUDGET, box)) == list(TRIVIAL_TRIPLES)
    kept = search._scan_cache
    monkeypatch.setattr(search, "LAM0", 0)
    assert search._scan_cache is kept
    assert len(search._scan_chunk((EXPONENT_BUDGET, box))) == 20
    monkeypatch.undo()
    assert search._scan_chunk((EXPONENT_BUDGET, box)) == list(TRIVIAL_TRIPLES)


def test_shipped_lam0_keeps_exactly_the_four_trivial_triples_in_the_image():
    for budget in (10, 14):
        assert search._scan_chunk((budget, search._box(budget))) == list(TRIVIAL_TRIPLES)


def test_scan_refuses_a_rewrite_row_outside_z_lam(monkeypatch):
    # The image is a ring homomorphism only while f is monic over Z[lam].
    row = (RatFunc(-1) / 2, RatFunc(-LAM), RatFunc(6), RatFunc(LAM))
    monkeypatch.setattr(quartic, "REWRITE_ROW", row)
    with pytest.raises(NotMonic):
        search._scan_chunk((1, [(0, 0, 0)]))


def test_scan_tables_are_built_once_per_ring_and_limit(monkeypatch):
    # ``_power_tables`` runs once for two scans under one ring; a swapped
    # REWRITE_ROW and ``quartic.clear_caches()`` each build the tables anew,
    # and a scan from the kept tables keeps what a fresh build keeps
    builds = []
    build = search._power_tables

    def counting(limit):
        builds.append(limit)
        return build(limit)

    monkeypatch.setattr(search, "_power_tables", counting)
    monkeypatch.setattr(search, "_scan_cache", None)
    box = admissible_exponents(EXPONENT_BUDGET)
    healthy = search._scan_chunk((EXPONENT_BUDGET, box))
    assert search._scan_chunk((EXPONENT_BUDGET, box)) == healthy
    assert builds == [EXPONENT_BUDGET]
    quartic.clear_caches()
    assert search._scan_chunk((EXPONENT_BUDGET, box)) == healthy
    assert builds == [EXPONENT_BUDGET] * 2
    tampered = (RatFunc(-2), RatFunc(-LAM), RatFunc(6), RatFunc(LAM))
    for row in (tampered, quartic.REWRITE_ROW[:2] + quartic.REWRITE_ROW[2:]):
        monkeypatch.setattr(quartic, "REWRITE_ROW", row)
        del builds[:]
        for budget in range(EXPONENT_BUDGET + 1):
            limit, triples = max(budget, 1), admissible_exponents(budget)
            kept = search._scan_chunk((limit, triples))
            assert search._scan_chunk((limit, triples)) == kept
            search._scan_cache = None
            assert search._scan_chunk((limit, triples)) == kept, (row, budget)
        # one build on the swap, then one per new limit and per fresh build
        assert builds == [1, 1, 1] + [b for b in range(2, EXPONENT_BUDGET + 1) for _ in "ab"]
    # the equal copy of the healthy row keeps the healthy survivors
    assert kept == healthy


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
    # The scan walks (r, s) -> (r, s + 1) by one multiplication by alpha and
    # forms a full product elsewhere; in every order below -- runs of s
    # ascending, descending, interleaved across t, with gaps, shuffled, in
    # chunks -- it keeps exactly the triples whose full product has
    # c2 = c3 = 0, in the order given.
    route = _full_product_route(EXPONENT_BUDGET)
    box = admissible_exponents(EXPONENT_BUDGET)
    shuffled = box[:]
    rng.shuffle(shuffled)
    orders = [
        box[::-1],
        sorted(box, key=lambda tr: (tr[2], tr[0], tr[1])),
        sorted(box, key=lambda tr: (tr[0], -tr[1], tr[2])),
        [tr for tr in box if tr[1] % 2 == 0],
        shuffled,
    ]
    for order in orders:
        expect = [tr for tr in order if route[tr][2:] == (0, 0)]
        assert search._scan_chunk((EXPONENT_BUDGET, order)) == expect
    chunks = [shuffled[i:i + 101] for i in range(0, len(shuffled), 101)]
    found = [tr for chunk in chunks for tr in search._scan_chunk((EXPONENT_BUDGET, chunk))]
    assert sorted(found) == list(TRIVIAL_TRIPLES)


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


@pytest.mark.parametrize("order", [0, -3, 1025])
def test_verify_refuses_the_orders_the_cli_refuses(order):
    # 1..PRECISION_CAP, as ``--order``: 0 and -3 once ran silently at depth
    # 8, and 1025 ran past the cap in process.
    with pytest.raises(ValueError, match="1..1024"):
        verify_theorem(order=order)


@pytest.mark.parametrize("jobs", [0, -3])
def test_verify_and_the_scan_refuse_fewer_than_one_job(monkeypatch, jobs):
    # As ``--jobs``: both once ran silently as one job.  The verifier
    # refuses before its first check reads the root table, so the refusal
    # is not turned into an ERROR check.
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        search_trivial_units(jobs=jobs)

    def no_check(order):
        raise AssertionError("a check ran")

    monkeypatch.setattr(valuations, "_root_powers", no_check)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        verify_theorem(jobs=jobs)


def test_verify_passes_at_order_one():
    cert = verify_theorem(order=1)
    assert cert.passed and len(cert.checks) == 23
    assert render_json(cert.to_json()) == render_json(verify_theorem().to_json())


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


def test_budget_box_turns_red_on_a_triple_outside_the_box(monkeypatch):
    enumerate_box = search.admissible_exponents
    monkeypatch.setattr(
        search, "admissible_exponents", lambda budget: enumerate_box(budget) + [(11, -11, 0)]
    )
    with pytest.raises(ReproductionFailure) as exc_info:
        verify_theorem()
    cert = exc_info.value.certificate
    assert "budget-box" in cert.failed_names
    check = next(c for c in cert.checks if c.name == "budget-box")
    assert check.detail == "3872 admissible triples at budget 10"


def _agree_by_fractions(a, b):
    """The common-window comparison one ``Fraction`` per exponent and side."""
    lo, hi = min(a.lead, b.lead), min(a.order, b.order)
    return hi > lo and all(a.coeff_at(e) == b.coeff_at(e) for e in range(lo, hi))


def test_series_agree_on_common_window_pinned():
    agree = search._series_agree_on_common_window
    half = Fraction(1, 2)
    # equal leads, one window longer: only the common range counts
    a = laurent.LaurentSeries(-1, [1, 2, 3], 2)
    assert agree(a, laurent.LaurentSeries(-1, [1, 2], 1))
    assert agree(a, laurent.LaurentSeries(-1, [1, 2, 3, 4], 3))
    # leads that differ: the lower lead's term meets a zero
    assert not agree(a, laurent.LaurentSeries(0, [2, 3], 2))
    assert not agree(laurent.LaurentSeries(0, [2, 3], 2), a)
    assert not agree(laurent.monomial(2, 8), laurent.zero_to_order(8))
    # unequal denominators, equal values on the common range
    b = laurent.LaurentSeries(0, [half, 1, Fraction(1, 3)], 3)
    c = laurent.LaurentSeries(0, [half, 1, Fraction(1, 3), Fraction(1, 7)], 4)
    assert b._w._d != c._w._d and agree(b, c) and agree(c, b)
    assert agree(b, laurent.LaurentSeries(0, [half, 1], 2))
    # one coefficient changed at the last common exponent
    assert not agree(b, laurent.LaurentSeries(0, [half, 1, Fraction(1, 3) + 1, 9], 4))
    assert not agree(c, laurent.LaurentSeries(0, [half, 1, Fraction(1, 3) + half], 3))
    # an empty common range never agrees
    assert not agree(laurent.zero_to_order(3), laurent.zero_to_order(3))
    assert not agree(laurent.LaurentSeries(4, [1], 5), laurent.zero_to_order(4))


def test_series_agree_on_common_window_matches_fractions():
    rng = random.Random(20261020)
    for _ in range(400):
        a = conftest.rand_series(rng)
        b = conftest.rand_series(rng) if rng.randrange(3) else a
        if rng.randrange(2):  # share a prefix, then differ or stop early
            k = rng.randint(1, len(a.coeffs))
            tail = [conftest.rand_fraction(rng) for _ in range(rng.randint(0, 3))]
            b = laurent.LaurentSeries(a.lead, list(a.coeffs[:k]) + tail, a.lead + k + len(tail))
        if rng.randrange(4) == 0:
            b = b.truncate(rng.randint(b.lead - 2, b.order))
        assert search._series_agree_on_common_window(a, b) == _agree_by_fractions(a, b), (a, b)
    # the verifier's own operands at order 128
    rows = valuations._root_powers(136)
    roots = tuple(row[1].truncate(132) for row in rows)
    det = valuations.root_difference_product(roots)
    det_sq = det * det
    disc = laurent.expand_ratfunc(RatFunc(4 * (LAM * LAM + 16) ** 3), det_sq.order)
    assert search._series_agree_on_common_window(det_sq, disc) is True
    assert _agree_by_fractions(det_sq, disc)
    last = min(det_sq.order, disc.order) - 1
    bumped = disc + laurent.monomial(last, disc.order)
    assert search._series_agree_on_common_window(det_sq, bumped) is False


def test_verifier_lifts_the_series_roots_once(monkeypatch):
    # The verifier and every valuation check read one root table: a cold
    # run computes the roots once for each of its two table orders (12 and
    # 8), a warm run not at all.
    orders = []
    original = valuations.quartic_roots

    def counting(order):
        orders.append(order)
        return original(order)

    monkeypatch.setattr(valuations, "quartic_roots", counting)
    valuations.clear_caches()
    verify_theorem()
    assert orders == [12, 8]
    orders.clear()
    verify_theorem()
    assert orders == []


def test_cold_verify_forms_no_series_inverse(monkeypatch):
    # The root table comes from the Riccati recurrences alone, and no
    # embedding the verifier forms has a non-constant denominator.
    def refuse(self):
        raise AssertionError("verify formed a series inverse")

    monkeypatch.setattr(laurent.LaurentSeries, "inv", refuse)
    valuations.clear_caches()
    assert verify_theorem(order=128).passed


def test_galois_composition_forms_each_image_once(monkeypatch):
    # The check forms the 4 images sigma_i(sample) and their 16
    # compositions: 20 calls of ``galois`` for the 16 comparisons.  Calls on
    # other elements (the Siegel check's) are not counted.
    sample = quartic.RingElem(1 + 2 * LAM, 3, LAM, 7)
    original = quartic.galois
    mine = {sample} | {original(sample, i) for i in (1, 2, 3, 4)}
    calls = []

    def counting(a, i):
        if a in mine:
            calls.append(i)
        return original(a, i)

    monkeypatch.setattr(quartic, "galois", counting)
    cert = verify_theorem()
    assert {c.name: c.status for c in cert.checks}["galois-composition"] == "PASS"
    assert sorted(calls) == sorted([1, 2, 3, 4] * 5)


# -- the Siegel check ----------------------------------------------------------------------

#: The betas x - alpha*y whose Siegel sums are formed the long way.
_SIEGEL_XY = ((Poly((3,)), Poly((1,))), (LAM, Poly((2,))), (1 + LAM, LAM**2))


def _siegel_sums(order):
    """For each beta of ``_SIEGEL_XY`` at the check's depth: the sampled
    sum of embed_1(b_i)*diff_i over b_i = sigma_i(beta), the same sum as
    x*sum(diff_i) - y*G, and G = the sum for beta = alpha."""
    depth = max(order, 4) + 4
    roots = tuple(row[1].truncate(depth - 4) for row in valuations._root_powers(depth))
    diffs = (roots[1] - roots[2], roots[2] - roots[0], roots[0] - roots[1])

    def siegel_sum(beta):
        terms = [valuations.embed_series(quartic.galois(beta, i), 1, depth) * diff
                 for i, diff in zip((1, 2, 3), diffs)]
        return terms[0] + terms[1] + terms[2]

    g = siegel_sum(quartic.ALPHA)
    total = diffs[0] + diffs[1] + diffs[2]
    for x, y in _SIEGEL_XY:
        xs, ys = laurent.poly_series(x, depth + 8), laurent.poly_series(y, depth + 8)
        yield siegel_sum(quartic.elem_from_xy(x, y)), xs * total - ys * g, g


@pytest.mark.parametrize("order", [8, 128])
def test_siegel_sums_of_the_sampled_betas_are_linear_in_g(order, monkeypatch):
    # galois and embed_series are Q(lam)-linear and fix constants, so each
    # sampled sum is x*sum(diff_i) - y*G, exactly; healthy it is zero to its
    # order, under the -2 row resolved, and G with it.
    for old, new, g in _siegel_sums(order):
        assert (old.lead, old._w, old.order) == (new.lead, new._w, new.order)
        assert not old.resolved and not g.resolved and old.order >= order - 2
    monkeypatch.setattr(
        quartic, "REWRITE_ROW", (RatFunc(-2), RatFunc(-LAM), RatFunc(6), RatFunc(LAM))
    )
    for old, new, g in _siegel_sums(order):
        assert (old.lead, old._w, old.order) == (new.lead, new._w, new.order)
        assert old.resolved and g.resolved and old.order >= order - 2


@pytest.mark.parametrize("order", [8, 128])
def test_siegel_check_embeds_two_differences(order, monkeypatch):
    # G is formed once, as embed_1(sigma_1(alpha) - sigma_3(alpha))*diff_1
    # + embed_1(sigma_2(alpha) - sigma_3(alpha))*diff_2 at the check's
    # depth: two embeddings for every linear beta at once.
    verify_theorem(order=order)
    depth = order + 4
    original = valuations.embed_series
    calls = []

    def counting(a, i, at):
        if at == depth:
            calls.append((a, i))
        return original(a, i, at)

    monkeypatch.setattr(valuations, "embed_series", counting)
    cert = verify_theorem(order=order)
    assert {c.name: c.status for c in cert.checks}["siegel-identity"] == "PASS"
    s1, s2, s3 = (quartic.galois(quartic.ALPHA, i) for i in (1, 2, 3))
    assert calls == [(s1 - s3, 1), (s2 - s3, 1)]


def test_warm_deep_verify_forms_at_most_four_long_packed_products(monkeypatch):
    # The residual check reads f(alpha3) off f(alpha1) and the
    # discriminant check d03 d12 off d01 d23, both by reflection, and G
    # takes two products: a warm order-128 verify packs at most 9
    # products, at most 4 of them at full length (12 and 6 before).
    verify_theorem(order=128)
    original = polynomials._packed_mul_low
    lengths = []

    def counting(a, b, n):
        lengths.append(n)
        return original(a, b, n)

    monkeypatch.setattr(polynomials, "_packed_mul_low", counting)
    assert verify_theorem(order=128).passed
    assert len(lengths) <= 9
    assert sum(n >= 128 for n in lengths) <= 4


def _verify_with_conjugate_powers(edit):
    """The check statuses of a verify whose ``galois`` reads the table of
    conjugate powers as ``edit`` leaves it (a list of [E, powers] rows)."""
    quartic.clear_caches()
    tables = quartic._tables()
    rows = [list(row) for row in tables.conjugate_powers]
    edit(rows)
    vars(tables)["conjugate_powers"] = tuple(map(tuple, rows))
    try:
        with pytest.raises(ReproductionFailure) as exc_info:
            verify_theorem()
    finally:
        quartic.clear_caches()
    return {c.name: c.status for c in exc_info.value.certificate.checks}


def test_swapped_conjugates_are_caught_at_the_siegel_check_alone():
    # sigma2 <-> sigma4 is the automorphism g -> g^-1 of the cyclic Galois
    # group: the composition table still holds, and only the Siegel check,
    # which compares the ring's conjugates with the series roots, sees it.
    def swap(rows):
        rows[1], rows[3] = rows[3], rows[1]

    status = _verify_with_conjugate_powers(swap)
    assert status["siegel-identity"] == "FAIL"
    assert {n for n, s in status.items() if s != "PASS"} == {"siegel-identity"}
    assert verify_theorem().passed


def test_perturbed_cube_row_is_caught_at_the_galois_composition_check():
    def bump(rows):
        e, (p1, p2, p3) = rows[1]
        cube = [list(n) for n in p3]
        cube[0][0] += 1
        rows[1] = [e, (p1, p2, cube)]

    status = _verify_with_conjugate_powers(bump)
    assert status["galois-composition"] == "FAIL"
    assert verify_theorem().passed


def _statuses_with_root_rows(monkeypatch, edit):
    """The check statuses of a verify whose root table rows are ``edit``ed
    (a list of the four (None, S, S^2, S^3) rows, at the table's order)."""
    original = valuations._root_powers

    def tampered(order):
        rows = [list(row) for row in original(order)]
        edit(rows)
        return tuple(map(tuple, rows))

    monkeypatch.setattr(valuations, "_root_powers", tampered)
    with pytest.raises(ReproductionFailure) as exc_info:
        verify_theorem()
    return {c.name: c.status for c in exc_info.value.certificate.checks}


def test_tampered_square_row_is_caught_at_the_residual_check(monkeypatch):
    # The residual check reads S^2 from the root table: one wrong term in
    # the first root's S^2 row must turn it red, with S itself untouched.
    def bump(rows):
        s2 = rows[0][2]
        rows[0][2] = s2 + laurent.monomial(s2.lead + 1, s2.order)

    status = _statuses_with_root_rows(monkeypatch, bump)
    assert status["roots-residuals-vanish"] == "FAIL"
    assert status["roots-match-expansions"] == "PASS"


@pytest.mark.parametrize("power", [1, 2, 3])
def test_tampered_alpha3_row_is_caught_at_the_residual_check(power, monkeypatch):
    # f(alpha3) is alpha1's residual reflected and is not formed: the check
    # first compares alpha3's row with alpha1's reflected, so one wrong term
    # in alpha3's S, S^2 or S^3 turns it red.
    def bump(rows):
        p = rows[2][power]
        rows[2][power] = p + laurent.monomial(p.lead + 5, p.order)

    status = _statuses_with_root_rows(monkeypatch, bump)
    assert status["roots-residuals-vanish"] == "FAIL"
    assert status["roots-match-expansions"] == "PASS"


@pytest.mark.parametrize("root", [1, 3])
def test_even_term_in_an_odd_root_is_caught_at_the_discriminant_check(root, monkeypatch):
    # The discriminant check reads d03 d12 off d01 d23 by lam -> -lam; it
    # first checks that alpha2 and alpha4 are odd in t, so an even-index
    # term added to either turns it red.
    def bump(rows):
        s = rows[root][1]
        rows[root][1] = s + laurent.monomial(4, s.order)

    status = _statuses_with_root_rows(monkeypatch, bump)
    assert status["discriminant-series-crosscheck"] == "FAIL"
    assert status["roots-match-expansions"] == "PASS"


def test_discriminant_check_refuses_roots_that_break_the_symmetry(monkeypatch):
    # Shifting all four roots by 1 leaves every difference, and so the
    # squared product, as it was; but alpha3 is then no longer alpha1
    # reflected, so d03 d12 may not be read off d01 d23, and the check's
    # own symmetry test turns it red.
    def shift(rows):
        for row in rows:
            row[1] = row[1] + laurent.monomial(0, row[1].order)

    status = _statuses_with_root_rows(monkeypatch, shift)
    assert status["discriminant-series-crosscheck"] == "FAIL"


@pytest.mark.parametrize("wrong", ["reflected-wrongly", "one-deep-term"])
def test_alpha3_built_wrong_in_quartic_roots_is_caught_at_the_residual_check(
    wrong, monkeypatch
):
    # alpha3 leaves quartic_roots as alpha1 with its odd-index terms negated
    # (alpha1(-t), which is no root of f), or with its last term off by
    # one; the residual check, whose reflection is its own, turns red.
    original = laurent.quartic_roots

    def built_wrong(order):
        r1, r2, r3, r4 = original(order)
        a = [int(c) for c in (r1 if wrong == "reflected-wrongly" else r3).coeffs]
        if wrong == "reflected-wrongly":
            a[1::2] = [-v for v in a[1::2]]
        else:
            a[-1] += 1
        return r1, r2, laurent.LaurentSeries(0, a, order), r4

    monkeypatch.setattr(valuations, "quartic_roots", built_wrong)
    valuations.clear_caches()
    try:
        with pytest.raises(ReproductionFailure) as exc_info:
            verify_theorem()
    finally:
        monkeypatch.undo()
        valuations.clear_caches()
    status = {c.name: c.status for c in exc_info.value.certificate.checks}
    assert status["roots-residuals-vanish"] == "FAIL"
    assert status["roots-match-expansions"] == (
        "FAIL" if wrong == "reflected-wrongly" else "PASS"
    )
    assert verify_theorem().passed


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
