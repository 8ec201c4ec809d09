"""Arithmetic in the quotient ring Q(lam)[alpha] / (alpha^4 - lam*alpha^3 - 6*alpha^2 + lam*alpha + 1).

Multiplication is the oracle for every claimed inverse (a * a^-1 == 1)
and the minimal polynomial is the oracle for every claimed conjugate
(f(conjugate) == 0); both are asserted before the pinned closed forms.
Seeded random loops exercise the ring axioms, norms, the Galois action
and the Siegel residual at smoke size (full size in the acceptance gate).
The integer kernel is checked against the RatFunc-coefficient schoolbook
kept in ``ring_oracle``, and its canonical form against values built by
different routes.
"""

import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st, target
from sympy.polys.matrices import DomainMatrix

import conftest
import property_suites
import ring_oracle
from thueff import quartic
from thueff.errors import NotMonic, ZeroDivisor
from thueff.polynomials import LAM, ONE as P_ONE, Poly, RatFunc, _int_add, _int_gcd, _int_mul
from thueff.quartic import (
    ALPHA,
    ONE,
    REWRITE_ROW,
    ZERO,
    RingElem,
    conjugates,
    elem_from_xy,
    f_lambda_eval,
    galois,
    min_poly_value,
    norm,
    ring_inv,
    ring_mul,
    ring_pow,
    unit_from_exponents,
)

LAM_RF = RatFunc(LAM)


# -- the rewrite rule and the minimal polynomial ----------------------------------


def test_alpha_fourth_power_rewrites():
    got = ring_mul(ALPHA, ring_pow(ALPHA, 3))
    assert got == RingElem(-1, -LAM_RF, 6, LAM_RF)
    assert got == RingElem(*REWRITE_ROW)


def test_min_poly_kills_alpha():
    assert min_poly_value(ALPHA) == ZERO


def test_roots_solve_the_riccati_equation_in_the_ring():
    # (lam^2 + 16)(alpha^3 - alpha) = (1 + alpha^2) f'(alpha): with
    # df/dlam = X - X^3 it gives dalpha/dlam = (1 + alpha^2)/(lam^2 + 16),
    # the equation ``laurent`` reads its series roots from.
    a2 = ring_mul(ALPHA, ALPHA)
    a3 = ring_mul(a2, ALPHA)
    deriv = a3 * 4 - ring_mul(RingElem(LAM_RF), a2) * 3 - ALPHA * 12 + RingElem(LAM_RF)
    left = ring_mul(RingElem(LAM_RF * LAM_RF + 16), a3 - ALPHA)
    assert left == ring_mul(ONE + a2, deriv)
    assert left != ZERO


def test_identity_element():
    rng = random.Random(20260821)
    for _ in range(50):
        b = conftest.rand_elem(rng)
        assert ring_mul(ONE, b) == b
        assert ring_mul(b, ONE) == b


# -- inverses, with the multiplication oracle first -------------------------------


def test_inverse_of_alpha_plus_one_against_mul_oracle():
    quarter = RatFunc(Poly((Fraction(1, 4),)))
    closed_form = RingElem(
        quarter * RatFunc(Poly((5,))),
        quarter * RatFunc(Poly((-5, 1))),
        quarter * RatFunc(Poly((-1, -1))),
        quarter,
    )
    assert ring_mul(ALPHA + ONE, closed_form) == ONE
    assert ring_inv(ALPHA + ONE) == closed_form


def test_inverse_of_alpha_plus_one_coefficients():
    c0, c1, c2, c3 = ring_inv(ALPHA + ONE).coeffs
    assert c0 == RatFunc(Poly((Fraction(5, 4),)))
    assert c1 == RatFunc(Poly((Fraction(-5, 4), Fraction(1, 4))))
    assert c2 == RatFunc(Poly((Fraction(-1, 4), Fraction(-1, 4))))
    assert c3 == RatFunc(Poly((Fraction(1, 4),)))


def test_inverse_of_alpha_against_mul_oracle():
    # from the minimal polynomial: alpha * (alpha^3 - lam*alpha^2 - 6*alpha + lam) = -1
    cubic = RingElem(LAM_RF, -6, -LAM_RF, 1)
    assert ring_mul(ALPHA, cubic) == -ONE
    assert ring_inv(ALPHA) == -cubic
    assert ring_mul(ALPHA, ring_inv(ALPHA)) == ONE


def test_inverse_of_alpha_minus_one_against_mul_oracle():
    got = ring_inv(ALPHA - ONE)
    assert ring_mul(ALPHA - ONE, got) == ONE
    quarter = RatFunc(Poly((Fraction(1, 4),)))
    closed_form = RingElem(
        quarter * RatFunc(Poly((-5,))),
        quarter * RatFunc(Poly((-5, -1))),
        quarter * RatFunc(Poly((1, -1))),
        quarter,
    )
    assert got == closed_form


def test_inverse_of_one():
    assert ring_inv(ONE) == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisor):
        ring_inv(ZERO)


def test_random_inverses_via_mul_oracle():
    rng = random.Random(20260822)
    for _ in range(100):
        a = conftest.rand_elem(rng, nonzero=True, rational_every=8)
        assert ring_mul(a, ring_inv(a)) == ONE


# -- the Galois action --------------------------------------------------------------


def test_galois_identity_automorphism():
    rng = random.Random(20260823)
    for _ in range(50):
        a = conftest.rand_elem(rng)
        assert galois(a, 1) == a


def test_galois_images_are_roots():
    for i in (1, 2, 3, 4):
        assert min_poly_value(galois(ALPHA, i)) == ZERO


def test_galois_two_is_mobius_image():
    expected = ring_mul(ALPHA - ONE, ring_inv(ALPHA + ONE))
    assert galois(ALPHA, 2) == expected


def test_galois_three_is_negated_inverse():
    assert galois(ALPHA, 3) == RingElem(LAM_RF, -6, -LAM_RF, 1)
    assert galois(ALPHA, 3) == -ring_inv(ALPHA)


def test_galois_composition_on_alpha():
    for i in (1, 2, 3, 4):
        for j in (1, 2, 3, 4):
            k = ((i - 1) + (j - 1)) % 4 + 1
            assert galois(galois(ALPHA, i), j) == galois(ALPHA, k)


def test_galois_bad_index_rejected():
    with pytest.raises(ValueError):
        galois(ALPHA, 5)


def test_conjugates_table_matches_galois():
    table = conjugates()
    assert len(table) == 4
    for i, c in enumerate(table, start=1):
        assert c == galois(ALPHA, i)


# -- construction from (x, y) pairs and the norm form --------------------------------


def test_elem_from_xy_pinned():
    assert elem_from_xy(P_ONE, Poly(())) == ONE
    assert elem_from_xy(Poly(()), Poly((-1,))) == ALPHA
    assert elem_from_xy(LAM, P_ONE) == RingElem(LAM_RF, -1)


def test_norm_of_alpha_is_one():
    assert norm(ALPHA) == RatFunc(1)


def test_norm_of_one_plus_alpha_combination():
    assert norm(elem_from_xy(P_ONE, P_ONE)) == RatFunc(-4)


def test_norm_of_one():
    assert norm(ONE) == RatFunc(1)


def test_f_lambda_eval_pinned():
    assert f_lambda_eval(P_ONE, Poly(())) == RatFunc(1)
    assert f_lambda_eval(P_ONE, Poly((-1,))) == RatFunc(-4)
    assert f_lambda_eval(Poly(()), P_ONE) == RatFunc(1)


def test_coefficients_pinned():
    assert (ALPHA - ONE).coeffs == (RatFunc(-1), RatFunc(1), RatFunc(0), RatFunc(0))
    square = ring_mul(ALPHA - ONE, ALPHA - ONE)
    assert square.coeffs == (RatFunc(1), RatFunc(-2), RatFunc(1), RatFunc(0))


# -- units from exponent triples ------------------------------------------------------


def test_unit_generators():
    assert unit_from_exponents(1, 0, 0) == ALPHA - ONE
    assert unit_from_exponents(0, 1, 0) == ALPHA
    assert unit_from_exponents(0, 0, 1) == ALPHA + ONE
    assert unit_from_exponents(0, 0, 0) == ONE


def test_unit_negative_exponents_invert():
    assert unit_from_exponents(-1, 0, 0) == ring_inv(ALPHA - ONE)
    rng = random.Random(20260824)
    for _ in range(40):
        r, s, t = conftest.rand_exponents(rng, bound=3)
        u = unit_from_exponents(r, s, t)
        v = unit_from_exponents(-r, -s, -t)
        assert ring_mul(u, v) == ONE


def test_ring_pow_edge_cases():
    a = ALPHA + ONE
    assert ring_pow(a, 0) == ONE
    assert ring_pow(a, -2) == ring_mul(ring_inv(a), ring_inv(a))
    with pytest.raises(ZeroDivisor):
        ring_pow(ZERO, -1)


# -- the integer kernel against the RatFunc schoolbook ----------------------------------


def _is_canonical(e: RingElem) -> bool:
    """gcd over Q[lam] of N0..N3 and D is 1, integer content 1, lc(D) > 0."""
    nums, den = e._n, e._d
    if not any(nums):
        return den == (1,)
    g = list(den)
    for n in nums:
        if n:
            g = _int_gcd(g, n)[0]
    flat = [v for n in nums for v in n] + list(den)
    return g == [1] and all(not n or n[-1] for n in nums) and den[-1] > 0 and gcd(*flat) == 1


def test_kernel_matches_ratfunc_oracle():
    rng = random.Random(20261018)
    conj = ring_oracle.conjugates()
    assert tuple(c.coeffs for c in conjugates()) == conj
    rational = 0
    for _ in range(40):
        a = conftest.rand_elem(rng, nonzero=True, rational_every=3)
        b = conftest.rand_elem(rng, rational_every=3)
        rational += len(a._d) > 1
        results = [
            (ring_mul(a, b), ring_oracle.mul(a.coeffs, b.coeffs)),
            (a + b, ring_oracle.add(a.coeffs, b.coeffs)),
            (ring_inv(a), ring_oracle.inv(a.coeffs)),
        ]
        results += [(galois(a, i), ring_oracle.galois(a.coeffs, i, conj)) for i in (2, 3, 4)]
        for got, expect in results:
            assert got.coeffs == expect
            assert _is_canonical(got)
        assert norm(a) == ring_oracle.norm(a.coeffs, conj)
    assert rational >= 5


def _conjugate_product(a):
    """N(a) as the product of the four Galois images of a."""
    prod = a
    for i in (2, 3, 4):
        prod = ring_mul(prod, galois(a, i))
    assert not any(prod._n[1:]), "conjugate product left the base field"
    return prod.c0


def _int_form(x, y):
    """F(x, y) = x^4 - lam x^3 y - 6 x^2 y^2 + lam x y^3 + y^4 on integer lists."""

    def mul(*factors):
        out = [1]
        for f in factors:
            prod = [0] * (len(out) + len(f) - 1)
            for i, u in enumerate(out):
                for j, v in enumerate(f):
                    prod[i + j] += u * v
            out = prod
        return out

    terms = [mul(x, x, x, x), mul([0, -1], x, x, x, y), mul([-6], x, x, y, y),
             mul([0, 1], x, y, y, y), mul(y, y, y, y)]
    out = [sum(t[k] for t in terms if k < len(t)) for k in range(max(map(len, terms)))]
    return RatFunc(Poly(out))


def test_norm_is_the_conjugate_product():
    # N(a) = det(x -> a*x) / D^4 against the product of the conjugates and
    # the RatFunc schoolbook, on elements with and without a polynomial D.
    rng = random.Random(20261019)
    conj = ring_oracle.conjugates()
    rational = 0
    for _ in range(30):
        a = conftest.rand_elem(rng, nonzero=True, rational_every=2)
        rational += len(a._d) > 1
        n = norm(a)
        assert n == _conjugate_product(a) == ring_oracle.norm(a.coeffs, conj)
        assert n * norm(ring_inv(a)) == RatFunc(1)
    assert rational >= 8
    assert norm(ZERO) == RatFunc(0)
    for _ in range(10):
        r, s, t = conftest.rand_exponents(rng, bound=2)
        assert norm(unit_from_exponents(r, s, t)) == RatFunc(Fraction(-4) ** (r + t))
    for _ in range(10):
        x = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
        y = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
        assert norm(elem_from_xy(Poly(x), Poly(y))) == _int_form(x, y)


def test_equal_values_have_one_form():
    rng = random.Random(20261019)
    factor = list(conftest.rand_poly(rng, max_deg=2, nonzero=True)._n) + [1]
    for _ in range(30):
        a = conftest.rand_elem(rng, rational_every=3)
        b = conftest.rand_elem(rng, nonzero=True, rational_every=3)
        routes = [
            ring_mul(ring_mul(a, b), ring_inv(b)),
            quartic._canon([_int_mul(n, factor) for n in a._n], _int_mul(a._d, factor)),
            quartic._canon([[-v for v in n] for n in a._n], [-v for v in a._d]),
            quartic._canon([[6 * v for v in n] for n in a._n], [6 * v for v in a._d]),
            (a * Poly(factor)) * RatFunc(1, Poly(factor)),
            (a * 6) * Fraction(1, 6),
            -(-a),
            RingElem(*a.coeffs),
        ]
        for e in routes:
            assert e == a and hash(e) == hash(a)
            assert e._n == a._n and e._d == a._d


def test_canonical_zero_one_and_a_single_rational_slot():
    a = ALPHA + 3
    assert (a - a)._n == ((), (), (), ()) and (a - a)._d == (1,)
    assert a * 0 == ZERO == RingElem(RatFunc(0), 0, Poly(()), Fraction(0))
    assert hash(a - a) == hash(ZERO)
    assert ONE._n == ((1,), (), (), ()) and ONE._d == (1,)
    assert RingElem(RatFunc(Poly((2,)), Poly((2,))), 0, 0, 0) == ONE
    # (lam + 1) / (lam^2 - 1) in slot 2 only: the form is 1 / (lam - 1).
    e = RingElem(0, 0, RatFunc(LAM + 1, LAM * LAM - 1), 0)
    assert e._n == ((), (), (1,), ()) and e._d == (-1, 1)
    assert e.coeffs == (RatFunc(0), RatFunc(0), RatFunc(1, LAM - 1), RatFunc(0))
    assert e == RingElem(c2=RatFunc(2, 2 * LAM - 2))
    # A half in one slot and polynomials elsewhere: one integer denominator.
    h = RingElem(LAM, Fraction(1, 2), 0, -1)
    assert h._n == ((0, 2), (1,), (), (-2,)) and h._d == (2,)
    assert str(h) == "(0, 1 | 1) + (1/2 | 1)·α + (-1 | 1)·α^3"


def test_a_ratfunc_is_held_in_the_form_of_one_ring_coordinate():
    # RatFunc and RingElem share one canonicalizer: a RatFunc in a slot of
    # an element keeps its own integer tuples, and the slot reads it back.
    rng = random.Random(20261020)
    kinds = set()

    def rand_side(kind):
        if kind == "zero":
            return Poly(())
        while True:
            width = 1 if kind == "constant" else rng.randint(2, 4)
            p = Poly([conftest.rand_fraction(rng) for _ in range(width)])
            if p.degree == width - 1:
                return p

    for _ in range(90):
        num_kind = rng.choice(("zero", "constant", "polynomial"))
        den_kind = rng.choice(("constant", "polynomial"))
        q = RatFunc(rand_side(num_kind), rand_side(den_kind))
        kinds.add((num_kind, len(q._d) > 1))
        for slot in range(4):
            e = RingElem(*[q if i == slot else 0 for i in range(4)])
            assert e._n[slot] == q._n and e._d == q._d
            assert (e.c0, e.c1, e.c2, e.c3)[slot] == q == e.coeffs[slot]
        assert _is_canonical(RingElem(q, 0, 0, 0))
        # Beside another coordinate the denominator is shared, and each slot
        # still reads its own canonical form back.
        r = RatFunc(rand_side("polynomial"), rand_side(den_kind))
        for got, want in zip(RingElem(q, r, 0, q).coeffs, (q, r, RatFunc(0), q)):
            assert (got._n, got._d) == (want._n, want._d)
        # Built another way: through the Poly views, and with a common factor.
        factor = rand_side("polynomial")
        for other in (RatFunc(q.num, q.den), RatFunc(q.num * factor, q.den * factor)):
            assert other == q and hash(other) == hash(q)
            assert other._n == q._n and other._d == q._d
    assert kinds >= {("zero", False), ("constant", False), ("constant", True),
                     ("polynomial", False), ("polynomial", True)}
    half = RatFunc(LAM + 1, 2 * LAM + 2)
    assert half == RatFunc(1, 2) and hash(half) == hash(RatFunc(1, 2))
    assert (half._n, half._d) == ((1,), (2,))
    assert half.num == Poly((Fraction(1, 2),)) and half.den == P_ONE


def test_an_element_of_q_lam_equals_and_hashes_like_its_coefficient():
    for c in (0, 1, -3, Fraction(-3, 4), Poly((Fraction(1, 2),)), LAM + 1, RatFunc(1, LAM + 2)):
        e = RingElem(c)
        for form in (c, RatFunc(c)):
            assert e == form and form == e and not (e != form)
            assert hash(e) == hash(form) and len({e, form}) == 1
    assert ONE == 1 and 1 == ONE and RingElem(1) == RatFunc(1) == ONE
    # an element off the base field, or another scalar, is unequal
    assert ALPHA != 0 and ALPHA + 1 != 1 and ONE != 2 and ONE != RatFunc(LAM)
    assert ONE != "1" and ONE != 1.0


def test_swapped_rewrite_row_is_never_served_stale(monkeypatch):
    # Every table derived from the row is cached under the row's value; a
    # swapped REWRITE_ROW must replace them at once, with no clear_caches().
    def healthy():
        assert ring_mul(ALPHA, ring_pow(ALPHA, 3)) == RingElem(*REWRITE_ROW)
        assert conjugates()[1] == ring_mul(ALPHA - 1, ring_inv(ALPHA + 1))
        assert unit_from_exponents(-1, 0, 0) == ring_inv(ALPHA - 1)

    healthy()  # also warms the conjugates and the unit powers
    for row in ((RatFunc(-2), RatFunc(-LAM), RatFunc(6), RatFunc(LAM)), (RatFunc(0),) * 4):
        monkeypatch.setattr(quartic, "REWRITE_ROW", row)
        assert ring_mul(ALPHA, ring_pow(ALPHA, 3)) == RingElem(*quartic.REWRITE_ROW)
        if any(row):
            assert conjugates()[1] == ring_mul(ALPHA - 1, ring_inv(ALPHA + 1))
            assert unit_from_exponents(-1, 0, 0) == ring_inv(ALPHA - 1)
    assert ring_mul(ALPHA, ring_pow(ALPHA, 3)) == ZERO
    monkeypatch.undo()
    healthy()


def test_rewrite_row_outside_z_lam_is_refused(monkeypatch):
    # f must be monic over Z[lam], so that folding never leaves Z[lam].
    for row in ((RatFunc(-1) / 2, RatFunc(-LAM), RatFunc(6), RatFunc(LAM)),
                (RatFunc(-1), RatFunc(1, LAM), RatFunc(6), RatFunc(LAM))):
        monkeypatch.setattr(quartic, "REWRITE_ROW", row)
        with pytest.raises(NotMonic):
            ring_mul(ALPHA, ALPHA)
        with pytest.raises(NotMonic):
            ring_inv(ALPHA + 1)
        with pytest.raises(NotMonic):
            conjugates()
    monkeypatch.undo()
    assert ring_mul(ALPHA, ring_pow(ALPHA, 3)) == RingElem(*REWRITE_ROW)


# -- the integer image of the kernels ------------------------------------------------


def _read_back(n, bits):
    return quartic._digits(quartic._at(n, 1 << bits), bits)


def _trimmed(n):
    n = list(n)
    while n and not n[-1]:
        n.pop()
    return n


@pytest.mark.parametrize("bits", [1, 2, 3, 8, 30, 64, 257])
def test_image_digits_round_trip_at_the_extremes(bits):
    # Balanced base-2^bits digits hold [-2^(bits-1), 2^(bits-1)): the largest
    # sizes of either sign, mixed signs, inner and trailing zeros read back.
    top, low = (1 << (bits - 1)) - 1, -(1 << (bits - 1))
    for n in ([], [0], [top], [-top], [low], [top, -top, 0, top], [-top, top, top, -top],
              [0, 0, top, 0], [low, top, low], [top] * 13, [-top] * 13):
        assert _read_back(n, bits) == _trimmed(n), n


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 255, 256, 2**64 - 1, 2**64, 10**40])
def test_image_bits_hold_every_coefficient_within_the_bound(bound):
    # The kernels size their image from a proven coefficient bound, so every
    # coefficient of size up to the bound must read back.
    bits, _ = quartic._images(bound)
    for n in ([bound], [-bound], [bound, -bound, 0, bound], [-bound] * 3 + [bound] * 3):
        assert _read_back(n, bits) == _trimmed(n), n


#: A rewrite row in Z[lam] with one 10^20-sized entry at alpha^3: folding
#: then grows a product with all-positive coefficients almost as fast as the
#: bound in ``ring_mul`` allows.
_ALPHA3_ROW = (RatFunc(1), RatFunc(0), RatFunc(0), RatFunc(10**20))
#: A rewrite row in Z[lam] with 10^20-sized entries of both signs.
_MIXED_ROW = (RatFunc(7 - 10**20), RatFunc(10**20 * LAM), RatFunc(3), RatFunc(10**20 * LAM + 1))


def _large_elements():
    """Numerators of lam-degree 12 with 256-bit coefficients: one with every
    coefficient positive (the closest to the kernels' bounds), and seeded
    random ones, one of them over a non-constant denominator."""
    rng = random.Random(20261019)
    top = 2**256 - 1

    def big():
        return Poly([rng.randint(-top, top) for _ in range(12)] + [top])

    positive = Poly([top] + [0] * 11 + [top])
    return [
        RingElem(positive, positive, positive, positive),
        RingElem(big(), 1, 0, 0),
        RingElem(big(), big(), big(), big()) * RatFunc(1, LAM + 3),
    ]


@pytest.mark.parametrize("row", [REWRITE_ROW, _ALPHA3_ROW, _MIXED_ROW],
                         ids=["true-row", "alpha3-row", "mixed-row"])
def test_image_kernels_match_the_oracle_on_large_numerators(monkeypatch, row):
    monkeypatch.setattr(quartic, "REWRITE_ROW", row)
    elems = _large_elements()
    for a in elems:
        for b in elems:
            assert ring_mul(a, b).coeffs == ring_oracle.mul(a.coeffs, b.coeffs)
        assert norm(a) == ring_oracle.det_norm(a.coeffs)
        if row is REWRITE_ROW:
            assert norm(a) == ring_oracle.norm(a.coeffs)
        assert ring_inv(a).coeffs == ring_oracle.inv(a.coeffs)


_SYM_LAM = sympy.Symbol("lam")
_QQ_LAM = sympy.QQ.frac_field(_SYM_LAM)


def _sym_fraction(n, d=(1,)):
    """The Z[lam] lists n / d as an element of sympy's QQ(lam)."""
    field = _QQ_LAM.field
    return field.new(*(field.ring.from_list(list(x)[::-1]) for x in (n, d)))


@st.composite
def _elements(draw, degree=8, bits=256):
    """Numerators N0..N3 in Z[lam] of degree 0-``degree`` (some zero, N0
    never), with coefficients of 1-``bits`` bits, each list of one sign or
    alternating, over D = 1 or a non-constant D."""
    bits = draw(st.integers(1, bits))
    size = st.integers(1 << (bits - 1), (1 << bits) - 1)

    def numerator(may_vanish):
        if may_vanish and draw(st.integers(0, 3)) == 0:
            return []
        deg = draw(st.integers(0, degree))
        sign, alternate = draw(st.sampled_from((1, -1))), draw(st.booleans())
        mags = draw(st.lists(size, min_size=deg + 1, max_size=deg + 1))
        return [sign * (-1) ** (i * alternate) * m for i, m in enumerate(mags)]

    nums = [numerator(k > 0) for k in range(4)]
    if draw(st.booleans()):
        den = [1]
    else:
        den = draw(st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda d: d[-1]))
    return nums, den


def test_cramer_against_sympy():
    # an outside oracle for ``_cramer``: a * ring_inv(a) == 1, and norm(a)
    # against sympy's Bareiss determinant (``ddm_idet``) of the matrix of
    # multiplication by a over QQ(lam), whose column k is a * alpha^k
    row = [_sym_fraction(r._n, r._d) for r in REWRITE_ROW]
    zero, one = _QQ_LAM.zero, _QQ_LAM.one
    times_alpha = [[zero] * 3 + [row[0]]] + [
        [one if j == i - 1 else zero for j in range(3)] + [row[i]] for i in (1, 2, 3)
    ]
    seen = set()  # (non-constant D, coefficients above 128 bits)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(_elements())
    def check(case):
        nums, den = case
        a = quartic._canon([list(n) for n in nums], list(den))
        assert ring_mul(ring_inv(a), a) == ONE
        column = [_sym_fraction(n, den) for n in nums]
        cols = []
        for _ in range(4):
            cols.append(column)
            column = [sum((times_alpha[i][j] * column[j] for j in range(4)), zero) for i in range(4)]
        matrix = DomainMatrix([[cols[k][i] for k in range(4)] for i in range(4)], (4, 4), _QQ_LAM)
        got = norm(a)
        assert matrix.to_dense().rep.det() == _sym_fraction(got._n, got._d)
        seen.add((len(den) > 1, max(abs(v) for n in nums for v in n).bit_length() > 128))

    check()
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


_SYM_ALPHA = sympy.Symbol("alpha")


def _sym_element(a):
    """a's numerators as a polynomial in alpha over QQ(lam), and D."""
    nums = [_sym_fraction(n) for n in a._n[::-1]]
    return sympy.Poly.from_list(nums, _SYM_ALPHA, domain=_QQ_LAM), _sym_fraction(a._d)


def _sym_coordinates(p, den):
    """The four power-basis coordinates of p / den, p of degree < 4 in alpha."""
    coords = [c / den for c in p.rep.to_list()[::-1]]
    return coords + [_QQ_LAM.zero] * (4 - len(coords))


def test_ring_mul_and_galois_against_sympy():
    # an outside oracle for ``ring_mul`` and ``galois``: a product is the
    # remainder modulo f over QQ(lam), and sigma_i substitutes alpha ->
    # sigma_i(alpha), each power reduced modulo f.  f is written from the
    # paper's equation, and sympy inverts alpha + 1 and alpha modulo f.
    lam, x = _SYM_LAM, _SYM_ALPHA
    f = sympy.Poly(x**4 - lam * x**3 - 6 * x**2 + lam * x + 1, x, domain=_QQ_LAM)
    alpha = sympy.Poly(x, x, domain=_QQ_LAM)
    sigma2 = ((alpha - 1) * (alpha + 1).invert(f)).rem(f)
    sigmas = {2: sigma2, 3: -alpha.invert(f), 4: -sigma2.invert(f)}
    powers = {i: [(s**k).rem(f) for k in (1, 2, 3)] for i, s in sigmas.items()}
    seen = set()  # (non-constant D, coefficients above 256 bits)

    @settings(derandomize=True, database=None, max_examples=24, deadline=None)
    @given(st.tuples(_elements(16, 512), _elements(16, 512)))
    def check(cases):
        a, b = (quartic._canon([list(n) for n in nums], list(den)) for nums, den in cases)
        (pa, da), (pb, db) = _sym_element(a), _sym_element(b)
        want = _sym_coordinates((pa * pb).rem(f), da * db)
        assert [_sym_fraction(c._n, c._d) for c in ring_mul(a, b).coeffs] == want
        n0, n1, n2, n3 = (sympy.Poly([_sym_fraction(v)], x, domain=_QQ_LAM) for v in a._n)
        for i, (p1, p2, p3) in powers.items():
            want = _sym_coordinates(n0 + n1 * p1 + n2 * p2 + n3 * p3, da)
            assert [_sym_fraction(c._n, c._d) for c in galois(a, i).coeffs] == want
        for e in (a, b):
            seen.add((len(e._d) > 1, max(map(abs, chain(*e._n))).bit_length() > 256))

    check()
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


# -- worst cases of the image widths ---------------------------------------------------

#: Kernel -> (input, slack): the input whose read-back comes closest to the
#: width its proven bound gives, and by how many bits it stays below.  A
#: bound cut by more than the slack reads this input back wrong; a cut by
#: less changes the slack.  Found by the ``target()`` search below, and by
#: exhaustive passes that found none closer: ``_cramer`` and ``galois`` over
#: every element whose coordinates are 0 or +-lam^m (m <= 4), ``ring_mul``
#: over every pair whose coordinates are 0, +-1 or +-lam.
_WORST_WIDTHS = {
    "ring_mul": ((RingElem(0, 0, 0, 1), RingElem(0, 0, 0, 1)), 6),  # alpha^3 * alpha^3
    "_cramer": ((RingElem(0, 1, 0, 1),), 16),  # the inverse of alpha + alpha^3
    "galois2": ((RingElem(0, 0, 0, 1),), 2),  # sigma_i(alpha^3)
    "galois3": ((RingElem(0, 0, 0, 1),), 2),
    "galois4": ((RingElem(0, 0, 0, 1),), 2),
}


def _image_kernel(name):
    """(the kernel, its ``ring_oracle`` value) of one ``_WORST_WIDTHS`` entry."""
    if name == "ring_mul":
        return ring_mul, lambda a, b: ring_oracle.mul(a.coeffs, b.coeffs)
    if name == "_cramer":
        return ring_inv, lambda a: ring_oracle.inv(a.coeffs)
    i = int(name[-1])
    return (lambda a: galois(a, i)), (lambda a: ring_oracle.galois(a.coeffs, i))


def _width_gap(monkeypatch, kernel, *args):
    """kernel(*args), and the width its read-back needs minus the width it
    used (<= 0): balanced digits of w bits hold [-2^(w-1), 2^(w-1))."""
    reads = []
    digits = quartic._digits

    def logged(v, bits):
        reads.append((bits, digits(v, bits)))
        return reads[-1][1]

    with monkeypatch.context() as patch:
        patch.setattr(quartic, "_digits", logged)
        out = kernel(*args)
    (bits,) = {bits for bits, _ in reads}
    need = max((v if v >= 0 else ~v).bit_length() + 1 for _, read in reads for v in read)
    return out, need - bits


@pytest.mark.parametrize("name", sorted(_WORST_WIDTHS))
def test_pinned_worst_case_of_each_image_width(monkeypatch, name):
    args, slack = _WORST_WIDTHS[name]
    kernel, oracle = _image_kernel(name)
    galois(ALPHA, 2)  # the conjugate tables, built before any width is read
    out, gap = _width_gap(monkeypatch, kernel, *args)
    assert out.coeffs == oracle(*args)
    assert gap == -slack


@st.composite
def _small_elements(draw):
    """Elements whose numerators have degree <= 3 and coefficients of one
    size up to 2^40, each coefficient of either sign or 0."""
    size = draw(st.integers(0, 40))
    coeff = st.integers(1, 1 << size).flatmap(lambda m: st.sampled_from((m, -m, 0)))
    nums = [draw(st.lists(coeff, max_size=4)) for _ in range(4)]
    return quartic._canon(nums, [1])


def test_image_width_search_finds_no_input_closer_than_the_pinned_ones(monkeypatch):
    # a ``target()`` search on the width a read-back needs over the width
    # its bound gives finds nothing closer than the pinned inputs
    galois(ALPHA, 2)
    worst = {name: -10**9 for name in _WORST_WIDTHS}

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(_small_elements().filter(bool), _small_elements().filter(bool))
    def check(a, b):
        for name in _WORST_WIDTHS:
            kernel, _ = _image_kernel(name)
            _, gap = _width_gap(monkeypatch, kernel, *((a, b) if name == "ring_mul" else (a,)))
            target(gap, label=name)
            worst[name] = max(worst[name], gap)
            assert gap <= -_WORST_WIDTHS[name][1], name

    check()
    # and it comes within one bit of each pinned input
    assert all(worst[name] >= -slack - 1 for name, (_, slack) in _WORST_WIDTHS.items()), worst


# -- state the image kernels keep -----------------------------------------------------


def test_kept_height_is_the_one_norm_of_every_derived_element():
    # ``_height`` computes the largest 1-norm once and keeps it on the
    # element: it must match a fresh count on every way an element is made.
    rng = random.Random(20261022)
    for _ in range(40):
        a = conftest.rand_elem(rng, max_deg=2, nonzero=True, rational_every=4)
        b = conftest.rand_elem(rng, max_deg=1, rational_every=4)
        quartic._height(a)  # kept on a before -a, a + b, ... are formed
        raw = RingElem._raw(a._n, a._d)
        for e in (a, -a, a + b, a - b, ring_mul(a, b), a * 3, ring_inv(a), galois(a, 2), raw):
            assert quartic._height(e) == max(sum(map(abs, n)) for n in e._n) == e._h


def test_equal_denominator_sum_is_the_cross_multiplied_sum():
    # Over one denominator D the numerators add directly; the canonical
    # form makes that the value of the sum over D^2 with cross products.
    rng = random.Random(20261023)
    same = 0
    for n in range(120):
        a = conftest.rand_elem(rng, max_deg=2 if n % 8 == 0 else 1, rational_every=4)
        b = conftest.rand_elem(rng, max_deg=1, rational_every=4)
        if n % 2:
            d = RatFunc(1, conftest.rand_poly(rng, max_deg=2, nonzero=True))
            a, b = a * d, b * d
        da, db = list(a._d), list(b._d)
        crossed = quartic._canon(
            [_int_add(_int_mul(x, db), _int_mul(y, da)) for x, y in zip(a._n, b._n)],
            _int_mul(da, db),
        )
        assert a + b == crossed and (a + b)._n == crossed._n and (a + b)._d == crossed._d
        same += a._d == b._d and len(a._d) > 1
    assert same >= 20


def test_swapped_row_is_imaged_afresh_at_widths_the_old_tables_kept(monkeypatch):
    # The images of the row and of the conjugates' powers are kept per
    # width on the tables of one row; after a swap, a width the old tables
    # had kept must be served from the new row, never from the old images.
    base = RingElem(1, -LAM_RF, 2, LAM_RF)
    for k in range(1, 400):  # the healthy tables image every width in a range
        a = base * k
        ring_mul(a, a), ring_inv(a), [galois(a, i) for i in (2, 3, 4)]
    old = quartic._tables()
    row = (RatFunc(-2), RatFunc(-LAM), RatFunc(6), RatFunc(LAM))
    monkeypatch.setattr(quartic, "REWRITE_ROW", row)
    galois(ALPHA, 2)  # builds the new row's conjugates before the widths are logged
    conj = ring_oracle.conjugates()
    widths = []
    digits = quartic._digits
    monkeypatch.setattr(quartic, "_digits", lambda v, bits: widths.append(bits) or digits(v, bits))
    reused = set()
    for a in (base * k for k in (3, 20, 150)):
        kernels = {
            "mul": (lambda: ring_mul(a, a), ring_oracle.mul(a.coeffs, a.coeffs), old._row_images),
            "inv": (lambda: ring_inv(a), ring_oracle.inv(a.coeffs), old._row_images),
        }
        for i in (2, 3, 4):
            kept = {bits for j, bits in old._conjugate_images if j == i}
            want = ring_oracle.galois(a.coeffs, i, conj)
            kernels[f"galois{i}"] = (lambda i=i: galois(a, i), want, kept)
        for name, (kernel, want, kept) in kernels.items():
            widths.clear()
            assert kernel().coeffs == want, name
            reused.update(name for bits in set(widths) if bits in kept)
    assert quartic._tables() is not old
    assert reused == {"mul", "inv", "galois2", "galois3", "galois4"}


# -- randomized batteries at smoke size ------------------------------------------------


def test_ring_axioms_smoke():
    assert property_suites.ring_axioms(150) == 150


def test_norm_multiplicativity_smoke():
    assert property_suites.norm_multiplicativity(150) == 150


def test_norm_form_factorization_smoke():
    assert property_suites.norm_form_factorization(200) == 200


def test_siegel_residual_smoke():
    assert property_suites.siegel_residual(200) == 200


def test_galois_composition_smoke():
    assert property_suites.galois_composition(200) == 200


@pytest.mark.parametrize("exponents", [(0.5, 0, 0), (0, Fraction(1, 2), 0), (0, 0, 2.0)])
def test_unit_exponents_must_be_integers(exponents):
    # Stepping a half-integer toward 0 by ones never reaches the memoized
    # power 0 (unbounded recursion), and a float 2.0 must not pass for 2.
    with pytest.raises(TypeError):
        unit_from_exponents(*exponents)
