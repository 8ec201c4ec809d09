"""Exact polynomial and rational-function arithmetic over Q(lam).

Oracles come first: a classic monic Euclidean gcd over Fraction
coefficients (independent of the integer-image gcd in the package),
a permutation-expansion determinant, and plain ``Fraction``-tuple
polynomial arithmetic (a cross-check of ``Poly``'s integer numerators
over one denominator and of the exact quotient ``_int_exquo`` on integer
coefficient lists). Pinned cases cover exact quotients, gcd,
canonical field arithmetic, the text form and the error surface; seeded
random loops check the oracles, the integer representation's canonical
form and the field axioms.  The intake cases check that every entry
point of the package takes the same outside values (int, ``Fraction``,
``Poly``, ``RatFunc``) and refuses the same others with TypeError.
"""

import operator
import random
from decimal import Decimal
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st, target

import conftest
import property_suites
from thueff import polynomials
from thueff.bounds import discriminant, resultant
from thueff.errors import ZeroDivisor
from thueff.laurent import LaurentSeries, quartic_roots
from thueff.polynomials import (
    LAM,
    ONE,
    ZERO,
    Poly,
    RatFunc,
    _at,
    _int_canon,
    _int_exquo,
    _int_gcd,
    _int_mul,
    _int_mul_low,
    _int_primitive,
    bareiss_det,
)
from thueff.quartic import ALPHA, RingElem, f_lambda_eval

RF_ZERO, RF_ONE = RatFunc(0), RatFunc(1)


# -- reference oracles (kept deliberately naive) -------------------------------


def euclid_gcd_reference(a: Poly, b: Poly) -> Poly:
    """Textbook Euclidean gcd with rational coefficients, made monic.

    The remainders come from the tuple oracle ``ref_divmod``, never from
    the package under test.
    """
    return Poly(ref_gcd(a.coeffs, b.coeffs))


def monic(p: Poly) -> Poly:
    """A nonzero polynomial over its leading coefficient."""
    return p * (1 / p[p.degree])


def kernel_gcd(a: Poly, b: Poly) -> Poly:
    """The gcd kernel ``_int_gcd`` on two nonzero polynomials' integer
    numerators, made monic to compare with ``euclid_gcd_reference``."""
    return monic(Poly(_int_gcd(a._n, b._n)[0]))


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
    """Reduced form: N and D coprime over Q[lam] (``_int_gcd``), integer
    content 1, lc(D) > 0; zero is 0/1."""
    n, d = f._n, f._d
    if not n:
        return d == (1,)
    return _int_gcd(n, d)[0] == [1] and d[-1] > 0 and gcd(*n, *d) == 1


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
        ):
            assert_integer_canonical(got)
            assert got.coeffs == want
            assert got == Poly(want)
        if rb:
            assert _int_exquo(_int_mul(a._n, b._n), b._n) == list(a._n)
            # b._n = c * p for its primitive part p, so a._n / p = c * a._d * (a / b) / b._d
            p = _int_primitive(b._n)
            c = b._n[-1] // p[-1]
            rq, rr = ref_divmod(ra, rb)
            if rr:
                with pytest.raises(ValueError):
                    _int_exquo(a._n, p)
            else:
                q = _int_exquo(a._n, p)
                assert Poly(q) == Poly(rq) * Fraction(c * a._d, b._d)
        if ra and rb:
            g = kernel_gcd(a, b)
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


def _rand_long_list(rng, length, shape=None):
    """A list of the given length in one of the shapes series windows take:
    geometric growth (a root window), decreasing coefficients, all-maximum
    alternating signs, one parity only, a run of zeros after the constant
    (Newton's 2 - e), or zeros at either end."""
    if shape is None:
        shape = rng.randrange(6)
    if shape == 0:
        g = rng.randint(1, 3)
        out = [rng.randint(-(2 ** (g * i + 8)), 2 ** (g * i + 8)) for i in range(length)]
    elif shape == 1:
        out = [rng.randint(-(2 ** (3 * (length - i))), 2 ** (3 * (length - i))) for i in range(length)]
    elif shape == 2:
        m = 2 ** rng.randint(1, 200) - 1
        out = [m if i % 2 else -m for i in range(length)]
    elif shape == 3:
        p = rng.randrange(2)
        out = [rng.randint(1, 2 ** (2 * i + 4)) if i % 2 == p else 0 for i in range(length)]
    elif shape == 4:
        out = [1] + [0] * (length // 2) + [rng.randint(-(2**90), 2**90) for _ in range(length)]
        out = out[:length]
    else:
        out = [rng.randint(-(2**60), 2**60) for _ in range(length)]
        k = rng.randint(1, 8)
        out[:k] = [0] * k
        if rng.randrange(2):
            out[-k:] = [0] * k
    return out


def test_short_product_is_the_low_part_of_the_full_product_random(monkeypatch):
    # oracle: ``_int_mul``, the one full product, cut to its first n terms;
    # short lists take every n, long ones n on both sides of ``_PACK_MIN``,
    # so both the schoolbook and the packed path run; the longest pairs
    # (geometric growth among them) run the packed path far above it
    packed = polynomials._packed_mul_low
    taken = []

    def counting(a, b, n):
        taken.append(n)
        return packed(a, b, n)

    monkeypatch.setattr(polynomials, "_packed_mul_low", counting)
    rng = random.Random(20261019)
    for _ in range(1500):
        a, b = _rand_int_list(rng), _rand_int_list(rng)
        full = _int_mul(a, b)
        for n in range(-2, len(a) + len(b) + 2):
            assert _int_mul_low(a, b, n) == full[: max(n, 0)], (a, b, n)
    long_calls = 0
    for _ in range(60):
        a, b = (_rand_long_list(rng, rng.randint(20, 200)) for _ in "ab")
        full = _int_mul(a, b)
        top = len(full)
        for n in {27, 28, 29, rng.randint(30, top), top, top + 1}:
            assert _int_mul_low(a, b, n) == full[:n], (a, b, n)
            long_calls += 1
    for shape in (0, 2, 5):  # dense operands long enough to be dense at n = 384
        a, b = (_rand_long_list(rng, 390, shape) for _ in "ab")
        full = _int_mul(a, b)
        for n in (383, 384, 385):
            assert _int_mul_low(a, b, n) == full[:n], (a, b, n)
            long_calls += 1

    def slope_one():  # geometric growth of 1 bit a term keeps the oracle cheap
        return [rng.randint(-(2 ** (i + 8)), 2 ** (i + 8)) for i in range(1041)]

    pairs = [(slope_one(), slope_one())]
    pairs += [(_rand_long_list(rng, 1041, shape), _rand_long_list(rng, 1041, shape)) for shape in (2, 5)]
    for a, b in pairs:
        full = _int_mul(a, b)
        for n in (1039, 1040, 1041):
            assert _int_mul_low(a, b, n) == full[:n], (a, b, n)
            long_calls += 1
    assert len(taken) > 60 and long_calls - len(taken) > 60
    assert min(taken) == polynomials._PACK_MIN and max(taken) == 1041


def test_packed_short_product_reads_back_a_coefficient_near_its_slot():
    # a = (-m, m, -m, ...) with m = 2^63 - 1 and b = a or b = -a: every
    # term of c_k has one sign, so |c_k| = (k + 1) m^2 is as large as the
    # envelope allows, and |c_(n-1)| = n m^2 < 2^133.  The slot is 136 bits (134 from the bound,
    # rounded up to whole bytes), so the largest digit comes within 2 bits
    # of 2^135: in the odd stream at n = 128, in the even stream at n = 127
    m = 2**63 - 1
    a = [m if i % 2 else -m for i in range(128)]
    for b, sign in ((a, 1), ([-v for v in a], -1)):
        for n in (128, 127):
            assert polynomials._slot_bytes(a[:n], b[:n], n) == 17
            got = _int_mul_low(a, b, n)
            assert got == [sign * (-1) ** k * (k + 1) * m * m for k in range(n)]
            assert max(abs(c) for c in got).bit_length() == abs(got[-1]).bit_length() == 133


@st.composite
def _windows(draw):
    """Two coefficient lists and a cut n: terms that grow by g bits a term
    like a root window: either both dense with at least ``_PACK_MIN`` terms
    and n >= ``_PACK_MIN``, or each dense or even or odd as a series (every
    other term zero), of any length up to 60, and any n.  b is sometimes
    a copy of a (a series square), and n is sometimes made odd (then the
    even stream reads one digit more than the odd one)."""
    g, dense = draw(st.integers(0, 3)), draw(st.booleans())
    low = polynomials._PACK_MIN
    odd = st.integers(-(2**40), 2**40).map(lambda v: 2 * v + 1)

    def window():
        step = 1 if dense else draw(st.integers(1, 2))
        size = draw(st.integers(low if dense else 0, 60))
        vals = draw(st.lists(odd, min_size=size, max_size=size))
        return [v << (g * i) if i % step == 0 else 0 for i, v in enumerate(vals)]

    a = window()
    b = list(a) if draw(st.booleans()) else window()
    n = draw(st.integers(low if dense else -1, len(a) + len(b) + 1))
    return a, b, n | 1 if draw(st.booleans()) else n


def test_short_product_matches_sympy(monkeypatch):
    # an outside oracle: sympy's product over ZZ, cut to n terms
    x = sympy.Symbol("x")
    packed = polynomials._packed_mul_low
    taken = []

    def counting(a, b, n):
        taken.append(n % 2)
        return packed(a, b, n)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_windows())
    def check(case):
        a, b, n = case
        if not a or not b:
            assert _int_mul_low(a, b, n) == []
            return
        prod = sympy.Poly(a[::-1], x, domain=sympy.ZZ) * sympy.Poly(b[::-1], x, domain=sympy.ZZ)
        terms = [int(c) for c in reversed(prod.all_coeffs())]
        terms += [0] * (len(a) + len(b) - 1 - len(terms))
        assert _int_mul_low(a, b, n) == terms[: max(n, 0)]

    monkeypatch.setattr(polynomials, "_packed_mul_low", counting)
    check()
    # both sides of the choice ran, and the packed side with odd and even n
    assert 10 < len(taken) < 90
    assert set(taken) == {0, 1}


@st.composite
def _parity_windows(draw):
    """Two windows of up to 140 terms, each even (nonzero terms at even
    indices only), odd, or dense, growing by g bits a term, and a cut n:
    any n, or n = 2 ``_PACK_MIN`` - 1 or 2 ``_PACK_MIN``."""
    g = draw(st.integers(0, 3))
    odd = st.integers(-(2**40), 2**40).map(lambda v: 2 * v + 1)

    def window():
        kind = draw(st.sampled_from(("even", "odd", "even", "odd", "dense")))
        size = draw(st.integers(1, 140))
        vals = draw(st.lists(odd, min_size=size, max_size=size))
        keep = {"even": lambda i: i % 2 == 0, "odd": lambda i: i % 2, "dense": lambda i: True}[kind]
        return kind, [v << (g * i) if keep(i) else 0 for i, v in enumerate(vals)]

    (ka, a), (kb, b) = window(), window()
    edge = 2 * polynomials._PACK_MIN
    n = draw(st.one_of(st.integers(-1, len(a) + len(b) + 1), st.sampled_from((edge - 1, edge))))
    return ka, kb, a, b, n


def test_parity_pure_short_product_matches_sympy(monkeypatch):
    # an outside oracle for the half-length path: sympy's product over ZZ,
    # cut to n terms.  The half path is seen as a nested ``_int_mul_low``
    # call; it must run for even x even, odd x odd and even x odd, each
    # with odd and with even n, from n = 2 _PACK_MIN on and not below
    x = sympy.Symbol("x")
    inner = polynomials._int_mul_low
    depth, nested = [0], []

    def counting(a, b, n):
        if depth[0]:
            nested.append(n)
        depth[0] += 1
        try:
            return inner(a, b, n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(polynomials, "_int_mul_low", counting)
    halved, whole = set(), set()

    def run(ka, kb, a, b, n):
        nested.clear()
        got = polynomials._int_mul_low(a, b, n)
        if a and b:
            prod = sympy.Poly(a[::-1], x, domain=sympy.ZZ) * sympy.Poly(b[::-1], x, domain=sympy.ZZ)
            terms = [int(c) for c in reversed(prod.all_coeffs())]
            terms += [0] * (len(a) + len(b) - 1 - len(terms))
            assert got == terms[: max(n, 0)]
        else:
            assert got == []
        if "dense" in (ka, kb) or not a or not b:
            assert not nested
            return
        cut = min(n, len(a) + len(b) - 1)
        (halved if nested else whole).add(cut)
        if nested:
            assert cut >= 2 * polynomials._PACK_MIN
            halved.add((tuple(sorted((ka, kb))), cut % 2))

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_parity_windows())
    def check(case):
        run(*case)

    check()
    edge = 2 * polynomials._PACK_MIN
    rng = random.Random(20261020)
    for ka, pa in (("even", 0), ("odd", 1)):
        for kb, pb in (("even", 0), ("odd", 1)):
            a, b = ([rng.randint(1, 2**60) if i % 2 == p else 0 for i in range(70)] for p in (pa, pb))
            for n in (edge - 1, edge):
                run(ka, kb, a, b, n)
    for kinds in (("even", "even"), ("odd", "odd"), ("even", "odd")):
        assert {(kinds, 0), (kinds, 1)} <= halved, kinds
    assert edge in halved and edge - 1 in whole and edge - 1 not in halved


def test_parity_pure_short_product_of_two_root_windows():
    # the alpha2 and alpha4 windows are both even in 1/lam (the roots are
    # odd in lam); their product at n = 131 takes the half path and equals
    # the schoolbook's full product cut to 131 terms
    roots = quartic_roots(136)
    a, b = roots[1]._w._n, roots[3]._w._n
    assert polynomials._parity(a[:131]) == polynomials._parity(b[:131]) == 0
    assert _int_mul_low(a, b, 131) == _int_mul(a, b)[:131]


@st.composite
def _envelope_windows(draw):
    """Two dense lists of n terms that fill the growth envelope: term i is
    2^(e + g i) - 1 - d, all of one sign or alternating (then every term of
    a c_k has one sign); b is sometimes an equal copy of a."""
    n, g = draw(st.integers(polynomials._PACK_MIN, 130)), draw(st.integers(0, 3))
    alternate = draw(st.booleans())

    def window():
        e, d = draw(st.integers(1, 80)), draw(st.integers(0, 2**20))
        return [(-1) ** (i * alternate) * max((1 << (e + g * i)) - 1 - d, 1) for i in range(n)]

    a = window()
    return a, list(a) if draw(st.booleans()) else window(), n


def test_packed_short_product_slot_is_tight_on_envelope_inputs():
    # a search for the largest digit against the slot: hypothesis maximizes
    # bitlen max|c_k| - (s - 1), which exactness needs <= 0.  It reaches 0,
    # so the slot has no spare bit on these inputs, and its worst input
    # (found by this search, g = 3, n = 95) is pinned below: c_94 has
    # exactly s - 1 = 391 bits
    gaps = []

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_envelope_windows())
    def check(case):
        a, b, n = case
        got = polynomials._packed_mul_low(a, b, n)
        assert got == _int_mul(a, b)[:n]
        gap = max(abs(c) for c in got).bit_length() - (8 * polynomials._slot_bytes(a, b, n) - 1)
        assert gap <= 0
        target(gap)
        gaps.append(gap)

    check()
    assert max(gaps) == 0
    a = [(1 << (64 + 3 * i)) - 139 for i in range(95)]
    b = [(1 << (38 + 3 * i)) - 5096 for i in range(95)]
    got = _int_mul_low(a, b, 95)
    assert got == _int_mul(a, b)[:95]
    assert polynomials._slot_bytes(a, b, 95) == 49
    assert max(abs(c) for c in got).bit_length() == got[94].bit_length() == 391


def test_packed_short_product_keeps_a_slot_for_every_operand_term():
    # a_i = 16^i, b = 20 zeros then 20 ones, n = 40: dense enough to pack.
    # Every product of a_39 lands at or above x^40, so the bound on the c_k
    # (84 bits) is below a_39 (157 bits); the slot must still hold a_39.
    a = [2 ** (4 * i) for i in range(40)]
    b = [0] * 20 + [1] * 20
    assert _int_mul_low(a, b, 40) == [0] * 20 + [sum(a[: k - 19]) for k in range(20, 40)]


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
    # pins the schoolbook path: every n here is below ``_PACK_MIN``; the
    # packed path forms the whole integer product and reads its low digits
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


# -- exact quotients in Z[lam] -----------------------------------------------------


def test_exact_quotient_pinned():
    assert _int_exquo([-1, 0, 1], [-1, 1]) == [1, 1]
    assert _int_exquo([0, 1], [0, 1]) == [1]
    assert _int_exquo([], [0, 1]) == []
    # a divisor with content that divides over Z: (6 lam^2) / (2 lam)
    assert _int_exquo([0, 0, 6], [0, 2]) == [0, 3]
    assert _int_exquo([4, 6], [2]) == [2, 3]


def test_inexact_quotient_raises():
    # no floor quotient: a divisor that leaves a remainder is refused
    with pytest.raises(ValueError):
        _int_exquo([0, 1], [1, 1])
    with pytest.raises(ValueError):
        _int_exquo([2, 0, 0, 1], [0, 0, 1])
    with pytest.raises(ValueError):
        _int_exquo([1], [0, 1])
    # divides over Q but not over Z: the divisor 4 lam is not primitive
    with pytest.raises(ValueError):
        _int_exquo([0, 0, 6], [0, 4])
    with pytest.raises(ValueError):
        _int_exquo([3], [2])


# -- gcd -----------------------------------------------------------------------


def test_gcd_exact_factor():
    assert _int_gcd([-1, 0, 1], [-1, 1]) == ([-1, 1], [1, 1], [1])


def test_gcd_coprime_constant():
    assert _int_gcd([0, 1], [1]) == ([1], [0, 1], [1])


def test_gcd_content_does_not_leak():
    # gcd(4 lam^2 + 64, 2 lam): the reference oracle and the packaged
    # gcd must both reduce the shared content away and report 1.
    a = Poly((64, 0, 4))
    b = Poly((0, 2))
    expected = euclid_gcd_reference(a, b)
    assert expected == ONE
    assert _int_gcd(a._n, b._n)[0] == [1]


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
        g, qa, qb = _int_gcd(a._n, b._n)
        # primitive with a positive lead, and the two cofactors are exact
        assert gcd(*g) == 1 and g[-1] > 0
        assert _int_mul(g, qa) == list(a._n) and _int_mul(g, qb) == list(b._n)
        got = monic(Poly(g))
        assert got == euclid_gcd_reference(a, b)
        # the gcd divides both inputs exactly (the tuple oracle's remainder)
        for p in (a, b):
            assert ref_divmod(p.coeffs, got.coeffs)[1] == ()


def _wide_poly(rng, degree, bits):
    """A degree-``degree`` integer polynomial with coefficients of about
    ``bits`` bits, lead included (often not monic)."""
    top = 2**bits
    coeffs = [rng.randint(-top, top) for _ in range(degree)]
    return Poly(coeffs + [rng.choice((1, -1)) * rng.randint(1, top)])


def test_gcd_of_wide_polynomials_matches_euclid_reference():
    # Degree >= 10, 200+-bit coefficients, a planted common factor of
    # degree 0..4 that is mostly not monic, and large integer contents.
    rng = random.Random(20261022)
    for trial in range(8):
        g = _wide_poly(rng, rng.randint(0, 4), rng.choice((8, 200, 260)))
        if trial % 4 == 0:
            g = monic(g)
        u = _wide_poly(rng, rng.randint(10, 11), 210)
        v = _wide_poly(rng, rng.randint(10, 11), 230)
        cu, cv = (rng.randint(2, 2**120), rng.randint(2, 2**120)) if trial % 2 else (1, 1)
        a, b = g * u * cu, g * v * cv
        assert a.degree >= 10 and b.degree >= 10
        got = kernel_gcd(a, b)
        assert got == euclid_gcd_reference(a, b)
        # random u, v are coprime, so the gcd is the planted factor
        assert got == monic(g)
        h, qa, qb = _int_gcd(a._n, b._n)
        assert h == _int_primitive(g._n)
        assert _int_mul(h, qa) == list(a._n) and _int_mul(h, qb) == list(b._n)


def test_gcd_retries_after_an_unlucky_first_point(monkeypatch):
    # a = (3 lam - 5)(3 lam^2 + 7), b = (3 lam - 5)(3 lam^3 - 9 lam^2 - 7 lam + 8),
    # from a seeded search over products g*u, g*v of small random
    # polynomials: at the first point 2^7 the digits of igcd(a(2^7), b(2^7))
    # are no common divisor, so the gcd is found at a second point.
    a, b = [-35, 21, -15, 9], [-40, 59, 24, -42, 9]
    readings = []
    digits = polynomials._digits

    def recording(v, bits):
        readings.append(bits)
        return digits(v, bits)

    monkeypatch.setattr(polynomials, "_digits", recording)
    assert _int_gcd(a, b) == ([-5, 3], [7, 0, 3], [8, -7, -9, 3])
    assert len(readings) > 1 and readings[0] == 7
    first = _int_primitive(digits(gcd(_at(a, 2**7), _at(b, 2**7)), 7))
    with pytest.raises(ValueError):
        _int_exquo(a, first)
        _int_exquo(b, first)
    assert kernel_gcd(Poly(a), Poly(b)) == euclid_gcd_reference(Poly(a), Poly(b))


@st.composite
def _gcd_cases(draw):
    """(a, b, d): integer lists of degree 0-16 with 1-512-bit coefficients,
    each of one sign or alternating, often sharing a planted factor of large
    content, and a candidate divisor d of a that may or may not divide."""
    bits = draw(st.integers(1, 512))
    size = st.integers(1 << (bits - 1), (1 << bits) - 1)

    def poly(max_degree, content=1):
        degree = draw(st.integers(0, max_degree))
        sign, alternate = draw(st.sampled_from((1, -1))), draw(st.booleans())
        mags = draw(st.lists(st.one_of(size, st.just(0)), min_size=degree, max_size=degree))
        mags.append(draw(size))  # a nonzero lead
        return [content * sign * (-1) ** (i * alternate) * m for i, m in enumerate(mags)]

    if draw(st.booleans()):
        g = poly(8, content=draw(st.integers(1, 1 << 200)))
        a, b = _int_mul(g, poly(8)), _int_mul(g, poly(8))
    else:
        g, a, b = [1], poly(16), poly(16)
    d = _int_mul(g, [draw(st.integers(-3, 3)), 1]) if draw(st.booleans()) else poly(4)
    return a, b, d


def test_int_gcd_and_exquo_match_sympy():
    # an outside oracle for ``_int_gcd`` and ``_int_exquo``: sympy's gcd and
    # exact quotient over ZZ; sympy's gcd keeps the common integer content,
    # ``_int_gcd``'s g is its primitive part
    x = sympy.Symbol("x")

    def sym(n):
        return sympy.Poly(n[::-1], x, domain=sympy.ZZ)

    seen = set()  # (a planted factor of positive degree, d divides a)

    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(_gcd_cases())
    def check(case):
        a, b, d = case
        g, qa, qb = _int_gcd(a, b)
        sa, sb = sym(a), sym(b)
        sg = sa.gcd(sb).primitive()[1]
        assert sym(g) == sg and g[-1] > 0
        assert sym(qa) == sa.exquo(sg, auto=False) and sym(qb) == sb.exquo(sg, auto=False)
        try:
            want = sa.exquo(sym(d), auto=False)
        except sympy.polys.polyerrors.ExactQuotientFailed:
            with pytest.raises(ValueError):
                _int_exquo(a, d)
            divides = False
        else:
            assert sym(_int_exquo(a, d)) == want
            divides = True
        seen.add((len(g) > 1, divides))

    check()
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_canon_divides_out_only_the_factor_every_entry_shares():
    # D = 6 (lam + 1)(lam - 2)(lam^2 + 3): lam - 2 divides N1 only and
    # lam^2 + 3 divides N0 only, lam + 1 divides every nonzero entry.
    p, q, r = Poly((1, 1)), Poly((-2, 1)), Poly((3, 0, 1))
    den = p * q * r * 6
    nums = [p * r * Poly((5, -7)), p * q * 4 * LAM, p * Poly((10, 0, -3)), ZERO]
    (n0, n1, n2, n3), d = _int_canon([list(n._n) for n in nums], list(den._n))
    shared = den
    for n in nums:
        if n:
            shared = euclid_gcd_reference(shared, n)
    assert shared == p
    assert Poly(d) == q * r * 6 and n3 == ()
    for got, n in zip((n0, n1, n2, n3), nums):
        # the same value N_i / D, cross-multiplied
        assert Poly(got) * den == n * Poly(d)
    assert gcd(*d, *n0, *n1, *n2) == 1 and d[-1] > 0


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


def test_values_match_fraction_arithmetic_at_rational_points():
    # RatFunc shares its canonicalizer with the quartic ring, so its values
    # are checked here against plain Fraction arithmetic, point by point.
    rng = random.Random(20261020)
    points = [Fraction(k, 3) for k in range(-8, 9, 3)]

    def at(p: Poly, x: Fraction) -> Fraction:
        return sum(c * x**i for i, c in enumerate(p.coeffs))

    for _ in range(40):
        na, da, nb, db = (conftest.rand_poly(rng, max_deg=3, nonzero=k % 2 == 1)
                          for k in range(4))
        a, b = RatFunc(na, da), RatFunc(nb, db)
        for x in points:
            if not at(da, x) or not at(db, x):
                continue
            va, vb = at(na, x) / at(da, x), at(nb, x) / at(db, x)
            results = [(a, va), (b, vb), (a + b, va + vb), (a - b, va - vb), (a * b, va * vb)]
            if vb:
                results.append((a / b, va / vb))
            for q, v in results:
                assert at(q.num, x) == v * at(q.den, x)


def test_canonical_equality_means_zero_difference():
    rng = random.Random(20260804)
    for _ in range(200):
        a = conftest.rand_ratfunc(rng)
        b = conftest.rand_ratfunc(rng)
        same = a - b == RF_ZERO
        assert same == (a == b)


# -- determinants over Z[lam] ------------------------------------------------------


def test_det_two_by_two():
    rows = [[[0, 1], [1]], [[1], [0, 1]]]
    assert bareiss_det(rows) == [-1, 0, 1]


def test_det_zero_row_is_zero():
    rows = [[[0, 1], [1]], [[], []]]
    assert bareiss_det(rows) == []


def test_det_zero_first_pivot_swaps_rows():
    # the swap flips the sign: det [[0, 1], [1, 0]] = -1
    assert bareiss_det([[[], [1]], [[1], []]]) == [-1]
    # det [[0, lam, 1], [1, 0, lam], [lam, 1, 0]] = lam^3 + 1
    rows = [[[], [0, 1], [1]], [[1], [], [0, 1]], [[0, 1], [1], []]]
    assert bareiss_det(rows) == [1, 0, 0, 1]


def test_det_matches_permutation_expansion_random():
    rng = random.Random(20260805)
    for _ in range(150):
        n = rng.randint(1, 4)
        rows = [
            [list(conftest.rand_poly(rng, max_deg=2, lo=-4, hi=4)._n) for _ in range(n)]
            for _ in range(n)
        ]
        if rng.randrange(4) == 0:
            rows[0][0] = []
        det = bareiss_det(rows)
        assert type(det) is list and all(type(v) is int for v in det)
        assert not det or det[-1] != 0
        assert Poly(det) == permutation_det_reference([[Poly(e) for e in row] for row in rows])


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


# -- one intake ------------------------------------------------------------------

# Each accepted case mixes the coefficient type under test with plain ints
# (g = 2 + X, the zero of f), so every coefficient goes through one intake.
INTAKE_TYPES = {
    "int": int, "Fraction": Fraction, "Poly": lambda c: Poly([c]), "RatFunc": RatFunc,
}

INTAKE_ACCEPTS = {
    **{
        f"resultant-{name}": (lambda t=t: resultant([t(1), t(1)], [2, 1]), RatFunc(1))
        for name, t in INTAKE_TYPES.items()
    },
    **{
        f"discriminant-{name}": (lambda t=t: discriminant([t(1), 0, t(1)]), RatFunc(-4))
        for name, t in INTAKE_TYPES.items()
    },
    "RatFunc-of-RatFunc": (lambda: RatFunc(RatFunc(1), RatFunc(2)), RatFunc(Fraction(1, 2))),
}


@pytest.mark.parametrize("case", INTAKE_ACCEPTS)
def test_intake_accepts_int_fraction_poly_and_ratfunc(case):
    build, want = INTAKE_ACCEPTS[case]
    got = build()
    assert type(got) is RatFunc
    assert got == want


SERIES = LaurentSeries(0, [1, 2], 2)

INTAKE_ENTRY_POINTS = {
    "Poly": lambda x: Poly([x]),
    "Poly-add": lambda x: LAM + x,
    "Poly-sub": lambda x: LAM - x,
    "Poly-mul": lambda x: LAM * x,
    "RatFunc": lambda x: RatFunc(LAM, x),
    "RatFunc-rsub": lambda x: x - RatFunc(LAM),
    "RatFunc-rtruediv": lambda x: x / RatFunc(LAM),
    "RingElem": lambda x: RingElem(0, x),
    "RingElem-mul": lambda x: ALPHA * x,
    "LaurentSeries": lambda x: LaurentSeries(0, [1, x], 2),
    "series-scale": lambda x: SERIES.scale(x),
    "series-add": lambda x: SERIES + x,
    "series-mul": lambda x: SERIES * x,
    "resultant": lambda x: resultant([1, x], [2, 1]),
    "f_lambda_eval": lambda x: f_lambda_eval(x, 1),
}

INTAKE_REFUSES = {"float": 0.5, "Decimal": Decimal("0.5"), "str-ratio": "1/2", "str-int": "12"}


@pytest.mark.parametrize("value", INTAKE_REFUSES)
@pytest.mark.parametrize("entry", INTAKE_ENTRY_POINTS)
def test_intake_refuses_inexact_and_text_values(entry, value):
    with pytest.raises(TypeError):
        INTAKE_ENTRY_POINTS[entry](INTAKE_REFUSES[value])


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
def test_poly_operator_with_a_ratfunc_operand_promotes(op):
    # Poly's operator steps aside (NotImplemented), so RatFunc's reflected one runs.
    for other in (RatFunc(1), RatFunc(1, LAM + 2)):
        got = op(LAM, other)
        assert type(got) is RatFunc and got == op(RatFunc(LAM), other)
    assert op(LAM, RatFunc(1)) == op(LAM, 1)


def test_poly_refuses_a_string_of_digits():
    # a str is an iterable of one-character strings, not of coefficients
    with pytest.raises(TypeError):
        Poly("12")


def test_constant_hash_agrees_with_equality():
    assert Poly((1,)) == 1 and RatFunc(1) == 1
    assert len({RatFunc(1), 1, Poly((1,)), Fraction(1)}) == 1
    assert {Poly((1,)): "a"}.get(1) == "a"
    assert {RatFunc(-3, 4): "b"}.get(Fraction(-3, 4)) == "b"
    for c in (0, 5, Fraction(-7, 3)):
        assert hash(Poly([c])) == hash(RatFunc(c)) == hash(Fraction(c))
    # a non-constant Poly hashes like its RatFunc, the hash of that representation
    assert hash(LAM + 1) == hash(RatFunc(LAM + 1)) == hash(((1, 1), (1,)))
    assert len({LAM, RatFunc(LAM)}) == 1
    assert {RatFunc(LAM + 1, 2): "c"}.get((LAM + 1) * Fraction(1, 2)) == "c"
    assert hash(RatFunc(1, LAM)) == hash(((1,), (0, 1)))
