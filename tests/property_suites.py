"""Randomized property batteries with exact assertions.

Each battery runs ``cases`` independent random checks and returns the
number of cases actually exercised, so callers can enforce a minimum.
Module test files run them at a quick smoke size for fast iteration;
the acceptance gate runs every battery at >= 1000 cases.
"""

import itertools
import random
from math import gcd

from conftest import (
    rand_elem,
    rand_exponents,
    rand_poly,
    rand_ratfunc,
    rand_series,
)
from thueff import quartic
from thueff.polynomials import RatFunc, _int_gcd
from thueff.quartic import (
    elem_from_xy,
    f_lambda_eval,
    galois,
    norm,
    ring_inv,
    ring_mul,
    unit_from_exponents,
)
from thueff.valuations import (
    height_infinity,
    valuation_vector,
)

RF_ZERO = RatFunc(0)
RF_ONE = RatFunc(1)


def _canonical(q: RatFunc) -> bool:
    """N and D coprime over Q[lam] (the kernel ``_int_gcd``), integer content
    1 and lc(D) > 0; zero is 0/1."""
    n, d = q._n, q._d
    if not n:
        return d == (1,)
    return _int_gcd(n, d)[0] == [1] and d[-1] > 0 and gcd(*n, *d) == 1


def field_axioms(cases: int, seed: int = 101) -> int:
    """Q(lam) is a field: associativity, commutativity, distributivity,
    inverses, and canonical-form invariants on every produced value."""
    rng = random.Random(seed)
    for _ in range(cases):
        a = rand_ratfunc(rng)
        b = rand_ratfunc(rng)
        c = rand_ratfunc(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + RF_ZERO == a and a * RF_ONE == a
        assert a + (-a) == RF_ZERO
        for q in (a + b, a * b, b - c, a * b + c):
            assert _canonical(q)
        if a:
            assert a * a.inv() == RF_ONE
            assert a / a == RF_ONE
        if b:
            assert (a / b) * b == a
    return cases


def series_valuation_axioms(cases: int, seed: int = 211) -> int:
    """v is a valuation on truncated series: v(ab) = v(a) + v(b), the
    ultrametric inequality, with equality at distinct valuations."""
    rng = random.Random(seed)
    for _ in range(cases):
        a = rand_series(rng)
        b = rand_series(rng)
        ab = a * b
        assert ab.valuation == a.valuation + b.valuation
        s = a + b
        if s.resolved:
            assert s.valuation >= min(a.valuation, b.valuation)
        else:
            # The whole shared window cancelled; that takes equal leads.
            assert a.valuation == b.valuation
        if a.valuation != b.valuation:
            assert s.resolved and s.valuation == min(a.valuation, b.valuation)
    return cases


def ring_axioms(cases: int, seed: int = 307) -> int:
    """K is a commutative ring and every nonzero element is invertible."""
    rng = random.Random(seed)
    for n in range(cases):
        deg = 2 if n % 8 == 0 else 1
        a = rand_elem(rng, max_deg=deg)
        b = rand_elem(rng, max_deg=deg)
        c = rand_elem(rng, max_deg=1)
        assert ring_mul(ring_mul(a, b), c) == ring_mul(a, ring_mul(b, c))
        assert ring_mul(a, b) == ring_mul(b, a)
        assert a * (b + c) == a * b + a * c
        assert a * quartic.ONE == a and a + quartic.ZERO == a
        z = rand_elem(rng, max_deg=1, nonzero=True, rational_every=16)
        assert ring_mul(z, ring_inv(z)) == quartic.ONE
    return cases


def norm_multiplicativity(cases: int, seed: int = 401) -> int:
    """N(ab) = N(a) N(b) on random pairs."""
    rng = random.Random(seed)
    for n in range(cases):
        deg = 2 if n % 8 == 0 else 1
        a = rand_elem(rng, max_deg=deg)
        b = rand_elem(rng, max_deg=1)
        assert norm(ring_mul(a, b)) == norm(a) * norm(b)
    return cases


def norm_form_factorization(cases: int, seed: int = 419) -> int:
    """N(x - alpha y) equals the quartic form F(x, y) for random x, y."""
    rng = random.Random(seed)
    for _ in range(cases):
        x = rand_poly(rng, max_deg=3)
        y = rand_poly(rng, max_deg=3)
        assert norm(elem_from_xy(x, y)) == f_lambda_eval(x, y)
    return cases


def siegel_residual(cases: int, seed: int = 433) -> int:
    """b1(a2-a3) + b2(a3-a1) + b3(a1-a2) = 0 with b_i = sigma_i(x - alpha y)."""
    rng = random.Random(seed)
    conj = quartic.conjugates()
    d23 = conj[1] - conj[2]
    d31 = conj[2] - conj[0]
    d12 = conj[0] - conj[1]
    for _ in range(cases):
        beta = elem_from_xy(rand_poly(rng, max_deg=2), rand_poly(rng, max_deg=2))
        lhs = (
            ring_mul(galois(beta, 1), d23)
            + ring_mul(galois(beta, 2), d31)
            + ring_mul(galois(beta, 3), d12)
        )
        assert not lhs
    return cases


def unit_product_formula(cases: int, seed: int = 509) -> int:
    """Sum of the four infinite-place valuations vanishes on every unit.

    Exhaustive over the |r|,|s|,|t| <= 3 cube first, then random triples
    from a wider box until the requested case count is reached.
    """
    rng = random.Random(seed)
    count = 0
    for r, s, t in itertools.product(range(-3, 4), repeat=3):
        beta = unit_from_exponents(r, s, t)
        assert valuation_vector(beta).total == 0
        count += 1
    while count < cases:
        r, s, t = rand_exponents(rng, bound=5)
        beta = unit_from_exponents(r, s, t)
        assert valuation_vector(beta).total == 0
        count += 1
    return count


def galois_composition(cases: int, seed: int = 601) -> int:
    """sigma_i(sigma_j(z)) = sigma_k(z) with k = ((i-1)+(j-1) mod 4)+1."""
    rng = random.Random(seed)
    for _ in range(cases):
        a = rand_elem(rng, max_deg=1, rational_every=16)
        i = rng.randint(1, 4)
        j = rng.randint(1, 4)
        k = ((i - 1) + (j - 1)) % 4 + 1
        assert galois(galois(a, j), i) == galois(a, k)
    return cases


def height_inverse_symmetry(cases: int, seed: int = 701) -> int:
    """H(beta) = H(beta^-1) for units, beta^-1 via negated exponents."""
    rng = random.Random(seed)
    for n in range(cases):
        r, s, t = rand_exponents(rng, bound=4)
        beta = unit_from_exponents(r, s, t)
        binv = unit_from_exponents(-r, -s, -t)
        if n % 64 == 0:
            assert ring_mul(beta, binv) == quartic.ONE
        assert height_infinity(beta) == height_infinity(binv)
    return cases


#: The batteries behind the "each >= 1000 randomized cases" guarantee.
ALL_SUITES = (
    field_axioms,
    series_valuation_axioms,
    ring_axioms,
    norm_multiplicativity,
    norm_form_factorization,
    siegel_residual,
    unit_product_formula,
    galois_composition,
    height_inverse_symmetry,
)
