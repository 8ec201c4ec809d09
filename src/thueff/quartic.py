"""Arithmetic in K = Q(lam)[alpha] / (alpha^4 - lam*alpha^3 - 6*alpha^2 + lam*alpha + 1).

An element is stored on the power basis (1, alpha, alpha^2, alpha^3) in
one integer form: four coefficient lists N0..N3 in Z[lam] over one
denominator D in Z[lam],

    (N0 + N1*alpha + N2*alpha^2 + N3*alpha^3) / D.

The form is the one ``polynomials._int_canon`` gives a ``RatFunc`` --
gcd over Q[lam] of N0..N3 and D is 1, their integer content is 1, and
lc(D) > 0 -- so equal values have equal representations, and equality
and hashing compare them directly.  Every unit and conjugate the
verifier meets lies in Z[1/2][lam][alpha], where D is an integer and
canonicalizing divides out an integer content without a polynomial gcd.
A coefficient (int, ``Fraction``, ``Poly`` or ``RatFunc``; 0 if left
out) enters through ``polynomials._fraction``, the one intake, which
refuses anything else with TypeError; ``c0``..``c3`` (and ``coeffs``)
canonicalize their coordinate Ni / D into one.

A product is the 16 products of the numerators, folded with the rule

    alpha^4 = lam*alpha^3 + 6*alpha^2 - lam*alpha - 1

from the top degree down; one routine expands the integer matrix of
multiplication by a along its first row: its cofactors give the inverse
by Cramer's rule, and its determinant over D^4 is the norm N(a).  Both
run on plain ints at lam = 2^bits, bits from a proven coefficient bound
(Kronecker substitution; von zur Gathen & Gerhard, *Modern Computer
Algebra*, 8.4), and so does the Galois action: a's numerators at 2^bits
times the images of the conjugate's powers, with bits from the bound
4AH proved in ``galois``.  The bounds read an element's height (the
largest 1-norm of N0..N3), which ``_height`` computes once and keeps on
the element.  The rule's integer form comes from the current
``REWRITE_ROW``: a swapped tuple (as in fault-injection tests) acts on
the next product.  The tables of one row keep its image, and the images
of the conjugates' powers, per width bits, so a product evaluates only
its operands.  The row must lie in Z[lam] (``NotMonic`` otherwise):
f is then monic over Z[lam], and folding never leaves Z[lam].  The
defining quartic is invariant under the order-4 Moebius map
z -> (z - 1)/(z + 1), so its four roots inside K are

    a1 = alpha
    a2 = (alpha - 1)/(alpha + 1)
    a3 = -1/alpha
    a4 = -1/a2

and sending alpha to a_i extends to the i-th automorphism of K.  Every
table derived from the rule (conjugates, their powers, unit powers) is
built on first use and kept with the ``REWRITE_ROW`` object it was built
from; another object in ``REWRITE_ROW`` gets new tables.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property

from .errors import NotMonic, SingularSystem, ZeroDivisor
from .polynomials import (
    LAM,
    Poly,
    RatFunc,
    _as_poly,
    _at,
    _digits,
    _fraction,
    _int_add,
    _int_canon,
    _int_clear,
    _int_mul,
)

#: Coefficients of alpha^4 on the power basis (the rewrite rule).
REWRITE_ROW = (RatFunc(-1), RatFunc(-LAM), RatFunc(6), RatFunc(LAM))

IntList = list[int]


class RingElem:
    """c0 + c1*alpha + c2*alpha^2 + c3*alpha^3, held as (N0..N3) / D over Z[lam]."""

    #: _h, the largest 1-norm of N0..N3, is set by ``_height`` on first use.
    __slots__ = ("_n", "_d", "_h")

    def __init__(self, c0=0, c1=0, c2=0, c3=0):
        """From four coefficients (0 if left out): int, Fraction, Poly or RatFunc."""
        self._n, self._d = _int_canon(*_int_clear([_fraction(c) for c in (c0, c1, c2, c3)]))

    @classmethod
    def _raw(cls, nums: tuple[tuple[int, ...], ...], den: tuple[int, ...]) -> RingElem:
        """Wrap a form already known canonical."""
        out = object.__new__(cls)
        out._n = nums
        out._d = den
        return out

    @property
    def coeffs(self) -> tuple[RatFunc, RatFunc, RatFunc, RatFunc]:
        return tuple(RatFunc._of(n, self._d) for n in self._n)

    c0 = property(lambda self: RatFunc._of(self._n[0], self._d))
    c1 = property(lambda self: RatFunc._of(self._n[1], self._d))
    c2 = property(lambda self: RatFunc._of(self._n[2], self._d))
    c3 = property(lambda self: RatFunc._of(self._n[3], self._d))

    def __bool__(self) -> bool:
        return any(self._n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            if not isinstance(other, (int, Fraction, Poly, RatFunc)):
                return NotImplemented
            other = RingElem(other)
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        if not any(self._n[1:]):  # equal to its c0 in Q(lam): hash like it
            return hash(RatFunc._raw(self._n[0], self._d))
        return hash((self._n, self._d))

    def __add__(self, other) -> RingElem:
        if not isinstance(other, RingElem):
            other = RingElem(other)
        da, db = self._d, other._d
        if da == db:
            return _canon([_int_add(x, y) for x, y in zip(self._n, other._n)], da)
        return _canon(
            [_int_add(_int_mul(x, db), _int_mul(y, da)) for x, y in zip(self._n, other._n)],
            _int_mul(da, db),
        )

    __radd__ = __add__

    def __neg__(self) -> RingElem:
        return RingElem._raw(tuple(tuple(-v for v in n) for n in self._n), self._d)

    def __sub__(self, other) -> RingElem:
        return self + (-other)

    def __rsub__(self, other) -> RingElem:
        return RingElem(other) - self

    def __mul__(self, other) -> RingElem:
        if isinstance(other, RingElem):
            return ring_mul(self, other)
        sn, sd = _fraction(other)
        return _canon([_int_mul(n, sn) for n in self._n], _int_mul(self._d, sd))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RingElem:
        return ring_pow(self, n)

    def __str__(self) -> str:
        names = ("", "·α", "·α^2", "·α^3")
        parts = [f"({c})" + n for c, n in zip(self.coeffs, names) if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return "RingElem({!r}, {!r}, {!r}, {!r})".format(*self.coeffs)


def _canon(nums: list[IntList], den: IntList) -> RingElem:
    """The element (nums[0] + ... + nums[3]*alpha^3) / den (den nonzero),
    in the canonical form of ``polynomials._int_canon``."""
    return RingElem._raw(*_int_canon(nums, den))


ZERO = RingElem()
ONE = RingElem(1)
ALPHA = RingElem(0, 1)


def _images(bound: int, *elems: RingElem) -> tuple[int, list[list[int]]]:
    """bits whose digits hold every size <= bound, and elems' images at lam = 2^bits."""
    bits = bound.bit_length() + 1
    x = 1 << bits
    return bits, [[_at(n, x) for n in e._n] for e in elems]


def _height(a: RingElem) -> int:
    """The largest 1-norm of a's numerators N0..N3, kept on a once computed."""
    try:
        return a._h
    except AttributeError:
        h = a._h = max(sum(map(abs, n)) for n in a._n)
        return h


def _image_mul(a, b, row) -> tuple[int, int, int, int]:
    """Product in an integer image of the ring: the seven-term convolution,
    then alpha^6, alpha^5 and alpha^4 folded with the row's image."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    r0, r1, r2, r3 = row
    v0 = a0 * b0
    v1 = a0 * b1 + a1 * b0
    v2 = a0 * b2 + a1 * b1 + a2 * b0
    v3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
    v4 = a1 * b3 + a2 * b2 + a3 * b1
    v5 = a2 * b3 + a3 * b2
    v6 = a3 * b3
    v5 += v6 * r3
    v4 += v6 * r2 + v5 * r3
    return (
        v0 + v4 * r0,
        v1 + v5 * r0 + v4 * r1,
        v2 + v6 * r0 + v5 * r1 + v4 * r2,
        v3 + v6 * r1 + v5 * r2 + v4 * r3,
    )


def ring_mul(a: RingElem, b: RingElem) -> RingElem:
    """a * b in the image at lam = 2^bits, read back exactly by ``_digits``.

    The bound: the 1-norm |n| of a Z[lam] list bounds its coefficients, and
    |mn| <= |m||n|.  With A, B the largest |N_i| of a, b and R the sum of
    |r_j| over the row, each convolved entry sums at most four products
    (|.| <= 4AB), and each of three folds, entry k-4+j += c*r_j, grows the
    largest |.| at most (1 + R)-fold (``growth`` = (1 + R)^3): 4AB(1 + R)^3.
    """
    tables = _tables()
    bits, (x, y) = _images(4 * _height(a) * _height(b) * tables.growth, a, b)
    product = _image_mul(x, y, tables.row_image(bits))
    return _canon([_digits(v, bits) for v in product], _int_mul(a._d, b._d))


def _cramer(a: RingElem) -> tuple[int, tuple[int, int, int, int], int]:
    """First-row cofactors and determinant of the integer matrix of
    multiplication by a, as (bits, cofactor images, determinant image):
    each image is worth its Z[lam] list at lam = 2^bits, read back by
    ``_digits(image, bits)`` -- ``ring_inv`` reads all five, ``norm`` the
    determinant only.

    Column k of the matrix is a*alpha^k = cols[k] / D.  The cofactors C_0k
    expand along the second row over the six 2x2 minors of the last two
    rows, and det = sum r0[k] * C_0k, so no division occurs at all.  In
    ``ring_mul``'s terms column k has |.| <= A(1+R)^k: det (24 products of one
    entry a column) and a cofactor (6 of three; A >= 1 if a != 0) <= 24A^4(1+R)^6.
    """
    tables = _tables()
    bits, cols = _images(24 * _height(a) ** 4 * tables.growth ** 2, a)
    row = tables.row_image(bits)
    for _ in range(3):
        c0, c1, c2, top = cols[-1]
        cols.append([top * row[0], c0 + top * row[1], c1 + top * row[2], c2 + top * row[3]])
    r0, r1, (p0, p1, p2, p3), (q0, q1, q2, q3) = zip(*cols)
    m01, m02, m03 = p0 * q1 - p1 * q0, p0 * q2 - p2 * q0, p0 * q3 - p3 * q0
    m12, m13, m23 = p1 * q2 - p2 * q1, p1 * q3 - p3 * q1, p2 * q3 - p3 * q2
    cof = (
        r1[1] * m23 - r1[2] * m13 + r1[3] * m12,
        -r1[0] * m23 + r1[2] * m03 - r1[3] * m02,
        r1[0] * m13 - r1[1] * m03 + r1[3] * m01,
        -r1[0] * m12 + r1[1] * m02 - r1[2] * m01,
    )
    det = r0[0] * cof[0] + r0[1] * cof[1] + r0[2] * cof[2] + r0[3] * cof[3]
    return bits, cof, det


def ring_inv(a: RingElem) -> RingElem:
    """Multiplicative inverse by Cramer's rule for the first basis vector.

    With the matrix of multiplication by a scaled to integers (``_cramer``),
    x_k = D * C_0k / det.
    """
    if not a:
        raise ZeroDivisor("inverse of zero in the quartic ring")
    bits, cof, det = _cramer(a)
    if not det:
        raise SingularSystem("singular 4x4 system in ring inversion")
    return _canon([_int_mul(a._d, _digits(c, bits)) for c in cof], _digits(det, bits))


def ring_pow(a: RingElem, n: int) -> RingElem:
    if n < 0:
        return ring_pow(ring_inv(a), -n)
    result = ONE
    base = a
    while n:
        if n & 1:
            result = ring_mul(result, base)
        base = ring_mul(base, base)
        n >>= 1
    return result


def conjugates() -> tuple[RingElem, RingElem, RingElem, RingElem]:
    """The four roots of the defining quartic inside K (a1 = alpha)."""
    return _tables().conjugates


def galois(a: RingElem, i: int) -> RingElem:
    """Apply the i-th automorphism (alpha -> i-th conjugate), i in 1..4.

    With the conjugate's powers a_i^k = P_k / E over Z[lam] (k = 1..3), the
    image of a = (N0 + ... + N3 alpha^3) / D is (N0 E + sum N_k P_k) / (D E),
    formed at lam = 2^bits and read back by ``_digits``.  The bound, in
    ``ring_mul``'s terms (a 1-norm bounds the coefficients, |mn| <= |m||n|):
    with A the largest |N_k| and H the largest 1-norm of E and the P_k's
    coordinates, each coordinate of the numerator sums at most four products
    (N0 E and three N_k P_k), each of 1-norm <= AH: 4AH.
    """
    if i not in (1, 2, 3, 4):
        raise ValueError(f"automorphism index must be 1..4, got {i}")
    if i == 1:
        return a
    tables = _tables()
    bits, ((a0, a1, a2, a3),) = _images(4 * _height(a) * tables.conjugate_heights[i - 1], a)
    e, (p1, p2, p3) = tables.conjugate_images(i, bits)
    out = [a1 * x + a2 * y + a3 * z for x, y, z in zip(p1, p2, p3)]
    out[0] += a0 * e
    den = _int_mul(a._d, tables.conjugate_powers[i - 1][0])
    return _canon([_digits(v, bits) for v in out], den)


def norm(a: RingElem) -> RatFunc:
    """N(a) = det(x -> a*x) over Q(lam): the integer determinant over D^4."""
    bits, _, det = _cramer(a)
    d2 = _int_mul(a._d, a._d)
    # Built as det * (1/D^4) through RatFunc.__mul__: perfbench's tracer test
    # counts that ratfunc_mul (pinned in test_tooling_contract).
    return RatFunc._of(_digits(det, bits), [1]) * RatFunc._of([1], _int_mul(d2, d2))


def elem_from_xy(x: Poly, y: Poly) -> RingElem:
    """The linear form x - alpha*y, the left side of the norm equation."""
    return RingElem(x, -y)


def f_lambda_eval(x: Poly, y: Poly) -> RatFunc:
    """The quartic form X^4 - lam*X^3*Y - 6*X^2*Y^2 + lam*X*Y^3 + Y^4."""
    x, y = _as_poly(x), _as_poly(y)
    value = (
        x**4 - LAM * x**3 * y - 6 * x**2 * y**2 + LAM * x * y**3 + y**4
    )
    return RatFunc(value)


def min_poly_value(a: RingElem) -> RingElem:
    """a^4 - lam*a^3 - 6*a^2 + lam*a + 1; zero exactly on the conjugates."""
    a2 = ring_mul(a, a)
    a3 = ring_mul(a2, a)
    a4 = ring_mul(a2, a2)
    return a4 - a3 * LAM - a2 * 6 + a * LAM + ONE


def unit_from_exponents(r: int, s: int, t: int) -> RingElem:
    """(alpha-1)^r * alpha^s * (alpha+1)^t, exactly, for integers r, s, t."""
    r, s, t = operator.index(r), operator.index(s), operator.index(t)
    tables = _tables()
    out = ring_mul(tables.unit_power(0, r), tables.unit_power(1, s))
    return ring_mul(out, tables.unit_power(2, t))


class _RowTables:
    """Every table derived from one rewrite row, each built on first use."""

    def __init__(self, row: tuple) -> None:
        #: The row object these tables were built from.
        self.source = row
        #: The rewrite row (coefficients of alpha^4) in the integer form.
        self.row = RingElem(*row)
        if self.row._d != (1,):
            raise NotMonic("the rewrite row must lie in Z[lam]")
        self._unit_powers = {(which, 0): ONE for which in range(3)}
        self._row_images: dict[int, list[int]] = {}
        self._conjugate_images: dict[tuple[int, int], tuple] = {}
        self.growth = (1 + sum(sum(map(abs, r)) for r in self.row._n)) ** 3

    def row_image(self, bits: int) -> list[int]:
        """The row's image at lam = 2^bits, memoized per bits."""
        image = self._row_images.get(bits)
        if image is None:
            image = self._row_images[bits] = [_at(n, 1 << bits) for n in self.row._n]
        return image

    @cached_property
    def conjugates(self) -> tuple[RingElem, RingElem, RingElem, RingElem]:
        a2 = ring_mul(ALPHA - 1, ring_inv(ALPHA + 1))
        a3 = -ring_inv(ALPHA)
        a4 = -ring_inv(a2)
        return (ALPHA, a2, a3, a4)

    @cached_property
    def conjugate_powers(self) -> tuple[tuple[IntList, tuple[list[IntList], ...]], ...]:
        """Per conjugate a: a denominator E and a^1..a^3 as numerator vectors over E."""
        table = []
        for a in self.conjugates:
            sq = ring_mul(a, a)
            powers = (a, sq, ring_mul(sq, a))
            nums, e = _int_clear([(n, p._d) for p in powers for n in p._n])
            table.append((e, tuple(nums[k:k + 4] for k in (0, 4, 8))))
        return tuple(table)

    @cached_property
    def conjugate_heights(self) -> tuple[int, ...]:
        """Per conjugate: the largest 1-norm of its E and its powers' numerators."""
        return tuple(
            max(sum(map(abs, n)) for n in (e, *(n for p in powers for n in p)))
            for e, powers in self.conjugate_powers
        )

    def conjugate_images(self, i: int, bits: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """E's and a_i^1..a_i^3's numerators' images at lam = 2^bits, memoized per (i, bits)."""
        key = (i, bits)
        images = self._conjugate_images.get(key)
        if images is None:
            x = 1 << bits
            e, powers = self.conjugate_powers[i - 1]
            images = self._conjugate_images[key] = (
                _at(e, x),
                tuple(tuple(_at(n, x) for n in p) for p in powers),
            )
        return images

    @cached_property
    def unit_bases(self) -> tuple[tuple[RingElem, RingElem], ...]:
        """(base, base^-1) for the three fundamental units alpha-1, alpha, alpha+1."""
        return tuple((b, ring_inv(b)) for b in (ALPHA - 1, ALPHA, ALPHA + 1))

    def unit_power(self, which: int, e: int) -> RingElem:
        """The which-th fundamental unit to the power e (of either sign), memoized."""
        power = self._unit_powers.get((which, e))
        if power is None:
            # one more factor of base (e > 0) or base^-1 (e < 0) than the power toward 0
            inner = self.unit_power(which, e - 1 if e > 0 else e + 1)
            power = self._unit_powers[which, e] = ring_mul(inner, self.unit_bases[which][e < 0])
        return power


_current: _RowTables | None = None


def _tables() -> _RowTables:
    """The tables of the current ``REWRITE_ROW``, rebuilt when it is another object."""
    global _current
    tables = _current
    if tables is None or tables.source is not REWRITE_ROW:
        tables = _current = _RowTables(REWRITE_ROW)
    return tables


def clear_caches() -> None:
    """Drop the cached tables: perfbench's tamper fixture (a swapped row needs none)."""
    global _current
    _current = None
