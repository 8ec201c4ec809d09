"""Arithmetic in K = Q(lam)[alpha] / (alpha^4 - lam*alpha^3 - 6*alpha^2 + lam*alpha + 1).

An element is stored on the power basis (1, alpha, alpha^2, alpha^3) in
one integer form: four coefficient lists N0..N3 in Z[lam] over one
denominator D in Z[lam],

    (N0 + N1*alpha + N2*alpha^2 + N3*alpha^3) / D.

The form is canonical -- gcd over Q[lam] of N0..N3 and D is 1, their
integer content is 1, and lc(D) > 0 -- so equal values have equal
representations, and equality and hashing compare them directly.  Every
unit and conjugate the verifier meets lies in Z[1/2][lam][alpha], where D
is an integer and canonicalizing divides out an integer content without
a polynomial gcd.  ``c0``..``c3`` and ``coeffs`` give the coefficients as
canonical ``RatFunc`` values, built on first use and kept on the element.

Products are 16 integer convolutions, reduced with the rewrite rule

    alpha^4 = lam*alpha^3 + 6*alpha^2 - lam*alpha - 1

applied from the top degree down.  The kernel takes the rule's integer
form from the current ``REWRITE_ROW``, so swapping the tuple (as
fault-injection tests do) takes effect on the next product.  The row must
lie in Z[lam] (``NotMonic`` otherwise): f is then monic over Z[lam], and
folding never leaves Z[lam].  One routine expands the integer matrix of
multiplication by a along its first row: its cofactors give the inverse
by Cramer's rule, and its determinant over D^4 is the norm N(a).  The
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

from fractions import Fraction
from functools import cached_property
from math import gcd as gcd_int

from .errors import NotMonic, SingularSystem, ZeroDivisor
from .polynomials import (
    LAM,
    Poly,
    RatFunc,
    _as_poly,
    _int_add,
    _int_exquo,
    _int_gcd,
    _int_mul,
)

#: Coefficients of alpha^4 on the power basis (the rewrite rule).
REWRITE_ROW = (RatFunc(-1), RatFunc(-LAM), RatFunc(6), RatFunc(LAM))

_RF_ZERO = RatFunc(0)
_ZERO_NUMS = ((), (), (), ())

IntList = list[int]


class RingElem:
    """c0 + c1*alpha + c2*alpha^2 + c3*alpha^3, held as (N0..N3) / D over Z[lam]."""

    __slots__ = ("_n", "_d", "_rf")

    def __init__(self, c0, c1, c2, c3):
        """From four coefficients, each a ``RatFunc``, ``Poly``, int or Fraction."""
        fracs = [_fraction(c) for c in (c0, c1, c2, c3)]
        den = [1]
        for _, d in fracs:
            den = _common_multiple(den, d)
        nums = [_int_mul(n, _int_exquo(den, d)) for n, d in fracs]
        e = _canon(nums, den)
        self._n, self._d, self._rf = e._n, e._d, None

    @classmethod
    def _raw(cls, nums: tuple[tuple[int, ...], ...], den: tuple[int, ...]) -> RingElem:
        """Wrap a form already known canonical."""
        out = object.__new__(cls)
        out._n = nums
        out._d = den
        out._rf = None
        return out

    @staticmethod
    def of(c0=0, c1=0, c2=0, c3=0) -> RingElem:
        return RingElem(c0, c1, c2, c3)

    @property
    def coeffs(self) -> tuple[RatFunc, RatFunc, RatFunc, RatFunc]:
        rf = self._rf
        if rf is None:
            den = Poly._of(list(self._d), 1)
            rf = self._rf = tuple(
                RatFunc(Poly._of(list(n), 1), den) if n else _RF_ZERO for n in self._n
            )
        return rf

    c0 = property(lambda self: self.coeffs[0])
    c1 = property(lambda self: self.coeffs[1])
    c2 = property(lambda self: self.coeffs[2])
    c3 = property(lambda self: self.coeffs[3])

    def __bool__(self) -> bool:
        return any(self._n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._n, self._d))

    def __add__(self, other) -> RingElem:
        other = _as_elem(other)
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
        return self + (-_as_elem(other))

    def __rsub__(self, other) -> RingElem:
        return _as_elem(other) - self

    def __mul__(self, other) -> RingElem:
        if isinstance(other, (int, Fraction, RatFunc, Poly)):
            sn, sd = _fraction(other)
            return _canon([_int_mul(n, sn) for n in self._n], _int_mul(self._d, sd))
        return ring_mul(self, _as_elem(other))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> RingElem:
        return ring_pow(self, n)

    def __str__(self) -> str:
        names = ("", "·α", "·α^2", "·α^3")
        parts = [f"({c})" + n for c, n in zip(self.coeffs, names) if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return "RingElem({!r}, {!r}, {!r}, {!r})".format(*self.coeffs)


def _fraction(x) -> tuple[IntList, IntList]:
    """A coefficient as an integer numerator list over a nonzero denominator list."""
    if isinstance(x, RatFunc):
        n, d = x.num, x.den
        return [v * d._d for v in n._n], [v * n._d for v in d._n]
    p = _as_poly(x)
    return list(p._n), [p._d]


def _common_multiple(a: IntList, b: IntList) -> IntList:
    """A multiple of both a and b in Z[lam] (their lcm up to a constant)."""
    if len(a) == 1 and len(b) == 1:
        return [a[0] * b[0] // gcd_int(a[0], b[0])]
    return _int_mul(a, _int_exquo(b, _int_gcd(a, b)))


def _trim(n: IntList) -> IntList:
    while n and not n[-1]:
        n.pop()
    return n


def _canon(nums: list[IntList], den: IntList) -> RingElem:
    """The canonical element (nums[0] + ... + nums[3]*alpha^3) / den (den nonzero).

    Each list is trimmed in place, so a tuple may come in only without
    trailing zeros (a canonical ``_n`` or ``_d``).  A constant denominator needs only the integer content divided out;
    otherwise the gcd over Q[lam] of the denominator and the numerators
    is divided out first (exactly, since that gcd is primitive).
    """
    nums = [_trim(n) for n in nums]
    if not any(nums):
        return RingElem._raw(_ZERO_NUMS, (1,))
    den = _trim(den)
    if len(den) > 1:
        g = den
        for n in nums:
            if n:
                g = _int_gcd(g, n)
                if len(g) == 1:
                    break
        if len(g) > 1:
            nums = [_int_exquo(n, g) if n else n for n in nums]
            den = _int_exquo(den, g)
    c = gcd_int(*den, *nums[0], *nums[1], *nums[2], *nums[3])
    if den[-1] < 0:
        c = -c
    if c != 1:
        nums = [[v // c for v in n] for n in nums]
        den = [v // c for v in den]
    return RingElem._raw(tuple(tuple(n) for n in nums), tuple(den))


def _as_elem(x) -> RingElem:
    if isinstance(x, RingElem):
        return x
    return RingElem(x, 0, 0, 0)


ZERO = RingElem.of(0)
ONE = RingElem.of(1)
ALPHA = RingElem.of(0, 1)


def _fold(vec: list[IntList]) -> list[IntList]:
    """Fold sum(vec[k] alpha^k), k up to 6, onto the power basis.

    Returns the four folded numerator lists, in Z[lam] like the rewrite row.
    """
    rows = _tables().row._n
    for k in range(len(vec) - 1, 3, -1):
        c = vec[k]
        if c:
            for j, r in enumerate(rows):
                if r:
                    vec[k - 4 + j] = _int_add(vec[k - 4 + j], _int_mul(c, r))
    return vec[:4]


def ring_mul(a: RingElem, b: RingElem) -> RingElem:
    vec: list[IntList] = [[] for _ in range(7)]
    for i, x in enumerate(a._n):
        if x:
            for j, y in enumerate(b._n):
                if y:
                    vec[i + j] = _int_add(vec[i + j], _int_mul(x, y))
    return _canon(_fold(vec), _int_mul(a._d, b._d))


def _int_sub(a: IntList, b: IntList) -> IntList:
    return _int_add(a, [-v for v in b])


def _cramer(a: RingElem) -> tuple[list[IntList], IntList]:
    """First-row cofactors and determinant of the integer matrix of multiplication by a.

    Column k of the matrix is a*alpha^k = cols[k] / D.  The cofactors C_0k
    expand along the second row over the six 2x2 minors of the last two
    rows, and det = sum r0[k] * C_0k, so no division occurs at all.
    """
    cols = [list(a._n)]
    for _ in range(3):
        cols.append(_fold([[], *cols[-1]]))
    r0, r1, r2, r3 = ([c[i] for c in cols] for i in range(4))
    minor = {
        (p, q): _int_sub(_int_mul(r2[p], r3[q]), _int_mul(r2[q], r3[p]))
        for p in range(4)
        for q in range(p + 1, 4)
    }
    cof = []
    for k in range(4):
        p, q, s = (j for j in range(4) if j != k)
        d3 = _int_add(
            _int_sub(_int_mul(r1[p], minor[q, s]), _int_mul(r1[q], minor[p, s])),
            _int_mul(r1[s], minor[p, q]),
        )
        cof.append(d3 if k % 2 == 0 else [-v for v in d3])
    det: IntList = []
    for x, c in zip(r0, cof):
        det = _int_add(det, _int_mul(x, c))
    return cof, _trim(det)


def ring_inv(a: RingElem) -> RingElem:
    """Multiplicative inverse by Cramer's rule for the first basis vector.

    With the matrix of multiplication by a scaled to integers (``_cramer``),
    x_k = D * C_0k / det.
    """
    if not a:
        raise ZeroDivisor("inverse of zero in the quartic ring")
    cof, det = _cramer(a)
    if not det:
        raise SingularSystem("singular 4x4 system in ring inversion")
    return _canon([_int_mul(a._d, c) for c in cof], det)


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
    """Apply the i-th automorphism (alpha -> i-th conjugate), i in 1..4."""
    if i not in (1, 2, 3, 4):
        raise ValueError(f"automorphism index must be 1..4, got {i}")
    if i == 1:
        return a
    e, powers = _tables().conjugate_powers[i - 1]
    out = [_int_mul(a._n[0], e), [], [], []]
    for c, p in zip(a._n[1:], powers):
        if c:
            for j in range(4):
                out[j] = _int_add(out[j], _int_mul(c, p[j]))
    return _canon(out, _int_mul(list(a._d), e))


def norm(a: RingElem) -> RatFunc:
    """N(a) = det(x -> a*x) over Q(lam): the integer determinant over D^4."""
    d2 = _int_mul(a._d, a._d)
    # Built as det * (1/D^4) through RatFunc.__mul__: perfbench's tracer test
    # counts that ratfunc_mul (pinned in test_tooling_contract).
    return RatFunc(Poly._of(_cramer(a)[1], 1)) * RatFunc(1, Poly._of(_int_mul(d2, d2), 1))


def elem_from_xy(x: Poly, y: Poly) -> RingElem:
    """The linear form x - alpha*y, the left side of the norm equation."""
    return RingElem(x, -y, 0, 0)


def f_lambda_eval(x: Poly, y: Poly) -> RatFunc:
    """The quartic form X^4 - lam*X^3*Y - 6*X^2*Y^2 + lam*X*Y^3 + Y^4."""
    if not isinstance(x, Poly):
        x = Poly((x,))
    if not isinstance(y, Poly):
        y = Poly((y,))
    value = (
        x**4 - LAM * x**3 * y - 6 * x**2 * y**2 + LAM * x * y**3 + y**4
    )
    return RatFunc(value)


def min_poly_value(a: RingElem) -> RingElem:
    """a^4 - lam*a^3 - 6*a^2 + lam*a + 1; zero exactly on the conjugates."""
    lam = RatFunc(LAM)
    a2 = ring_mul(a, a)
    a3 = ring_mul(a2, a)
    a4 = ring_mul(a2, a2)
    return a4 - a3 * lam - a2 * 6 + a * lam + ONE


def unit_from_exponents(r: int, s: int, t: int) -> RingElem:
    """(alpha-1)^r * alpha^s * (alpha+1)^t, exactly."""
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
            e = [1]
            for p in powers:
                e = _common_multiple(e, list(p._d))
            table.append((e, tuple([_int_mul(n, _int_exquo(e, p._d)) for n in p._n]
                                   for p in powers)))
        return tuple(table)

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
    """Drop the cached tables (a swapped REWRITE_ROW replaces them without this call)."""
    global _current
    _current = None
