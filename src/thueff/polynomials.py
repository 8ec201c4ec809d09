"""Exact univariate polynomial and rational-function arithmetic over Q.

The coefficient field of everything downstream is Q(lam), the field of
rational functions in one indeterminate ``lam`` with rational coefficients.
This module supplies its two building blocks:

* ``Poly`` -- dense univariate polynomials over Q, stored as integer
  numerators (ascending, no trailing zeros) over one positive common
  denominator, in lowest terms: gcd(denominator, *numerators) = 1.  The
  zero polynomial is ``((), 1)`` and its degree is the ``-inf`` sentinel
  (never fed back into exponent arithmetic).  The arithmetic runs on the
  integers; ``coeffs`` and indexing still yield ``fractions.Fraction``
  values, built on demand.  ``truncate``, ``shift``, ``reversed`` and
  ``low_degree`` serve the series windows of ``laurent``.
* ``RatFunc`` -- quotients N/D of two integer coefficient tuples in
  Z[lam], canonicalized eagerly: N and D coprime over Q[lam], integer
  content 1 and lc(D) > 0, so equality of values is equality of
  representations.  It is the form of one coordinate of a quartic ring
  element, and ``_int_canon`` -- the primitive-gcd step of Gauss's lemma
  (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 6) -- brings
  both to it.  ``num`` and ``den`` are ``Poly`` views over a monic
  denominator.

Outside values enter here and nowhere else: ``Poly`` takes int and
``Fraction`` coefficients, and ``_fraction`` -- the one intake of
``RatFunc``, the quartic ring and ``bounds.resultant`` -- takes an int,
``Fraction``, ``Poly`` or ``RatFunc`` to N/D over Z[lam].  Both refuse a
float, a ``Decimal`` or a string with TypeError.

``Poly`` sums and products, ``RatFunc`` arithmetic with its canonical
form and the quartic ring's integer form all run on kernels over integer
coefficient lists (``_int_add``, ``_int_mul``, ``_int_gcd``,
``_int_exquo``), and so does ``bareiss_det``, the fraction-free
determinant of a matrix over Z[lam] behind ``bounds.resultant``.
``_int_mul_low``, behind ``Poly.mul_low``, is the short product that
series windows use: the terms below a given power.  On short, sparse or
lopsided operands it is a schoolbook loop that forms no term from that
power on; on two long dense windows it packs the even- and odd-index
terms of each into s-bit slots, forms two half-width integer products at
x = +-2^(s/2) (Harvey's two-point Kronecker substitution) and reads the
even and odd terms back from their half-sum and half-difference, with s
from a proven growth envelope; two long windows that are each even or odd
multiply as their nonzero streams, at half the length.  The gcd
``_int_gcd`` has no public wrapper: ``_int_canon`` and
``_common_multiple`` call it.  It runs in an integer image: both lists
evaluated at lam = 2^bits (``_at``), one integer gcd, its balanced
base-2^bits digits read back (``_digits``) and the candidate accepted only
when it divides both lists exactly, which also gives the two cofactors
that ``_int_canon`` keeps; the quartic ring's products, inverses and norms
use the same image and the same reader.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd as gcd_int, lcm
from typing import Iterable, Sequence, Union

from .errors import ZeroDivisor

CoeffLike = Union[int, Fraction]

_NEG_INF = float("-inf")
_INF = float("inf")


def _trim(n: list[int]) -> list[int]:
    """Drop the trailing zeros of n in place."""
    while n and not n[-1]:
        n.pop()
    return n


class Poly:
    """A dense univariate polynomial over Q: integer numerators over one denominator."""

    __slots__ = ("_n", "_d")

    def __init__(self, coeffs: Iterable[CoeffLike] = ()):
        c = list(coeffs)
        if not all(isinstance(x, (int, Fraction)) for x in c):
            raise TypeError(f"polynomial coefficients must be int or Fraction, got {c!r}")
        d = lcm(*(x.denominator for x in c))
        p = Poly._of([x.numerator * (d // x.denominator) for x in c], d)
        self._n, self._d = p._n, p._d

    @classmethod
    def _of(cls, n: list[int], d: int) -> Poly:
        """sum(n[i] x**i) / d for any nonzero d, brought to lowest terms."""
        _trim(n)
        if d < 0:
            n = [-v for v in n]
            d = -d
        if d != 1:
            g = gcd_int(d, *n)
            if g != 1:
                n = [v // g for v in n]
                d //= g
        out = object.__new__(cls)
        out._n = tuple(n)
        out._d = d
        return out

    # -- basic structure ------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self._d
        return tuple(Fraction(v, d) for v in self._n)

    @property
    def degree(self):
        """Degree, or ``-inf`` for the zero polynomial."""
        return len(self._n) - 1 if self._n else _NEG_INF

    def __bool__(self) -> bool:
        return bool(self._n)

    def __getitem__(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored range)."""
        if 0 <= i < len(self._n):
            return Fraction(self._n[i], self._d)
        return Fraction(0)

    @property
    def low_degree(self):
        """Index of the lowest nonzero coefficient, or ``inf`` for zero."""
        return next((i for i, v in enumerate(self._n) if v), _INF)

    def is_constant(self) -> bool:
        return len(self._n) <= 1

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: Poly | CoeffLike) -> Poly:
        if isinstance(other, RatFunc):
            return NotImplemented
        other = _as_poly(other)
        a, b, d = self._n, other._n, self._d
        if d != other._d:
            d = lcm(d, other._d)
            a = [v * (d // self._d) for v in a]
            b = [v * (d // other._d) for v in b]
        return Poly._of(_int_add(a, b), d)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        out = object.__new__(Poly)
        out._n = tuple(-v for v in self._n)
        out._d = self._d
        return out

    def __sub__(self, other: Poly | CoeffLike) -> Poly:
        return -(-self + other)

    def __rsub__(self, other: CoeffLike) -> Poly:
        return _as_poly(other) - self

    def __mul__(self, other: Poly | CoeffLike) -> Poly:
        if isinstance(other, RatFunc):
            return NotImplemented
        other = _as_poly(other)
        if not self._n or not other._n:
            return ZERO
        return Poly._of(_int_mul(self._n, other._n), self._d * other._d)

    __rmul__ = __mul__

    def mul_low(self, other: Poly, n: int) -> Poly:
        """``(self * other).truncate(n)``, by ``_int_mul_low``: the
        schoolbook path forms no term from x**n on; the packed path forms
        the whole integer product of the two windows and reads only its
        low n digits."""
        return Poly._of(_int_mul_low(self._n, other._n, n), self._d * other._d)

    def __pow__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return Poly._of(_int_pow(self._n, n), self._d**n)

    # -- windows ---------------------------------------------------------

    def truncate(self, k: int) -> Poly:
        """The terms below x**k."""
        if k >= len(self._n):
            return self
        return Poly._of(list(self._n[: max(k, 0)]), self._d)

    def shift(self, k: int) -> Poly:
        """x**k * self; a negative k drops the terms below x**(-k) first."""
        if k == 0:
            return self
        n = [0] * k + list(self._n) if k > 0 else list(self._n[-k:])
        return Poly._of(n, self._d)

    def reversed(self) -> Poly:
        """x**deg * self(1/x): the coefficients in reverse order."""
        return Poly._of(list(self._n[::-1]), self._d)

    # -- comparison / hashing / text -------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = _as_poly(other)
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        # equal to its Fraction if constant, else to its RatFunc: hash like it
        if len(self._n) <= 1:
            return hash(self[0])
        return hash((self._n, (self._d,)))

    def __str__(self) -> str:
        if not self._n:
            return "0"
        return ", ".join(str(x) for x in self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self})"


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    return Poly((x,))


#: The coefficient-field indeterminate.
LAM = Poly((0, 1))

ZERO = Poly()
ONE = Poly((1,))


# -- integer coefficient lists (ascending) ----------------------------------


def _int_add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sum of two integer coefficient lists (trailing zeros may remain)."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return out


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of two integer coefficient lists; ``[]`` if either is empty."""
    if not a or not b:
        return []
    if len(a) > len(b):
        a, b = b, a  # the shorter list in the outer loop: fewer loop set-ups
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


#: The least working order n at which ``_int_mul_low`` packs two dense
#: operands into two half-width integer products (measured, see there).
_PACK_MIN = 28


def _int_mul_low(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The terms below x**n of the product, ``_int_mul(a, b)[:n]``.

    Both operands are first cut to n terms.  The schoolbook path forms each
    product a_i b_j with i + j < n and no other.  When n >= 28 and the
    operands are dense, 2 nnz(a) nnz(b) >= n^2, ``_packed_mul_low``
    instead forms two integer products of the operands' images at
    x = +-2^(s/2), whose terms from x**n on are never read.

    A window is parity-pure when its nonzero terms all sit at even indices
    or all at odd ones (a series odd or even in lam).  When both are, with
    parities p_a and p_b, and n >= 2 ``_PACK_MIN``: a(x) = x^p_a A(x^2),
    b(x) = x^p_b B(x^2), so a b = x^(p_a + p_b) (A B)(x^2), and its terms
    below x**n are those of A B below y**ceil((n - p_a - p_b)/2), written
    back at indices p_a + p_b, p_a + p_b + 2, ...  That half-length
    product of two dense streams runs through this function again, and so
    packs from ``_PACK_MIN`` up; below 2 ``_PACK_MIN`` the streams would
    take the schoolbook loop, which skips a pure window's zeros anyway.
    On the four such products of a warm ``verify_theorem(order=128)``
    (n = 128-133) the half path takes 198-224 us against 367-415 us on
    the schoolbook (median of 41 alternating calls).  Everything else --
    short times long (a ring numerator times a series window), a pure
    window times a dense one, Newton's 2 - e with its run of zeros --
    stays on the schoolbook path, which skips zero terms.

    The limit is measured on the dense windows of alpha1 and alpha3
    (Python 3.11, 2-core VM, median of 7-101 alternating calls, us):

    ====  ==========  ======
    n     schoolbook  packed
    ====  ==========  ======
    8     9           32
    16    28          48
    24    62          66
    26    73          72
    28    84          74
    32    110         85
    64    503         212
    128   2147        896
    256   9874        5365
    512   59803       41663
    1024  432701      253726
    1040  531837      339751
    ====  ==========  ======

    Packing loses below n = 26, is level at 26-27 and wins at every larger
    n measured (at n = 1536 too: 0.97 s against 1.85 s), so it has no
    upper limit.
    """
    if not a or not b or n <= 0:
        return []
    if len(a) > len(b):
        a, b = b, a
    n = min(n, len(a) + len(b) - 1)
    a, b = a[:n], b[:n]
    if n >= 2 * _PACK_MIN:
        pa, pb = _parity(a), _parity(b)
        if pa is not None and pb is not None:
            p = pa + pb
            half = _int_mul_low(a[pa::2], b[pb::2], (n - p + 1) // 2)
            out = [0] * n
            out[p:p + 2 * len(half):2] = half
            return out
    if n >= _PACK_MIN and 2 * (len(a) - a.count(0)) * (len(b) - b.count(0)) >= n * n:
        return _packed_mul_low(a, b, n)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[: n - i]):
                if y:
                    out[i + j] += x * y
    return out


def _parity(a: Sequence[int]) -> int | None:
    """0 if every nonzero term of a sits at an even index, else 1 if every
    one sits at an odd index, else None."""
    if not any(a[1::2]):
        return 0
    if not any(a[0::2]):
        return 1
    return None


def _slot_bytes(a: Sequence[int], b: Sequence[int], n: int) -> int:
    """The slot width s/8 in bytes of ``_packed_mul_low``: every term
    below x**n of the product a b, and every term of a and b, lies in
    [-2^(s-1), 2^(s-1)).

    s comes from a growth envelope, not from the largest coefficient: the
    coefficients of a root window grow by about 2 bits a term (the
    discriminant 4(lam^2 + 16)^3 vanishes at lam = +-4i), so a max * max
    bound would double the slot.  For any slope g >= 0 -- here the larger
    rise per term from the first to the last nonzero term of an operand --
    let e_a be the largest bitlen|a_i| - g i over nonzero a_i, so
    |a_i| < 2^(e_a + g i), and e_b likewise.  For k < n,
    c_k = sum_{i+j=k} a_i b_j has at most n terms, each below
    2^(e_a + e_b + g k) <= 2^(e_a + e_b + g(n-1)), so
    |c_k| < n 2^(e_a + e_b + g(n-1)) <= 2^top with
    top = bitlen(n) + ceil(e_a + e_b + g(n-1)).  g = p/q is rational, and
    the sums run over q-multiples in integers.  s is the least multiple of
    8 with s - 1 >= top and s - 1 >= bitlen of every |a_i| and |b_j|.
    Which g is taken bears only on the width, never on exactness.
    """
    sizes = [[(i, abs(v).bit_length()) for i, v in enumerate(x) if v] for x in (a, b)]
    p, q = max(
        ((t[-1][1] - t[0][1], t[-1][0] - t[0][0] or 1) for t in sizes),
        key=lambda r: r[0] / r[1],
    )
    p = max(p, 0)
    e = sum(max(q * k - p * i for i, k in t) for t in sizes)  # q (e_a + e_b)
    top = max(n.bit_length() - (-(e + p * (n - 1)) // q), *(k for t in sizes for _, k in t))
    return top // 8 + 1  # s = 8w >= top + 1


def _packed_mul_low(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """``_int_mul_low`` for nonzero a, b of at most n terms, as two
    half-width integer products: Harvey's two-point Kronecker substitution
    (D. Harvey, "Faster polynomial multiplication via multipoint Kronecker
    substitution", *J. Symbolic Comput.* 44, 2009).

    Write a(x) = a_e(x^2) + x a_o(x^2), its even- and odd-index terms, take
    the slot s of ``_slot_bytes`` and h = s/2.  A_e = a_e(2^s) and
    A_o = a_o(2^s) are the two streams packed into s-bit slots, offset by
    2^(s-1), so a(+-2^h) = A_e +- 2^h A_o, and likewise for b.  The two
    products are P+- = a(+-2^h) b(+-2^h) = c(+-2^h) = C_e +- 2^h C_o with
    C_e = sum_j c_2j 2^(sj) and C_o = sum_j c_2j+1 2^(sj), so
    C_e = (P+ + P-)/2 and C_o = (P+ - P-)/2^(h+1); both halvings are
    exact.  In C_e the terms c_2j with 2j >= n, i.e. j >= ceil(n/2), are
    multiples of 2^(s ceil(n/2)); in C_o those with 2j + 1 >= n, i.e.
    j >= floor(n/2), are multiples of 2^(s floor(n/2)).  Neither disturbs
    the digits below, so the low ceil(n/2) balanced s-bit digits of C_e
    are the c_2j, and the low floor(n/2) of C_o the c_2j+1, below x**n:
    exact, since ``_slot_bytes`` puts every such |c_k| below 2^(s-1).

    Each product has about half the bits of the one product
    a(2^s) b(2^s), so under Karatsuba the two cost about
    2 (1/2)^1.585 = 0.67 of it.
    """
    w = _slot_bytes(a, b, n)
    h = 4 * w  # s / 2
    half = 1 << (8 * w - 1)
    slot = half.to_bytes(w, "little")

    def image(x: Sequence[int]) -> int:
        packed = b"".join([(v + half).to_bytes(w, "little") for v in x])
        return int.from_bytes(packed, "little") - int.from_bytes(slot * len(x), "little")

    def at_two_points(x: Sequence[int]) -> tuple[int, int]:
        even, odd = image(x[0::2]), image(x[1::2]) << h
        return even + odd, even - odd

    def low_digits(v: int, m: int) -> list[int]:
        low = (v + int.from_bytes(slot * m, "little")) & ((1 << (8 * w * m)) - 1)
        buf = low.to_bytes(w * m, "little")
        return [int.from_bytes(buf[k:k + w], "little") - half for k in range(0, w * m, w)]

    (ap, am), (bp, bm) = at_two_points(a), at_two_points(b)
    plus, minus = ap * bp, am * bm
    out = [0] * n
    out[0::2] = low_digits((plus + minus) >> 1, (n + 1) // 2)
    out[1::2] = low_digits((plus - minus) >> (h + 1), n // 2)
    return out


def _int_exquo(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The quotient a / b, for a nonzero b that divides a in Z[x]; ValueError
    if b does not.

    Every b that is primitive and divides a over Q qualifies (Gauss's
    lemma), so each long-division step below is an exact integer quotient;
    an inexact step would leave its residue in ``r``.
    """
    lb = b[-1]
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1, db - 1, -1):
        c = r[k]
        if c:
            c //= lb
            q[k - db] = c
            for j in range(db + 1):
                r[k - db + j] -= c * b[j]
    if any(r):
        raise ValueError("the divisor does not divide exactly")
    return q


def _int_primitive(n: Sequence[int]) -> list[int]:
    """A nonzero integer coefficient list over its content, with positive lead."""
    g = gcd_int(*n)
    if n[-1] < 0:
        g = -g
    return [v // g for v in n]


def _at(n: Sequence[int], x: int) -> int:
    """The Z[lam] coefficient list n evaluated at lam = x, by Horner's rule."""
    acc = 0
    for c in reversed(n):
        acc = acc * x + c
    return acc


def _digits(v: int, bits: int) -> list[int]:
    """The Z[lam] list worth v at lam = 2^bits: v's balanced base-2^bits digits.

    Every list without trailing zeros whose coefficients lie in
    [-2^(bits-1), 2^(bits-1)) is the digit list of its own value at 2^bits,
    so the reading is exact there.
    """
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        v = (v - d) >> bits
    return out


def _int_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], Sequence[int], Sequence[int]]:
    """The gcd over Q[x] of two nonzero integer coefficient lists (no
    trailing zeros), as a primitive integer list g with positive lead, and
    the exact quotients a / g and b / g in Z[x].

    The heuristic gcd GCDHEU (Char, Geddes & Gonnet, J. Symbolic Comput. 7
    (1989)), here exact: with x, y the primitive parts of a, b and
    xi = 2^bits >= 2 min(|x|_inf, |y|_inf) + 2, the candidate is the
    primitive part of the balanced base-xi digits (``_digits``) of
    h = igcd(x(xi), y(xi)).  A candidate that divides both x and y exactly
    (``_int_exquo``) is their gcd (Geddes, Czapor & Labahn, *Algorithms
    for Computer Algebra*, Thm 7.7), and those two divisions give the
    quotients; otherwise bits doubles and the next xi is tried.

    That ends: let g be the gcd, x = g u and y = g v.  u and v are coprime,
    so s u + t v = r, their resultant, for some s, t in Z[x] and a nonzero
    integer r; e = igcd(u(xi), v(xi)) divides r at every xi, and
    h = e |g(xi)|.  Once xi > 2 |r| |g|_inf, every coefficient of +-e g
    lies inside the balanced digit range, so h reads back as +-e g, whose
    primitive part g passes.  There is no remainder sequence to fall back on.
    """
    if len(a) == 1 or len(b) == 1:
        return [1], a, b
    x = _int_primitive(a)
    y = _int_primitive(b)
    bits = (2 * min(max(map(abs, x)), max(map(abs, y))) + 2).bit_length()
    while True:
        xi = 1 << bits
        g = _digits(gcd_int(_at(x, xi), _at(y, xi)), bits)
        if len(g) == 1:
            return [1], a, b
        g = _int_primitive(g)
        try:
            u, v = _int_exquo(x, g), _int_exquo(y, g)
        except ValueError:
            bits *= 2
            continue
        # a = c x with c = a[-1] / x[-1], so a / g = c u
        ca, cb = a[-1] // x[-1], b[-1] // y[-1]
        return g, u if ca == 1 else [ca * t for t in u], v if cb == 1 else [cb * t for t in v]


def _int_pow(a: Sequence[int], k: int) -> list[int]:
    """a**k for an integer coefficient list and k >= 0, by repeated squaring."""
    out = [1]
    while k:
        if k & 1:
            out = _int_mul(out, a)
        a = _int_mul(a, a)
        k >>= 1
    return out


def _common_multiple(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """A multiple of both a and b in Z[lam] (their lcm up to a constant)."""
    if len(a) == 1 and len(b) == 1:
        return [a[0] * b[0] // gcd_int(a[0], b[0])]
    return _int_mul(a, _int_gcd(a, b)[2])


def _int_clear(
    fracs: Sequence[tuple[Sequence[int], Sequence[int]]],
) -> tuple[list[list[int]], list[int]]:
    """Pairs (n_i, d_i) over Z[lam] put over one denominator D, a common
    multiple of the d_i: returns the numerators n_i * (D / d_i) and D."""
    den = [1]
    for _, d in fracs:
        den = _common_multiple(den, d)
    return [_int_mul(n, _int_exquo(den, d)) for n, d in fracs], den


def _int_canon(
    nums: list[list[int]], den: list[int]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The canonical form of the vector nums / den over Z[lam] (den nonzero).

    Returns integer tuples (N_1, ..., N_k) and D: the gcd over Q[lam] of
    the N_i and D is 1, their integer content is 1, and lc(D) > 0, so
    equal vectors get equal forms.  A zero vector gets ((), ..., ()) and
    (1,).  Each list is trimmed in place, so a tuple may come in only
    without trailing zeros (a canonical ``_n`` or ``_d``).  D = 1 is
    already canonical; another constant D needs only the integer content
    divided out; otherwise D and the N_i are first replaced by their exact
    quotients by their gcd over Q[lam], which ``_int_gcd`` forms while it
    checks that gcd (the quotients are integral, since the gcd is
    primitive: Gauss's lemma).
    """
    nums = [_trim(n) for n in nums]
    if not any(nums):
        return ((),) * len(nums), (1,)
    den = _trim(den)
    if len(den) == 1 and den[0] == 1:
        return tuple(map(tuple, nums)), (1,)
    if len(den) > 1:
        # quos: D (key -1) and the N_i met so far, each over g, their gcd;
        # the next step's gcd h divides g, so each is multiplied by g / h
        g, quos = den, {}
        for k, n in enumerate(nums):
            if n:
                g, u, v = _int_gcd(g, n)
                if len(g) == 1:
                    break
                quos = {i: _int_mul(q, u) for i, q in quos.items()} if quos else {-1: u}
                quos[k] = v
        if len(g) > 1:
            den = quos.pop(-1)
            nums = [quos.get(k, n) for k, n in enumerate(nums)]
    c = gcd_int(*den, *chain.from_iterable(nums))
    if den[-1] < 0:
        c = -c
    if c != 1:
        nums = [[v // c for v in n] for n in nums]
        den = [v // c for v in den]
    return tuple(map(tuple, nums)), tuple(den)


def bareiss_det(rows: list[list[list[int]]]) -> list[int]:
    """Fraction-free determinant of a square matrix over Z[lam].

    Entries are integer coefficient lists without trailing zeros, the
    ``_n`` form of ``RatFunc``; so is the determinant.  One-step Bareiss
    elimination: every interior division is exact in Z[lam] (``_int_exquo``).
    Pivots are chosen with minimal degree among the nonzero candidates to
    slow coefficient growth.
    """
    n = len(rows)
    m = [row[:] for row in rows]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        candidates = [r for r in range(k, n) if m[r][k]]
        if not candidates:
            return []
        pivot_row = min(candidates, key=lambda r: len(m[r][k]))
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            c = [-v for v in m[i][k]]
            for j in range(k + 1, n):
                e = _int_add(_int_mul(m[i][j], pivot), _int_mul(c, m[k][j]))
                m[i][j] = _int_exquo(_trim(e), prev)
        prev = pivot
    det = m[n - 1][n - 1]
    return [-v for v in det] if sign < 0 else det


class RatFunc:
    """A rational function N/D over Q, held in Z[lam] and canonical on construction.

    ``_n`` and ``_d`` are the integer coefficient tuples that ``_int_canon``
    gives, the form of one coordinate of a quartic ring element: N and D
    coprime over Q[lam], integer content 1, lc(D) > 0.  Zero is 0/1.  Equal
    values have equal representations, which makes hashing and exact
    comparison trivial.  ``num`` and ``den`` are ``Poly`` views of the same
    quotient over a monic denominator.
    """

    __slots__ = ("_n", "_d")

    def __init__(self, num=0, den=1):
        """num / den, each an int, ``Fraction``, ``Poly`` or ``RatFunc``."""
        a, da = _fraction(num)
        b, db = _fraction(den)
        if not b:
            raise ZeroDivisor("rational function with zero denominator")
        # (a / da) / (b / db) = (a * db) / (b * da)
        (self._n,), self._d = _int_canon([_int_mul(a, db)], _int_mul(b, da))

    @classmethod
    def _of(cls, n: Sequence[int], d: Sequence[int]) -> RatFunc:
        """n / d for integer coefficient lists in Z[lam] (d nonzero), made
        canonical; as for ``_int_canon``, a tuple must end in a nonzero."""
        out = object.__new__(cls)
        (out._n,), out._d = _int_canon([n], d)
        return out

    @classmethod
    def _raw(cls, n: tuple[int, ...], d: tuple[int, ...]) -> RatFunc:
        """Wrap a form already known canonical."""
        out = object.__new__(cls)
        out._n = n
        out._d = d
        return out

    @property
    def num(self) -> Poly:
        """The numerator over the monic denominator ``den``."""
        return Poly._of(list(self._n), self._d[-1])

    @property
    def den(self) -> Poly:
        return Poly._of(list(self._d), self._d[-1])

    def __bool__(self) -> bool:
        return bool(self._n)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1 = self._n, self._d
        n2, d2 = other._n, other._d
        return RatFunc._of(_int_add(_int_mul(n1, d2), _int_mul(n2, d1)), _int_mul(d1, d2))

    __radd__ = __add__

    def __neg__(self) -> RatFunc:
        return RatFunc._raw(tuple(-v for v in self._n), self._d)

    def __sub__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> RatFunc:
        return -self + other

    def __mul__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFunc._of(_int_mul(self._n, other._n), _int_mul(self._d, other._d))

    __rmul__ = __mul__

    def __truediv__(self, other) -> RatFunc:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisor("division by the zero rational function")
        return self * other.inv()

    def __rtruediv__(self, other) -> RatFunc:
        return self.inv() * other

    def inv(self) -> RatFunc:
        n, d = self._n, self._d
        if not n:
            raise ZeroDivisor("inverse of the zero rational function")
        if n[-1] < 0:
            return RatFunc._raw(tuple(-v for v in d), tuple(-v for v in n))
        return RatFunc._raw(d, n)

    def __pow__(self, n: int) -> RatFunc:
        if n < 0:
            return self.inv() ** (-n)
        # coprime with content 1 stays so under powers (Gauss's lemma)
        return RatFunc._raw(tuple(_int_pow(self._n, n)), tuple(_int_pow(self._d, n)))

    # -- comparison / hashing / text -------------------------------------

    def __eq__(self, other) -> bool:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self._n == other._n and self._d == other._d

    def __hash__(self) -> int:
        # a constant equals its Fraction, so it hashes like one
        if len(self._d) == 1 and len(self._n) <= 1:
            return hash(self.num[0])
        return hash((self._n, self._d))

    def __str__(self) -> str:
        return f"{self.num} | {self.den}"

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"


def _fraction(x) -> tuple[list[int], list[int]]:
    """The one intake of an outside value into Z[lam]: an int, ``Fraction``,
    ``Poly`` or ``RatFunc`` as a numerator list over a nonzero denominator
    list, both without trailing zeros.  Anything else (a float, a
    ``Decimal``, a string) is refused with TypeError."""
    if isinstance(x, (int, Fraction)):
        return ([x.numerator] if x else []), [x.denominator]
    if isinstance(x, Poly):
        return list(x._n), [x._d]
    if isinstance(x, RatFunc):
        return list(x._n), list(x._d)
    raise TypeError(f"cannot interpret {x!r} as an element of Q(lam)")


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (Poly, int, Fraction)):
        return RatFunc(x)
    return NotImplemented
