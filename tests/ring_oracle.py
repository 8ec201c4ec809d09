"""Reference ring arithmetic on four RatFunc coefficients (the test oracle).

This is the schoolbook the integer kernel of ``thueff.quartic`` replaced:
each power-basis coefficient is a separately normalized ``RatFunc``,
products fold alpha^6..alpha^4 with ``quartic.REWRITE_ROW`` (read at call
time), and an inverse solves the multiplication-by-a system with Cramer's
rule: each row's denominators are cleared with ``_int_clear`` and the
determinants of the integer rows come from ``bareiss_det``, not from the
cofactor expansion of ``quartic._cramer``.  A norm is the product of the
four conjugates (``norm``, for the true rewrite row) or the determinant of
the multiplication matrix (``det_norm``, for any row).  Elements are plain
4-tuples of ``RatFunc``; compare them with ``RingElem.coeffs``.
"""

from thueff import quartic
from thueff.errors import SingularSystem
from thueff.polynomials import RatFunc, _int_clear, _int_mul, bareiss_det

RF_ZERO = RatFunc(0)
RF_ONE = RatFunc(1)

ONE = (RF_ONE, RF_ZERO, RF_ZERO, RF_ZERO)
ALPHA = (RF_ZERO, RF_ONE, RF_ZERO, RF_ZERO)


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def neg(a):
    return tuple(-x for x in a)


def _reduce(vec):
    row = quartic.REWRITE_ROW
    for k in range(len(vec) - 1, 3, -1):
        c = vec[k]
        if c:
            for j in range(4):
                vec[k - 4 + j] = vec[k - 4 + j] + c * row[j]
        vec[k] = RF_ZERO
    return tuple(vec[:4])


def mul(a, b):
    out = [RF_ZERO] * 7
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return _reduce(out)


def _times_alpha(vec):
    return _reduce([RF_ZERO, *vec])


def _matrix(a):
    """Rows of the matrix of multiplication by a: column k is a * alpha^k."""
    col = tuple(a)
    matrix = [[], [], [], []]
    for _ in range(4):
        for i in range(4):
            matrix[i].append(col[i])
        col = _times_alpha(col)
    return matrix


def inv(a):
    rows = [_int_clear([(c._n, c._d) for c in (*row, r)])[0] for row, r in zip(_matrix(a), ONE)]
    det = bareiss_det([row[:4] for row in rows])
    if not det:
        raise SingularSystem("singular 4x4 system in ring inversion")
    return tuple(
        RatFunc._of(bareiss_det([row[:j] + [row[4]] + row[j + 1 : 4] for row in rows]), det)
        for j in range(4)
    )


def det_norm(a):
    """N(a) as the determinant of multiplication by a: the matrix over one
    denominator D, its determinant from ``bareiss_det``, over D^4.  Unlike
    ``norm`` it needs no conjugates, so it holds under any rewrite row."""
    nums, den = _int_clear([(c._n, c._d) for row in _matrix(a) for c in row])
    d2 = _int_mul(den, den)
    return RatFunc._of(bareiss_det([nums[i : i + 4] for i in (0, 4, 8, 12)]), _int_mul(d2, d2))


def conjugates():
    a2 = mul(add(ALPHA, neg(ONE)), inv(add(ALPHA, ONE)))
    return (ALPHA, a2, neg(inv(ALPHA)), neg(inv(a2)))


def galois(a, i, conj=None):
    """alpha -> the i-th conjugate, by Horner's rule in that conjugate."""
    x = (conj or conjugates())[i - 1]
    acc = (a[3], RF_ZERO, RF_ZERO, RF_ZERO)
    for c in (a[2], a[1], a[0]):
        acc = add(mul(acc, x), (c, RF_ZERO, RF_ZERO, RF_ZERO))
    return acc


def norm(a, conj=None):
    conj = conj or conjugates()
    prod = a
    for i in (2, 3, 4):
        prod = mul(prod, galois(a, i, conj))
    assert not any(prod[1:]), "conjugate product left the base field"
    return prod[0]
