"""Exponent search for trivial units, and the end-to-end certificate.

A solution (x, y) of the norm-form equation corresponds to a unit

    beta = eta * (alpha - 1)**r * alpha**s * (alpha + 1)**t

whose power-basis coordinates satisfy c2 = c3 = 0.  The height chain in
``bounds`` confines (r, s, t) to the finitely many triples with

    max(0,-r) + max(0,-s) + max(0,-t) + max(0, r+s+t) <= budget

(budget 10 certifies every lam; each coordinate is bounded by the budget,
so the box enumeration loses nothing).  The scan runs in the image of
the ring's integer numerators under lam -> LAM0, where a ring element is
four integers multiplied by ``quartic._image_mul``.  Evaluation at LAM0 is
a ring homomorphism for every integer LAM0, and every survivor is
confirmed exactly, so LAM0 bears on cost alone.  At LAM0 = 7 the scan's
table entries have at most 41 bits (212 at LAM0 = 1234567), so its dot
products stay near 80 bits, and it still keeps exactly the four trivial
triples at budgets 10, 12 and 14.  Smaller values let false survivors
through, each one costing an exact confirmation: LAM0 = 0 keeps 20 at
budget 10, and over 400 random rewrite rows with coefficients -3..3 of
degree <= 1, LAM0 = 2 and 3 each kept over 50 in more than a dozen rows,
where 7 kept none.  For a fixed t, c2 and
c3 of x * (alpha + 1)**t are two linear forms in the image of x, so each
triple costs two dot products against the (r, s) part; a nonzero c2 or c3
rules a triple out, and every survivor is confirmed in the exact ring.
``verify_theorem`` reruns the whole pipeline at the certified budget and
emits a machine-checkable certificate whose checks read PASS, FAIL, or
ERROR (the check raised); it reads its series roots from the root table
in ``valuations``, so the roots it certifies are the ones every valuation
check uses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from . import bounds, laurent, quartic, valuations
from .errors import ReproductionFailure
from .polynomials import LAM, Poly, RatFunc

Triple = tuple[int, int, int]

#: The four exponent triples whose units are trivial (c2 = c3 = 0).
TRIVIAL_TRIPLES: tuple[Triple, ...] = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))


def budget_cost(r: int, s: int, t: int) -> int:
    """Left side of the budget inequality for one exponent triple."""
    return max(0, -r) + max(0, -s) + max(0, -t) + max(0, r + s + t)


def is_admissible(r: int, s: int, t: int, budget: int = bounds.EXPONENT_BUDGET) -> bool:
    return budget_cost(r, s, t) <= budget


def admissible_exponents(budget: int = bounds.EXPONENT_BUDGET) -> list[Triple]:
    """All admissible triples, lexicographically ordered, as a new list
    (``_box`` enumerates them once per budget)."""
    return list(_box(budget))


@lru_cache(maxsize=None)
def _box(budget: int) -> tuple[Triple, ...]:
    """The admissible triples at ``budget``, lexicographically ordered.

    The budget caps |r|, |s|, |t| individually (each coordinate is at most
    the cost), so (r, s) ranges over the square of side 2*budget+1.  For
    fixed (r, s), with c = budget - max(0,-r) - max(0,-s) and u = r + s,
    the admissible t solve max(0,-t) + max(0,u+t) <= c.  The left side is
    convex in t with minimum max(0, u), and equals -t below min(0,-u) and
    u + t above max(0,-u), so the t form the interval [-c, c - u] when
    c >= max(0, u), and none otherwise.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    out = []
    rng = range(-budget, budget + 1)
    for r in rng:
        for s in rng:
            c = budget - max(0, -r) - max(0, -s)
            u = r + s
            if c >= max(0, u):
                out.extend((r, s, t) for t in range(-c, c - u + 1))
    return tuple(out)


# -- the scan: an integer image of the exact ring ---------------------------------
#
# A ring element is N / D with N = N0 + N1*alpha + N2*alpha^2 + N3*alpha^3,
# the N_i and D in Z[lam], and f is monic over Z[lam], so lam -> LAM0 is a
# ring homomorphism from Z[lam][alpha]/(f) onto Z[alpha]/(f(LAM0)); the scan
# multiplies the images of the numerators N (``quartic._image_mul``).
# Soundness: a unit's image is then the image of M times the unit, M in
# Z[lam] the product of its factors' denominators, so a nonzero c2 or c3
# there is the value at LAM0 of M times the exact coordinate, nonzero too.
# A surviving triple is confirmed in the exact ring before it is reported.
# The rewrite row and the unit inverses are read from ``quartic``'s tables,
# which refuse a row outside Z[lam] (``NotMonic``).
#
# The unit of (r, s, t) is x * u with x = (alpha - 1)**r * alpha**s and
# u = (alpha + 1)**t.  Multiplying by u is linear in x, so c2 and c3 of
# x * u are the dot products of x with the c2 and c3 entries of
# alpha**i * u, i = 0..3: two 4-vectors per t.  They and the power tables
# are built once per ring and limit (``_scan_tables``).  Each x is shared
# by every t of its (r, s) pair, and x for (r, s + 1) is x * alpha,
# a shift folded with the row's image: (x3 r0, x0 + x3 r1, x1 + x3 r2,
# x2 + x3 r3).  One full product runs only where a run of s begins or after
# a gap, so any order or chunking of the triples scans correctly.  When
# alpha**-1 lies in Z[lam][alpha] (its denominator D is 1, as under the
# healthy row, where f has constant term 1) the walk gives the very images
# of the full products; otherwise it gives them times a power of D(LAM0),
# which is M times the unit again.  The dot products are
# integers of the same image, so the test rejects exactly the triples
# whose full product has a nonzero c2 or c3 in the image.

LAM0 = 7

Image = tuple[int, int, int, int]


def _image(a: quartic.RingElem) -> Image:
    """The image of a's numerators N0..N3 (of D * a)."""
    return tuple(quartic._at(n, LAM0) for n in a._n)


def _power_tables(limit: int) -> tuple[Image, tuple[dict[int, Image], ...]]:
    """The rewrite row's image, and exponent -> image of each generator's power."""
    tables = quartic._tables()
    row = _image(tables.row)
    one = (1, 0, 0, 0)
    out = []
    for base, inv_base in tables.unit_bases:
        b, ib = _image(base), _image(inv_base)
        tab = {0: one}
        for e in range(1, limit + 1):
            tab[e] = quartic._image_mul(tab[e - 1], b, row)
            tab[-e] = quartic._image_mul(tab[-(e - 1)], ib, row)
        out.append(tab)
    return row, tuple(out)


_BASIS: tuple[Image, ...] = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def _linear_forms(
    row: Image, table: dict[int, Image]
) -> dict[int, tuple[Image, Image]]:
    """Exponent -> the c2 and c3 forms of multiplying by that power of ``table``."""
    forms = {}
    for e, u in table.items():
        cols = [quartic._image_mul(basis, u, row) for basis in _BASIS]
        forms[e] = (tuple(c[2] for c in cols), tuple(c[3] for c in cols))
    return forms


#: ((row tables, LAM0, limit), what ``_scan_tables`` returns) of the last scan.
_scan_cache: tuple | None = None


def _scan_tables(limit: int):
    """``_power_tables(limit)``'s row image and powers, and the forms of its
    third table, built once per ``quartic._tables()`` object, LAM0 and
    limit: a swapped row, ``quartic.clear_caches()`` or another LAM0
    builds them anew."""
    global _scan_cache
    key = (quartic._tables(), LAM0, limit)
    if _scan_cache is None or _scan_cache[0] != key:
        row, powers = _power_tables(limit)
        _scan_cache = (key, (row, powers, _linear_forms(row, powers[2])))
    return _scan_cache[1]


def _scan_chunk(payload: tuple[int, list[Triple]]) -> list[Triple]:
    """The triples whose unit has c2 = c3 = 0 in the image (a superset of the hits)."""
    limit, triples = payload
    row, (t0, t1, _), forms = _scan_tables(limit)
    r0, r1, r2, r3 = row
    at_r = at_s = None  # the (r, s) whose image x0..x3 holds
    found = []
    for r, s, t in triples:
        if s != at_s or r != at_r:
            if r == at_r and s == at_s + 1:  # x * alpha
                x0, x1, x2, x3 = x3 * r0, x0 + x3 * r1, x1 + x3 * r2, x2 + x3 * r3
            else:
                x0, x1, x2, x3 = quartic._image_mul(t0[r], t1[s], row)
            at_r, at_s = r, s
        c2, c3 = forms[t]
        a0, a1, a2, a3 = c2
        if x0 * a0 + x1 * a1 + x2 * a2 + x3 * a3:
            continue
        b0, b1, b2, b3 = c3
        if x0 * b0 + x1 * b1 + x2 * b2 + x3 * b3:
            continue
        found.append((r, s, t))
    return found


def search_trivial_units(
    budget: int = bounds.EXPONENT_BUDGET, jobs: int = 1
) -> list[Triple]:
    """Every admissible triple whose unit has c2 = c3 = 0, exactly.

    The scan in the integer image rejects the rest; each survivor is
    confirmed with ``quartic.unit_from_exponents``.  The result is sorted
    lexicographically and does not depend on the enumeration order, on how
    the triple space is partitioned, or on the choice of LAM0.  Raises
    ValueError for fewer than one job, as the CLI's ``--jobs`` does.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    triples = _box(budget)
    limit = max(budget, 1)
    if jobs <= 1 or len(triples) < 64:
        survivors = _scan_chunk((limit, triples))
    else:
        # Imported here, so that a single-job run never loads the pool.
        from concurrent.futures import ProcessPoolExecutor

        chunk = (len(triples) + jobs - 1) // jobs
        payloads = [
            (limit, triples[i : i + chunk]) for i in range(0, len(triples), chunk)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_scan_chunk, payloads))
        survivors = [t for part in parts for t in part]
    found = []
    for triple in sorted(survivors):
        if _is_linear(quartic.unit_from_exponents(*triple)):
            found.append(triple)
    return found


def _is_linear(beta: quartic.RingElem) -> bool:
    """c2 = c3 = 0, read off the canonical integer numerators (zero is ``()``)."""
    return not beta._n[2] and not beta._n[3]


# -- solution classes ----------------------------------------------------------


class SolutionClass(NamedTuple):
    """One family (x, y) = (x_coeff*eta, y_coeff*eta), eta in C(T)*.

    Solvability constraint: xi = xi_factor * eta**4.
    """

    triple: Triple
    x_coeff: Fraction
    y_coeff: Fraction
    xi_factor: Fraction

    @property
    def label(self) -> str:
        def side(c: Fraction) -> str:
            if c == 0:
                return "0"
            if c == 1:
                return "η"
            if c == -1:
                return "-η"
            return f"{c}·η"

        return f"({side(self.x_coeff)}, {side(self.y_coeff)})"

    def to_json(self) -> dict:
        return {
            "triple": list(self.triple),
            "x": str(self.x_coeff),
            "y": str(self.y_coeff),
            "xi_factor": str(self.xi_factor),
            "label": self.label,
        }


def solution_classes(found: list[Triple] | None = None) -> list[SolutionClass]:
    """Turn trivial-unit triples into normalized solution families.

    A trivial unit is x - alpha*y with constant x, y; the class is scaled
    so the first nonzero coordinate is positive.  The xi factor is the
    value of the quartic form, constant because units have unit norm.
    """
    if found is None:
        found = list(TRIVIAL_TRIPLES)
    classes = []
    for triple in found:
        beta = quartic.unit_from_exponents(*triple)
        if not _is_linear(beta):
            raise ReproductionFailure(
                f"triple {triple} does not define a trivial unit"
            )
        # beta = (N0 + N1*alpha) / D: x = N0 / D and y = -N1 / D
        (n0, n1, _, _), den = beta._n, beta._d
        if len(den) != 1:
            raise ReproductionFailure(f"triple {triple} gave non-polynomial x, y")
        if len(n0) > 1 or len(n1) > 1:
            raise ReproductionFailure(f"triple {triple} gave non-constant x, y")
        x = Fraction(n0[0] if n0 else 0, den[0])
        y = Fraction(-n1[0] if n1 else 0, den[0])
        if x < 0 or (x == 0 and y < 0):
            x, y = -x, -y
        xi = quartic.f_lambda_eval(x, y)
        if not (xi.den.is_constant() and xi.num.is_constant()):
            raise ReproductionFailure(f"norm of triple {triple} is not constant")
        classes.append(SolutionClass(triple, x, y, xi.num[0]))
    return classes


# -- the certificate ------------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    status: str  # "PASS" | "FAIL" | "ERROR"
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


class Certificate(NamedTuple):
    triples_searched: int
    triples_found: list[Triple]
    classes: list[SolutionClass]
    bound_report: bounds.BoundReport
    checks: list[CheckResult]
    search_budget: int = bounds.EXPONENT_BUDGET

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed_names(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "triples_searched": self.triples_searched,
            "triples_found": [list(t) for t in self.triples_found],
            "classes": [c.to_json() for c in self.classes],
            "bound_report": self.bound_report.to_json(),
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
            "notes": [],
            "search_budget": self.search_budget,
            "passed": self.passed,
        }


def _series_agree_on_common_window(a, b) -> bool:
    """Equal coefficients at every exponent from the lower lead to the lower
    order (False when that range is empty): both cut to that order have one
    canonical (lead, window, order), so the cut series compare equal."""
    order = min(a.order, b.order)
    return min(a.lead, b.lead) < order and a.truncate(order) == b.truncate(order)


def _reflected(a, sign: int):
    """sign * a(-t), known where a is: the terms at odd exponents negated.

    The roots' lam -> -lam symmetry, read off their windows: the checks
    that rely on it test it on the windows they are given."""
    w = a._w
    n = [sign * v for v in w._n]
    k = (a.lead + 1) % 2  # the first index at an odd exponent
    n[k::2] = [-v for v in n[k::2]]
    return laurent._series(a.lead, Poly._of(n, w._d), a.order)


#: The pinned leading coefficients of the four series roots: (lead, window).
_EXPECTED_ROOT_WINDOWS = (
    (0, (1, -2, 2, 8)),
    (1, (-1, 0, 5)),
    (0, (-1, -2, -2, 8)),
    (-1, (1, 0, 5)),
)


def verify_theorem(order: int = laurent.DEFAULT_ORDER, jobs: int = 1) -> Certificate:
    """Re-derive the full solution pipeline and certify every step.

    Raises ValueError, before any check runs, for an order outside
    1..PRECISION_CAP or fewer than one job, as the CLI does, and
    ReproductionFailure (with the certificate attached) if any check reads
    FAIL or ERROR.  A MemoryError or RecursionError inside a check is not a
    verdict on the mathematics and propagates as it is.
    """
    if not 1 <= order <= valuations.PRECISION_CAP:
        raise ValueError(f"order must lie in 1..{valuations.PRECISION_CAP}, got {order}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    checks: list[CheckResult] = []
    budget = bounds.EXPONENT_BUDGET

    def check(name: str, detail: str, thunk) -> None:
        # A check that cannot even evaluate (e.g. under fault injection a
        # ring inverse may hit a singular system) reads ERROR, never
        # crashes the verifier, and fails the certificate like a FAIL.
        # Running out of memory or stack is a failure of the environment,
        # not of the mathematics, so it propagates instead.
        try:
            status = "PASS" if thunk() else "FAIL"
        except (MemoryError, RecursionError):
            raise
        except Exception as exc:
            status = "ERROR"
            detail = f"{detail} [{type(exc).__name__}: {exc}]"
        checks.append(CheckResult(name, status, detail))

    alpha = quartic.ALPHA

    # Series roots match the pinned expansions.  They come truncated from the
    # valuation table at the Siegel check's depth (deeper tables agree).
    depth = max(order, 4) + 4
    rows = valuations._root_powers(depth)
    roots = tuple(row[1].truncate(depth - 4) for row in rows)

    def roots_match() -> bool:
        for root, (lead, window) in zip(roots, _EXPECTED_ROOT_WINDOWS):
            for k, expect in enumerate(window):
                if root.coeff_at(lead + k) != expect:
                    return False
        return True

    check("roots-match-expansions", "leading windows of all four roots", roots_match)

    # Substituting each root back into the quartic leaves no visible term;
    # S^2 and S^3 come from the same table rows as the roots.  f(-X, -lam)
    # = f(X, lam), so once alpha3's row (S, S^2, S^3) is alpha1's reflected,
    # S(t) -> -S(-t), f(alpha3)(t) = f(alpha1)(-t): alpha3's residual is
    # alpha1's reflected, and is not formed.
    def residuals_vanish() -> bool:
        if rows[2][1:] != tuple(_reflected(p, sign) for p, sign
                                in zip(rows[0][1:], (-1, 1, -1))):
            return False
        residuals = [laurent.f_lambda_at_series(*rows[i][1:]) for i in (0, 1, 3)]
        return all(not r.resolved and r.order >= 1 for r in residuals)

    check("roots-residuals-vanish", "f(root) is zero to its computable order",
          residuals_vanish)

    check(
        "rewrite-rule",
        "alpha^4 folds onto the power basis",
        lambda: quartic.ring_mul(alpha, quartic.ring_pow(alpha, 3))
        == quartic.RingElem(-1, -LAM, 6, LAM),
    )

    check(
        "inverse-alpha-plus-1",
        "closed form of (alpha+1)^-1",
        lambda: quartic.ring_inv(alpha + 1)
        == quartic.RingElem(5, LAM - 5, -1 - LAM, 1) * Fraction(1, 4),
    )
    check(
        "inverse-alpha",
        "closed form of alpha^-1",
        lambda: quartic.ring_inv(alpha) == quartic.RingElem(-LAM, 6, LAM, -1),
    )

    check(
        "conjugates-are-roots",
        "all four conjugates satisfy the quartic",
        lambda: all(not quartic.min_poly_value(c) for c in quartic.conjugates()),
    )
    check("norm-alpha", "N(alpha) = 1", lambda: quartic.norm(alpha) == RatFunc(1))

    def galois_composes() -> bool:
        sample = quartic.RingElem(1 + 2 * LAM, 3, LAM, 7)
        images = [quartic.galois(sample, i) for i in (1, 2, 3, 4)]
        return all(
            quartic.galois(images[i], j + 1) == images[(i + j) % 4]
            for i in range(4)
            for j in range(4)
        )

    check("galois-composition", "sigma_i . sigma_j = sigma_(i+j-1)", galois_composes)

    def siegel_holds() -> bool:
        # The identity is checked in the series domain: the b_i come from
        # the ring-side Galois action, the root differences from the
        # independent series roots.  (The pure in-ring sum telescopes to
        # zero under any rewrite row whatsoever, so it certifies nothing;
        # only this mixed form can certify that the ring tables match the
        # actual roots.)  One sum G certifies every linear beta at once:
        # ``galois`` and ``embed_series`` are Q(lam)-linear and fix
        # constants, so for b_i = sigma_i(x - alpha*y) the sum
        # sum_i embed_1(b_i)*diff_i is x*sum_i diff_i - y*G with
        # G = sum_i embed_1(sigma_i(alpha))*diff_i, and sum_i diff_i
        # telescopes to exactly zero.  So the sum vanishes for every x and
        # every y != 0 iff G does.  The same telescoping, diff_3 =
        # -diff_1 - diff_2, and linearity again give
        # G = embed_1(sigma_1(alpha) - sigma_3(alpha))*diff_1
        #   + embed_1(sigma_2(alpha) - sigma_3(alpha))*diff_2,
        # two embeddings and two products.
        s1, s2, s3 = (quartic.galois(alpha, i) for i in (1, 2, 3))
        g = (valuations.embed_series(s1 - s3, 1, depth) * (roots[1] - roots[2])
             + valuations.embed_series(s2 - s3, 1, depth) * (roots[2] - roots[0]))
        return not g.resolved

    check("siegel-identity", "b1(a2-a3) + b2(a3-a1) + b3(a1-a2) = 0", siegel_holds)

    check(
        "fundamental-unit-valuations",
        "vectors of alpha-1, alpha, alpha+1",
        lambda: valuations.valuation_vector(alpha - 1).w == (1, 0, 0, -1)
        and valuations.valuation_vector(alpha).w == (0, 1, 0, -1)
        and valuations.valuation_vector(alpha + 1).w == (0, 0, 1, -1),
    )

    check(
        "unit-product-formula",
        "sum of valuations vanishes on units",
        lambda: all(
            valuations.valuation_vector(quartic.unit_from_exponents(r, s, t)).total == 0
            for (r, s, t) in ((1, 1, 1), (2, -1, 0), (-1, 0, 2), (0, -2, 1))
        ),
    )

    def ratio_height_is_one() -> bool:
        conj = quartic.conjugates()
        num = conj[2] - conj[0]
        den = conj[1] - conj[2]
        ratio_h = valuations.height_infinity(
            quartic.ring_mul(num, quartic.ring_inv(den))
        )
        pair_h = (
            valuations.valuation_vector(num) - valuations.valuation_vector(den)
        ).height
        return ratio_h == 1 and pair_h == 1

    check("conjugate-ratio-height", "H((a3-a1)/(a2-a3)) = a", ratio_height_is_one)

    def vandermonde_matches() -> bool:
        vdm = valuations.vandermonde_report()
        return vdm.vector.w == (-3, -3, -3, -3) and vdm.leading_coeff == -2

    check("vandermonde-valuation", "root-difference product: valuation and lead",
          vandermonde_matches)

    disc = bounds.f_lambda_discriminant()
    check(
        "discriminant-closed-form",
        "disc = 4(lam^2+16)^3",
        lambda: disc == RatFunc(4 * (LAM * LAM + 16) ** 3),
    )

    # With dij = roots[j] - roots[i], the product of the six differences
    # is formed as in ``valuations.root_difference_product``, but for
    # d03 d12: once alpha3 is alpha1 reflected and alpha2, alpha4 are odd
    # in t, lam -> -lam sends d01 to d12 and d23 to -d03, so
    # d03 d12 = -(d01 d23)(-t).
    def disc_series_agree() -> bool:
        r0, r1, r2, r3 = roots
        if (r2, r1, r3) != (_reflected(r0, -1), _reflected(r1, -1), _reflected(r3, -1)):
            return False
        p = (r1 - r0) * (r3 - r2)
        det = (p * _reflected(p, -1)) * ((r2 - r0) * (r3 - r1))
        det_sq = det * det
        disc_series = laurent.expand_ratfunc(disc, det_sq.order)
        return _series_agree_on_common_window(det_sq, disc_series)

    check("discriminant-series-crosscheck",
          "disc agrees with the squared root-difference product", disc_series_agree)

    rep1 = bounds.bound_report(1)
    rep2 = bounds.bound_report(2)
    check(
        "bound-chain-a1",
        "chain values at a = 1",
        lambda: (rep1.rK_bound, rep1.genus_bound, rep1.siegel_height_bound,
                 rep1.beta_ratio_bound, rep1.exponent_budget) == (2, 0, 6, 7, 10)
        and bounds.mason_abc_bound(0, 12) == 10
        and bounds.mason_abc_bound(3, 20) == 24
        and bounds.riemann_hurwitz_genus(4, [2] * 6) == 0,
    )
    check(
        "bound-chain-a2",
        "chain values at a = 2",
        lambda: (rep2.rK_bound, rep2.genus_bound, rep2.siegel_height_bound,
                 rep2.beta_ratio_bound, rep2.exponent_budget) == (4, 3, 16, 18, 10),
    )
    check(
        "abc-chain-audit",
        "ABC bound dominates the chain for a in 1..64",
        lambda: all(
            bounds.mason_abc_bound(rep.genus_bound, rep.W_bound_max) >= -4 + 8 * rep.a + r
            for rep in map(bounds.bound_report, range(1, 65))
            for r in (0, 2 * rep.a)
        ),
    )

    triples = admissible_exponents(budget)
    check(
        "budget-box",
        f"{len(triples)} admissible triples at budget {budget}",
        lambda: max(map(abs, chain.from_iterable(triples)), default=0) <= budget
        and is_admissible(10, -10, 0) and budget_cost(-11, 0, 0) == 11,
    )

    # The scan runs inside its check: a ring whose tables cannot be built
    # turns this check red and leaves ``found`` empty.
    found: list[Triple] = []

    def scan() -> list[Triple]:
        found.extend(search_trivial_units(budget, jobs))
        return found

    check(
        "search-trivial-set",
        "exactly the four trivial units",
        lambda: tuple(scan()) == TRIVIAL_TRIPLES,
    )

    # The two checks of the hits fail, not pass vacuously, when none was confirmed.
    def found_unit_exact(triple: Triple) -> bool:
        beta = quartic.unit_from_exponents(*triple)
        return (_is_linear(beta) and valuations.valuation_vector(beta)
                == valuations.unit_valuation_identity(*triple))

    check("found-units-exact", "ring arithmetic confirms every hit",
          lambda: bool(found) and all(map(found_unit_exact, found)))
    check(
        "found-heights-within-bound",
        "H(beta) <= 11a - 4 at a = 1",
        lambda: bool(found) and all(
            valuations.unit_valuation_identity(*triple).height <= rep1.beta_ratio_bound
            for triple in found
        ),
    )

    classes: list[SolutionClass] = []

    def classes_hold() -> bool:
        classes.extend(solution_classes(found))
        return all(
            quartic.f_lambda_eval(c.x_coeff, c.y_coeff) == c.xi_factor
            and quartic.norm(quartic.elem_from_xy(c.x_coeff, c.y_coeff)) == c.xi_factor
            for c in classes
        ) and sorted(c.xi_factor for c in classes) == [-4, -4, 1, 1]

    check("solution-classes", "class identities F(x,y) = k*eta^4", classes_hold)

    cert = Certificate(
        triples_searched=len(triples),
        triples_found=found,
        classes=classes,
        bound_report=rep1,
        checks=checks,
    )
    if not cert.passed:
        raise ReproductionFailure(
            "reproduction failed at: " + ", ".join(cert.failed_names), cert
        )
    return cert
