"""Exact solver for a one-parameter family of quartic Thue equations
over rational function fields.

The equation X^4 - λX^3Y - 6X^2Y^2 + λXY^3 + Y^4 = ξ is solved in
polynomials X, Y over C(T) for every λ of positive degree, by exact
computation: series roots at infinity, unit-group valuations, an
ABC-driven height bound, and a finite exponent search, all over Q(λ)
with no floating point anywhere.
"""

from .bounds import (
    BoundReport,
    bound_report,
    discriminant,
    mason_abc_bound,
    resultant,
    riemann_hurwitz_genus,
)
from .errors import (
    InconsistentRamification,
    InvalidDegree,
    NotMonic,
    PrecisionUnderflow,
    ReproductionFailure,
    SingularSystem,
    ThueffError,
    ZeroDivisor,
    ZeroElement,
)
from .laurent import LaurentSeries, expand_ratfunc, quartic_roots
from .polynomials import LAM, Poly, RatFunc
from .quartic import (
    ALPHA,
    RingElem,
    conjugates,
    elem_from_xy,
    f_lambda_eval,
    galois,
    norm,
    ring_inv,
    ring_mul,
    ring_pow,
    unit_from_exponents,
)
from .search import (
    Certificate,
    SolutionClass,
    admissible_exponents,
    search_trivial_units,
    solution_classes,
    verify_theorem,
)
from .valuations import (
    ValuationVector,
    height_infinity,
    unit_valuation_identity,
    valuation_vector,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BoundReport",
    "Certificate",
    "InconsistentRamification",
    "InvalidDegree",
    "LAM",
    "LaurentSeries",
    "NotMonic",
    "Poly",
    "PrecisionUnderflow",
    "RatFunc",
    "ReproductionFailure",
    "RingElem",
    "SingularSystem",
    "SolutionClass",
    "ThueffError",
    "ValuationVector",
    "ZeroDivisor",
    "ZeroElement",
    "admissible_exponents",
    "bound_report",
    "conjugates",
    "discriminant",
    "elem_from_xy",
    "expand_ratfunc",
    "f_lambda_eval",
    "galois",
    "height_infinity",
    "mason_abc_bound",
    "norm",
    "quartic_roots",
    "resultant",
    "riemann_hurwitz_genus",
    "ring_inv",
    "ring_mul",
    "ring_pow",
    "search_trivial_units",
    "solution_classes",
    "unit_from_exponents",
    "unit_valuation_identity",
    "valuation_vector",
    "verify_theorem",
]
