"""What the benchmark harness in ``perfbench/`` reaches into.

``perfbench`` wraps and calls a few private names of the package and
runs the verifier with ``jobs=1``.  These tests pin that surface, so a
simplification that would break the benchmark fails here first.
"""

import inspect
import types
from fractions import Fraction

import thueff
from thueff import bounds, cli, laurent, polynomials, quartic, search, valuations
from thueff.laurent import quartic_roots
from thueff.polynomials import Poly, RatFunc
from thueff.search import TRIVIAL_TRIPLES


def test_scan_chunk_takes_limit_and_triples_and_returns_survivors():
    triples = search.admissible_exponents(3)
    assert sorted(search._scan_chunk((3, triples))) == list(TRIVIAL_TRIPLES)


def test_one_job_search_scans_the_box_in_one_chunk(monkeypatch):
    # The tracer counts ``search.triples_scanned`` and ``search.survivors``
    # from the payload and result of each ``_scan_chunk`` call: 3871 and 4
    # per op.
    calls = []
    scan = search._scan_chunk

    def recording(payload):
        found = scan(payload)
        calls.append((len(payload[1]), len(found)))
        return found

    monkeypatch.setattr(search, "_scan_chunk", recording)
    assert search.search_trivial_units(jobs=1) == list(TRIVIAL_TRIPLES)
    assert calls == [(3871, 4)]


def test_private_tables_and_caches_exist():
    assert callable(valuations._root_powers)
    # The tracer wraps this table and the verifier reads its roots from it:
    # one row (None, s, s^2, s^3) per series root s.
    order = 6
    table = valuations._root_powers(order)
    assert len(table) == 4
    for row, s in zip(table, quartic_roots(order)):
        assert len(row) == 4 and row[0] is None
        assert row[1] == s and row[2] == s * s and row[3] == s * s * s
    assert len(quartic.REWRITE_ROW) == 4
    assert callable(quartic.clear_caches)
    assert callable(valuations.clear_caches)


def test_laurent_entry_points_take_order_by_name():
    # The tracer records ``laurent.max_order`` from the argument named
    # ``order`` of these functions, positional or keyword.
    for name in ("quartic_roots", "expand_ratfunc"):
        assert "order" in inspect.signature(getattr(laurent, name)).parameters, name
    assert laurent.quartic_roots(order=3) == laurent.quartic_roots(3)


def test_norm_forms_its_value_through_ratfunc_mul(monkeypatch):
    # perfbench/tests/test_perfbench.py::test_tracer_restores_every_name
    # needs a nonzero ``polynomials.ratfunc_mul`` count after
    # ``quartic.norm(ALPHA + 1)``: ``norm`` builds its value as
    # det * (1/D^4) through ``RatFunc.__mul__``.  A change to that path
    # fails here before it fails the benchmark.
    calls = []
    mul = RatFunc.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(RatFunc, "__mul__", counting)
    quartic.norm(quartic.ALPHA + 1)
    assert len(calls) >= 1


def test_image_kernel_helpers_are_private():
    # The tracer spans every public function of the package's modules.  The
    # integer-image helpers behind ``ring_mul``, ``norm``, ``ring_inv``, the
    # scan, the canonical form's gcd and the embeddings run thousands of
    # times per op: as public names they would add spans, and per-layer
    # self times, that the benchmark has never counted.
    for name in ("_at", "_digits", "_images", "_height", "_image_mul"):
        assert callable(getattr(quartic, name)), name
    for name in ("_at", "_digits", "_int_gcd", "_int_exquo", "_int_mul_low"):
        assert callable(getattr(polynomials, name)), name
    expect = {
        polynomials: {"bareiss_det"},
        quartic: {
            "clear_caches", "conjugates", "elem_from_xy", "f_lambda_eval", "galois",
            "min_poly_value", "norm", "ring_inv", "ring_mul", "ring_pow",
            "unit_from_exponents",
        },
        search: {
            "admissible_exponents", "budget_cost", "is_admissible",
            "search_trivial_units", "solution_classes", "verify_theorem",
        },
        valuations: {
            "clear_caches", "embed_series", "height_infinity", "root_difference_product",
            "unit_valuation_identity", "valuation_vector", "vandermonde_report",
        },
    }
    for module, names in expect.items():
        public = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        }
        assert public == names, module.__name__


def test_verify_takes_one_bareiss_determinant(monkeypatch):
    # The tracer wraps public module functions only, and the per-layer
    # metric ``polynomials.bareiss_det.calls`` reads the calls of this name:
    # one per verify (the Sylvester determinant of disc f).  A rename or a
    # move behind an underscore would make it read 0 without failing.
    det = polynomials.bareiss_det
    assert inspect.isfunction(det) and det.__module__ == "thueff.polynomials"
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return det(rows)

    for module in (thueff, bounds, polynomials, quartic, search, valuations, laurent, cli):
        if vars(module).get("bareiss_det") is det:
            monkeypatch.setattr(module, "bareiss_det", counting)
    assert search.verify_theorem().passed
    assert calls == [7]


def test_ring_algebra_gate_reads_fraction_coefficients():
    # The ring-algebra gate compares ``coeffs`` tuples with int lists and
    # with Fraction constants, whatever ``Poly`` stores inside.
    p = Poly((3, Fraction(1, 2), -4))
    assert type(p.coeffs) is tuple
    assert [type(c) for c in p.coeffs] == [Fraction] * 3
    form = quartic.norm(quartic.elem_from_xy(Poly((2,)), Poly((1,))))
    assert form.den.coeffs == (1,)
    assert list(form.num.coeffs) == [-7, -6]  # F(2, 1) = -7 - 6 lam
    unit = quartic.norm(quartic.unit_from_exponents(1, 0, 1))
    assert unit.den.coeffs == (1,)
    assert unit.num.coeffs == (Fraction(-4) ** 2,)


def test_ring_algebra_input_constructors():
    # perfbench's ring-algebra workload builds each element as
    # ``RingElem(*four RatFuncs)``, each ``RatFunc(Poly(int list))`` and one
    # of them divided by ``RatFunc(Poly(den))`` with a non-constant den, and
    # each norm-form input as ``Poly(int list)``.  perfbench/tests is not in
    # the test suite, so a tighter intake would break only the benchmark.
    coeffs = [RatFunc(Poly(c)) for c in ([3, -2], [], [7], [0, 5])]
    coeffs[2] = coeffs[2] / RatFunc(Poly([-4, 9]))
    elem = quartic.RingElem(*coeffs)
    assert elem.coeffs == tuple(coeffs)
    assert coeffs[2] == RatFunc(7, Poly([-4, 9]))
    x, y = Poly([1, -2, 3]), Poly([4])
    assert [type(c) for c in x.coeffs] == [Fraction] * 3
    assert quartic.norm(quartic.elem_from_xy(x, y)) == quartic.f_lambda_eval(x, y)


def test_verify_runs_with_one_job():
    cert = search.verify_theorem(jobs=1)
    assert cert.passed
    assert cert.triples_found == list(TRIVIAL_TRIPLES)


def test_cli_verify_json_with_one_job(capsys):
    assert cli.main(["verify", "--format", "json", "--jobs", "1"]) == 0
    assert '"passed": true' in capsys.readouterr().out


def test_public_exports_resolve():
    # Every exported name exists, and every public name the package
    # re-exports from its modules is listed, so a deletion cannot leave
    # the export list stale in either direction.
    for name in thueff.__all__:
        assert hasattr(thueff, name), name
    reexported = {
        name
        for name, obj in vars(thueff).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert reexported == set(thueff.__all__)
    # the test-only gcd wrapper and its error are gone from the package
    assert not {"poly_gcd", "UndefinedGcd"} & set(dir(thueff))
