"""What the command line reaches: every function defined in ``src/thueff``
is entered by one of the CLI runs in ``CHILD``, or is on ``UNREACHED``
with the one-line reason it stays.

A child interpreter records, under ``sys.setprofile``, every code object
entered while it imports the package and runs each command: ``verify`` at
orders 8 and 128, ``roots`` at 16 and 300, ``bounds``, ``search`` and
``solve``, each as text and as JSON.  The child must be a fresh process,
because a warm cache (``valuations._root_powers``, ``search._box``, the
ring tables) skips the code that fills it.  The functions defined are read
from the compiled modules: every function code object, nested ones
included, but no lambda or comprehension.  The test fails when a defined
function is neither reached nor listed, when a listed name no longer
exists, and when a listed name is reached after all.
"""

import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

import thueff

PACKAGE = Path(thueff.__file__).resolve().parent

#: module:qualname -> why a function no CLI command enters stays.
UNREACHED = {
    # error paths: every run below succeeds
    "cli:_Parser.error": "bad input exits 2 on one line",
    "errors:ReproductionFailure.__init__": "carries the certificate of a failed reproduction",
    "search:Certificate.failed_names": "names the red checks of a failed verify",
    # public entry points, constructors and properties
    "laurent:LaurentSeries.__init__": "the public constructor; the pipeline builds through _series",
    "laurent:LaurentSeries.valuation": "public property; the pipeline reads lead once resolved",
    "laurent:zero_to_order": "the zero input of expand_ratfunc and poly_series",
    "laurent:poly_series": "expand_ratfunc's general branch and embed_series' non-constant "
    "denominator, which no CLI input has",
    "quartic:RingElem.coeffs": "public view of the coordinates as RatFuncs",
    # names the benchmark in perfbench/ reaches
    "quartic:clear_caches": "perfbench's tamper fixture",
    "valuations:clear_caches": "perfbench's tamper fixture; a cold root table for "
    "test_verifier_lifts_the_series_roots_once",
    "laurent:LaurentSeries.inv": "non-constant denominators in embed_series and "
    "expand_ratfunc, the reference for alpha4 in the tests, and perfbench's series_inv counter",
    "polynomials:RatFunc.__add__": "field operator; perfbench counts it (ratfunc_add)",
    "polynomials:RatFunc.__truediv__": "field operator; perfbench's ring-algebra inputs use it",
    # operators of the public types
    "polynomials:Poly.__hash__": "operator of Poly",
    "polynomials:Poly.__repr__": "operator of Poly",
    "polynomials:Poly.__str__": "operator of Poly",
    "polynomials:RatFunc.__hash__": "operator of RatFunc",
    "polynomials:RatFunc.__neg__": "operator of RatFunc",
    "polynomials:RatFunc.__pow__": "operator of RatFunc",
    "polynomials:RatFunc.__repr__": "operator of RatFunc",
    "polynomials:RatFunc.__rsub__": "operator of RatFunc",
    "polynomials:RatFunc.__rtruediv__": "operator of RatFunc",
    "polynomials:RatFunc.__str__": "operator of RatFunc",
    "polynomials:RatFunc.__sub__": "operator of RatFunc",
    "polynomials:RatFunc.inv": "operator of RatFunc",
    "polynomials:RatFunc._raw": "builds the results of RatFunc's -, inv and **",
    "quartic:RingElem.__hash__": "operator of RingElem",
    "quartic:RingElem.__pow__": "operator of RingElem",
    "quartic:RingElem.__repr__": "operator of RingElem",
    "quartic:RingElem.__rsub__": "operator of RingElem",
    "quartic:RingElem.__str__": "operator of RingElem",
    "laurent:LaurentSeries.__hash__": "operator of LaurentSeries",
    "laurent:LaurentSeries.__repr__": "operator of LaurentSeries",
    "laurent:LaurentSeries.__str__": "operator of LaurentSeries",
}

#: Runs in a fresh interpreter: argv[1] is the directory that holds the
#: package.  Prints the entered code objects of the package as JSON
#: [module, first line, name] triples.
CHILD = r"""
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
package = os.path.join(sys.argv[1], "thueff") + os.sep
entered = set()

def hook(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

sys.setprofile(hook)
from thueff import cli

runs = [[cmd, "--order", order] for cmd, order in
        (("verify", "8"), ("verify", "128"), ("roots", "16"), ("roots", "300"))]
runs += [["bounds"], ["search"], ["solve"]]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in runs:
        for fmt in ("text", "json"):
            if cli.main(argv + ["--format", fmt]) != 0:
                sys.exit(f"{argv} {fmt} failed")
sys.setprofile(None)
print(json.dumps(sorted(
    (os.path.basename(c.co_filename)[:-3], c.co_firstlineno, c.co_name)
    for c in entered if c.co_filename.startswith(package)
)))
"""


def _defined(code: types.CodeType, module: str, prefix: str = ""):
    """(module, first line, name) -> module:qualname of every function under
    ``code``; a class body adds ``Class.`` to its methods' names."""
    for const in code.co_consts:
        if not isinstance(const, types.CodeType):
            continue
        qualname = prefix + const.co_name
        if not const.co_flags & inspect.CO_NEWLOCALS:  # a class body
            yield from _defined(const, module, qualname + ".")
        elif not const.co_name.startswith("<"):  # not a lambda or comprehension
            yield (module, const.co_firstlineno, const.co_name), f"{module}:{qualname}"
            yield from _defined(const, module, qualname + ".<locals>.")


def _reach() -> tuple[set[str], set[str]]:
    """The defined functions, and those the CLI runs enter."""
    defined = {}
    for path in sorted(PACKAGE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        defined.update(_defined(code, path.stem))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    entered = {tuple(key) for key in json.loads(proc.stdout)}
    return set(defined.values()), {defined[key] for key in entered if key in defined}


def test_every_function_is_reached_or_listed_with_its_reason():
    defined, reached = _reach()
    assert all(reason.strip() for reason in UNREACHED.values())
    assert sorted(defined - reached - set(UNREACHED)) == [], "reached by no CLI run"
    assert sorted(set(UNREACHED) - defined) == [], "listed but no longer defined"
    assert sorted(set(UNREACHED) & reached) == [], "listed but reached"
