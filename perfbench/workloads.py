"""The three benchmark workloads and the correctness gate of each op.

Every workload is one closed loop with one client: the next op starts
only after the previous one has finished and been checked.

* ``verify-cold``   -- ``python -m thueff.cli verify --format json`` as a
  fresh process per op, the way a user re-checks the theorem.
* ``verify-deep``   -- ``search.verify_theorem(order=128)`` in-process
  with warm ring caches; the Laurent layer does most of the work.
* ``ring-algebra``  -- a seeded batch of exact ring identities per op;
  the polynomial and quartic layers do most of the work.

The expected values come from the paper's statement: the four trivial
unit triples, the solution constants xi in {1, 1, -4, -4}, the 3871
admissible triples of the exponent box at budget 10, the valuation
vector (r, s, t, -(r+s+t)) of (alpha-1)^r alpha^s (alpha+1)^t, the unit
norms N(alpha) = 1 and N(alpha -+ 1) = -4, and the norm form
N(x - alpha*y) = F(x, y).
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

HERE = Path(__file__).resolve().parent

#: Facts stated in the paper that every verify op must reproduce.
TRIPLES_SEARCHED = 3871
TRIVIAL_TRIPLES = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]
XI_FACTORS = [Fraction(-4), Fraction(-4), Fraction(1), Fraction(1)]
MIN_CHECKS = 23

VERIFY_ARGS = ("verify", "--format", "json", "--jobs", "1")
DEEP_ORDER = 128

#: A child that runs longer than this is killed and its op fails.
CHILD_TIMEOUT_S = 120.0


@dataclass
class OpResult:
    ok: bool
    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    output_bytes: int = 0
    error: str = ""
    trace: dict | None = None
    #: measured seconds -> reference seconds, set by the loop
    scale: float = 1.0


def certificate_problems(doc: dict) -> list[str]:
    """What a verify certificate gets wrong against the paper's facts."""
    problems = []
    checks = doc.get("checks", [])
    if len(checks) < MIN_CHECKS:
        problems.append(f"{len(checks)} checks, expected at least {MIN_CHECKS}")
    failed = [c.get("name") for c in checks if c.get("status") != "PASS"]
    if failed:
        problems.append(f"checks not PASS: {failed}")
    if doc.get("passed") is not True:
        problems.append("certificate not passed")
    if doc.get("triples_searched") != TRIPLES_SEARCHED:
        problems.append(f"triples_searched = {doc.get('triples_searched')}")
    found = sorted(tuple(t) for t in doc.get("triples_found", []))
    if found != TRIVIAL_TRIPLES:
        problems.append(f"triples_found = {found}")
    xi = sorted(Fraction(c["xi_factor"]) for c in doc.get("classes", []))
    if xi != XI_FACTORS:
        problems.append(f"xi factors = {[str(x) for x in xi]}")
    return problems


class _Verify:
    """Shared gate of the verify workloads: facts plus byte-identical JSON."""

    def __init__(self):
        self.first_output: bytes | None = None

    def inputs(self, op: int):
        return None

    def gate(self, output: bytes) -> str:
        try:
            doc = json.loads(output)
        except ValueError as exc:
            return f"certificate is not JSON: {exc}"
        problems = certificate_problems(doc)
        if problems:
            return "; ".join(problems)
        if self.first_output is None:
            self.first_output = output
        elif output != self.first_output:
            return "certificate JSON differs from the first op of this run"
        return ""


class VerifyCold(_Verify):
    """One fresh ``python -m thueff.cli verify`` process per op."""

    name = "verify-cold"
    in_process = False
    warmup = False

    def __init__(self, root: Path, env: dict, scratch: Path):
        super().__init__()
        self.root = root
        self.env = env
        self.scratch = scratch

    def prepare(self) -> None:
        pass

    def run(self, op: int, _inputs, traced: bool) -> OpResult:
        trace_path = self.scratch / "cold-trace.json"
        if traced:
            argv = [sys.executable, str(HERE / "launcher.py"), str(trace_path), str(op)]
        else:
            argv = [sys.executable, "-m", "thueff.cli"]
        argv += VERIFY_ARGS
        wall, status, usage, out, err = run_child(argv, self.root, self.env, self.scratch)
        result = OpResult(
            ok=False,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            output_bytes=len(out),
        )
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            result.error = f"exit status {code}: {err.decode(errors='replace')[-500:]}"
            return result
        result.error = self.gate(out)
        result.ok = not result.error
        if traced:
            result.trace = json.loads(trace_path.read_text())
        return result


class VerifyDeep(_Verify):
    """``search.verify_theorem(order=128)`` in-process, ring caches warm."""

    name = "verify-deep"
    in_process = True
    #: Op 0 also fills the valuation root table at order 132; it is gated
    #: but not timed, so that every timed op sees the warm caches.
    warmup = True

    def prepare(self) -> None:
        from thueff import cli, search

        self.cli, self.search = cli, search

    def run(self, op: int, _inputs, traced: bool) -> OpResult:
        result, cert = run_in_process(
            lambda: self.search.verify_theorem(order=DEEP_ORDER, jobs=1), op, traced
        )
        if not result.error:
            result.error = self.gate(self.cli.render_json(cert.to_json()).encode())
            result.ok = not result.error
        return result


# -- ring-algebra ------------------------------------------------------------------

#: Cases per op.  Sized so that one op takes about as long as a
#: verify-cold op; pairs (inverse and three norms each) dominate.
PAIRS, TRIPLES, UNITS, FORMS = 12, 8, 8, 8
#: Every RATIONAL_EVERY-th generated element carries one coefficient
#: with a non-constant denominator.
RATIONAL_EVERY = 4
UNIT_EXPONENT = 3


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _int_add(*terms: list[int]) -> list[int]:
    out = [0] * max(len(t) for t in terms)
    for t in terms:
        for i, x in enumerate(t):
            out[i] += x
    while out and not out[-1]:
        out.pop()
    return out


def norm_form(x: list[int], y: list[int]) -> list[int]:
    """F(x, y) = x^4 - lam x^3 y - 6 x^2 y^2 + lam x y^3 + y^4 over Z[lam].

    Integer coefficient lists, ascending in lam; written here from the
    paper's equation so that the check does not use thueff's own form.
    """
    if not x:
        x = [0]
    if not y:
        y = [0]
    x2, y2 = _int_mul(x, x), _int_mul(y, y)
    lam = [0, 1]
    return _int_add(
        _int_mul(x2, x2),
        [-c for c in _int_mul(lam, _int_mul(_int_mul(x2, x), y))],
        [-6 * c for c in _int_mul(x2, y2)],
        _int_mul(lam, _int_mul(x, _int_mul(y2, y))),
        _int_mul(y2, y2),
    )


class RingAlgebra:
    """A seeded batch of exact ring identities per op."""

    name = "ring-algebra"
    in_process = True
    warmup = False

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self) -> None:
        from thueff import quartic, valuations
        from thueff.polynomials import Poly, RatFunc

        self.quartic, self.valuations = quartic, valuations
        self.Poly, self.RatFunc = Poly, RatFunc

    def _poly(self, rng, max_deg: int, nonzero: bool = False) -> list[int]:
        while True:
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, max_deg + 1))]
            while coeffs and not coeffs[-1]:
                coeffs.pop()
            if coeffs or not nonzero:
                return coeffs

    def _elem(self, rng, rational: bool, nonzero: bool = False):
        RatFunc, Poly = self.RatFunc, self.Poly
        while True:
            coeffs = [RatFunc(Poly(self._poly(rng, 1))) for _ in range(4)]
            if rational:
                i = rng.randrange(4)
                while True:
                    den = self._poly(rng, 1, nonzero=True)
                    if len(den) > 1:
                        break
                coeffs[i] = coeffs[i] / RatFunc(Poly(den))
            elem = self.quartic.RingElem(*coeffs)
            if elem or not nonzero:
                return elem

    def inputs(self, op: int) -> dict:
        """The batch of op ``op``: distinct for every op and seed."""
        rng = random.Random(f"ring-algebra:{self.seed}:{op}")
        count = itertools.count()

        def elem(nonzero=False):
            return self._elem(rng, next(count) % RATIONAL_EVERY == 0, nonzero)

        pairs = [(elem(nonzero=True), elem()) for _ in range(PAIRS)]
        triples = [(elem(), elem(), elem()) for _ in range(TRIPLES)]
        units = [
            tuple(rng.randint(-UNIT_EXPONENT, UNIT_EXPONENT) for _ in range(3))
            for _ in range(UNITS)
        ]
        forms = []
        for _ in range(FORMS):
            x, y = self._poly(rng, 2), self._poly(rng, 2, nonzero=True)
            forms.append((self.Poly(x), self.Poly(y), norm_form(x, y)))
        return {"pairs": pairs, "triples": triples, "units": units, "forms": forms}

    def compute(self, batch: dict) -> dict:
        """The timed work: every product, inverse, norm and valuation."""
        q, v = self.quartic, self.valuations
        mul, norm = q.ring_mul, q.norm
        pairs = []
        for a, b in batch["pairs"]:
            ab = mul(a, b)
            pairs.append((ab, mul(b, a), mul(a, q.ring_inv(a)), norm(ab), norm(a) * norm(b)))
        triples = [
            (mul(mul(a, b), c), mul(a, mul(b, c)), mul(a, b + c), mul(a, b) + mul(a, c))
            for a, b, c in batch["triples"]
        ]
        units = []
        for r, s, t in batch["units"]:
            u = q.unit_from_exponents(r, s, t)
            units.append((v.valuation_vector(u).w, norm(u)))
        forms = [norm(q.elem_from_xy(x, y)) for x, y, _ in batch["forms"]]
        return {"pairs": pairs, "triples": triples, "units": units, "forms": forms}

    def gate(self, batch: dict, out: dict) -> str:
        for k, (ab, ba, one, n_ab, n_a_n_b) in enumerate(out["pairs"]):
            if ab != ba:
                return f"pair {k}: ab != ba"
            if one.c0 != 1 or one.c1 or one.c2 or one.c3:
                return f"pair {k}: a * a^-1 != 1"
            if n_ab != n_a_n_b:
                return f"pair {k}: N(ab) != N(a) N(b)"
        for k, (left, right, dist, expanded) in enumerate(out["triples"]):
            if left != right:
                return f"triple {k}: (ab)c != a(bc)"
            if dist != expanded:
                return f"triple {k}: a(b+c) != ab + ac"
        for (r, s, t), (w, n) in zip(batch["units"], out["units"]):
            if w != (r, s, t, -(r + s + t)):
                return f"unit {(r, s, t)}: valuation vector {w}"
            if not _is_constant(n, Fraction(-4) ** (r + t)):
                return f"unit {(r, s, t)}: norm {n} != (-4)^{r + t}"
        for (x, y, f_xy), n in zip(batch["forms"], out["forms"]):
            if n.den.coeffs != (1,) or list(n.num.coeffs) != f_xy:
                return f"N(x - alpha y) != F(x, y) at x = {x}, y = {y}"
        return ""

    def run(self, op: int, batch: dict, traced: bool) -> OpResult:
        result, out = run_in_process(lambda: self.compute(batch), op, traced)
        if not result.error:
            result.error = self.gate(batch, out)
            result.ok = not result.error
        return result


def _is_constant(value, expected: Fraction) -> bool:
    return value.den.coeffs == (1,) and value.num.coeffs == ((expected,) if expected else ())


# -- running one op ---------------------------------------------------------------------


def run_in_process(compute, op: int, traced: bool):
    """Time ``compute()``; with ``traced``, the tracer wraps that call only.

    Returns the op's result, not yet gated, and the computed value.  An
    exception fails the op instead of ending the run.
    """
    tracer = Tracer() if traced else None
    if tracer:
        tracer.op = op
        tracer.install()
    value = None
    error = ""
    t0 = time.perf_counter()
    c0 = time.process_time()
    try:
        value = compute()
    except Exception as exc:  # recorded as a failed op, never fatal
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if tracer:
            tracer.uninstall()
    trace = tracer.take() if tracer else None
    return OpResult(False, wall, cpu, error=error, trace=trace), value


# -- child processes -----------------------------------------------------------------


def run_child(argv: list[str], cwd: Path, env: dict, scratch: Path):
    """Run one child to completion; its own wall time and rusage.

    ``os.wait4`` reaps this child alone, so CPU time and peak RSS belong
    to this op, not to every child the benchmark has reaped so far.
    """
    err_path = scratch / "child-stderr"
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        err_bytes = err.read()
    return wall, status, usage, out, err_bytes
