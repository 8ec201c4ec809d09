"""Benchmark of thueff: end-to-end metrics per workload, per-layer on request.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: verify-cold, verify-deep, ring-algebra (see ``workloads.py``).
Only ring-algebra consumes ``--seed``; the verify workloads have fixed
inputs.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs
the same loop with a fixed number of traced ops and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the same figures for people.

Every time is reported in reference seconds: the measured time times
REF_NOMINAL_S / r, where r is the median time of a fixed ``Fraction``
kernel (``reference_kernel``, no thueff code) run just before and just
after the measured interval.  On a shared 2-core VM the speed drifts by
25 % or more within seconds; the same work then takes longer, and so
does the kernel, so the ratio stays steady.  The
lines for people also give the raw wall-clock medians.  ``setup_s`` is
scaled the same way by a bare interpreter's start-up.  The process and
its children are pinned to one CPU so that the kernel and the work it
scales run on the same core.

Before any op the program sees a pinned environment: no
``THUEFF_PRECISION_CAP``, ``PYTHONHASHSEED=0``, ``PYTHONPATH=src`` and
``PYTHONPYCACHEPREFIX`` in ``.bench_build/``, compiled once at set-up so
that every cold start imports the same way and nothing is written under
``src/``.  The benchmark re-executes itself under that environment.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
PYCACHE = BUILD / "pycache"
SCRATCH = BUILD / "perfbench"

#: The program's own set-up: a fresh interpreter, ``import thueff`` and
#: the lazy ring tables, built through public calls.
SETUP_CODE = (
    "import thueff\n"
    "from thueff import quartic, valuations\n"
    "quartic.conjugates()\n"
    "quartic.norm(quartic.ALPHA)\n"
    "quartic.unit_from_exponents(1, 1, 1)\n"
    "valuations.valuation_vector(quartic.ALPHA)\n"
)
#: Fresh set-up processes per run; ``setup_s`` is their median.
SETUP_REPS = 7

#: Traced ops per trace run.  A fixed count, after one untraced warm-up
#: op, so that two trace runs of one seed give identical counts.  Keys
#: are the workload names, in BENCHMARK.json order.
TRACED_OPS = {"verify-cold": 3, "verify-deep": 2, "ring-algebra": 4}
#: Untraced ops after the traced ones, at least, for the overhead figure.
MIN_UNTRACED = 2

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: The reference kernel's median time on a quiet 2-core VM (Xeon, 2.1 GHz,
#: Python 3.11.7); a unit only, so that reported times read as seconds there.
REF_NOMINAL_S = 0.0093
#: Kernel runs per speed sample, taken between ops.
REF_REPEATS = 6

#: A bare interpreter's start-up time on the same VM when quiet.
BARE_NOMINAL_S = 0.22

# Exact rational series with growing numerators, the kind of arithmetic
# thueff spends its time on (``Fraction`` products and sums of big ints).
_REF_A = [Fraction(3**k + 1, 2**k + 7) for k in range(60)]
_REF_B = [Fraction(5**k - 2, 3**k + 11) for k in range(60)]


def reference_kernel() -> list[Fraction]:
    """Fixed work, no thueff code: a truncated product of two series."""
    out = [Fraction(0)] * 60
    for i in range(30):
        a = _REF_A[i]
        for j in range(60 - i):
            out[i + j] += a * _REF_B[j]
    return out


def speed_sample() -> list[float]:
    """REF_REPEATS timings of the reference kernel."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return times


def speed_scale(before: list[float], after: list[float]) -> float:
    """Factor from measured seconds to reference seconds for the interval
    between two speed samples."""
    return REF_NOMINAL_S / statistics.median(before + after)


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("THUEFF_PRECISION_CAP", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    return env


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    Returns (value, percentile).  With TAIL_BEYOND samples or fewer no
    percentile qualifies and the minimum is returned.
    """
    xs = sorted(samples)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def measure_setup(env: dict) -> tuple[float, float]:
    """(wall, scale) of one fresh set-up process.

    Its scale comes from a bare interpreter (``python -c pass``) started
    right after it: process start-up follows the machine's speed at
    starting processes, which the Fraction kernel does not track.
    """
    from workloads import run_child

    times = []
    for code in (SETUP_CODE, "pass"):
        wall, status, _, _, err = run_child([sys.executable, "-c", code], ROOT, env, SCRATCH)
        if status != 0:
            raise RuntimeError(f"set-up process failed: {err.decode(errors='replace')}")
        times.append(wall)
    return times[0], BARE_NOMINAL_S / times[1]


def make_workload(name: str, seed: int, env: dict):
    import workloads

    if name == "verify-cold":
        return workloads.VerifyCold(ROOT, env, SCRATCH)
    if name == "verify-deep":
        return workloads.VerifyDeep()
    return workloads.RingAlgebra(seed)


def run_loop(workload, seconds: float, trace: bool, between=None) -> list[tuple[int, str, object]]:
    """Closed loop, one client.  Returns (op, kind, OpResult) per op.

    Op 0 is a "warmup" op in a trace run and for a workload that asks
    for one; a trace run then has TRACED_OPS "traced" ops.  The rest are
    "timed" until the time is up.  Every op is gated and counts as
    attempted; only "timed" ops give end-to-end timings.
    ``between(elapsed_s)`` runs after each op, outside its timer.
    """
    n_traced = TRACED_OPS[workload.name] if trace else 0
    warmup = trace or workload.warmup
    results = []
    start = time.perf_counter()
    deadline = start + seconds
    op = 0
    speed = speed_sample()
    while True:
        if op == 0 and warmup:
            kind = "warmup"
        elif 0 < op <= n_traced:
            kind = "traced"
        else:
            kind = "timed"
        inputs = workload.inputs(op)
        gc.collect()
        result = workload.run(op, inputs, kind == "traced")
        before, speed = speed, speed_sample()
        result.scale = speed_scale(before, speed)
        if result.error:
            print(f"op {op} failed: {result.error}", file=sys.stderr)
        results.append((op, kind, result))
        op += 1
        if between:
            between(time.perf_counter() - start)
        enough = op > warmup + n_traced + (MIN_UNTRACED if trace else 0)
        if enough and time.perf_counter() >= deadline:
            return results


def end_to_end(results, setup: list[tuple[float, float]], in_process: bool) -> tuple[dict, str]:
    timed = [r for _, kind, r in results if kind == "timed"]
    done = [r for r in timed if r.ok]
    walls = [r.wall_s * r.scale for r in done]
    metrics = {}
    note = f"{len(done)} timed ops"
    if walls:
        tail_s, pct = tail(walls)
        if in_process:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            rss = max(r.rss_mb for r in done)
        busy = sum(r.wall_s * r.scale for r in timed)
        metrics = {
            "op_p50_s": (statistics.median(walls), "s"),
            "op_tail_s": (tail_s, "s"),
            "ops_per_s": (len(done) / busy, "1/s"),
            "op_cpu_s": (statistics.median(r.cpu_s * r.scale for r in done), "s"),
            "setup_s": (statistics.median(wall * scale for wall, scale in setup), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        note += (
            f"; op_tail_s is p{pct:.0f} of {len(walls)} samples"
            f"; raw wall-clock medians: op {statistics.median(r.wall_s for r in done):.4f} s,"
            f" set-up {statistics.median(wall for wall, _ in setup):.4f} s"
        )
    return metrics, note


def per_layer(results) -> tuple[dict, str]:
    import tracer

    traced = [r for _, kind, r in results if kind == "traced"]
    untraced = [r.wall_s * r.scale for _, kind, r in results if kind == "timed" and r.ok]
    merged = tracer.merge([(r.trace, r.scale) for r in traced if r.trace])
    n = len(traced)
    spans, counts = merged["spans"], merged["counts"]

    def calls(name):
        return spans.get(name, (0, 0.0))[0] / n

    def self_s(name):
        return spans.get(name, (0, 0.0))[1] / n

    def layer_self(layer):
        return sum(s for name, (_, s) in spans.items() if name.startswith(layer + ".")) / n

    def count(name):
        return counts.get(name, 0) / n

    scanned = counts.get("search.triples_scanned", 0)
    traced_p50 = statistics.median(r.wall_s * r.scale for r in traced)
    untraced_p50 = statistics.median(untraced) if untraced else traced_p50
    m = {
        "cli.self_s": (layer_self("cli"), "s"),
        "cli.output_bytes": (sum(r.output_bytes for r in traced) / n, "bytes"),
        "search.self_s": (layer_self("search"), "s"),
        "search.search_trivial_units.self_s": (self_s("search.search_trivial_units"), "s"),
        "search.verify_theorem.self_s": (self_s("search.verify_theorem"), "s"),
        "search.solution_classes.self_s": (self_s("search.solution_classes"), "s"),
        "search.triples_scanned": (count("search.triples_scanned"), "count"),
        "search.survivors": (count("search.survivors"), "count"),
        "search.survivor_ratio": (
            counts.get("search.survivors", 0) / scanned if scanned else 0.0,
            "ratio",
        ),
        "laurent.self_s": (layer_self("laurent"), "s"),
        "laurent.hensel_lift.calls": (calls("laurent.hensel_lift"), "count"),
        "laurent.hensel_lift.self_s": (self_s("laurent.hensel_lift"), "s"),
        "laurent.series_mul.calls": (count("laurent.series_mul"), "count"),
        "laurent.series_inv.calls": (count("laurent.series_inv"), "count"),
        "laurent.expand_ratfunc.calls": (calls("laurent.expand_ratfunc"), "count"),
        "laurent.max_order": (merged["max_order"]["laurent"], "order"),
        "quartic.self_s": (layer_self("quartic"), "s"),
        "quartic.ring_mul.calls": (calls("quartic.ring_mul"), "count"),
        "quartic.ring_mul.self_s": (self_s("quartic.ring_mul"), "s"),
        "quartic.ring_inv.calls": (calls("quartic.ring_inv"), "count"),
        "quartic.ring_inv.self_s": (self_s("quartic.ring_inv"), "s"),
        "quartic.norm.calls": (calls("quartic.norm"), "count"),
        "quartic.norm.self_s": (self_s("quartic.norm"), "s"),
        "quartic.galois.calls": (calls("quartic.galois"), "count"),
        "quartic.unit_from_exponents.calls": (calls("quartic.unit_from_exponents"), "count"),
        "valuations.self_s": (layer_self("valuations"), "s"),
        "valuations.valuation_vector.calls": (calls("valuations.valuation_vector"), "count"),
        "valuations.valuation_vector.self_s": (self_s("valuations.valuation_vector"), "s"),
        "valuations.vandermonde_report.self_s": (self_s("valuations.vandermonde_report"), "s"),
        "valuations.max_order": (merged["max_order"]["valuations"], "order"),
        "polynomials.self_s": (layer_self("polynomials"), "s"),
        "polynomials.poly_mul.calls": (count("polynomials.poly_mul"), "count"),
        "polynomials.poly_gcd.calls": (calls("polynomials.poly_gcd"), "count"),
        "polynomials.poly_gcd.self_s": (self_s("polynomials.poly_gcd"), "s"),
        "polynomials.bareiss_det.calls": (calls("polynomials.bareiss_det"), "count"),
        "polynomials.ratfunc_mul.calls": (count("polynomials.ratfunc_mul"), "count"),
        "polynomials.ratfunc_add.calls": (count("polynomials.ratfunc_add"), "count"),
        "bounds.self_s": (layer_self("bounds"), "s"),
        "bounds.bound_report.calls": (calls("bounds.bound_report"), "count"),
        "trace.op_s": (traced_p50, "s"),
        "trace.overhead_s": (traced_p50 - untraced_p50, "s"),
        "trace.overhead_ratio": ((traced_p50 - untraced_p50) / untraced_p50, "ratio"),
    }
    note = f"{n} traced ops against {len(untraced)} untraced"
    return m, note


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("verify-cold", "verify-deep", "ring-algebra"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "thueff" / "__init__.py").is_file():
        print(f"perfbench: no thueff sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = pinned_env()
    # One CPU for this process and its children, so that the reference
    # kernel and the work it scales run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    SCRATCH.mkdir(parents=True, exist_ok=True)
    compileall.compile_dir(str(ROOT / "src" / "thueff"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    # Set-up samples are spread over the run, one after an op whenever
    # another 1/SETUP_REPS of the run has passed, so that their median
    # sees the same drift of machine speed as the ops do.
    reps = 0 if args.trace else SETUP_REPS
    setup = [measure_setup(env) for _ in range(min(reps, 1))]

    def sample_setup(elapsed: float) -> None:
        if len(setup) < reps and elapsed >= len(setup) * args.seconds / reps:
            setup.append(measure_setup(env))

    workload = make_workload(args.workload, args.seed, env)
    if workload.in_process:
        exec(SETUP_CODE, {})
        import thueff

        if not Path(thueff.__file__).resolve().is_relative_to(ROOT / "src"):
            print(f"perfbench: imported thueff from {thueff.__file__}", file=sys.stderr)
            return 2
    workload.prepare()

    results = run_loop(workload, args.seconds, bool(args.trace), sample_setup)
    while len(setup) < reps:
        setup.append(measure_setup(env))
    if args.trace:
        metrics, note = per_layer(results)
    else:
        metrics, note = end_to_end(results, setup, workload.in_process)

    result = report(results, metrics)
    print(f"workload {args.workload}, seed {args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed; {note}")
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


def report(results, metrics: dict) -> dict:
    """The result line: failed ops count against the ops attempted."""
    failed = sum(1 for _, _, r in results if not r.ok)
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


if __name__ == "__main__":
    pinned = pinned_env()
    if any(os.environ.get(k) != pinned.get(k) for k in
           ("THUEFF_PRECISION_CAP", "PYTHONHASHSEED", "PYTHONPATH", "PYTHONPYCACHEPREFIX")):
        # Re-execute so that the in-process workloads see the pinned
        # environment too; the hash seed cannot change after start-up.
        script = os.path.abspath(__file__)
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], pinned)
    sys.exit(main())
