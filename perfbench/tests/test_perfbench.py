"""Tests of the benchmark itself: its gate, its counts and its contract.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from thueff import quartic, valuations  # noqa: E402
from thueff.polynomials import LAM, RatFunc  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture
def tampered_ring():
    """alpha^4 folded with constant term -2 instead of -1."""
    original = quartic.REWRITE_ROW
    quartic.REWRITE_ROW = (RatFunc(-2), RatFunc(-LAM), RatFunc(6), RatFunc(LAM))
    quartic.clear_caches()
    valuations.clear_caches()
    try:
        yield
    finally:
        quartic.REWRITE_ROW = original
        quartic.clear_caches()
        valuations.clear_caches()


@pytest.mark.parametrize("make", [workloads.VerifyDeep, lambda: workloads.RingAlgebra(5)],
                         ids=["verify-deep", "ring-algebra"])
def test_tampered_ring_op_is_failed_not_timed(make, tampered_ring):
    workload = make()
    workload.prepare()
    results = run.run_loop(workload, seconds=0, trace=False)
    assert results and not any(r.ok for _, _, r in results)
    metrics, _ = run.end_to_end(results, [(0.1, 1.0)], in_process=True)
    result = run.report(results, metrics)
    assert result["attempted"] == len(results) and result["failed"] == len(results)
    assert result["correct"] is False
    assert "op_p50_s" not in result["metrics"]


def test_healthy_ring_algebra_op_passes():
    workload = workloads.RingAlgebra(5)
    workload.prepare()
    results = run.run_loop(workload, seconds=0, trace=False)
    assert all(r.ok for _, _, r in results), results[0][2].error


def test_certificate_gate_names_each_wrong_fact():
    good = {
        "checks": [{"name": f"c{i}", "status": "PASS"} for i in range(23)],
        "passed": True,
        "triples_searched": 3871,
        "triples_found": [[1, 0, 0], [0, 0, 0], [0, 1, 0], [0, 0, 1]],
        "classes": [{"xi_factor": x} for x in ("1", "-4", "1", "-4")],
    }
    assert workloads.certificate_problems(good) == []
    bad = dict(good, triples_searched=3870, triples_found=[[0, 0, 0]])
    bad["checks"] = good["checks"][:22]
    assert len(workloads.certificate_problems(bad)) == 3


def test_exponent_box_has_3871_triples():
    # The paper's budget: max(0,-r) + max(0,-s) + max(0,-t) + max(0,r+s+t) <= 10.
    box = range(-10, 11)
    count = sum(
        max(0, -r) + max(0, -s) + max(0, -t) + max(0, r + s + t) <= 10
        for r in box for s in box for t in box
    )
    assert count == workloads.TRIPLES_SEARCHED


def test_norm_form_matches_the_solution_constants():
    assert workloads.norm_form([1], []) == [1]
    assert workloads.norm_form([1], [1]) == [-4]
    assert workloads.norm_form([1], [-1]) == [-4]
    # F(lam, 1) = lam^4 - lam^4 - 6 lam^2 + lam^2 + 1
    assert workloads.norm_form([0, 1], [1]) == [1, 0, -5]


def test_tail_keeps_ten_samples_beyond():
    xs = [float(i) for i in range(1, 41)]
    value, pct = run.tail(xs)
    assert value == 30.0 and sum(x > value for x in xs) == 10 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)


def test_tracer_restores_every_name():
    import thueff

    modules = [thueff] + [getattr(thueff, layer) for layer in tracer.LAYERS]
    before = [dict(vars(m)) for m in modules]
    classes = [thueff.Poly, thueff.RatFunc, thueff.LaurentSeries]
    class_before = [dict(vars(c)) for c in classes]
    original_ring_mul = quartic.ring_mul
    t = tracer.Tracer()
    t.install()
    assert quartic.ring_mul is not original_ring_mul
    quartic.norm(quartic.ALPHA + 1)
    t.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert [dict(vars(c)) for c in classes] == class_before
    stats = t.take()
    assert stats["spans"]["quartic.norm"][0] == 1
    assert stats["counts"]["polynomials.ratfunc_mul"] > 0


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake = workloads.OpResult(True, 1.0, 1.0, 1.0, 10, trace={
        "spans": {}, "counts": {}, "max_order": {"laurent": 0, "valuations": 0}})
    e2e, _ = run.end_to_end([(0, "timed", fake)], [(0.1, 1.0)], in_process=False)
    layer, _ = run.per_layer([(1, "traced", fake), (2, "timed", fake)])
    assert {k: u for k, (_, u) in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: u for k, (_, u) in layer.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.TRACED_OPS)


COUNT_SUFFIXES = (".calls", ".max_order", ".output_bytes")


@pytest.mark.parametrize("workload", list(run.TRACED_OPS))
def test_trace_counts_repeat_for_one_seed(workload):
    runs = []
    for _ in range(2):
        proc = _bench("--workload", workload, "--seed", "11", "--seconds", "0", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stderr
        runs.append({
            k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)
            or (k.startswith("search.") and not k.endswith("self_s"))
        })
    assert runs[0] == runs[1]
    if workload == "verify-cold":
        assert runs[0]["search.triples_scanned"] == 3871
        assert runs[0]["search.survivors"] == 4


def test_fails_without_the_program():
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _bench("--workload", "ring-algebra", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
