"""The command-line front end: output shapes, exit codes, JSON round-trips.

Everything runs in-process through main() except two subprocess checks:
that the module entry point works end to end, and what importing it loads.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import thueff
from thueff import cli, quartic
from thueff.errors import ReproductionFailure, ZeroDivisor
from thueff.polynomials import RatFunc


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


# -- roots ---------------------------------------------------------------------


def test_roots_text(capsys):
    code, out = run_cli(capsys, "roots", "--order", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha_1 = 1 - 2/λ + 2/λ^2 + 8/λ^3"
    assert lines[1] == "alpha_2 = -1/λ + 5/λ^3"
    assert lines[2] == "alpha_3 = -1 - 2/λ - 2/λ^2 + 8/λ^3"
    assert lines[3] == "alpha_4 = λ + 5/λ - 21/λ^3"


def test_roots_json_round_trip(capsys):
    code, out = run_cli(capsys, "roots", "--order", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4
    assert len(payload["roots"]) == 4
    assert payload["roots"][0]["coeffs"] == ["1", "-2", "2", "8"]
    assert cli.render_json(payload) == out.strip()


# -- bounds --------------------------------------------------------------------


def test_bounds_text(capsys):
    code, out = run_cli(capsys, "bounds", "--a", "1")
    assert code == 0
    assert "siegel_height_bound = 6" in out
    assert "beta_ratio_bound" in out and "= 7" in out
    assert "exponent_budget" in out and "= 10" in out


def test_bounds_json(capsys):
    code, out = run_cli(capsys, "bounds", "--a", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["genus_bound"] == 3
    assert payload["siegel_height_bound"] == 16
    assert payload["beta_ratio_bound"] == 18
    assert cli.render_json(payload) == out.strip()


# -- search and solve -------------------------------------------------------------


def test_search_text(capsys, monkeypatch):
    calls = []
    enumerate_box = cli.search.admissible_exponents

    def counting(*args):
        calls.append(args)
        return enumerate_box(*args)

    monkeypatch.setattr(cli.search, "admissible_exponents", counting)
    code, out = run_cli(capsys, "search")
    assert code == 0
    assert len(calls) == 1  # the box is enumerated once, for the count and the scan
    assert "triples searched: 3871" in out
    assert "trivial unit at (r, s, t) = (0, 0, 0)" in out
    assert out.count("trivial unit at") == 4


def test_search_json(capsys):
    code, out = run_cli(capsys, "search", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["triples_searched"] == 3871
    assert payload["triples_found"] == [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert cli.render_json(payload) == out.strip()


def test_solve_text(capsys):
    code, out = run_cli(capsys, "solve")
    assert code == 0
    assert "(η, 0)" in out
    assert "(0, η)" in out
    assert "xi = -4·η^4" in out
    assert "xi = 1·η^4" in out


def test_solve_json(capsys):
    code, out = run_cli(capsys, "solve", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 4
    assert cli.render_json(payload) == out.strip()


# -- golden outputs ------------------------------------------------------------------

#: sha256 of the standard output of each command, byte for byte.  A change
#: of representation must leave every one of them as it is.
GOLDEN_STDOUT = {
    "verify": "1fab93e82f52311124d4b5c71850d764053e247795c4358b91dcaf67dcc613a9",
    "verify --format json": "56557a9089f63d3f4a9e5509e955a8ec8f1ee6f03a852893f49cce74338f9887",
    "search": "2bc4712a6a9059de0f248fa0685bb251acd90f53934d028d1fb9ddcca137cc43",
    "search --format json": "95dc87b2b0c998232e2c9e8b01184af1daa1ef194eaac15bcf672f729b62bf80",
    "solve": "87539499e66c90357a096d8994eb10129135183da4c9a9bd7cf065d9fd38f54d",
    "solve --format json": "66e5b38925977927c413904affc1a0bdabb4f90c3a493af8f69927c9a7ff3853",
    "roots --order 16": "a480d40cb7705554c3a15e3b9c8597c8558783f50e9094e841651c9a3f0eb6d7",
    "roots --order 16 --format json":
        "20d3a5ba491a1678234690ed0eb96b88df430815d6c15ca68d5c25294359747b",
    "roots --order 132 --format json":
        "d06d8568736b1d6003a44750ce6367fa64ca8b545604a0102a2f9d343e8e1556",
    "bounds --a 3": "387f48733c39119bd5f1659c43e489f824c03ba41226c4b208bfdac5700131ca",
    "bounds --a 3 --format json":
        "e819aaf656550915bd4e69c45cf685fc0745dd0f41273a1ad731e4c17b194d60",
}


@pytest.mark.parametrize("command", list(GOLDEN_STDOUT))
def test_stdout_matches_the_golden_digest(capsys, command):
    code, out = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[command]


# -- verify -------------------------------------------------------------------------


def test_verify_text_passes(capsys):
    code, out = run_cli(capsys, "verify")
    assert code == 0
    assert "certificate: PASS" in out
    assert "FAIL" not in out.replace("certificate: PASS", "")
    assert out.count("PASS") >= 23


def test_verify_json(capsys):
    code, out = run_cli(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 23
    assert cli.render_json(payload) == out.strip()


def test_verify_reports_failure_with_exit_one(capsys, monkeypatch):
    def broken(order=8, jobs=1, **kwargs):
        from thueff.search import Certificate, CheckResult, bounds as b

        cert = Certificate(
            triples_searched=0,
            triples_found=[],
            classes=[],
            bound_report=b.bound_report(1),
            checks=[CheckResult("siegel-identity", "FAIL", "forced for the test")],
        )
        raise ReproductionFailure("reproduction failed at: siegel-identity", cert)

    monkeypatch.setattr(cli.search, "verify_theorem", broken)
    code, out = run_cli(capsys, "verify")
    assert code == 1
    assert "FAIL siegel-identity" in out
    assert "certificate: FAIL" in out


@pytest.mark.parametrize(
    "exc, code, err",
    [
        (MemoryError(), 3, "thueff: error: the environment failed (MemoryError), not the mathematics"),
        (
            RecursionError("maximum recursion depth exceeded"),
            3,
            "thueff: error: the environment failed "
            "(RecursionError: maximum recursion depth exceeded), not the mathematics",
        ),
        (ZeroDivisor("inverse of zero"), 1, ""),
    ],
    ids=["memory", "recursion", "zero-divisor"],
)
def test_environment_failure_in_a_check_exits_three(capsys, monkeypatch, exc, code, err):
    # an exhausted environment inside a check is not a refuted identity: it
    # leaves the certificate unwritten and exits 3 on one line; the
    # exceptions that tampered mathematics raises still read ERROR (exit 1)
    def raising():
        raise exc

    monkeypatch.setattr(cli.search.valuations, "vandermonde_report", raising)
    assert cli.main(["verify"]) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ([err] if err else [])
    if code == 3:
        assert captured.out == ""
    else:
        assert "ERROR vandermonde-valuation" in captured.out
        assert "[ZeroDivisor: inverse of zero]" in captured.out
        assert "certificate: FAIL" in captured.out


def test_verify_text_aligns_check_names_under_error(capsys):
    # The all-zero rewrite row makes some checks ERROR (five letters) and
    # others FAIL or PASS: every check name must still start in one column.
    original = quartic.REWRITE_ROW
    quartic.REWRITE_ROW = (RatFunc(0),) * 4
    try:
        code, out = run_cli(capsys, "verify")
    finally:
        quartic.REWRITE_ROW = original
    assert code == 1
    lines = out.strip().splitlines()[:-1]
    assert len(lines) == 23
    starts = set()
    statuses = set()
    for line in lines:
        m = re.match(r"(PASS|FAIL|ERROR) +\S", line)
        assert m, line
        statuses.add(m.group(1))
        starts.add(m.end() - 1)
    assert statuses == {"PASS", "FAIL", "ERROR"}
    assert starts == {len("ERROR") + 1}


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["roots", "--format", "yaml"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        cli.main([])
    assert exc_info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--order", "0"],
        ["roots", "--order", "5000"],
        ["verify", "--order", "1025"],
        ["bounds", "--a", "0"],
        ["search", "--jobs", "-2"],
        ["verify", "--order", "0"],
        ["roots", "--order", "2", "--out", "/nonexistent/dir/x"],
    ],
    ids=["order-zero", "order-too-large", "verify-order-too-large", "a-zero", "jobs-negative", "verify-order-zero", "out-unwritable"],
)
def test_bad_input_exits_two_with_one_line(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("thueff: error: ")


# -- file output ------------------------------------------------------------------------


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "bounds", "--a", "1", "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["exponent_budget"] == 10


# -- module entry point -------------------------------------------------------------------


def run_child(*argv):
    # pytest's ``pythonpath`` setting does not reach a child process, so an
    # uninstalled checkout hands it the directory that holds the package.
    src = str(Path(thueff.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120, env=env
    )


def test_module_entry_point_subprocess():
    proc = run_child("-m", "thueff.cli", "roots", "--order", "2")
    assert proc.returncode == 0
    assert "alpha_4 = λ + 5/λ" in proc.stdout


def test_import_does_not_load_the_process_pool():
    # Only a scan with more than one job uses the pool; a cold start of any
    # command should not pay for importing it.
    proc = run_child(
        "-c",
        "import sys, thueff.cli; "
        "assert 'concurrent.futures' not in sys.modules, 'pool imported'",
    )
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_dataclasses_or_inspect():
    # ``dataclasses`` pulls in ``inspect`` (and ``ast``, ``dis``,
    # ``tokenize``), the largest import a cold ``thueff verify`` could pay
    # for.  Only what ``import thueff.cli`` itself loads counts, not what
    # ``site`` loaded before it.
    proc = run_child(
        "-c",
        "import sys; before = set(sys.modules); import thueff.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))",
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "thueff.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"}), sorted(loaded)
