"""Command-line front end.

Subcommands: roots, bounds, search, solve, verify.  All output is
deterministic; JSON is rendered with sorted keys so a parse/serialize
round trip is byte-identical.  Exit codes: 0 success, 1 failed
reproduction, 2 bad input (a usage error, such as an ``--order`` above
the precision cap, or an unwritable ``--out``), 3 a failure of the
environment (``MemoryError`` or ``RecursionError``), not of the
mathematics.  Exits 2 and 3 are reported on one ``thueff: error: ...``
line.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds, laurent, search
from .errors import ReproductionFailure, ThueffError
from .valuations import PRECISION_CAP


def render_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False)


# Each command returns its exit code, its JSON payload and its text; ``main``
# renders the one that ``--format`` asks for.


def _cmd_roots(args) -> tuple[int, dict, str]:
    roots = laurent.quartic_roots(args.order)
    payload = {"order": args.order, "roots": [r.to_json() for r in roots]}
    lines = [f"alpha_{i} = {r.pretty()}" for i, r in enumerate(roots, start=1)]
    return 0, payload, "\n".join(lines)


def _cmd_bounds(args) -> tuple[int, dict, str]:
    rows = bounds.bound_report(args.a).to_json()
    width = max(len(k) for k in rows)
    return 0, rows, "\n".join(f"{k.ljust(width)} = {v}" for k, v in rows.items())


def _cmd_search(args) -> tuple[int, dict, str]:
    searched = len(search.admissible_exponents())
    found = search.search_trivial_units(bounds.EXPONENT_BUDGET, args.jobs)
    payload = {"triples_searched": searched, "triples_found": [list(t) for t in found]}
    lines = [f"triples searched: {searched}"]
    lines += [f"trivial unit at (r, s, t) = {t}" for t in found]
    return 0, payload, "\n".join(lines)


def _cmd_solve(args) -> tuple[int, dict, str]:
    classes = search.solution_classes()
    lines = [
        f"{c.label}  with  xi = {c.xi_factor}·η^4   [unit exponents {c.triple}]"
        for c in classes
    ]
    return 0, {"classes": [c.to_json() for c in classes]}, "\n".join(lines)


def _certificate_text(cert: search.Certificate) -> str:
    lines = []
    width = max((len(c.status) for c in cert.checks), default=0)
    for c in cert.checks:
        suffix = f" — {c.detail}" if c.detail else ""
        lines.append(f"{c.status:{width}s} {c.name}{suffix}")
    lines.append(
        f"searched {cert.triples_searched} triples, found {len(cert.triples_found)}; "
        f"certificate: {'PASS' if cert.passed else 'FAIL'}"
    )
    return "\n".join(lines)


def _cmd_verify(args) -> tuple[int, dict, str]:
    try:
        cert, code = search.verify_theorem(order=args.order, jobs=args.jobs), 0
    except ReproductionFailure as exc:
        if exc.certificate is None:
            raise
        cert, code = exc.certificate, 1
    return code, cert.to_json(), _certificate_text(cert)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"thueff: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _order(text: str) -> int:
    """A positive series order no larger than ``valuations.PRECISION_CAP``."""
    value = _positive_int(text)
    if value > PRECISION_CAP:
        raise argparse.ArgumentTypeError(
            f"expected an order of at most {PRECISION_CAP}, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="thueff",
        description=(
            "Exact solver for the quartic family "
            "X^4 - λX^3Y - 6X^2Y^2 + λXY^3 + Y^4 = ξ over rational function fields"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order=False, a=False, jobs=False):
        if order:
            p.add_argument("--order", type=_order, default=laurent.DEFAULT_ORDER,
                           help=f"series truncation order (1 to {PRECISION_CAP})")
        if a:
            p.add_argument("--a", type=_positive_int, default=1,
                           help="degree of λ in the ground variable")
        if jobs:
            p.add_argument("--jobs", type=_positive_int, default=1,
                           help="parallel workers for the exponent scan")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("roots", help="series expansions of the four roots")
    common(p, order=True)
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("bounds", help="the height-bound chain at a given degree")
    common(p, a=True)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("search", help="scan admissible exponents for trivial units")
    common(p, jobs=True)
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("solve", help="the solution families of the equation")
    common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("verify", help="run every reproduction check and certify")
    common(p, order=True, jobs=True)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, text = args.fn(args)
        out = render_json(payload) if args.format == "json" else text
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(out + "\n")
        else:
            print(out)
        return code
    except ReproductionFailure:
        raise  # a failed reproduction is exit 1, not bad input
    except (ThueffError, OSError) as exc:
        print(f"thueff: error: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, RecursionError) as exc:
        reason = " ".join(f"{type(exc).__name__}: {exc}".split()).rstrip(":")
        print(f"thueff: error: the environment failed ({reason}), not the mathematics",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
