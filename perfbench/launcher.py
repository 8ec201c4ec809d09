"""Traced stand-in for ``python -m thueff.cli``.

Usage: ``python launcher.py TRACE_JSON OP_ID <thueff cli arguments>``

Installs the tracer in this process, runs ``thueff.cli.main`` with the
remaining arguments, and writes the op's per-name span and count totals
to TRACE_JSON.  The exit status is the CLI's own.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import thueff.cli  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    out_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    t = tracer.Tracer()
    t.op = op
    t.install()
    try:
        code = thueff.cli.main(argv)
    finally:
        t.uninstall()
        Path(out_path).write_text(json.dumps(t.take()))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
