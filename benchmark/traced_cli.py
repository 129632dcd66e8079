"""Run the euclid4 command line with the benchmark's layer wrappers installed.

Usage: python3 benchmark/traced_cli.py TOTALS_JSON SPANS_JSONL ARGS...

ARGS are passed to ``euclid4.cli.main``.  When the command returns, the
tracer's counters are written to TOTALS_JSON and its spans to SPANS_JSONL,
and the process exits with the command's code.
"""

import json
import sys

from tracer import Tracer
from workloads import import_program


def main() -> int:
    totals_path, spans_path, *argv = sys.argv[1:]
    import_program()
    from euclid4 import cli

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(totals_path, "w") as fh:
        json.dump(tracer.totals(), fh)
    tracer.write_spans(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
