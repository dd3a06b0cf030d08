"""Run one a4toric command line under the tracer, as `python -m a4toric` would.

Usage: python bench/traced_child.py SUMMARY_PATH ARG...

Standard output and the exit status are the command's own. The per-layer
summary of the run (see tracer.Tracer.summary) is written as JSON to
SUMMARY_PATH after the command returns.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    start = perf_counter()
    import a4toric.cli

    tracer.span("import", start, perf_counter())
    tracer.install()
    status = a4toric.cli.main(argv)
    sys.stdout.flush()
    Path(summary_path).write_text(json.dumps(tracer.summary()))
    return status


if __name__ == "__main__":
    sys.exit(main())
