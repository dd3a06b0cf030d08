"""Run the timed part of monomial_stream in a process of its own.

Usage: python bench/stream_child.py JOB

run.py writes JOB.json and reads the results back: the summary this
prints as JSON, and the untraced call times in JOB.ns (see
run.stream_passes). The block solve that checks the stream stays in
run.py's process, so the peak RSS of this one is that of the passes.
"""

import json
import sys
from pathlib import Path

import run


def main() -> int:
    job = Path(sys.argv[1])
    summary = run.stream_passes(json.loads(job.with_suffix(".json").read_text()), job.with_suffix(".ns"))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
