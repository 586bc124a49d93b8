"""Run one mecensus command with spans around its cross-module calls.

    PYTHONPATH=src python3 censusbench/traced_cli.py SPANS.json census --n 5 --out r5.txt

The command line after SPANS.json is passed to mecensus.cli.main
unchanged.  The span document is written to SPANS.json when the command
ends, and the exit code is the command's own.  The run id is the file's
stem; forked workers leave their spans in SPANS.workers/ until then.
"""

import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    spans_path = Path(sys.argv[1])
    worker_dir = spans_path.with_suffix(".workers")
    worker_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(run_id=spans_path.stem, worker_dir=worker_dir)
    tracer.install()
    from mecensus import cli
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
