"""Start ``repro.cli`` with the benchmark's layer wrappers installed.

The traced ``serve`` run launches the server through this file instead
of ``python -m repro.cli``; the program itself is unchanged.  Spans stay
in memory and are written to ``--spans`` when the CLI returns (the
server returns on SIGINT)::

    python3 e2ebench/serve_launcher.py --spans SPANS.jsonl -- serve --port 0
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from e2ebench import tracer as tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    spans = Path(args.spans)
    tracer = tracing.install_layers(tracing.Tracer(), spool_dir=spans.parent)
    from repro import cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.collect_workers(spans.parent)
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main())
