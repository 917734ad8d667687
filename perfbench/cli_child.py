"""Run one ``matchident`` CLI command with spans recorded.

Usage: python3 perfbench/cli_child.py SPANS_JSON <matchident arguments...>

Traced runs of the cli workload start this instead of ``python -m
matchident.cli``.  It times the import of the CLI module, installs the
tracer, runs the command, and writes ``{"import_s": ..., "spans": [...]}``
to SPANS_JSON; the exit code is the command's own.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import matchident.cli

    import_s = perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return matchident.cli.main(argv)
    finally:
        tracer.uninstall()
        spans_path.write_text(json.dumps({"import_s": import_s, "spans": tracer.export()}))


if __name__ == "__main__":
    sys.exit(main())
