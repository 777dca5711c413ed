"""Run the zhcalc CLI with spans recorded around the library's calls.

    python3 perfbench/cli_launcher.py SPANS_FILE OP_ID ZHCALC_ARGS...

Used by the traced cli-roundtrip run in place of ``python -m
zhcalc.cli``: it installs the same wrappers as the in-process workloads,
calls ``zhcalc.cli.main`` with the remaining arguments, and writes the
spans, the diagram node count and the time ``import zhcalc.cli`` took
to SPANS_FILE. The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter


def main(argv: list[str]) -> int:
    spans_file, op = Path(argv[0]), int(argv[1])
    start = perf_counter()
    import zhcalc.cli

    import_s = perf_counter() - start

    from spans import Tracer

    tracer = Tracer()
    tracer.op = op
    tracer.install()
    try:
        return zhcalc.cli.main(argv[2:])
    finally:
        spans_file.write_text(json.dumps({
            "import_s": import_s,
            "nodes_built": tracer.nodes_built,
            "spans": tracer.spans,
        }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
