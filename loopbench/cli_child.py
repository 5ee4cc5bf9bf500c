"""Traced ``mube`` child: time the import, install the layer spans, run.

Usage: ``python cli_child.py RECORD_JSON <mube arguments...>``.  The
record (layer self times, counters, the import time) is written to
RECORD_JSON when the command returns.  Only the traced ``cold_cli`` run
uses this; the timed run spawns ``python -m repro.cli`` directly.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    record_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.root("op") as record:
        code = repro.cli.main(argv)
    sys.stdout.flush()
    with open(record_path, "w", encoding="utf-8") as stream:
        json.dump(
            {
                "import_s": import_s,
                "selfs": dict(record.selfs),
                "counts": dict(record.counts),
            },
            stream,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
