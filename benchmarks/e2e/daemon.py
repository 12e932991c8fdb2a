"""Launch the ``repro serve`` daemon for the benchmark, optionally traced.

    python daemon.py [--trace-out PATH] serve --socket S --state-dir D ...

Without ``--trace-out`` this is exactly ``repro serve``.  With it, the
span wrappers of :mod:`spans` are installed before the daemon builds
anything, and when the daemon exits (SIGTERM drains it) the span summary
and the kept span records are written to PATH as JSON.
"""

from __future__ import annotations

import json
import os
import sys


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = None
    if trace_out:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    from repro.cli import main as repro_main

    rc = repro_main(argv)
    if tracer is not None:
        tracer.enabled = False
        doc = {"summary": tracer.summary(),
               "events": tracer.chrome_events(os.getpid(), "serve daemon")}
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
