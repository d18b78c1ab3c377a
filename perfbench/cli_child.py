"""Traced stand-in for ``python -m orbitmax.cli`` in the cli-batch workload.

Usage: python perfbench/cli_child.py TRACE_OUT CLI_ARGS...

Times the import of ``orbitmax.cli`` and the call of its ``main`` with the
layer spans installed, runs the CLI exactly as the module entry point
would (same stdout, same exit code), and writes the timings and span
totals to TRACE_OUT.  The tracer's own work in this process (its import
and install, and the reduction of the spans to totals) is timed as
``tracer_s``, so that it is not counted as CLI start-up; only the
serialisation and write of the small TRACE_OUT file are left untimed.
"""

import json
import sys
import time

start = time.perf_counter()
import orbitmax.cli as cli  # noqa: E402
imported = time.perf_counter()

import tracer  # noqa: E402  (perfbench/ is on sys.path as this script's directory)

recorder = tracer.Tracer()
tracer.install(recorder)
before_main = time.perf_counter()
code = cli.main(sys.argv[2:])
after_main = time.perf_counter()
sys.stdout.flush()
summarising = time.perf_counter()
payload = {"import_s": imported - start, "main_s": after_main - before_main,
           "trace": recorder.summary()}
payload["tracer_s"] = (before_main - imported) + (time.perf_counter() - summarising)
text = json.dumps(payload)
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(text)
sys.exit(code)
