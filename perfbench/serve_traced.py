"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage (from the root of a checkout)::

    python3 perfbench/serve_traced.py TRACE_DIR serve --port 0 --spool-dir DIR

Installs :func:`tracing.install` in this process, then hands the
remaining arguments to ``repro.cli.main``. ``SIGUSR1`` writes a snapshot
of the per-layer totals to ``TRACE_DIR/snapshot-<n>.json`` (the client
brackets its measured window with two of them); shutdown writes
``TRACE_DIR/final.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

import common
import tracing


def _dump(tracer, path):
    temporary = path + ".tmp"
    with open(temporary, "w") as handle:
        json.dump(tracer.snapshot(), handle)
    os.replace(temporary, path)


def main(argv):
    trace_dir, *cli_args = argv
    common.require_source()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    taken = []

    def on_snapshot(signum, frame):
        taken.append(signum)
        _dump(tracer, os.path.join(trace_dir, f"snapshot-{len(taken)}.json"))

    signal.signal(signal.SIGUSR1, on_snapshot)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        _dump(tracer, os.path.join(trace_dir, "final.json"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
