"""Traced launcher: ``python perfbench/launch.py SPANS.json ARGS...``
runs ``python -m repro ARGS...`` with the ``serve_rw`` entry points of
:data:`tracing.POINTS` wrapped, and writes the spans to ``SPANS.json``
when the command returns (a ``serve`` returns on SIGTERM)."""

from __future__ import annotations

import sys

from tracing import Tracer


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install("serve_rw")
    from repro.cli import main as repro_main

    try:
        return repro_main(args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
