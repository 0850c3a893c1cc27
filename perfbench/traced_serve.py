"""Run ``repro serve`` with every layer boundary wrapped in a span.

Usage::

    PYTHONPATH=src python perfbench/traced_serve.py SPANS.npz [serve flags...]

The serve flags are those of ``python -m repro serve``.  When the server
exits (SIGTERM drains it) the recorded spans are written to
``SPANS.npz``, one ``(start, duration, self)`` array per span name.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.install()
    from repro.service.cli import main as serve_main

    try:
        return serve_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
