"""Start ``repro serve``, optionally with the benchmark's tracer installed.

Usage::

    python3 perfbench/serve_launcher.py [--trace-out PATH] -- <serve args>

With ``--trace-out`` the layer wrappers of :mod:`tracer` are installed in
this (the server) process before ``repro.__main__.main(["serve", ...])``
runs, every span is attributed to the job that caused it, and the spans
and their per-job summary are written to ``PATH`` when the server exits
(SIGTERM drains it and returns from ``main``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tracer import Tracer


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]

    from repro.__main__ import main as repro_main

    tracer = None
    if args.trace_out is not None:
        tracer = Tracer()
        tracer.install()
        tracer.wrap_job_execution()
    try:
        return repro_main(["serve", *serve_args])
    finally:
        if tracer is not None:
            tracer.write(args.trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
