"""Run ``python -m repro.serve`` with the benchmark's span wrappers installed.

Usage: ``python perfbench/serve_launcher.py [--trace-dir DIR] -- serve ...``

Both the traced and the untraced server start through this file, so the
tracing overhead compares like with like.  The wrappers go in before
``repro.serve.__main__.main`` builds the scheduler, so the forked pool
workers inherit them; the server's own spans are written when it exits.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.serve.__main__ import main as serve_main

    if trace_dir is None:
        return serve_main(argv)
    import spans

    tracer = spans.Tracer(trace_dir, keep=("frame.request", "model.predict"))
    spans.install(tracer)
    try:
        return serve_main(argv)
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
