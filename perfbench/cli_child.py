"""Traced stand-in for `python -m bvlab.cli`.

Usage: python -X importtime perfbench/cli_child.py SPANS_JSON ARG...

Installs the span wrappers after the package import, runs the command line
through bvlab.cli.main and writes the spans and timings to SPANS_JSON on exit.
"""
import time

T_START = time.perf_counter_ns()

import sys  # noqa: E402

import bvlab.cli  # noqa: E402

# After the package, so that the tracer's own imports do not pre-pay bvlab's.
import json  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install()
    try:
        code = bvlab.cli.main(argv)
    finally:
        tr.uninstall()
        sys.stdout.flush()
        doc = tr.dump()
        doc["numpy_loaded"] = "numpy" in sys.modules
        doc["in_child_ns"] = time.perf_counter_ns() - T_START
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
