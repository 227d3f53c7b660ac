"""Run one `cliffharm` command with every layer traced.

Usage: python3 trace_child.py SPANS_JSON ARGS...  (ARGS as for `cliffharm`).
Installs the tracer's wrappers in a fresh process, calls cliffharm.cli.main,
writes the spans to SPANS_JSON and exits with the command's exit code.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from cliffharm import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(spans_path, argv):
    tracer = Tracer().install()
    try:
        with tracer.request_span(0, name="cli.main"):
            code = cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
