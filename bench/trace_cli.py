"""Run one ``poincare-ext`` invocation with the span tracer installed.

    python bench/trace_cli.py <poincare-ext arguments>

The command's own output goes to stdout unchanged.  When it returns, the
last line of stderr is a JSON object with the trace summary and every
span, which the benchmark's traced cli-oneshot run collects.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    from poincare_ext import cli

    tracer = Tracer().install()
    try:
        code = cli.run(sys.argv[1:])
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    sys.stderr.write(json.dumps({"summary": tracer.summary(),
                                 "spans": tracer.records()}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
