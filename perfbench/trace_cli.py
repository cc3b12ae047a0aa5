"""Run the micromacro CLI with its stages traced.

    python3 perfbench/trace_cli.py SPANS_OUT <micromacro arguments...>

Installs the span wrappers of ``tracing.py``, runs ``micromacro.cli.main`` as
one ``cli.main`` span, and writes the spans to SPANS_OUT as JSON.  The exit
code is the CLI's.
"""

import sys

import tracing
from micromacro import cli


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return tracer.span(tracing.CLI, cli.main, argv)
    finally:
        tracer.uninstall()
        tracing.write_spans(spans_out, tracer.take())


if __name__ == "__main__":
    sys.exit(main())
