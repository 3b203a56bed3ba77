"""Run the stretch CLI in this process with span tracing on.

    python3 perfbench/cli_traced.py SPANS_JSON CALL_ID <stretch arguments...>

Installs the wrappers from spans.py, calls stretchkit.cli.main with the given
arguments, writes the spans to SPANS_JSON and exits with the CLI's code.
"""

import sys

import spans


def main() -> int:
    out, call_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    from stretchkit import cli

    tracer = spans.Tracer()
    tracer.call_id = call_id
    spans.install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        spans.dump([tracer.spans], out)


if __name__ == "__main__":
    sys.exit(main())
