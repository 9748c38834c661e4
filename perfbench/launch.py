"""Run one curvekit command with call tracing, as a cold child process.

    python perfbench/launch.py TRACE_OUT ARG...

Installs the wrappers of calltrace.py, calls curvekit.cli.main(ARGS),
writes the totals and spans to TRACE_OUT and exits with the command's code.
The traced run of the cli_cold workload starts this in place of
`python -m curvekit.cli ARG...`.
"""

import sys

import calltrace


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    from curvekit import cli

    tracer = calltrace.Tracer()
    restore = calltrace.install(tracer)
    try:
        return cli.main(argv)
    finally:
        restore()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
