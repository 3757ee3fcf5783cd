"""Run one heisquat CLI command as a benchmark child process.

Usage: launch.py MARK_FILE TRACE_FILE|- COMMAND [ARGS...]

The time.perf_counter() reading taken when `import heisquat.cli` completes
is written to MARK_FILE.  perf_counter reads CLOCK_MONOTONIC, which every
process shares, so the parent subtracts its own reading from before the
spawn to get interpreter start-up plus import time.  With a TRACE_FILE,
spans around each layer's calls are kept in memory and written there when
the command ends; "-" runs the command untraced.
"""

import sys
import time

START = time.perf_counter()

import heisquat.cli as cli  # noqa: E402  (the import is what is timed)

IMPORTED = time.perf_counter()


def main():
    mark, trace, *argv = sys.argv[1:]
    with open(mark, "w", encoding="utf-8") as fh:
        fh.write(repr(IMPORTED))
    if trace == "-":
        return cli.main(argv)
    from spans import Tracer
    tracer = Tracer()
    tracer.record("import heisquat.cli", "setup", START, IMPORTED)
    tracer.install()
    try:
        return tracer.call("cli.main", "cli", cli.main, argv)[0]
    finally:
        tracer.dump(trace)


if __name__ == "__main__":
    sys.exit(main())
