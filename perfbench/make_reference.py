"""Write the reference outputs the correctness gate compares against.

    python3 perfbench/make_reference.py

Each file in perfbench/reference/ is the standard output of one serial CLI
command (REFERENCE_COMMANDS in run.py) at the commit the baseline was
measured on.  Regenerate only when a change is meant to alter the output.
"""

import shutil
import sys
import time

from run import BENCH, REFERENCE, REFERENCE_COMMANDS, RUN_LIMIT_S, WORK, run_child


def main() -> int:
    work = WORK / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for filename, argv in REFERENCE_COMMANDS.items():
            child = run_child(argv, work, time.perf_counter() + RUN_LIMIT_S)
            if child.code != 0:
                print(f"error: {' '.join(argv)} exited {child.code}", file=sys.stderr)
                return 1
            (REFERENCE / filename).write_bytes(child.out)
            print(f"{(REFERENCE / filename).relative_to(BENCH)}: {len(child.out)} bytes, "
                  f"{child.wall:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
