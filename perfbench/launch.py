"""Run one command and report its wall time, peak RSS and exit code as JSON.

Usage: ``python3 -I -S perfbench/launch.py RESULT.json PROGRAM ARG...``

Linux starts a child's ``ru_maxrss`` at the high-water mark of the process
that spawned it, so ``run.py``, once it has parsed large outputs, would
inflate every later reading.  This launcher imports nothing heavy, so the
peak it reports is the command's own.
"""

import json
import os
import sys
import time


def main() -> int:
    result_path, program, *args = sys.argv[1:]
    start = time.perf_counter()
    pid = os.posix_spawn(program, [program, *args], os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(
            {"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
             "exit_code": os.waitstatus_to_exitcode(status)},
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
