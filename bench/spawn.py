"""Start one command, wait for it, and write its exit code, wall time and resource use.

    python3 bench/spawn.py USAGE.json COMMAND [ARGUMENTS...]

A child's peak RSS (`ru_maxrss`) starts from the high-water mark of the process
that started it.  run.py therefore starts every verb through this small
process, so that a verb's peak memory is its own and not run.py's.
"""

import os
import sys
import time

if __name__ == "__main__":
    usage_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    import json  # after the child has run, so its starting footprint stays small

    with open(usage_path, "w", encoding="utf-8") as fh:
        json.dump({"code": os.waitstatus_to_exitcode(status), "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_kb": usage.ru_maxrss}, fh)
