"""Run one command as a child; write its exit code, wall time, CPU time and
peak RSS as JSON to RESULT_FILE.

    python3 bench/launch.py RESULT_FILE COMMAND...

The benchmark starts every op through this small process.  On Linux a
child's ru_maxrss includes the memory of the process that spawned it, so
spawning ops straight from the benchmark would add the benchmark's own
memory to every op's peak.
"""

import json
import os
import subprocess
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[2:])
    # wait4, not RUSAGE_CHILDREN: the latter's ru_maxrss is a running
    # maximum over every child so far and cannot attribute memory to an op.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"rc": proc.returncode, "wall_s": wall,
                   "cpu_s": usage.ru_utime + usage.ru_stime,
                   "rss_mb": usage.ru_maxrss / 1024}, fh)
