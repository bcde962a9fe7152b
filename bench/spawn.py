"""Job launcher: runs one command per request line and reports its cost.

Peak RSS comes from the job's own rusage (``os.wait4``).  On Linux a
child's ``ru_maxrss`` also covers the memory of the process it was forked
from, so jobs must not be launched from the benchmark process, which holds
the generated inputs.  This launcher runs under ``python3 -S`` with nothing
but the standard library loaded, and stays far below the smallest job.

Protocol, one JSON object per line: the request is
``{"argv": [...], "env": {...}, "log": path}`` on stdin, the reply is
``{"wall_s": float, "exit": int, "maxrss_kb": int}`` on stdout.  The
launcher exits at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            start = time.perf_counter()
            child = subprocess.Popen(
                request["argv"], env=request["env"], stdin=subprocess.DEVNULL,
                stdout=log, stderr=subprocess.STDOUT,
            )
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        # reaped by wait4 above; recording it keeps Popen from waiting again
        child.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall_s": wall, "exit": child.returncode, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
