"""Start commands for run.py and report each one's wall time and max-RSS.

Linux counts the resident size of the process a child was forked from in
the child's max-RSS, so run.py, which holds the generated corpora, does not
fork the measured commands itself.  It starts this small process first and
sends it one request per stdin line, as JSON:

    [argv, cwd, stdout_path, stderr_path]

and reads one reply per stdout line:

    [start, end, exit_code, max_rss_kib]

where start and end are `time.perf_counter()` readings (CLOCK_MONOTONIC,
so they compare with the caller's).  The process ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        argv, cwd, stdout_path, stderr_path = json.loads(line)
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([start, end, proc.returncode, usage.ru_maxrss]), flush=True)


if __name__ == "__main__":
    main()
