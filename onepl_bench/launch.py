"""Runs one ``onepl`` command for the benchmark and reports its rusage.

    python3 launch.py CPU OUT ERR -- ARGV...

Pins itself, and so the command, to CPU, runs ARGV with stdout to OUT and
stderr to ERR, and prints one JSON line ``{"code", "wall", "cpu",
"rss_mb"}``.  Commands are started from this small process rather than
from the benchmark because Linux counts the parent's resident set at fork
and exec into the child's max-RSS; here that floor stays far below what
any command uses.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    cpu, out, err, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        sys.exit("usage: launch.py CPU OUT ERR -- ARGV...")
    os.sched_setaffinity(0, {int(cpu)})
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = perf_counter()
        p = subprocess.Popen(argv, stdout=fo, stderr=fe)
        _, status, ru = os.wait4(p.pid, 0)
        wall = perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"code": p.returncode, "wall": wall, "cpu": ru.ru_utime + ru.ru_stime,
                      "rss_mb": ru.ru_maxrss / 1024}))


if __name__ == "__main__":
    main()
