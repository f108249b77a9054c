"""Run commands from a small process and report each one's peak memory.

Usage: ``python perfbench/spawner.py WORKDIR``, then one JSON list (an
argv) per line on standard input; for each, one JSON object per line on
standard output: ``{"code", "stdout", "stderr", "maxrss_kb"}``.  It exits
at the end of its input.

The kernel counts a child's peak resident memory from the image of the
process that forked it, so a CLI child started straight from the benchmark
would report at least the benchmark's own peak.  Children of this process,
which imports nothing heavy, report their own.
"""

import json
import os
import subprocess
import sys
import threading

TIMEOUT_S = 120


def run(argv, workdir):
    with open(os.path.join(workdir, "stdout"), "w+") as out, \
            open(os.path.join(workdir, "stderr"), "w+") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"code": proc.returncode, "stdout": out.read(),
                "stderr": err.read(), "maxrss_kb": usage.ru_maxrss}


def main(workdir):
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line), workdir)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1])
