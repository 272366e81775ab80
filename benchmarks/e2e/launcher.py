"""Run the timed CLI commands for ``run.py`` from a small process.

Linux starts a process's peak-RSS record at the resident size of the
process it was forked from.  Forked from ``run.py``, which holds numpy
and the simulator, every CLI command would report at least the size of
``run.py``; forked from this launcher, which ``run.py`` starts before
it imports either, a command reports its own peak.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "env",
"stdout", "stderr"}``; one JSON reply per line on stdout, ``{"code",
"wall_s", "cpu_s", "maxrss_kb"}``.  The process tree's CPU time and
peak RSS come from ``wait4``.
"""

import json
import os
import signal
import subprocess
import sys
import time


def run(request):
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], stdout=out, stderr=err, cwd=request["cwd"],
            env=request["env"], start_new_session=True,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Stopped mid-command: take its pool workers down with it.
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
