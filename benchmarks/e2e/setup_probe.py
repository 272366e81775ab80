"""Time one workload's set-up in a fresh interpreter.

Usage (from ``run.py``): ``setup_probe.py NAME SEED QUICK WORK_DIR``
with ``src`` on ``PYTHONPATH``.  Imports the CLI, then does what the
workload's command does before its first simulated tick, and prints
``{"import_s", "build_s", "ready_unix"}``.  The caller subtracts its
own launch time from ``ready_unix``, so set-up includes interpreter
start-up, as a user sees it.
"""

import json
import sys
import time

started = time.perf_counter()
import repro.cli  # noqa: E402,F401  (the import being timed)

imported = time.perf_counter()

from workloads import WORKLOADS  # noqa: E402

name, seed, quick, work = sys.argv[1:5]
WORKLOADS[name](int(seed), quick == "1").build_first(work)
print(json.dumps({
    "import_s": imported - started,
    "build_s": time.perf_counter() - imported,
    "ready_unix": time.time(),
}))
