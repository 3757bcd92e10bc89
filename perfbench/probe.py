"""Set-up probe: one fresh process that imports gbflab and builds a workload's
inputs, then prints ``ready <seconds spent importing gbflab.cli>``.

The runner starts it several times and times spawn-to-ready; that is
``setup_s``.  Usage: python3 perfbench/probe.py WORKLOAD SEED [tiny]
(with ``src`` on PYTHONPATH).
"""

import sys
import time

t0 = time.perf_counter()
import gbflab  # noqa: E402,F401
import gbflab.cli  # noqa: E402,F401

import_s = time.perf_counter() - t0

import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]), tiny=len(sys.argv) > 3 and sys.argv[3] == "tiny")
print(f"ready {import_s!r}", flush=True)
