"""Spawn one command, wait for it, and record its wall time, peak memory and
exit code.

    python3 -S perfbench/launch.py RESULT_FILE PROGRAM ARG...

Writes ``<wall seconds> <ru_maxrss KiB> <exit code>`` to RESULT_FILE. The
measured command is spawned from this small interpreter rather than from the
benchmark itself because a child's ``ru_maxrss`` starts from the resident
size of the process that spawned it: spawned from the larger benchmark
process, a small CLI run would report the benchmark's size, not its own.
"""

import os
import sys
import time

result, argv = sys.argv[1], sys.argv[2:]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
with open(result, "w", encoding="utf-8") as fh:
    fh.write(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}\n")
