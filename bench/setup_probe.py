"""Time one workload's set-up in a fresh interpreter.

    python3 bench/setup_probe.py <src dir> <workload> <seed> <work dir>

Times importing folnerflow plus building the workload's windows, graphs,
flows and input files, up to the first job, and prints the seconds.
"""

import sys
import time

start = time.perf_counter()
src, name, seed, workdir = sys.argv[1:5]
sys.path.insert(0, src)
import folnerflow  # noqa: E402,F401  (part of what is timed)
from run import load_workload  # noqa: E402
from spans import NullTracer  # noqa: E402

load_workload(name).setup(int(seed), workdir, NullTracer())
print(time.perf_counter() - start)
