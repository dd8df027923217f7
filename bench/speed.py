"""How fast this machine runs Python right now, from fixed reference work.

The benchmark runs on a few shared cores whose speed drifts by a third
or more over tens of seconds, as neighbours come and go. A run samples a
reference just before every job it times; each job's time is then
scaled by the reference's fixed time over its median time around that
job, so the end-to-end metrics read as times on a machine where the
reference takes its fixed time. There are two references, because in-process work and process
start-up slow down differently when the host is loaded:

- IN_PROCESS runs a kernel that does the kind of work folnerflow does
  (small exact rationals, dicts, sets, a heap) and scales jobs that run
  in the benchmark's own process;
- FRESH_PROCESS starts an interpreter that imports the standard modules
  folnerflow imports, and scales child-process jobs and set-up, which
  are mostly interpreter start and imports.

Neither calls anything in folnerflow, so a change to the library cannot
move them.
"""

from __future__ import annotations

import heapq
import statistics
import subprocess
import sys
import time
from fractions import Fraction

WINDOW = 10  # jobs on each side whose reference samples set a job's scale

_SIDE = 10
_NEIGHBORS = [
    [y for y in (x - _SIDE, x + _SIDE, x - 1 if x % _SIDE else -1,
                 x + 1 if (x + 1) % _SIDE else -1) if 0 <= y < _SIDE * _SIDE]
    for x in range(_SIDE * _SIDE)
]
_WEIGHTS = (Fraction(3, 2), Fraction(5, 2), Fraction(1), Fraction(7, 3))
_IMPORTS = "import argparse, concurrent.futures, dataclasses, fractions, heapq, json, pathlib, random"


def kernel():
    """Exact shortest paths on a 10x10 grid with rational weights, then
    set and dict work on the result; returns a checksum."""
    dist = {0: Fraction(0)}
    heap = [(Fraction(0), 0)]
    done = set()
    while heap:
        d, x = heapq.heappop(heap)
        if x in done:
            continue
        done.add(x)
        for k, y in enumerate(_NEIGHBORS[x]):
            nd = d + _WEIGHTS[(x + k) % 4]
            if y not in dist or nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    rings = {}
    for x, d in dist.items():
        rings.setdefault(int(d), set()).add(x)
    return sum(len(r) * k for k, r in rings.items())


def fresh_interpreter():
    """Start an interpreter that imports folnerflow's standard modules."""
    subprocess.run([sys.executable, "-c", _IMPORTS], check=True)


class Reference:
    """Fixed work and the seconds it takes on the reference machine."""

    def __init__(self, work, seconds):
        self.work = work
        self.seconds = seconds

    def probe(self):
        """Seconds the work takes now."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start

    def scale(self, probes):
        """Reference seconds over the median of `probes`."""
        return self.seconds / statistics.median(probes)

    def scales(self, probes):
        """Per job, the scale from the samples in its window."""
        return [self.scale(probes[max(0, i - WINDOW):i + WINDOW + 1])
                for i in range(len(probes))]


# the times on a 2-vCPU host at its faster speed, Python 3.11
IN_PROCESS = Reference(kernel, 0.0025)
FRESH_PROCESS = Reference(fresh_interpreter, 0.09)
