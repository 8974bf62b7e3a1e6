"""Machine-speed gauge: scales measured times to a fixed reference speed.

The benchmark machine's speed drifts by 20-40% over seconds to minutes
(CPU time moves with wall time, so it is not preemption), and the
median of a 30-second run moves with it.  A fixed kernel that does not
call glmpca is read before the first job and after every job; a job's
times are multiplied by

    REFERENCE_S[kind] / mean(reading before the job, reading after it)

so a timing metric reads as the seconds the job would take on a machine
where the kernel takes REFERENCE_S[kind].  A change to the program moves
the job times and leaves the kernel alone, so a speed-up shows in full.

A slowdown does not hit every kind of work alike, so each workload reads
the kernel that resembles its own work:

- ``numeric`` (library fits): numpy elementwise work on an array of a
  fit's size, then an interpreted integer loop.
- ``parse`` (the CLI child process): parsing MatrixMarket-like text
  lines into lists, then filling a freshly mapped 16 MB array, which
  page-faults like a process starting up and reading its input.

Measured over 30-second windows on a 2-vCPU VM, the median fit time
spread by 0.24 of its median (interquartile range) and the fit time
over the numeric reading by 0.03.  The median CLI time spread by 0.32,
over the numeric reading by 0.05 and over the parse reading by 0.02.

A reading is the fastest of READS back-to-back runs of the kernel: the
first run after the process has waited for a child is often slowed by
the wake-up, and a single short run catches bursts of contention.
"""

from __future__ import annotations

import mmap
import time

import numpy as np

# Each kernel's time at the reference speed; any fixed values would do.
# These are about what the kernels take on a 2-vCPU x86-64 VM with
# numpy 2.4.
REFERENCE_S = {"numeric": 0.020, "parse": 0.020}
READS = 3
_N = 60_000
_NUMPY_REPS = 24
_LOOP = 120_000
_LINES = 8_000
_FRESH_BYTES = 16 << 20


class Gauge:
    """Reads one kernel between jobs and hands out per-job scale factors."""

    def __init__(self, kind: str):
        self.reference_s = REFERENCE_S[kind]
        self._kernel = {"numeric": self._numeric, "parse": self._parse}[kind]
        self._x = np.linspace(0.1, 2.0, _N)
        self._text = "".join(f"{i * 7919 % 1200 + 1} {i * 104729 % 200 + 1} "
                             f"{i % 17 + 1}\n" for i in range(_LINES))
        self.readings: list[float] = []
        self._last = self._read()

    def _numeric(self) -> None:
        x = self._x
        for _ in range(_NUMPY_REPS):
            y = np.exp(x)
            float((y * np.log1p(y)).sum())
        s = 0
        for i in range(_LOOP):
            s += i * i

    def _parse(self) -> None:
        rows, cols, vals = [], [], []
        for line in self._text.splitlines():
            r, c, v = line.split()
            rows.append(int(r))
            cols.append(int(c))
            vals.append(float(v))
        np.array(vals)
        # mapped directly rather than through malloc, whose thresholds a
        # freed 16 MB block would raise for the program's own arrays
        buf = mmap.mmap(-1, _FRESH_BYTES)
        fresh = np.frombuffer(buf, dtype=np.float64)
        fresh.fill(1.0)
        float(fresh.sum())
        del fresh
        buf.close()

    def _read(self) -> float:
        best = float("inf")
        for _ in range(READS):
            t0 = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - t0)
        self.readings.append(best)
        return best

    def factor(self) -> float:
        """Call right after a job: the factor that scales its times."""
        now = self._read()
        f = self.reference_s / (0.5 * (self._last + now))
        self._last = now
        return f
