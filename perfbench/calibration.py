"""Host-speed calibration: a fixed task timed between CLI invocations.

On a shared host the CPU a benchmark gets slows and recovers in phases,
and every timing slows with it, CPU time included. On a 2-vCPU VM a pass
of the task below takes either about 0.30 s or about 0.45 s, switching
every few seconds, with longer phases on top. Timing the task before the
first and after every invocation of a run measures the speed the host
gave the run, and the run's timings are reported at reference speed:

    adjusted = mean raw timing * REFERENCE_S / mean calibration time

Means, not medians, on both sides: with two speeds, a mean tracks the
share of time spent at each, where a median jumps from one to the other
as that share crosses a half.

REFERENCE_S only fixes the unit; the ratio of two commits' adjusted times
is the ratio of their raw times on a host of constant speed. The task
uses numpy and scipy only, never heatext, so no change to the library
moves it. It mixes, in about equal parts, what the CLI spends its time
on: SuperLU triangular solves on a factor too large for the CPU caches
and on one that fits them, float-to-text CSV formatting, and a plain
interpreter loop.
"""

import csv
import io
import time

# median over runs of the mean calibration time on a 2-vCPU Intel Xeon
# (2.1 GHz) VM
REFERENCE_S = 0.36

# (grid side, solves): a 245^2 factor streams from memory, a 120^2 one
# stays in cache
_LU_TASKS = ((245, 8), (120, 50))
_CSV_ROWS = 20000
_LOOP = 1500000


def _laplacian_lu(side):
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    e = np.ones(side)
    T = sp.diags([-e[:-1], 2.0 * e, -e[:-1]], [-1, 0, 1])
    I = sp.identity(side)
    A = sp.identity(side * side) + 0.1 * (sp.kron(I, T) + sp.kron(T, I))
    return splu(A.tocsc()), np.linspace(0.0, 1.0, side * side)


class Calibration:
    """Builds the task's inputs once; run() times one pass of the task."""

    def __init__(self):
        self._lus = [(*_laplacian_lu(side), solves) for side, solves in _LU_TASKS]
        self._rows = [(i * 1e-3, 1.0 / (i + 1), i * 1e-7) for i in range(_CSV_ROWS)]
        self.run()  # first pass pays for lazy set-up; not timed

    def run(self):
        t0 = time.perf_counter()
        for lu, x, solves in self._lus:
            for _ in range(solves):
                x = lu.solve(x)
        buf = io.StringIO()
        csv.writer(buf).writerows((f"{a:.17g}", f"{b:.17g}", f"{c:.17g}")
                                  for a, b, c in self._rows)
        s = 0
        for i in range(_LOOP):
            s += i * i % 7
        return time.perf_counter() - t0
