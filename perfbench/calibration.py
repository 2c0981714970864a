"""Calibration kernel: a fixed piece of work that measures the machine's speed.

On a shared host the speed of one core drifts by up to 2x over seconds to
minutes, and the drift is invisible to the guest (no steal time, process
time equal to wall time).  A run therefore times this kernel before every
job and after the last job of each pass, and divides the pass time by the
mean kernel time of that pass.  Scaled by ``NOMINAL_S`` this gives the pass
time at a fixed reference speed: a slow stretch of the machine lengthens
both the pass and the kernel, and cancels.

The kernel uses numpy and scipy only, never the program, so a change to the
program does not change it.  It mixes three kinds of work, each slowed by
a different kind of contention on a shared host: interpreted Python, many
small scipy calls on a 60 x 60 LU factorization (per-call overhead and a
tiny LAPACK solve), and solves and products with a 960 x 960 LU factor,
7.4 MB that stream from the shared cache or memory.  The program's time
goes to the same three at the benchmark's sizes.  The kernel takes 10 to
15 ms on the machine in the README, as its speed drifts.
"""

import time

import numpy as np
import scipy.linalg

# the kernel's time at the reference speed `norm_wall_s` is scaled to
NOMINAL_S = 0.010

_PY_ITERATIONS = 40_000
_SMALL_SOLVES = 300
_LARGE_SOLVES = 4


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small, self._small_b = self._factor(rng, 60)
        self._large, self._large_b = self._factor(rng, 960)

    @staticmethod
    def _factor(rng, n: int):
        a = rng.standard_normal((n, n))
        a[np.diag_indices(n)] += n
        return scipy.linalg.lu_factor(a, overwrite_a=True), rng.standard_normal(n)

    def _run(self) -> int:
        acc = 0
        for i in range(_PY_ITERATIONS):
            acc += i * i % 7
        for _ in range(_SMALL_SOLVES):
            scipy.linalg.lu_solve(self._small, self._small_b)
        for _ in range(_LARGE_SOLVES):
            scipy.linalg.lu_solve(self._large, self._large_b)
            self._large[0] @ self._large_b
        return acc

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = time.perf_counter()
        self._run()
        return time.perf_counter() - t0
