"""Host speed from a small fixed kernel that does not run the program.

The benchmark's host is a share of a machine used by others, and the speed
of its CPUs drifts by up to 40 % within seconds to minutes: the same unit
runs that much faster or slower a little later, in CPU time as in wall
time. Repetitions cannot average the drift away when it lasts as long as
a run. So while a unit runs, a sampler thread times this kernel every
0.1 s in its own thread's CPU time, and the unit's times are scaled by
how fast the kernel ran meanwhile:

    scaled = measured * REFERENCE_S / mean(kernel CPU seconds during the unit)

The kernel takes about 1 ms, so it uses about 1 % of one CPU. It formats
and hashes text and sorts an array, the kinds of work the program does
outside the solver, and none of the program's own code, so a change to
the program moves the scaled times as much as the measured ones.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

# The kernel's usual CPU time on the 2-vCPU x86_64 host the bounds were
# set on (Python 3.11, NumPy 2.4). It only sets the scale: a scaled time
# reads as seconds on that host at its usual speed.
REFERENCE_S = 0.0009
_VALUES = np.random.default_rng(0).random(200)


def _kernel() -> None:
    text = "".join(f"    x{i:<8d}  R{i % 97:<8d}  {v:12.6g}\n" for i, v in enumerate(_VALUES))
    hashlib.sha256(text.encode("ascii")).hexdigest()
    np.sort(np.random.default_rng(1).random(20_000))


def kernel_cpu_seconds() -> float:
    """CPU seconds of the calling thread for one run of the kernel."""
    t0 = time.thread_time()
    _kernel()
    return time.thread_time() - t0


def scale(samples: list[float]) -> float:
    """Factor from seconds measured while ``samples`` were taken to reference seconds."""
    return REFERENCE_S / statistics.fmean(samples)


for _ in range(20):  # warm caches and lazy imports before the first sample
    _kernel()
