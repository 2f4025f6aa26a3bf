"""Reference kernel that tracks the machine's current speed.

On a shared machine the speed available to one process drifts by +-15 % over
seconds to minutes, and a whole run can sit in a slow or a fast stretch. The
benchmark therefore times this fixed kernel next to the work it measures and
reports times at reference speed: each measured time is multiplied by
``REF_KERNEL_S / t_kernel``, where ``t_kernel`` is the kernel time measured
around it. Like the trials, the kernel mixes interpreter work and small numpy
calls (which track the CPU share the machine gives; ``compute_seconds``) with
a fresh 16 MiB array (which tracks the cost of page faults and memory
traffic, where the multiband trials spend their time; ``memory_seconds``);
``t_kernel`` is the sum of the two. It lives here so no change to ``src/``
can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time that defines reference speed: about the kernel's median time on
# a 2-core x86 cloud VM (Python 3.11, numpy 2.4). Times at reference speed are
# what that machine would measure; only their ratios between runs matter.
REF_KERNEL_S = 0.011
WINDOW = 3  # kernel samples on each side of a timed interval


def compute_seconds() -> float:
    """Time the interpreter-and-small-numpy part of the kernel. It runs in
    the measured process, on the CPU the trials run on."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    x = rng.standard_normal((4, 16)) + 0j
    total = 0
    for i in range(100):
        for j in range(50):
            total += i * j
        np.linalg.lstsq(a[:, :2], x[:, :3], rcond=None)
        np.fft.fft(x, axis=1)
        np.linalg.svd(a, compute_uv=False)
    return time.perf_counter() - started


def memory_seconds() -> float:
    """Time the memory part of the kernel: fault in and write a fresh 16 MiB
    array. It runs in run.py, so that its memory stays out of the measured
    process's peak RSS."""
    started = time.perf_counter()
    block = np.zeros((16, 2048, 32), dtype=np.complex128)
    block[:, :, 0] = 1.0
    block *= 2.0
    return time.perf_counter() - started


def scales(kernel_s: list[float]) -> list[float]:
    """Reference-speed factors for the intervals between kernel samples.

    ``kernel_s[i]`` is taken before interval i and ``kernel_s[i + 1]`` after
    it. Interval i is scaled by the mean of the kernel samples within WINDOW
    of it: the mean, not the median, so that the stalls a busy machine
    inflicts on the kernel count as they count for the trials."""
    out = []
    for i in range(len(kernel_s) - 1):
        near = kernel_s[max(0, i - WINDOW + 1):i + WINDOW + 1]
        out.append(REF_KERNEL_S / statistics.fmean(near))
    return out
