"""Speed calibration for a machine whose cores change speed under load.

On a shared host a core's speed can change by half within seconds, and the
whole machine's by two times within minutes, when other tenants load it.
The benchmark therefore pins itself (and the processes it starts, which
inherit the pin) to one CPU and times a fixed Python-and-numpy kernel on the
CPUs the measured work runs on:

- in-process work, before and after each block of rounds (`Scaler`);
- a child process, every SAMPLE_EVERY_S while it runs (`run_process`).

Measured times are multiplied by REFERENCE_KERNEL_S / (mean kernel time), so
they are in units of the reference machine's speed; the raw times are
printed alongside.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
from time import perf_counter, sleep
from typing import NamedTuple

import numpy as np

# kernel time on an unloaded core of the machine the baseline was taken on
REFERENCE_KERNEL_S = 1.0e-3
KERNEL_ITERATIONS = 600
KERNEL_REPEATS = 3
SAMPLE_EVERY_S = 0.05      # costs the child about 2% of its CPU
POLL_FIRST_S = 0.0005
# the CPUs this process may use when first imported, before any pinning
ALL_CPUS = frozenset(os.sched_getaffinity(0))


def pin_to_one_cpu() -> None:
    os.sched_setaffinity(0, {min(ALL_CPUS)})


@contextlib.contextmanager
def unpinned():
    """All CPUs for the body, e.g. to start a two-worker pool."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def kernel_once() -> float:
    t0 = perf_counter()
    v, s = np.zeros(2), 0
    for i in range(KERNEL_ITERATIONS):
        v = v + np.array([1.0, 2.0])
        s += i * i
    return perf_counter() - t0


def kernel_s() -> float:
    """Fastest of a few runs of the kernel on the current CPU."""
    return min(kernel_once() for _ in range(KERNEL_REPEATS))


class Scaler:
    """Rescales the times measured between consecutive calls of `mark`."""

    def __init__(self) -> None:
        self._last = kernel_s()

    def mark(self) -> float:
        """Scale factor for the block that ends now."""
        now = kernel_s()
        scale = REFERENCE_KERNEL_S / (0.5 * (self._last + now))
        self._last = now
        return scale


class Run(NamedTuple):
    wall_s: float        # raw wall seconds
    scaled_s: float      # wall seconds rescaled to the reference speed
    code: int            # exit code, -1 on timeout
    max_rss_kb: int      # peak RSS of the process and the children it reaped


def run_process(cmd: list[str], all_cpus: bool = False, timeout: float = 120,
                **popen_kwargs) -> Run:
    """Run cmd to completion and reap it with wait4, so that its own peak
    RSS is known.

    The child gets this process's CPU, or every CPU with `all_cpus`; the
    kernel is timed on those CPUs in turn every SAMPLE_EVERY_S while the
    child runs, and once on each before it starts. Between samples the child
    is polled at POLL_FIRST_S, doubling, as `Popen.wait` does."""
    pinned = os.sched_getaffinity(0)
    cpus = sorted(ALL_CPUS if all_cpus else pinned)
    samples = []

    def sample(cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})
        samples.append(kernel_once())
        os.sched_setaffinity(0, pinned)

    for cpu in cpus:
        sample(cpu)
    t0 = perf_counter()
    with unpinned() if all_cpus else contextlib.nullcontext():
        proc = subprocess.Popen(cmd, **popen_kwargs)
    next_sample, delay, k = t0 + SAMPLE_EVERY_S, POLL_FIRST_S, 0
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            code = os.waitstatus_to_exitcode(status)
            break
        now = perf_counter()
        if now - t0 > timeout:
            proc.kill()
            _, _, usage = os.wait4(proc.pid, 0)
            code = -1
            break
        if now >= next_sample:
            sample(cpus[k % len(cpus)])
            k += 1
            now = perf_counter()
            next_sample, delay = now + SAMPLE_EVERY_S, POLL_FIRST_S
        sleep(min(delay, next_sample - now))
        delay *= 2
    wall = perf_counter() - t0
    proc.returncode = code
    mean_kernel_s = sum(samples) / len(samples)
    return Run(wall, wall * REFERENCE_KERNEL_S / mean_kernel_s, code,
               usage.ru_maxrss)
