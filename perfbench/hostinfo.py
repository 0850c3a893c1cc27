"""Host context recorded with every run and never gated.

With these a reader can tell a slow host from a slow program: CPU steal
over the window, the generator's own CPU share, the filesystem under the
store directory, interpreter and NumPy versions, and the time of a fixed
pure-Python calibration loop taken before and after the run.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

__all__ = ["CpuClock", "calibration_ms", "filesystem_type", "static_context"]


def _proc_stat() -> tuple[int, int]:
    """``(total, steal)`` jiffies of the aggregate ``cpu`` line."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal (guest time is
    # already counted inside user and nice).
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


class CpuClock:
    """Host steal share and this process's CPU share over an interval."""

    def __init__(self):
        self._wall = time.perf_counter()
        self._stat = _proc_stat()
        times = os.times()
        self._cpu = times.user + times.system

    def read(self) -> dict:
        wall = time.perf_counter() - self._wall
        total, steal = _proc_stat()
        d_total = total - self._stat[0]
        times = os.times()
        return {
            "steal_share": (steal - self._stat[1]) / d_total if d_total else 0.0,
            "generator_cpu_share": (times.user + times.system - self._cpu) / wall,
        }


def filesystem_type(path) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    target = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/self/mountinfo", encoding="utf-8") as mounts:
        for line in mounts:
            left, _, right = line.partition(" - ")
            mount_point = left.split()[4]
            inside = target == mount_point or target.startswith(
                mount_point.rstrip("/") + "/"
            )
            if inside and len(mount_point) >= len(best):
                best, kind = mount_point, right.split()[0]
    return kind


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop (host speed, not program)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def static_context() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
