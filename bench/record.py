"""Per-run record: what each phase cost and what the host did meanwhile.

The host is a shared VM, so a slow run can come from other tenants rather
than from the code.  Each phase therefore records its wall time, the CPU
time of this process and its reaped children, and the steal ticks the
kernel reports in /proc/stat over the same interval.  A fixed probe job,
timed next to the work, gives the host's speed at that moment.
"""

from __future__ import annotations

import os
import platform
import resource
import time
from contextlib import contextmanager


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    values = [int(v) for v in fields[1:]]
    return values[7], sum(values[:8])


def cpu_seconds() -> float:
    """User + system CPU time of this process and of its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


class RunRecord:
    """Phases, environment and operation counts of one benchmark run."""

    def __init__(self, **header):
        self.data = dict(header)
        self.data["phases"] = {}
        self.data["host"] = {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "machine": platform.machine(),
        }

    @contextmanager
    def phase(self, name):
        ticks0, cpu0, wall0 = cpu_ticks(), cpu_seconds(), time.perf_counter()
        try:
            yield
        finally:
            entry = self.data["phases"].setdefault(
                name, {"wall_s": 0.0, "cpu_s": 0.0})
            entry["wall_s"] += time.perf_counter() - wall0
            entry["cpu_s"] += cpu_seconds() - cpu0
            ticks1 = cpu_ticks()
            if ticks0 is not None and ticks1 is not None:
                steal = entry.get("steal_ticks", 0) + ticks1[0] - ticks0[0]
                total = entry.get("total_ticks", 0) + ticks1[1] - ticks0[1]
                entry.update(steal_ticks=steal, total_ticks=total,
                             steal_share=steal / total if total else 0.0)


# The host speed the reported times are scaled to: the probe job below
# takes this long on it.
PROBE_REF_S = 0.35


def host_probe_s(repeats: int = 1500) -> float:
    """Wall time of a fixed job independent of timopigp.

    The job mixes interpreter work with small numpy and LAPACK calls, as
    the package's inner loops do, so a slower host shows in it as well.
    """
    import numpy as np
    from scipy.linalg import cholesky

    x = np.linspace(0.0, 1.0, 25)
    u = np.subtract.outer(x, x) / 0.125
    a = np.exp(-0.5 * u * u) + 1e-6 * np.eye(25)
    coef = (1.0, 0.0, -6.0, 0.0, 3.0)
    cholesky(a, lower=True)  # first call outside the timing
    t0 = time.perf_counter()
    for _ in range(repeats):
        for _ in range(8):
            np.polyval(coef, u) * np.exp(-0.5 * u * u)
        cholesky(a, lower=True)
    return time.perf_counter() - t0
