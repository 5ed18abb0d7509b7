"""Host fingerprint, matmul calibration and peak-RSS reading.

Every result carries the host it ran on (cores, BLAS thread pins, numpy
and Python versions, the git SHA when the checkout has one) and a fixed
256x256 float32 matmul timed at the start and at the end of the run, and
the share of CPU time the hypervisor stole from the guest during the run,
so drift between two sets of runs can be told apart from a code change.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
from time import perf_counter
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

_CALIBRATION_SIZE = 256
_CALIBRATION_REPEATS = 200


def matmul_calibration_us() -> float:
    """Median microseconds of one fixed 256x256 float32 matmul."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((_CALIBRATION_SIZE, _CALIBRATION_SIZE)).astype(np.float32)
    b = rng.standard_normal((_CALIBRATION_SIZE, _CALIBRATION_SIZE)).astype(np.float32)
    out = np.empty_like(a)
    times = []
    for _ in range(_CALIBRATION_REPEATS):
        started = perf_counter()
        np.matmul(a, b, out=out)
        times.append(perf_counter() - started)
    return statistics.median(times) * 1e6


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` clock ticks of all CPUs since boot (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


def git_sha(root: str) -> Optional[str]:
    """The checkout's HEAD commit, read from ``.git`` without running git."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        return None
    return None


def fingerprint(root: str, blas_vars: Sequence[str]) -> Dict[str, object]:
    """Static facts about the host and the code under test."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "blas_threads": {var: os.environ.get(var) for var in blas_vars},
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "git_sha": git_sha(root),
    }


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    path = "/proc/self/status" if pid is None else f"/proc/{pid}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")
