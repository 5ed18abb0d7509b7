"""Keep the host's vCPUs out of their idle halt while a run is measured.

On a virtual machine an idle vCPU halts and hands its physical core back
to the hypervisor; waking it again for the next message costs tens to
hundreds of microseconds, and how often that happens drifts with the
load of other guests.  The process backend exchanges a few hundred small
messages per tick between three processes on two cores, so its tick
latency measured on an otherwise idle guest flips between regimes about
2x apart for tens of seconds at a time, while its CPU time per tick
stays flat.  One ``SCHED_IDLE`` busy loop per usable core keeps each vCPU
running: the kernel runs such a task only when nothing else is runnable
and preempts it as soon as anything is, so it takes almost no CPU from
the program, but a wake-up no longer has to resume a halted vCPU.

A spinner exits when its parent does (it polls ``getppid``), so a
benchmark killed mid-run leaves nothing behind; ``stop`` ends them on
every other exit path.
"""

from __future__ import annotations

import os
import subprocess
import sys

_SPIN = """
import os, sys
os.sched_setaffinity(0, {int(sys.argv[2])})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = int(sys.argv[1])
while os.getppid() == parent:
    pass
"""


class IdleSpinners:
    """One ``SCHED_IDLE`` busy loop per usable core, from start to stop."""

    def __init__(self) -> None:
        self._procs = []

    def start(self) -> None:
        for cpu in sorted(os.sched_getaffinity(0)):
            self._procs.append(
                subprocess.Popen(
                    [sys.executable, "-c", _SPIN, str(os.getpid()), str(cpu)],
                    stdin=subprocess.DEVNULL,
                )
            )

    def stop(self) -> None:
        for proc in self._procs:
            proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self._procs.clear()
