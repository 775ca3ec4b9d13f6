"""Machine-speed calibration for timings taken on a shared machine.

The speed of a shared machine drifts by a factor of two within seconds,
far more than the changes the benchmark has to resolve.  So while a pass
of a workload runs, a timer signal interrupts it every ``PERIOD_S`` and
the handler times a short calibration slice: a fixed piece of exact
rational arithmetic from the benchmark's own reference code, which no
change to tilecount can speed up or slow down.  The handler's own time is
taken out of whatever operation it interrupted.  An interval's timings are
scaled by the mean of ``NOMINAL_S / slice`` over the slices taken in it,
that is, reported as they would read on a machine where one slice takes
``NOMINAL_S``.  The raw timings are printed beside them.

Process start-up is mostly exec, imports and page faults, which the
arithmetic slice tracks poorly.  A start-up is scaled instead by a bare
interpreter start timed just before it, to read as it would on a machine
where the bare start takes ``NOMINAL_START_S``.

The sampler runs in the main thread, between bytecodes of the interrupted
code; it starts no thread or process.
"""

from __future__ import annotations

import signal
import subprocess
import sys
from time import perf_counter

import reference as ref

#: Seconds one slice takes on the nominal machine.  On the shared two-vCPU
#: Xeon virtual machine the seed-commit numbers come from, under CPython
#: 3.11, a slice takes 1.6-1.9 ms in its fast state and about 2.6 ms in its
#: slow one.
NOMINAL_S = 0.002
PERIOD_S = 0.1
#: Seconds a bare ``python3 -c pass`` takes on the nominal machine.  On the
#: same virtual machine it took 64-85 ms while a slice took about 2.9 ms.
NOMINAL_START_S = 0.05

_PATTERN = ref.NAMED_PATTERNS["s1"]


def slice_s() -> float:
    """Time one calibration slice."""
    t0 = perf_counter()
    ref.diamond_value(_PATTERN, 16)
    return perf_counter() - t0


def scale(slices: list[float]) -> float:
    """Factor that turns raw seconds into nominal-machine seconds."""
    return sum(NOMINAL_S / s for s in slices) / len(slices)


def start_scale() -> float:
    """Factor that turns the raw seconds of a process start-up that follows
    at once into nominal-machine seconds."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return NOMINAL_START_S / (perf_counter() - t0)


class Sampler:
    """Times a slice every ``PERIOD_S`` while started.

    ``slices`` collects the slice times; ``spent`` the seconds the handler
    took in all, so that a caller can subtract them from its own timings.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.slices.append(slice_s())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
