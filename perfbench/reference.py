"""Host-speed reference: a fixed slice of work timed during every run.

The host this benchmark was built on (2 shared CPUs) changes speed by
up to 1.5x over minutes, and in bursts of a second or two.  Process CPU
time follows wall time, so the slowdown is contention for the core and
its caches, not time the hypervisor takes away.  A median over one
invocation removes neither a drift that outlasts the invocation nor,
with a handful of samples, the bursts.

So while a timing worker runs, a ``SIGALRM`` handler times a short
slice of small-integer arithmetic every ``INTERVAL_S`` seconds of wall
time, in the same process and so on the same core at the same moment
as the run it interrupts.  The handler's own time is taken out of the
run's time, and ``run.py`` scales what is left by the slices timed
during the run:

    normalised = (measured - handler time) * NOMINAL_S / mean slice time

The result is the time the run would take on a host where one slice
takes ``NOMINAL_S`` seconds.  The slice does not call the ``repro``
package and touches a few cache lines, so a change to the program moves
the run's time and leaves the slice's alone, while a slower host moves
both and cancels.
"""

from __future__ import annotations

import resource
import signal
from time import perf_counter
from typing import Any

#: slice wall seconds on the quiet 2-CPU Xeon host it was sized on
NOMINAL_S = 0.0055

#: wall seconds between two slices
INTERVAL_S = 0.2

_SLICE_STEPS = 80_000


def cpu_seconds() -> float:
    """CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _slice() -> int:
    s = 0
    for i in range(_SLICE_STEPS):
        s += i * i % 7
    return s


class Sampler:
    """Times the slice from a ``SIGALRM`` handler while it is started.

    Each handler call appends one row to :attr:`rows`: the
    ``perf_counter`` time it began, the wall and CPU seconds of its
    slice, and the wall and CPU seconds of the whole call, bookkeeping
    included.  The handler runs between two bytecodes of the main
    thread, so a call lies wholly inside or wholly outside any interval
    the main thread measures.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[float, float, float, float, float]] = []

    def _sample(self, signum: int, frame: object) -> None:
        t0 = perf_counter()
        c0 = cpu_seconds()
        t1 = perf_counter()
        _slice()
        t2 = perf_counter()
        c2 = cpu_seconds()
        self.rows.append(
            (t0, t2 - t1, c2 - c0, perf_counter() - t0, cpu_seconds() - c0)
        )

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def during(self, t0: float, t1: float) -> dict[str, Any]:
        """What the handler did between ``perf_counter`` times t0, t1.

        ``spent_wall`` and ``spent_cpu`` are to be taken out of the
        interval's times.  ``ref_wall`` and ``ref_cpu`` are the mean
        slice times, ``None`` if no slice fell in the interval.
        """
        rows = [r for r in self.rows if t0 <= r[0] < t1]
        n = len(rows)
        return {
            "slices": n,
            "ref_wall": sum(r[1] for r in rows) / n if n else None,
            "ref_cpu": sum(r[2] for r in rows) / n if n else None,
            "spent_wall": sum(r[3] for r in rows),
            "spent_cpu": sum(r[4] for r in rows),
        }
