"""Host speed, sampled next to the timed work, to give times at a reference speed.

On a shared host the machine itself changes speed: other tenants slow it
by up to 2x, in flickers of a fraction of a second and in episodes of a
minute or more.  The process's CPU time slows with its wall time, so the
CPU is not taken away; it runs slower.  A run of a few tens of seconds sees
one stretch of that, so wall times of the same code move between runs by
more than a change worth catching.  Here a fixed loop, which does not
touch su11, is timed every PERIOD_S seconds by a sampler thread and at
each `mark`, which a pass makes just before each unit.  A unit of work
then gets

    ref_s = wall_s * LOOP_REF_S / (mean loop time of the samples near the unit)

which is its time at the speed where the loop takes LOOP_REF_S.  A change
to su11 moves `ref_s` as it moves `wall_s`; a change of host speed moves
the loop with it and largely cancels.

The loop mixes interpreted arithmetic, numpy calls on small arrays and
elementwise complex arithmetic, as su11's calculators and its Fock oracle
do.  Of the loops tried, this one tracked su11's time best; a loop of pure
Python tracked it least well.  It calls no BLAS, so it starts no threads,
and it holds the GIL throughout, so its time is its own: the sampler
waits for the GIL before it starts the clock.  The samples cost about 3%
of one core in every pass, the same on every commit.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.04
MIN_WIDEN_S = 0.002
# median loop time on the reference host (2-vCPU Xeon VM, Python 3.11, numpy 2.4)
LOOP_REF_S = 8.0e-4

_X = np.linspace(0.1, 1.0, 64)
# numpy holds the GIL on arrays this small (it lets it go above 500 elements),
# so the loop never waits for the main thread mid-way
_Z = 0.5 * np.exp(1j * np.linspace(0.0, 3.0, 256)).reshape(16, 16)


def loop() -> float:
    s = 0
    for i in range(2400):
        s += i * i % 7
    acc = 0.0
    for _ in range(48):
        acc += float(np.exp(_X).sum())
    for _ in range(40):
        acc += float(np.abs(np.exp(_Z) * _Z).sum(axis=0).cumsum()[-1])
    return s + acc


def time_loop() -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


_active: "Sampler | None" = None


def mark(n: int = 1, every_core: bool = False) -> None:
    """Take samples now, in the calling thread, if a Sampler is running."""
    if _active is not None:
        _active.mark(n, every_core)


class Sampler:
    """Times `loop` every PERIOD_S seconds on a thread of its own, and at each `mark`.

    `samples` holds (start, end, by_thread) triples on the
    `time.perf_counter` clock.  The pass marks the start of every unit, so
    a unit shorter than a period still has a sample right next to it.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            t0 = time.perf_counter()
            loop()
            self.samples.append((t0, time.perf_counter(), True))
            self._stop.wait(PERIOD_S)

    def mark(self, n: int = 1, every_core: bool = False) -> None:
        """Take n samples in the calling thread; with `every_core`, n on each core.

        A process pool runs on every core, and the cores of a shared host
        do not slow down together, so the samples around a pool's work are
        taken on each core in turn.  The thread's own affinity is put back
        before the pool forks its workers, which inherit it.
        """
        if not every_core:
            for _ in range(n):
                t0 = time.perf_counter()
                loop()
                self.samples.append((t0, time.perf_counter(), False))
            return
        cores = os.sched_getaffinity(0)
        try:
            for core in sorted(cores):
                os.sched_setaffinity(0, {core})
                self.mark(n)
        finally:
            os.sched_setaffinity(0, cores)

    def __enter__(self) -> "Sampler":
        global _active
        time_loop()  # warm the loop up outside the samples
        self._thread.start()
        _active = self
        return self

    def __exit__(self, *exc) -> None:
        global _active
        _active = None
        self.mark()
        self._stop.set()
        self._thread.join()

    def loop_s(self, t0: float, t1: float, marks_only: bool = False) -> float:
        """Mean loop time over [t0, t1], widened on each side.

        The widening is the unit's own length, at least MIN_WIDEN_S and at
        most one period; it takes in the marks on either side of the unit,
        and for a short unit little more, since the host's speed flickers
        within tens of milliseconds.  The speed flips between two levels, so
        the mean of a few samples tracks it more closely than their median.  With `marks_only`, the
        thread's samples are left out: while a process pool keeps every core
        busy, the thread's loop waits for a core, and its time says more
        about the pool than about the host.
        """
        samples = [(s, e) for s, e, by_thread in self.samples if not (marks_only and by_thread)]
        widen = min(PERIOD_S, max(MIN_WIDEN_S, t1 - t0))
        near = [e - s for s, e in samples if t0 - widen <= 0.5 * (s + e) <= t1 + widen]
        if not near:
            # no sample near the unit: the nearest one in time
            near = [min((abs(0.5 * (s + e) - 0.5 * (t0 + t1)), e - s) for s, e in samples)[1]]
        return statistics.fmean(near)

    def ref_s(self, t0: float, t1: float, marks_only: bool = False) -> float:
        return (t1 - t0) * LOOP_REF_S / self.loop_s(t0, t1, marks_only)
