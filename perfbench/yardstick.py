"""The yardstick: a fixed task whose time measures the host's speed.

On a shared 2-vCPU VM the host's speed changes by up to 2x from one
minute to the next, and stays changed for minutes: far more than the
benchmark's bounds, and for longer than one run.  No statistic taken
over a run's own passes removes that.  The yardstick is a small fixed
task in the benchmark's own code, which the program under test never
changes.  The timed run samples it in the benchmark process while the
program runs, from a CPU-time timer's signal handler, and around each
operation, so both see the same host.  The program's time times
``NOMINAL_S`` over the yardstick's mean time in the same pass is the
program's time at the host speed where the yardstick takes
``NOMINAL_S``.  Sampling time is left out of the program's time.

The task pushes and pops a fixed set of preallocated events through a
heap, as the simulator's event loop does.  It allocates no object the
cyclic collector tracks, so it adds next to nothing to the program's
garbage collections (only the signal handler's call allocates), and it
touches no state of the program it interrupts.
"""

from __future__ import annotations

import contextlib
import heapq
import signal
import statistics
import threading
import time

#: The yardstick's time at the reference host speed; about its mean on
#: an unloaded 2-vCPU x86-64 VM under CPython 3.11.
NOMINAL_S = 0.5e-3
#: CPU seconds between two samples while the timer runs.
EVERY_S = 0.02
#: Wall seconds between two samples while the process waits.
WAIT_EVERY_S = 0.05


class _Event:
    __slots__ = ("when", "seq")

    def __init__(self, when: int, seq: int) -> None:
        self.when = when
        self.seq = seq

    def __lt__(self, other: "_Event") -> bool:
        if self.when != other.when:
            return self.when < other.when
        return self.seq < other.seq


class Yardstick:
    """Samples the task in bursts; while the program runs in this
    process, on a CPU-time timer, so the samples spread over the run
    like its own time does; and while this process ``waiting`` for
    others, from a thread.  The time spent sampling in the program's
    way is kept in ``spent_s``."""

    def __init__(self) -> None:
        self._events = [_Event(i * 7919 % 1009, i) for i in range(300)]
        self._heap: list[_Event] = []
        self._tally = dict.fromkeys(range(16), 0)
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._busy = False

    def _task(self) -> None:
        heap = self._heap
        tally = self._tally
        for event in self._events:
            heapq.heappush(heap, event)
        while heap:
            event = heapq.heappop(heap)
            key = event.when & 15
            tally[key] = (tally[key] + event.seq) & 0xFFFF

    def sample(self, in_the_way: bool = True) -> None:
        # The timer's signal can arrive while a sample runs; that one is
        # skipped rather than nested in it.
        if self._busy:
            return
        self._busy = True
        try:
            started = time.perf_counter()
            self._task()
            ended = time.perf_counter()
            self.samples.append(ended - started)
            if in_the_way:
                self.spent_s += time.perf_counter() - started
        finally:
            self._busy = False

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    @contextlib.contextmanager
    def running(self):
        """Sample every ``EVERY_S`` of this process's CPU time."""
        previous = signal.signal(signal.SIGPROF,
                                 lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    @contextlib.contextmanager
    def waiting(self):
        """Sample every ``WAIT_EVERY_S`` from a thread while this process
        waits for work done in other processes.  The samples take no
        time from that work, so they are not counted in ``spent_s``."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(WAIT_EVERY_S):
                self.sample(in_the_way=False)

        thread = threading.Thread(target=loop, name="yardstick", daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()

    def take(self) -> list[float]:
        """The samples taken since the last ``take``."""
        samples, self.samples = self.samples, []
        return samples

    @staticmethod
    def scale(samples: list[float]) -> float:
        """The factor that turns host seconds, measured while
        ``samples`` were taken, into seconds at the reference speed."""
        return NOMINAL_S / statistics.mean(samples)
