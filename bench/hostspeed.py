"""Host-speed normalisation with an interleaved reference kernel.

Timings on a small shared host move with host speed: on a 2-CPU x86-64 host
the same training run took anywhere from 3.4 s to 7.2 s, and its CPU time
moved with it. A fixed pure-Python kernel run between the benchmark's own
timed calls slows down in step with the program, so the ratio of work time
to kernel time stays steadier than raw times. Calibrating only before and
after a long phase is not enough (about +-13%); the kernel has to run
alongside the work, every ``every_s`` seconds.

A timed value is reported in host-normalised units::

    normalised = raw * KERNEL_NOMINAL_S / measured kernel time

``KERNEL_NOMINAL_S`` was recorded once and, like :func:`reference_kernel`,
must never change: both define the unit every later result is reported in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import fmean

# Median time of one reference_kernel() call on a shared 2-CPU x86-64 host
# under Python 3.11, rounded. It defines the unit of every normalised value:
# never change it.
KERNEL_NOMINAL_S = 0.001
KERNEL_LOOPS = 1500

_KERNEL_TOKENS = tuple(f"k{i:02d}" for i in range(64))


def reference_kernel() -> int:
    """Fixed pure-Python work: dict updates and tuple slice compares.

    Never change this function or ``KERNEL_LOOPS``.
    """
    toks = _KERNEL_TOKENS
    counts: dict[tuple[str, ...], int] = {}
    hits = 0
    for i in range(KERNEL_LOOPS):
        a = i % 61
        head = toks[a:a + 3]
        counts[head] = counts.get(head, 0) + 1
        b = (i * 7) % 61
        if toks[b:b + 3] == head:
            hits += 1
    return hits + len(counts)


@dataclass(frozen=True)
class Timing:
    """One timed interval: work time without kernel runs, and the host speed
    (nominal / measured kernel time) over it; ``norm`` is the interval in
    host-normalised seconds."""

    raw: float
    speed: float

    @property
    def norm(self) -> float:
        return self.raw * self.speed


@dataclass(frozen=True)
class Pending:
    """A closed interval whose host speed is known once the kernel has run
    after it."""

    start: float
    end: float
    first: int       # index of the first kernel run after ``start``
    after: int       # index of the first kernel run after ``end``


class HostMeter:
    """Interleaves the reference kernel with timed work.

    ``tick()`` runs the kernel whenever ``every_s`` seconds have passed since
    its last run; the meter ticks at the edges of every interval, and long
    work calls it from inside. The kernel runs split an interval into
    slices of work; each slice is normalised by the two kernel runs on
    either side of it, and kernel time is not work time. Host speed on a
    shared machine changes within milliseconds, so kernel runs further away
    track it worse, not better.
    """

    def __init__(self, every_s: float = 0.010,
                 nominal_s: float = KERNEL_NOMINAL_S,
                 kernel=reference_kernel, clock=time.perf_counter):
        self.every_s = every_s
        self.nominal_s = nominal_s
        self._kernel = kernel
        self._clock = clock
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.on_kernel = None       # set by the tracer to record kernel spans

    def run_kernel(self) -> None:
        hook = self.on_kernel
        t0 = self._clock()
        if hook is None:
            self._kernel()
        else:
            hook(self._kernel)
        t1 = self._clock()
        self.starts.append(t0)
        self.samples.append(t1 - t0)

    def tick(self) -> None:
        if not self.samples or self._clock() - self.starts[-1] \
                - self.samples[-1] >= self.every_s:
            self.run_kernel()

    def start(self) -> tuple[float, int]:
        self.tick()
        return self._clock(), len(self.samples)

    def stop(self, mark: tuple[float, int]) -> Pending:
        end = self._clock()
        after = len(self.samples)
        self.tick()
        return Pending(mark[0], end, mark[1], after)

    def finish(self, pending: Pending) -> Timing:
        """The interval's timing, once the kernel has run after it."""
        if pending.after >= len(self.samples):
            self.run_kernel()
        samples, starts = self.samples, self.starts
        before = samples[max(pending.first - 1, 0)]
        t = pending.start
        raw = norm = 0.0
        for i in range(pending.first, pending.after + 1):
            piece = (pending.end if i == pending.after else starts[i]) - t
            raw += piece
            norm += piece * 2 * self.nominal_s / (before + samples[i])
            before = samples[i]
            t = starts[i] + samples[i]
        if raw <= 0.0:
            return Timing(0.0, self.nominal_s / before)
        return Timing(raw, norm / raw)

    def speed(self) -> float:
        """Host speed over every kernel run so far."""
        return self.nominal_s / fmean(self.samples)
