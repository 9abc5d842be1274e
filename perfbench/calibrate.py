"""Host-speed calibration of measured time.

The hosts this benchmark runs on are shared: a fixed pure-Python loop
runs anywhere from 5.7 to 10.8 times a second over one minute on the
2-CPU host where the benchmark was defined, with the guest's CPU time
equal to its wall time, so the slowdown is not visible as steal time.
Passes of one run drift together, and no number of passes in a 25 s run
averages that out.

So the benchmark times a fixed interpreter-bound kernel, which uses no
``repro`` code, at the boundaries of the measured work (before every
cell or command, and at the start and end of every pass) and, in
untraced in-process passes, from a SIGALRM handler every 0.25 s, since
a cell can run for seconds while the speed changes.  In a pool pass each
worker runs the kernel before each of its cells instead, and each
set-up probe runs it in its own process (``perfbench.setup_probe``).
Each piece of measured time between two kernel runs is scaled by
``(REFERENCE_S / kernel time) ** SENSITIVITY``, with the median kernel
time of the marks within ``WINDOW`` seconds of the piece: the
reported seconds are seconds at the host speed at which the kernel takes
``REFERENCE_S``.  The kernel's own runs are not measured time.  A change
to ``repro`` cannot move the kernel, so normalised times compare
commits; raw times are printed beside them.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections.abc import Iterator
from contextlib import contextmanager

#: The kernel's median time on the host where the benchmark was defined.
REFERENCE_S = 0.0035
#: Seconds between kernel runs while sampling.
SAMPLE_INTERVAL = 0.25
#: A piece of measured time is scaled by the median kernel time of the
#: marks within this many seconds of it, which damps a single noisy mark.
WINDOW = 1.0
#: How much the simulator slows when the kernel slows.  On the host where
#: the benchmark was defined, the slope of log pass time against log
#: kernel time was 0.68-0.71 on study-default, scale-p64 and observed
#: (165 passes), and the run medians of seeds 4-8, 11-15 and 21-30
#: spread least at 0.7-0.85.
SENSITIVITY = 0.8


def speed_factor(kernel_s: float) -> float:
    """Scale for time measured while the kernel took ``kernel_s``."""
    return (REFERENCE_S / kernel_s) ** SENSITIVITY


def kernel(n: int = 20000) -> float:
    """Calls, generator sends, dict updates and float arithmetic."""

    def accumulate():
        x = 0.0
        while True:
            y = yield x
            x = x * 0.5 + y

    gen = accumulate()
    gen.send(None)
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(n):
        k = i & 255
        counts[k] = counts.get(k, 0) + 1
        acc = gen.send(acc * 0.25 + k)
    return acc


class Calibrator:
    """Kernel runs interleaved with measured work, and the scaling they imply."""

    def __init__(self) -> None:
        #: ``(start, end)`` of each kernel run, in order.
        self.marks: list[tuple[float, float]] = []
        self._running = False

    def mark(self) -> None:
        """Run the kernel once and record when it ran."""
        if self._running:
            return  # the timer fired during a mark; the marks must not overlap
        self._running = True
        try:
            t0 = time.perf_counter()
            kernel()
            self.marks.append((t0, time.perf_counter()))
        finally:
            self._running = False

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Also mark every SAMPLE_INTERVAL seconds while active.

        The handler runs in the main thread between bytecodes, wherever
        the measured code is; its kernel run is cut out of the measured
        time like any other mark.
        """
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.mark())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """``(raw, normalised)`` seconds of ``[start, end]`` between kernel runs.

        Only time between two marks counts, so a measured interval must
        have a mark before and after it.
        """
        raw = norm = 0.0
        marks = self.marks
        for i in range(len(marks) - 1):
            piece = min(end, marks[i + 1][0]) - max(start, marks[i][1])
            if piece > 0:
                raw += piece
                norm += piece * speed_factor(self._kernel_time(i))
        return raw, norm

    def _kernel_time(self, i: int) -> float:
        """Median kernel time of marks ``i`` and ``i + 1`` and of the other
        marks within WINDOW seconds of the gap between them."""
        lo = self.marks[i][1] - WINDOW
        hi = self.marks[i + 1][0] + WINDOW
        times = [
            e - s
            for j, (s, e) in enumerate(self.marks)
            if j in (i, i + 1) or (s >= lo and e <= hi)
        ]
        return statistics.median(times)
