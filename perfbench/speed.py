"""Host speed, sampled while the benchmark runs, to scale wall times by.

On a shared host the same pass can take 20-70 % longer from one minute to
the next, with CPU time equal to wall time: the CPU itself runs slower.  A
run of the benchmark cannot repeat a 30-second pass often enough for a
median to hide that.  So a timer signal runs a fixed kernel every
``INTERVAL`` seconds of wall time and records the kernel's thread CPU time.
The kernel does what the package does most, in plain Python that does not
depend on the package: it builds small immutable objects with dict indexes,
sorts and filters short tuples of pairs, and counts with generators.

``factor(mark)`` is ``REFERENCE`` over the trimmed mean kernel time since
``mark``, and ``wall seconds x factor`` estimates the seconds a host
running the kernel in ``REFERENCE`` would take.  Thread CPU time leaves out
the time the kernel waits for a processor, so pool workers busy on every
CPU do not read as a slow host.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL = 0.1
BURST = 5  # samples taken at each end of a window, so short windows have some
REFERENCE = 2.0e-4  # typical kernel seconds inside a run on the 2-CPU host it was tuned on
_PAIRS = [tuple((j, (j * 3 + i) % 5) for j in range(i % 4 + 1)) for i in range(40)]


class _Node:
    __slots__ = ("pairs", "fwd", "bwd")


def kernel() -> int:
    count = 0
    for pairs in _PAIRS:
        node = object.__new__(_Node)
        object.__setattr__(node, "pairs", tuple(sorted(pairs)))
        object.__setattr__(node, "fwd", dict(pairs))
        object.__setattr__(node, "bwd", {y: x for x, y in pairs})
        count += sum(1 for x, y in node.pairs if y < 3 and x in node.fwd)
        count += len(tuple(p for p in node.pairs if p[0] < 2))
    return count


class Speedometer:
    """Samples the kernel on SIGALRM between ``start`` and ``stop``."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        started = time.thread_time()
        kernel()
        self.samples.append(time.thread_time() - started)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Sample ``BURST`` times now; return where the next window starts."""
        start = len(self.samples)
        for _ in range(BURST):
            self.sample()
        return start

    def factor(self, mark: int) -> float:
        """Host speed over the window since ``mark``; 1.0 is the reference."""
        self.mark()
        window = sorted(self.samples[mark:])
        cut = len(window) // 10
        return REFERENCE / statistics.fmean(window[cut:len(window) - cut])
