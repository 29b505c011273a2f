"""Speed-normalised seconds, for a host whose single-thread speed drifts.

On a shared host the speed of one thread can drift by 20 % within a second
and by more over a minute, with CPU time equal to wall time, so the same op
can take 4 s in one minute and 7 s in the next.  ``Probe`` samples the speed
while the measured code runs.  An interval timer fires every
``INTERVAL_S`` of wall time, and its handler times one fixed slice of pure
Python work (``calibration_slice``).  For a measured interval the probe
reports:

- ``wall``: wall seconds;
- ``net``: wall seconds less the time spent in the handler;
- ``seconds``: ``net * REF_SLICE_S / mean slice time in the interval``, the
  seconds the interval would have taken at the speed where one slice takes
  ``REF_SLICE_S``.

The slice never touches the library, so a change to the library moves
``seconds`` as much as it moves ``net``.  The handler runs between bytecodes,
so a long call into C delays a sample but does not lose it.
"""

from __future__ import annotations

import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

INTERVAL_S = 0.02
# roughly one slice on the 2.1 GHz Xeon vCPU the benchmark was written on;
# it only sets the scale of the reported seconds
REF_SLICE_S = 0.001
_SLICE_ROUNDS = 2000


def calibration_slice() -> int:
    """A fixed mix of dict, tuple, list, str and float work."""
    table: dict[int, int] = {}
    acc = 0
    x = 1.0
    for i in range(_SLICE_ROUNDS):
        key = (i * 7919) % 101
        table[key] = table.get(key, 0) + i
        pair = (key, i & 15)
        acc += pair[0] ^ pair[1]
        x = x * 0.999 + (i % 3) * 0.25
    acc += len(sorted(table.values(), reverse=True)) + len(str(acc)) + int(x)
    return acc


@dataclass(frozen=True)
class Mark:
    wall: float
    slices: int
    spent: float


@dataclass(frozen=True)
class Interval:
    seconds: float
    wall: float
    net: float
    slices: int


class Probe:
    """Samples the host's speed with an interval timer while it runs."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.slices: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._running = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self._running = True

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        entered = perf_counter()
        calibration_slice()
        done = perf_counter()
        self.slices.append(done - entered)
        self.spent += perf_counter() - entered
        self._busy = False

    def mark(self) -> Mark:
        return Mark(perf_counter(), len(self.slices), self.spent)

    def since(self, mark: Mark) -> Interval:
        now = perf_counter()
        wall = now - mark.wall
        net = wall - (self.spent - mark.spent)
        window = self.slices[mark.slices:]
        if not window:
            # shorter than one timer period: use the latest sample, or take one
            window = self.slices[-1:] or [_timed_slice()]
        return Interval(net * REF_SLICE_S / statistics.fmean(window), wall, net, len(window))


class WallClock:
    """The ``Probe`` interface without sampling: ``seconds`` is wall time."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def mark(self) -> Mark:
        return Mark(perf_counter(), 0, 0.0)

    def since(self, mark: Mark) -> Interval:
        wall = perf_counter() - mark.wall
        return Interval(wall, wall, wall, 0)


def _timed_slice() -> float:
    t0 = perf_counter()
    calibration_slice()
    return perf_counter() - t0
