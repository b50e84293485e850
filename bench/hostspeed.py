"""Host-speed scaling: times at a fixed reference speed.

The benchmark's host (2 vCPUs of a shared KVM machine) changes speed on its
own: within a second or two the time of a fixed loop moves by up to 3x, and
over minutes the share of the slow states changes.

So the benchmark times a fixed pure-Python reference loop every `interval`
seconds, also in the middle of an operation, and scales each operation's
time by the host's speed around it:

    scaled = measured * REFERENCE_S / (reference-loop time next to it)

A scaled time reads in seconds at the speed at which the reference loop takes
REFERENCE_S, about this host's fast state.  The reference loop does the kind
of work irid's solvers do (dict lookups with tuple keys, dict merges,
`itertools.product`, float products, calls) and none of irid's code, so a
change to irid moves only the measured time, never the scale.  In one 40 s
run over 21 chain-exact chains (11 passes), the pass sums varied by 25% as
measured and by 10% scaled.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import time
from contextlib import contextmanager

#: seconds the reference loop takes at the reference speed
REFERENCE_S = 0.003

_TABLE = {
    (a, b, c): (a + 2 * b + 4 * c + 1) / 16.0
    for a in range(2) for b in range(3) for c in range(4)
}
_NAMES = ("a", "b", "c")
_ROUNDS = 80


def _lookup(assign: dict) -> float:
    return _TABLE[assign["a"], assign["b"], assign["c"]]


def reference_loop() -> float:
    acc = 0.0
    base = {"x": 0}
    for _ in range(_ROUNDS):
        for combo in itertools.product(range(2), range(3), range(4)):
            assign = base | dict(zip(_NAMES, combo))
            w = 1.0
            for _factor in range(3):
                w *= _lookup(assign)
            acc += w * 0.5
    return acc


def reference_time() -> float:
    """Seconds one reference loop takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class Timeline:
    """Operation times, scaled by reference-loop samples taken around them.

    `sample` times the reference loop; `tick` samples when `interval`
    seconds have passed since the last sample; inside `sampling()` an
    interval timer also samples every `interval` seconds, in the middle of
    an operation too, so that an operation longer than the host's speed
    states is scaled by the speed during it.  An operation's own time leaves
    out the samples taken inside it, and it is scaled by the mean host speed
    (1 / reference time) over the samples from the last one before it to the
    first one after it."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []  # (start, duration, reference)
        self.ops: list[tuple[float, float]] = []  # (start, end)
        self._busy = False
        for _ in range(3):  # warm the loop's code and allocations
            reference_loop()

    def sample(self) -> None:
        if self._busy:  # the timer fired during a sample
            return
        self._busy = True
        start = time.perf_counter()
        reference = reference_time()
        self.samples.append((start, time.perf_counter() - start, reference))
        self._busy = False

    def tick(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= self.interval:
            self.sample()

    @contextmanager
    def sampling(self):
        """Sample every `interval` seconds from a SIGALRM interval timer."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def end(self, start: float) -> int:
        """Keep an operation that began at `start`, a `time.perf_counter()`
        reading; returns its index."""
        self.ops.append((start, time.perf_counter()))
        return len(self.ops) - 1

    def measured(self) -> list[float]:
        """Every kept time without the samples inside it, in order."""
        return [seconds for seconds, _ in self._spans()]

    def scaled(self) -> list[float]:
        """Every kept time at the reference speed, in order.  Needs a sample
        before the first operation and one after the last."""
        return [
            seconds * REFERENCE_S * sum(1.0 / r for r in refs) / len(refs)
            for seconds, refs in self._spans()
        ]

    def _spans(self):
        # a timer sample runs wholly before or after each clock reading, so
        # comparing start times places it exactly
        starts = [s for s, _, _ in self.samples]
        for start, end in self.ops:
            before = bisect.bisect_left(starts, start) - 1
            after = bisect.bisect_left(starts, end)
            inside = self.samples[before + 1:after]
            refs = [r for _, _, r in self.samples[max(before, 0):after + 1]]
            yield end - start - sum(d for _, d, _ in inside), refs
