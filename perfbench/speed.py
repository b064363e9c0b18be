"""How fast the host runs right now, from a fixed reference loop.

On a shared host the speed of one thread swings by 1.5x to 2.5x, in
stretches from a fraction of a second to minutes, and every part of the
program slows by about the same factor.  A run that lands in a slow
stretch then reads slow, whatever the code does.  So every timed part is
bracketed by a short, fixed pure-Python loop, and its time is rescaled to
the speed at which that loop takes :data:`REFERENCE_S`:

    at_reference = seconds * REFERENCE_S / mean(loop before, loop after)

A change that makes the program do more work still reads slower; a
stretch in which the whole host is slower does not.  This module imports
nothing from the program, so a probe can measure the host before its
cold import starts.
"""

import time
from contextlib import contextmanager

#: Iterations of the reference loop (about 0.5 ms on a 2 GHz core).
LOOP = 12_000
#: Repeats of the loop per measurement; the fastest one counts.
REPEATS = 3
#: The loop's best time on an idle 2-core 2 GHz virtual machine.
REFERENCE_S = 0.53e-3


def reference_s() -> float:
    """The reference loop's time now: the fastest of :data:`REPEATS` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i & 7
        best = min(best, time.perf_counter() - start)
    return best


def at_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` rescaled to the speed at which the loop takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S * 2 / (before + after)


class Parts:
    """Wall time of each named part of one iteration, in seconds.

    ``seconds`` holds the times as measured, ``at_reference`` the same
    times rescaled to the reference speed.  With ``reference=False``
    (traced iterations, whose spans must cover the wall) no reference
    loop runs and the two are equal.
    """

    def __init__(self, reference: bool = True):
        self.seconds: dict[str, float] = {}
        self.at_reference: dict[str, float] = {}
        self.reference = reference
        #: The last reference-loop time: the loop after one part is the
        #: loop before the next.
        self.last_loop: float | None = None
        #: Wall time spent in reference loops, which belongs to no part.
        self.loop_seconds = 0.0

    def loop(self) -> float:
        """Run the reference loop now; returns its time (0 without loops)."""
        if not self.reference:
            return 0.0
        start = time.perf_counter()
        self.last_loop = reference_s()
        self.loop_seconds += time.perf_counter() - start
        return self.last_loop

    def add(self, name: str, seconds: float, at_reference: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.at_reference[name] = self.at_reference.get(name, 0.0) + at_reference

    def add_between(self, name: str, seconds: float, before: float, after: float) -> None:
        """Add a part timed elsewhere, between loops of ``before`` and ``after`` s."""
        scaled = at_reference(seconds, before, after) if self.reference else seconds
        self.add(name, seconds, scaled)

    @contextmanager
    def timed(self, name: str):
        before = self.last_loop or self.loop()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_between(name, time.perf_counter() - start, before, self.loop())
