"""A fixed reference kernel that measures the host's current speed.

The benchmark runs on shared hosts whose speed drifts by tens of
percent in phases of tens of seconds to minutes, with CPU time equal
to wall time (the slowdown is contention for the core and its caches,
not time stolen from the process).  Within one run that drift is
shared by every rep; between runs it is not, and it dominates the
run-to-run spread of a raw wall time.

:func:`kernel_s` times plain python object code shaped like the
simulator's: it allocates a few megabytes of small objects of two
classes, links them in a shuffled order and walks the chain, calling
each object's ``step`` method and writing a dict.  It imports nothing
from the simulator (nor numpy), so no change to the program can
change its time.  Of the kernels tried (see README.md, *Run length
and noise*), it followed the rep walls most closely on the busiest
host trace, where a tight integer loop missed much of the slowdown.

``run.py`` times the kernel before and after each untraced rep and
scales the rep by :data:`REFERENCE_S` over the mean of the two, which
reports the rep at the reference speed.
"""

from __future__ import annotations

import random
import time

#: The kernel's time, in seconds, at the reference speed: a round
#: figure near its time in a quiet phase (0.08 to 0.09 s) on the 2-CPU
#: Intel Xeon (2.1 GHz) host the benchmark was defined on, where busy
#: phases stretch it to 0.2 s.  A scaled time reads about as the raw
#: time would on that host when it is quiet.
REFERENCE_S = 0.1

_OBJECTS = 20_000
_LAPS = 8


class _Decay:
    __slots__ = ("x", "v", "next")

    def __init__(self, x: float) -> None:
        self.x = x
        self.v = 1.0
        self.next = None

    def step(self, dt: float) -> float:
        self.v = self.v * 0.999 + dt * self.x
        return self.v


class _Drain(_Decay):
    __slots__ = ()

    def step(self, dt: float) -> float:
        self.v -= dt
        if self.v < 0.0:
            self.v = 1.0
        return self.v


def kernel_s() -> float:
    """Wall seconds of one pass of the reference kernel."""
    start = time.perf_counter()
    rng = random.Random(5)
    nodes = [(_Decay if i % 3 else _Drain)(rng.random())
             for i in range(_OBJECTS)]
    order = list(range(_OBJECTS))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):
        nodes[a].next = nodes[b]
    head = nodes[order[0]]
    seen = {}
    for _ in range(_LAPS):
        node, total = head, 0.0
        while node is not None:
            total += node.step(0.01)
            seen[node.x] = total
            node = node.next
        seen.clear()
    return time.perf_counter() - start

