"""Outside-in tracing: timing wrappers on the program's public functions.

The wrappers live here, not in the program: :class:`Tracer` replaces
each function in :data:`TARGETS` with a wrapper that keeps a span
stack, so a span's *self* time is its duration minus the spans opened
inside it.  Spans are aggregated in memory per function (calls, self
seconds, and a per-function extra such as batch rows or frame bytes).

Only a *root* function opens a span on an empty stack; any other
wrapped call outside a root passes straight through, so set-up work is
never counted and the self times of one process sum to its root spans.

hostd daemons are forked while the wrappers are installed and inherit
them.  In a forked child the tracer resets itself and, each time a
root span closes there (a shard's ``World.run`` up to a barrier, or a
``checkpoint.capture``), appends one JSON line to ``<pid>.jsonl`` in
the spans directory: the root, its duration, the simulated instant it
started at, the per-function totals since the last line and, for
``World.run``, the world's scheduler counters.  Daemons exit through
``os._exit``, so nothing can wait for the end to be written out.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: ``(module, qualified name)`` of every wrapped function, and whether
#: it may open a root span.
TARGETS: List[Tuple[str, str, bool]] = [
    ("repro.sim.shards", "ShardedWorld.run", True),
    ("repro.sim.world", "World.run", True),
    ("repro.sim.engine", "DeviceRuntime.run", True),
    ("repro.sim.checkpoint", "capture", True),
    ("repro.sim.engine", "DeviceRuntime.step", False),
    ("repro.sim.events", "Horizon.poll", False),
    ("repro.sim.events", "Horizon.advance_span", False),
    ("repro.core.graph", "ResourceGraph.step", False),
    ("repro.core.flowplan", "execute_tick_batch", False),
    ("repro.core.spansolver", "execute_span_batch", False),
    ("repro.core.flowplan", "FlowPlan.execute_span", False),
    ("repro.energy.meter", "PowerMeter.feed", False),
    ("repro.energy.meter", "PowerMeter.feed_cohort", False),
    ("repro.sim.trace", "TraceRecorder.record", False),
    ("repro.sim.trace", "TraceRecorder.sample_probes", False),
    ("repro.net.netd", "NetworkDaemon.step", False),
    ("repro.net.radio", "RadioDevice.tick", False),
    ("repro.sim.transport", "SlotClient.collect", False),
    ("repro.sim.transport", "send_msg", False),
    ("repro.sim.hostd", "HostHandle.spawn", False),
    ("repro.sim.hostd", "HostHandle.ping", False),
]


def _batch_rows(args, kwargs, result) -> float:
    return len(args[0])                      # execute_span_batch(tiers, …)


def _frame_bytes(args, kwargs, result) -> float:
    # One length-prefixed pickle frame, sized as send_msg builds it.
    # Heartbeat frames follow the wall clock, so they are left out.
    message = args[1]
    if isinstance(message, dict) and message.get("verb") == "ping":
        return 0
    return 8 + len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


#: Per-function extra quantity, summed like the call count.
EXTRAS: Dict[str, Callable] = {
    "execute_span_batch": _batch_rows,
    "send_msg": _frame_bytes,
}


class _Totals:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0.0


class Tracer:
    """Installs the wrappers and aggregates spans; one per process."""

    def __init__(self, spans_dir: str,
                 world_counters: Callable[[object], Dict[str, int]]
                 ) -> None:
        self.spans_dir = spans_dir
        self.world_counters = world_counters
        self.totals: Dict[str, _Totals] = defaultdict(_Totals)
        #: Summed duration of the root spans closed in this process.
        self.root_s = 0.0
        self._local = threading.local()
        self._worker = False
        self._originals: List[Tuple[object, str, Callable]] = []
        os.register_at_fork(after_in_child=self._forked)

    # -- lifecycle ----------------------------------------------------------

    def install(self) -> None:
        for module_name, qualname, root in TARGETS:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(qualname, original, root,
                                            EXTRAS.get(qualname)))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.totals = defaultdict(_Totals)
        self.root_s = 0.0

    def _forked(self) -> None:
        if not self._originals:
            return
        self._worker = True
        self._local = threading.local()
        self.reset()

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable, root: bool,
              extra: Optional[Callable]) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not stack:
                if not root:
                    return fn(*args, **kwargs)
                if name == "World.run":
                    # A shard's chunk is named by the simulated instant
                    # it starts at: read it before the call moves it.
                    tracer._local.start_now = args[0].now
            frame = [0.0]                   # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                totals = tracer.totals[name]
                totals.calls += 1
                totals.self_s += duration - frame[0]
            if extra is not None:
                totals.extra += extra(args, kwargs, result)
            if not stack:
                tracer._close_root(name, duration, args)
            return result

        return wrapper

    def _close_root(self, name: str, duration: float, args) -> None:
        self.root_s += duration
        if not self._worker:
            return
        line = {"root": name, "dur": duration,
                "totals": {k: [t.calls, t.self_s, t.extra]
                           for k, t in self.totals.items()}}
        if name == "World.run":
            world = args[0]
            line["world"] = id(world)
            line["start_now"] = self._local.start_now
            line["counters"] = self.world_counters(world)
        self.totals = defaultdict(_Totals)
        path = os.path.join(self.spans_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(line) + "\n")


def read_worker_spans(spans_dir: str) -> List[dict]:
    """Every line the forked workers appended, in file order per pid."""
    lines = []
    if not os.path.isdir(spans_dir):
        return lines
    for entry in sorted(os.listdir(spans_dir)):
        if entry.endswith(".jsonl"):
            with open(os.path.join(spans_dir, entry)) as handle:
                for raw in handle:
                    line = json.loads(raw)
                    line["pid"] = entry[:-len(".jsonl")]
                    lines.append(line)
    return lines
