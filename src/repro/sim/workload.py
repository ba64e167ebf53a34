"""Canned workload programs.

The evaluation's process zoo, as reusable generator factories: CPU
spinners (Figures 9 and 12), periodic network pollers (Figure 13), and
batch downloaders (Figures 10/11 use the richer viewer in
:mod:`repro.apps.image_viewer`).
"""

from __future__ import annotations

import math
import random
from typing import (TYPE_CHECKING, Any, Callable, Generator, List, Optional,
                    Tuple)

from ..units import KiB
from .process import (CpuBurn, Fork, NetRequest, Process, ProcessContext,
                      Sleep, SleepUntil)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import CinderSystem
    from .world import World


def spinner() -> Callable[[ProcessContext], Generator]:
    """A process that burns CPU forever (energy permitting)."""
    def program(ctx: ProcessContext) -> Generator:
        yield CpuBurn(math.inf)
    return program


def timed_spinner(seconds: float) -> Callable[[ProcessContext], Generator]:
    """Burn CPU for a fixed busy time, then exit."""
    def program(ctx: ProcessContext) -> Generator:
        yield CpuBurn(seconds)
    return program


def forking_spinner(
    fork_times: dict,
) -> Callable[[ProcessContext], Generator]:
    """The Figure 9 workload: spin, forking children at given times.

    ``fork_times`` maps absolute fork time -> (child name, setup
    callable).  Between forks the parent spins; children spin forever.
    """
    def program(ctx: ProcessContext) -> Generator:
        for when in sorted(fork_times):
            name, setup = fork_times[when]
            remaining = when - ctx.now
            if remaining > 0:
                yield CpuBurn(remaining)
            yield Fork(spinner(), name=name, setup=setup)
        yield CpuBurn(math.inf)
    return program


def periodic_poller(
    destination: str,
    period_s: float = 60.0,
    start_offset_s: float = 0.0,
    bytes_out: int = 256,
    bytes_in: int = KiB(30),
    payload: Any = None,
    max_polls: Optional[int] = None,
) -> Callable[[ProcessContext], Generator]:
    """A background daemon polling a server every ``period_s``.

    Polls fire on a fixed grid (offset + k * period) regardless of how
    long the previous poll blocked, matching the paper's "poll
    interval of 60 seconds" daemons whose *allocation* — not their
    schedule — decides when the radio actually turns on.
    """
    def program(ctx: ProcessContext) -> Generator:
        if start_offset_s > 0:
            yield SleepUntil(start_offset_s)
        polls = 0
        while max_polls is None or polls < max_polls:
            yield NetRequest(bytes_out=bytes_out, bytes_in=bytes_in,
                             destination=destination, payload=payload)
            polls += 1
            next_poll = start_offset_s + polls * period_s
            if next_poll > ctx.now:
                yield SleepUntil(next_poll)
    return program


def keepalive_sender(
    interval_s: float = 40.0,
    nbytes: int = 1,
    count: int = 10,
    destination: str = "echo",
) -> Callable[[ProcessContext], Generator]:
    """The Figure 4 workload: one tiny UDP packet every ~40 s."""
    def program(ctx: ProcessContext) -> Generator:
        for i in range(count):
            yield NetRequest(bytes_out=nbytes, bytes_in=0, packets=1,
                             destination=destination)
            yield SleepUntil((i + 1) * interval_s)
    return program


def poller_shard(
    world: "World",
    lo: int,
    hi: int,
    fleet_size: Optional[int] = None,
    watts: float = 0.015,
    period_s: float = 300.0,
    stagger_s: Optional[float] = None,
    bytes_out: int = 64,
    bytes_in: int = 0,
    destination: str = "echo",
    max_polls: Optional[int] = None,
    name_prefix: str = "dev",
    **device_kwargs,
) -> List[Tuple["CinderSystem", Process]]:
    """Build poller devices ``[lo, hi)`` of a ``fleet_size`` fleet.

    The shard-friendly builder behind :func:`fleet_of_pollers`:
    every per-device quantity — name, seed, poll stagger — is keyed
    off the device's **global** index ``i``, not its position within
    this world, so a fleet split across
    :class:`~repro.sim.shards.ShardedWorld` workers is device-for-
    device identical to the same fleet built in one world.  Module
    level and keyword-driven, hence picklable via
    :func:`functools.partial`.  Returns ``(device, process)`` pairs.
    """
    if fleet_size is None:
        fleet_size = hi
    if not 0 <= lo < hi <= fleet_size:
        raise ValueError(f"bad shard range [{lo}, {hi}) of {fleet_size}")
    if stagger_s is None:
        stagger_s = period_s / fleet_size
    fleet: List[Tuple["CinderSystem", Process]] = []
    for i in range(lo, hi):
        kwargs = dict(device_kwargs)
        kwargs.setdefault("seed", world.seed + 101 * i)
        device = world.add_device(name=f"{name_prefix}{i}", **kwargs)
        reserve = device.powered_reserve(watts, name=f"{name_prefix}{i}.net")
        program = periodic_poller(destination, period_s=period_s,
                                  start_offset_s=i * stagger_s,
                                  bytes_out=bytes_out, bytes_in=bytes_in,
                                  max_polls=max_polls)
        process = device.spawn(program, f"{name_prefix}{i}.poller",
                               reserve=reserve)
        fleet.append((device, process))
    return fleet


def staggered_poller_shard(
    world: "World",
    lo: int,
    hi: int,
    fleet_size: Optional[int] = None,
    watts: float = 0.015,
    period_s: float = 300.0,
    bytes_out: int = 64,
    bytes_in: int = 0,
    destination: str = "echo",
    max_polls: Optional[int] = None,
    name_prefix: str = "dev",
    **device_kwargs,
) -> List[Tuple["CinderSystem", Process]]:
    """Pollers with *randomized* phases — the honest independent case.

    :func:`poller_shard` staggers starts evenly, which keeps the
    fleet's wakes on a regular comb; a real deployment's poll phases
    are arbitrary.  Here each device's start offset is drawn uniformly
    in ``[0, period_s)`` from a deterministic stream keyed on the
    world seed and the device's **global** index (partition-invariant
    for :class:`~repro.sim.shards.ShardedWorld` builders, picklable
    via :func:`functools.partial`).  No two devices share a wake
    schedule unless their horizons genuinely coincide — the workload
    the event-time-bucketed independent scheduler
    (:meth:`~repro.sim.world.World._run_independent`) has to prove
    itself on, and the ``fleet_1k_staggered`` bench entry's builder.
    """
    if fleet_size is None:
        fleet_size = hi
    if not 0 <= lo < hi <= fleet_size:
        raise ValueError(f"bad shard range [{lo}, {hi}) of {fleet_size}")
    fleet: List[Tuple["CinderSystem", Process]] = []
    for i in range(lo, hi):
        kwargs = dict(device_kwargs)
        kwargs.setdefault("seed", world.seed + 101 * i)
        device = world.add_device(name=f"{name_prefix}{i}", **kwargs)
        reserve = device.powered_reserve(watts, name=f"{name_prefix}{i}.net")
        phase = random.Random(
            1_000_003 * world.seed + 101 * i).uniform(0.0, period_s)
        program = periodic_poller(destination, period_s=period_s,
                                  start_offset_s=phase,
                                  bytes_out=bytes_out, bytes_in=bytes_in,
                                  max_polls=max_polls)
        process = device.spawn(program, f"{name_prefix}{i}.poller",
                               reserve=reserve)
        fleet.append((device, process))
    return fleet


def fleet_of_pollers(
    world: "World",
    count: int,
    **kwargs,
) -> List[Tuple["CinderSystem", Process]]:
    """Populate a :class:`~repro.sim.world.World` with polling handsets.

    Adds ``count`` devices, each carrying one ``watts``-powered
    reserve and one :func:`periodic_poller` billed to it.  Start
    offsets are staggered (``stagger_s`` apart; default spreads one
    period evenly across the fleet) so the fleet's radio activity
    interleaves on an even comb instead of synchronizing.  Returns
    ``(device, process)`` pairs.  This is :func:`poller_shard` over
    the whole index range; pass the same
    keywords to :class:`~repro.sim.shards.ShardedWorld` builders to
    partition the identical fleet across processes.
    """
    if count <= 0:
        raise ValueError("fleet size must be positive")
    return poller_shard(world, 0, count, fleet_size=count, **kwargs)


def foreground_poller(
    manager,
    app_name: str,
    destination: str = "echo",
    period_s: float = 30.0,
    bytes_out: int = 256,
    bytes_in: int = 0,
) -> Callable[[ProcessContext], Generator]:
    """A daemon that polls only while its app holds the foreground.

    The task-manager polling pattern, ServiceCall-ified: the daemon
    blocks on :meth:`~repro.apps.task_manager.TaskManager.
    focus_request` — an event-driven wait that does not veto the
    engine's fast-forward — instead of spinning a per-tick ``WaitFor``
    predicate, so fleets of managed pollers macro-step through the
    background stretches.  While focused it polls every ``period_s``;
    on losing focus it parks until the next focus event.
    """
    def program(ctx: ProcessContext) -> Generator:
        while True:
            yield manager.focus_request(app_name)
            while manager.focused == app_name:
                yield NetRequest(bytes_out=bytes_out, bytes_in=bytes_in,
                                 destination=destination)
                if manager.focused != app_name:
                    break
                yield Sleep(period_s)
    return program


def batch_downloader(
    destination: str,
    batches: int,
    items_per_batch: int,
    bytes_per_item: int,
    pause_after_batch: Callable[[int], float],
) -> Callable[[ProcessContext], Generator]:
    """Download batches of fixed-size items with pauses in between."""
    def program(ctx: ProcessContext) -> Generator:
        for batch in range(batches):
            for _ in range(items_per_batch):
                yield NetRequest(bytes_out=512, bytes_in=bytes_per_item,
                                 destination=destination)
            pause = pause_after_batch(batch)
            if pause > 0:
                yield Sleep(pause)
    return program
