"""The benchmark's workloads: how each is built, run and checked.

Every workload is built only through the simulator's public API
(``World``, ``CinderSystem``, ``ShardedWorld`` and the canned fleet
builders in ``repro.sim.workload``).  One repetition ("rep") builds
the inputs from the seed, which is the set-up, then makes the single
timed call, then reads back per-device statistics and the program's
own counters for the output checks.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.tap import TapType
from repro.sim.engine import CinderSystem
from repro.sim.hostd import HostHandle
from repro.sim.process import CpuBurn, Sleep
from repro.sim.shards import ShardedWorld
from repro.sim.workload import poller_shard, staggered_poller_shard
from repro.sim.world import World

#: The seed whose per-device fingerprint is pinned in ``expected.json``.
DEFAULT_SEED = 7
#: A seed never used while the benchmark or a change was tuned: later
#: changes confirm their claims on it.
HELD_OUT_SEED = 20261017

TICK_S = 0.01
BATTERY_J = 15_000.0
#: ``|graph.conservation_error()|`` bound after any span
#: (docs/performance.md, tolerance contract).
CONSERVATION_BOUND_J = 1e-9
#: Solver tolerance contract for levels and energies (relative 2e-3,
#: absolute 1e-6, docs/performance.md).
ENERGY_REL_TOL = 2e-3
ENERGY_ABS_TOL = 1e-6
#: ``PowerMeter`` window: the meter emits one sample per 200 ms.
METER_WINDOW_S = 0.2

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")


@dataclass
class DeviceStats:
    """What one simulated device reports after the timed call."""

    ticks: int
    radio_activations: int
    netd_operations: int
    meter_energy_j: float
    meter_samples: int
    drained_j: float
    conservation_j: float


@dataclass
class Rep:
    """One build + timed run, with everything the checks need."""

    setup_s: float
    run_s: float
    devices: List[DeviceStats]
    #: Program counters that must repeat exactly for one seed.
    counts: Dict[str, int]
    #: Program values read back for the per-layer report (not exact).
    values: Dict[str, float]
    #: Shard barriers attempted and those on which a recovery rung fired.
    barriers: int = 0
    failed_barriers: int = 0
    #: ``FleetReport.digest()`` (sharded) or a hash of the device stats.
    digest: str = ""
    #: Summed peak RSS of the hostd daemons, in MiB (sharded only).
    daemon_rss_mb: float = 0.0
    failures: List[str] = field(default_factory=list)


def _device_stats(device) -> DeviceStats:
    return DeviceStats(
        ticks=device.clock.ticks,
        radio_activations=device.radio.activation_count,
        netd_operations=device.netd.stats.operations,
        meter_energy_j=device.meter.total_energy_joules,
        meter_samples=device.meter.sample_count,
        drained_j=BATTERY_J - device.battery.charge_joules,
        conservation_j=device.graph.conservation_error())


def _device_counts(devices) -> Dict[str, int]:
    return {
        "ticks": sum(d.clock.ticks for d in devices),
        "fast_forwarded_ticks": sum(d.fast_forwarded_ticks for d in devices),
        "span_refusals": sum(d.span_refusals for d in devices),
        "span_segments": sum(d.span_segments for d in devices),
        "span_switches": sum(d.graph.span_switches for d in devices),
    }


def _span_walls(devices) -> Dict[str, float]:
    return {
        "span_locate_s": sum(d.graph.span_locate_wall_s for d in devices),
        "span_integrate_s": sum(d.graph.span_integrate_wall_s
                                for d in devices),
    }


#: ``World`` scheduler counters, read by name (also from hostd workers).
WORLD_COUNTERS = ("barrier_rounds", "macro_steps", "tick_steps",
                  "cohort_spans", "cohort_fallbacks", "cohort_demotions",
                  "independent_cohort_spans", "independent_scalar_spans",
                  "horizon_cache_hits", "horizon_polls")


def world_counters(world: World) -> Dict[str, int]:
    return {name: getattr(world, name) for name in WORLD_COUNTERS}


def _stats_digest(stats: List[DeviceStats]) -> str:
    digest = hashlib.sha256()
    for s in stats:
        digest.update(repr(tuple(vars(s).values())).encode())
    return digest.hexdigest()


class Workload:
    """One benchmark workload; subclasses define build / run / read."""

    name = ""
    devices = 1
    sim_s = 0.0

    @property
    def device_seconds(self) -> float:
        return self.devices * self.sim_s

    def build(self, seed: int):
        raise NotImplementedError

    def run(self, target):
        raise NotImplementedError

    def read(self, target, result, rep: Rep) -> None:
        """Fill ``rep.devices``, ``rep.counts`` and ``rep.values``."""
        raise NotImplementedError

    def rep(self, seed: int) -> Rep:
        start = time.perf_counter()
        target = self.build(seed)
        built = time.perf_counter()
        result = self.run(target)
        done = time.perf_counter()
        rep = Rep(setup_s=built - start, run_s=done - built,
                  devices=[], counts={}, values={})
        self.read(target, result, rep)
        if not rep.digest:
            rep.digest = _stats_digest(rep.devices)
        return rep


class _InProcessFleet(Workload):
    """A ``World`` fleet run in this process."""

    independent: Optional[bool] = None

    def run(self, world: World) -> None:
        if self.independent is None:
            world.run(self.sim_s)
        else:
            world.run(self.sim_s, independent=self.independent)

    def read(self, world: World, result, rep: Rep) -> None:
        rep.devices = [_device_stats(d) for d in world.devices]
        rep.counts = {**world_counters(world),
                      **_device_counts(world.devices)}
        rep.values = _span_walls(world.devices)


class StaggeredFleet(_InProcessFleet):
    name = "staggered_fleet"
    devices = 200
    sim_s = 600.0
    independent = True

    def build(self, seed: int) -> World:
        world = World(tick_s=TICK_S, seed=seed, fast_forward=True)
        staggered_poller_shard(world, 0, self.devices, watts=0.02,
                               period_s=300.0, bytes_out=64,
                               record_interval_s=5.0,
                               decay_enabled=False)
        return world


class AlignedFleet(_InProcessFleet):
    name = "aligned_fleet"
    devices = 50
    sim_s = 600.0

    def build(self, seed: int) -> World:
        world = World(tick_s=TICK_S, seed=seed, fast_forward=True)
        poller_shard(world, 0, self.devices, fleet_size=self.devices,
                     watts=0.02, period_s=300.0, bytes_out=64,
                     record_interval_s=1.0, decay_enabled=False)
        return world


def _maintenance(ctx):
    while True:
        yield Sleep(60.0)
        yield CpuBurn(0.02)


class LifetimeDevice(Workload):
    name = "lifetime_device"
    devices = 1
    sim_s = 72 * 3600.0
    apps = 3

    def build(self, seed: int) -> CinderSystem:
        # The switching topology of the ``switching_macro`` bench entry
        # (proportional sub-chains, a clamping task drain, a debt
        # repayment, a 60 s maintenance wake), recorded hourly so that
        # span ends come from process wakes, not trace samples.  It is
        # a copy, so reworking benchmarks/run_bench.py cannot change it.
        system = CinderSystem(battery_joules=BATTERY_J, tick_s=TICK_S,
                              record_interval_s=3600.0, seed=seed,
                              fast_forward=True)
        kernel = system.kernel
        for i in range(self.apps):
            app = system.powered_reserve(0.06, name=f"app{i}")
            sub = system.new_reserve(name=f"app{i}.sub")
            kernel.create_tap(app, sub, 0.05, TapType.PROPORTIONAL,
                              name=f"app{i}.t1")
            kernel.create_tap(sub, system.battery_reserve, 0.04,
                              TapType.PROPORTIONAL, name=f"app{i}.t2")
            task = system.new_reserve(name=f"task{i}")
            system.battery_reserve.transfer_to(task, 20.0 + 5.0 * i)
            kernel.create_tap(system.battery_reserve, task, 0.02,
                              name=f"task{i}.feed")
            archive = system.new_reserve(name=f"task{i}.archive")
            kernel.create_tap(task, archive, 0.05, name=f"task{i}.drain")
            debtor = system.new_reserve(name=f"debtor{i}")
            kernel.create_tap(system.battery_reserve, debtor, 0.03,
                              name=f"debtor{i}.repay")
            kernel.create_tap(debtor, system.battery_reserve, 0.05,
                              TapType.PROPORTIONAL, name=f"debtor{i}.back")
            debtor.consume(30.0 + 10.0 * i, allow_debt=True)
        worker = system.powered_reserve(0.200, name="maint")
        system.spawn(_maintenance, "maint", reserve=worker)
        return system

    def run(self, system: CinderSystem) -> None:
        system.run(self.sim_s)

    def read(self, system: CinderSystem, result, rep: Rep) -> None:
        rep.devices = [_device_stats(system)]
        rep.counts = _device_counts([system])
        rep.values = _span_walls([system])


class _DaemonMemory:
    """Reads each hostd daemon's peak RSS just before it is stopped.

    ``ru_maxrss`` covers only this process (and only the largest
    reaped child), so the daemons' own high-water marks are read from
    ``/proc`` while they are still alive.
    """

    def __init__(self) -> None:
        self.peak_mb = 0.0
        self._original: Optional[Callable] = None

    @staticmethod
    def _hwm_mb(pid: int) -> float:
        try:
            with open(f"/proc/{pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def __enter__(self) -> "_DaemonMemory":
        original = self._original = HostHandle.stop
        probe = self

        @functools.wraps(original)
        def stop(handle, *args, **kwargs):
            if handle.process is not None and handle.process.pid:
                probe.peak_mb += probe._hwm_mb(handle.process.pid)
            return original(handle, *args, **kwargs)

        HostHandle.stop = stop
        return self

    def __exit__(self, *exc) -> None:
        HostHandle.stop = self._original


class ShardedFleet(Workload):
    name = "sharded_fleet"
    devices = 400
    sim_s = 600.0
    shards = 2
    hosts = 2
    barrier_s = 150.0

    @property
    def barriers(self) -> int:
        return round(self.sim_s / self.barrier_s)

    def build(self, seed: int) -> ShardedWorld:
        builder = functools.partial(
            staggered_poller_shard, watts=0.02, period_s=300.0,
            bytes_out=64, record_interval_s=5.0, decay_enabled=False)
        return ShardedWorld(builder, self.devices, shards=self.shards,
                            transport="sockets", hosts=self.hosts,
                            tick_s=TICK_S, seed=seed, fast_forward=True)

    def run(self, fleet: ShardedWorld):
        return fleet.run(self.sim_s, barrier_s=self.barrier_s,
                         independent=True)

    def rep(self, seed: int) -> Rep:
        with _DaemonMemory() as memory:
            rep = super().rep(seed)
        rep.daemon_rss_mb = memory.peak_mb
        return rep

    def read(self, fleet: ShardedWorld, report, rep: Rep) -> None:
        digests = report.digests
        rep.devices = [DeviceStats(
            ticks=d.ticks, radio_activations=d.radio_activations,
            netd_operations=d.netd_operations,
            meter_energy_j=d.meter_energy_joules,
            meter_samples=d.meter_samples,
            drained_j=BATTERY_J - d.battery_charge_joules,
            conservation_j=d.conservation_error) for d in digests]
        reports = report.reports
        rep.counts = {
            "barrier_rounds": sum(r.independent_rounds for r in reports),
            "macro_steps": sum(r.macro_steps for r in reports),
            "tick_steps": sum(r.tick_steps for r in reports),
            "cohort_spans": sum(r.cohort_spans for r in reports),
            "cohort_fallbacks": sum(r.cohort_fallbacks for r in reports),
            "independent_cohort_spans": report.independent_cohort_spans,
            "independent_scalar_spans": report.independent_scalar_spans,
            "ticks": sum(d.ticks for d in digests),
            "fast_forwarded_ticks": sum(d.fast_forwarded_ticks
                                        for d in digests),
            "span_refusals": sum(d.span_refusals for d in digests),
            "span_segments": sum(d.span_segments for d in digests),
            "span_switches": sum(d.span_switches for d in digests),
            "recoveries": (report.shard_restarts + report.shard_reschedules
                           + len(report.degraded_shards)
                           + report.forced_terminations),
        }
        rep.barriers = self.barriers
        failed = {event.barrier for event in report.recovery_events}
        if rep.counts["recoveries"] and not failed:
            failed = {-1}
        rep.failed_barriers = len(failed)
        for event in report.recovery_events:
            rep.failures.append(f"barrier {event.barrier}: shard "
                                f"{event.shard} took rung {event.rung} "
                                f"({event.cause})")
        rep.digest = report.digest()


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (StaggeredFleet(), AlignedFleet(), LifetimeDevice(),
                        ShardedFleet())}


# -- output checks ----------------------------------------------------------


def load_expected() -> Dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def fingerprint(stats: List[DeviceStats]) -> Dict[str, list]:
    """The pinned per-device fingerprint of one run."""
    return {
        "ticks": [s.ticks for s in stats],
        "radio_activations": [s.radio_activations for s in stats],
        "netd_operations": [s.netd_operations for s in stats],
        "meter_energy_j": [s.meter_energy_j for s in stats],
    }


def _close(value: float, expected: float) -> bool:
    return abs(value - expected) <= max(ENERGY_ABS_TOL,
                                        ENERGY_REL_TOL * abs(expected))


def check_devices(workload: Workload, seed: int, rep: Rep,
                  expected: Dict) -> List[str]:
    """Per-device failures of one rep, as ``"device i: reason"``.

    Every seed: conservation within the documented bound, every tick
    simulated, one meter sample per complete window, and the meter's
    energy equal to the battery's drain within the solver tolerance
    (two independent integrals of one power trace) until the battery
    is empty.  The default seed also matches the pinned fingerprint:
    ticks, radio activations and netd operations exactly, metered
    energy within the solver tolerance.
    """
    ticks = round(workload.sim_s / TICK_S)
    samples = round(workload.sim_s / METER_WINDOW_S)
    pinned = expected.get(workload.name) if seed == DEFAULT_SEED else None
    failures = []
    if len(rep.devices) != workload.devices:
        failures.append(f"{len(rep.devices)} devices reported, "
                        f"{workload.devices} built")
    for i, s in enumerate(rep.devices):
        reasons = []
        if not abs(s.conservation_j) <= CONSERVATION_BOUND_J:
            reasons.append(f"conservation error {s.conservation_j:.3e} J "
                           f"exceeds {CONSERVATION_BOUND_J:.0e} J")
        if s.ticks != ticks:
            reasons.append(f"{s.ticks} ticks, expected {ticks}")
        # The meter's window clock accumulates in floating point, so
        # the last window may still be open when the run ends.
        if s.meter_samples not in (samples - 1, samples):
            reasons.append(f"{s.meter_samples} meter samples, "
                           f"expected {samples}")
        # The battery clamps at empty; until then it drains exactly
        # what the meter measures.
        if s.drained_j < BATTERY_J:
            balanced = _close(s.meter_energy_j, s.drained_j)
        else:
            balanced = s.meter_energy_j >= s.drained_j - ENERGY_ABS_TOL
        if not balanced:
            reasons.append(f"metered {s.meter_energy_j!r} J but the "
                           f"battery drained {s.drained_j!r} J")
        if pinned is not None and i < len(pinned["ticks"]):
            for key in ("ticks", "radio_activations", "netd_operations"):
                if getattr(s, key) != pinned[key][i]:
                    reasons.append(f"{key} {getattr(s, key)} != pinned "
                                   f"{pinned[key][i]}")
            if not _close(s.meter_energy_j, pinned["meter_energy_j"][i]):
                reasons.append(f"meter energy {s.meter_energy_j!r} J != "
                               f"pinned {pinned['meter_energy_j'][i]!r} J")
        if reasons:
            failures.append(f"device {i}: " + "; ".join(reasons))
    return failures
