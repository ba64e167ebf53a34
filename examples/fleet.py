#!/usr/bin/env python3
"""A fleet of handsets at fleet tier: cohorts, barriers, shards.

Every device is a full Cinder system — kernel, energy graph, radio,
netd, metered battery — running a background poller billed to a 20 mW
tap.  The tap is far too small to prepay the radio's ~11.9 J
power-up bill, so every poll blocks in netd's §5.5.2 pooled path for
minutes of simulated time.  The :class:`~repro.sim.world.World`
scheduler fast-forwards pooled waits, sleeps and radio timeouts in
closed form — cohort-batched across the fleet, with every event
still landing on its exact tick — and
:class:`~repro.sim.shards.ShardedWorld` partitions the same fleet
across worker processes that synchronize on clock barriers.

Run with::

    python examples/fleet.py [devices] [duration_seconds] [shards]

``shards`` 0 (default) runs in-process on the frontier scheduler;
``shards`` >= 1 runs that many single-worker process shards, each on
its own frontier, synchronized at clock barriers.
"""

import functools
import sys
import time

from repro.sim import ShardedWorld, World, fleet_of_pollers, poller_shard
from repro.units import fmt_duration


def main() -> None:
    devices = int(sys.argv[1]) if len(sys.argv) > 1 else 50
    duration_s = float(sys.argv[2]) if len(sys.argv) > 2 else 600.0
    shards = int(sys.argv[3]) if len(sys.argv) > 3 else 0

    print(f"running {devices} devices for {fmt_duration(duration_s)} "
          f"of simulated time"
          + (f" across {shards} process shards..." if shards else
             " (in-process, frontier scheduler)..."))
    start = time.perf_counter()
    if shards:
        builder = functools.partial(
            poller_shard, fleet_size=devices, watts=0.02, period_s=300.0,
            bytes_out=64, record_interval_s=1.0, decay_enabled=False)
        fleet = ShardedWorld(builder, devices, shards=shards,
                             tick_s=0.01, seed=7)
        report = fleet.run(duration_s)
        wall = time.perf_counter() - start
        polls = sum(d.netd_operations for d in report.digests)
        waits = sum(d.netd_wait_seconds for d in report.digests)
        print(f"\nFLEET ({devices} devices, {shards} shards)")
        print(f"  wall clock        : {wall:.2f} s "
              f"({duration_s * devices / max(wall, 1e-9):.0f} "
              f"device-seconds/s)")
        print("  shard walls       : "
              + ", ".join(f"{w:.2f}s" for w in report.shard_walls))
        print(f"  radio activations : {report.total_radio_activations()}")
        print(f"  polls submitted   : {polls} "
              f"(pooled waiting: {fmt_duration(waits)})")
        print(f"  metered energy    : {report.total_metered_energy():.0f} J")
        print(f"  conservation      : worst |error| "
              f"{report.worst_conservation_error():.2e} J")
        return

    world = World(tick_s=0.01, seed=7)
    fleet = fleet_of_pollers(world, devices, watts=0.02, period_s=300.0,
                             bytes_out=64, record_interval_s=1.0,
                             decay_enabled=False)
    world.run(duration_s)
    wall = time.perf_counter() - start

    polls = sum(device.netd.stats.operations for device, _ in fleet)
    waits = sum(device.netd.stats.total_wait_seconds
                for device, _ in fleet)
    print(f"\nFLEET ({devices} devices, shared remote hosts)")
    print(f"  wall clock        : {wall:.2f} s "
          f"({duration_s * devices / max(wall, 1e-9):.0f} device-seconds/s)")
    ends = ", ".join(f"{count} {name}"
                     for name, count in sorted(world.span_ends.items()))
    print(f"  frontier rounds   : {world.barrier_rounds}")
    print(f"  span ends         : {ends}")
    print(f"  cohort batching   : {world.cohort_spans} stacked spans, "
          f"{world.cohort_ticks} stacked ticks, "
          f"{world.cohort_fallbacks} fallbacks")
    print(f"  horizon polls     : {world.horizon_polls} made, "
          f"{world.horizon_cache_hits} skipped")
    print(f"  ticks skipped     : {world.fast_forwarded_ticks} "
          f"across the fleet")
    print(f"  radio activations : {world.total_radio_activations()}")
    print(f"  polls submitted   : {polls} "
          f"(pooled waiting: {fmt_duration(waits)})")
    print(f"  metered energy    : {world.total_metered_energy():.0f} J")
    print(f"  conservation      : worst |error| "
          f"{world.conservation_error():.2e} J")


if __name__ == "__main__":
    main()
