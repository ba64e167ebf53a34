"""Quick-mode smoke for the bucketed-cohort independent scheduler.

The full ``fleet_1k_staggered`` bench runs 1000 randomized-phase
pollers for 600 simulated seconds; this is the PR-gating slice — a
32-device, 2-simulated-minute staggered fleet whose floors (frontier
rounds actually iterate, stacked cohort spans form, engine steps stay
within a few per poll, the poll-skip cache fires, conservation holds,
and the whole thing finishes in seconds) catch a broken or degraded cohort
path long before the full bench matrix reports.  CI runs it in the
bench-smoke job and again in the numba-kernel leg, so the scheduler
is exercised over both segkernel backends.
"""

from __future__ import annotations

import time

from repro.sim.workload import staggered_poller_shard
from repro.sim.world import World

SMOKE_DEVICES = 32
SMOKE_SIM_S = 120.0
SMOKE_WALL_LIMIT_S = 20.0
#: Normal (not fast-forwarded) engine steps allowed per netd operation
#: and per device: trace records are span outputs, so only the polls
#: themselves should tick (~3 steps each here).
ENGINE_STEPS_PER_POLL = 4
ENGINE_STEPS_PER_DEVICE = 4


def _build() -> World:
    # 0.25 W against the ~11.9 J pooled activation bill (as in the
    # fleet smoke): every poller crosses and transfers inside the
    # 2-minute run, so the smoke covers waits, crossings, and sends.
    world = World(tick_s=0.01, seed=7, fast_forward=True)
    staggered_poller_shard(world, 0, SMOKE_DEVICES, watts=0.25,
                           period_s=60.0, bytes_out=64,
                           record_interval_s=5.0, decay_enabled=False)
    return world


def test_staggered_smoke_floors():
    world = _build()
    start = time.perf_counter()
    world.run(SMOKE_SIM_S, independent=True)
    wall = time.perf_counter() - start

    assert wall < SMOKE_WALL_LIMIT_S, (
        f"staggered smoke fleet took {wall:.2f}s "
        f"(limit {SMOKE_WALL_LIMIT_S}s)")
    assert world.barrier_rounds > 0, (
        "the independent scheduler must count its frontier rounds")
    assert world.independent_cohort_spans > 0, (
        "randomized phases must still form stacked cohort spans")
    steps = sum(d.clock.ticks - d.fast_forwarded_ticks
                for d in world.devices)
    polls = sum(d.netd.stats.operations for d in world.devices)
    budget = (ENGINE_STEPS_PER_POLL * polls
              + ENGINE_STEPS_PER_DEVICE * SMOKE_DEVICES)
    assert steps <= budget, (
        f"staggered smoke fleet took {steps} engine steps (budget "
        f"{budget}) — something other than the polls is ending spans")
    assert world.horizon_cache_hits > 0, (
        "the post-commit poll-skip cache never fired")
    assert world.horizon_polls > 0
    assert world.conservation_error() < 1e-8
    assert world.total_radio_activations() >= SMOKE_DEVICES
