"""The closed-form repeated adder behind pooled and individual accrual.

:func:`repro.core.pooling.repeat_add` must return exactly what the
literal chain ``for _ in range(ticks): for a in addends: level =
level + a`` returns — compared with ``==``, not a tolerance — because
netd and gpsd land events on the tick that chain crosses a bill.  The
randomized cases below cover the regimes its binade-by-binade
argument treats separately: a start at zero, addends below half an
ulp (the level stagnates), exact rounding ties, many binade
crossings, one to three addends, up to a million ticks, and a
negative (debt) start.

The second half pins the two replays that use it against per-tick
engine steps on a pooled netd wait and an active-mode wait.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.pooling import (repeat_add, replay_pooled_accrual,
                                replay_reserve_accrual)
from repro.net.netd import OpState
from repro.sim.engine import CinderSystem
from repro.sim.process import NetRequest, Sleep


def literal(level, addends, ticks):
    """The reference: one float addition per addend per tick."""
    for _ in range(ticks):
        for addend in addends:
            level = level + addend
    return level


def random_addend(rng: random.Random) -> float:
    kind = rng.random()
    if kind < 0.3:
        return rng.uniform(1e-6, 1.0)
    if kind < 0.5:
        # Few significant bits: ties appear far above the addend.
        return math.ldexp(rng.randint(1, 64), rng.randint(-30, -1))
    if kind < 0.7:
        # Feed deposits of the shapes the daemons replay: rate * tick.
        return rng.choice([0.015, 0.2, 0.05, 0.6, 1.0 / 3.0]) * 0.01
    return rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-12, 2)


def random_case(rng: random.Random):
    addends = [random_addend(rng) for _ in range(rng.randint(1, 3))]
    kind = rng.random()
    if kind < 0.25:
        level = 0.0
    elif kind < 0.45:
        level = -rng.uniform(0.0, 10.0)
    elif kind < 0.6:
        level = rng.uniform(0.0, 1e6)
    elif kind < 0.75:
        # An exact tie on the level's own grid: (m + 1/2) ulps.
        level = rng.uniform(1.0, 2.0) * 2.0 ** rng.randint(-5, 5)
        if rng.random() < 0.5:
            level = -level
        addends[0] = (rng.randint(0, 5) + 0.5) * math.ulp(level)
    else:
        level = rng.uniform(0.0, 5.0)
    ticks = rng.choice([0, 1, 2, 3, 7, 100, 1000, rng.randint(0, 40_000)])
    return level, addends, ticks


class TestRepeatAddMatchesLiteralChain:
    def test_randomized_differential(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            level, addends, ticks = random_case(rng)
            assert (repeat_add(level, addends, ticks)
                    == literal(level, addends, ticks)), (level, addends,
                                                          ticks)

    @pytest.mark.parametrize("addends", [[1e-4], [0.015 * 0.01],
                                         [1e-4, 2e-4, 3.5e-5]])
    def test_a_million_ticks_from_zero(self, addends):
        assert (repeat_add(0.0, addends, 1_000_000)
                == literal(0.0, addends, 1_000_000))

    def test_many_binade_crossings(self):
        # From 1e-9 J to ~1 kJ: forty binades, each entered and left.
        addend = 1e-9
        level = 0.0
        for ticks in (1, 10, 1000, 10 ** 6):
            expected = literal(level, [addend], ticks)
            assert repeat_add(level, [addend], ticks) == expected
            level, addend = expected, addend * 1000.0

    def test_stagnation_returns_without_moving(self):
        level = 1.0
        addend = math.ulp(level) / 2.0 * 0.999   # below half an ulp
        assert repeat_add(level, [addend], 10 ** 9) == level
        assert literal(level, [addend], 1000) == level

    def test_stagnation_after_growth(self):
        # The level climbs until the addend falls below half its ulp.
        addend = 1e-3
        ticks = 1 << 20
        assert repeat_add(2.0 ** 40, [addend], ticks) == literal(
            2.0 ** 40, [addend], ticks)

    @pytest.mark.parametrize("start", [1.0, 1.0 + 2 ** -52, -1.5,
                                       -(1.0 + 2 ** -52), 3.0])
    @pytest.mark.parametrize("halves", [1, 3, 5])
    def test_exact_ties_round_to_even(self, start, halves):
        addend = halves / 2.0 * math.ulp(start)
        for ticks in (1, 2, 3, 50, 4097):
            assert (repeat_add(start, [addend], ticks)
                    == literal(start, [addend], ticks))

    def test_tie_with_a_second_addend(self):
        start = 1.0 + 2 ** -52
        ulp = math.ulp(start)
        addends = [1.5 * ulp, 2.25 * ulp]
        assert repeat_add(start, addends, 10_001) == literal(start, addends,
                                                              10_001)

    def test_negative_start_climbs_through_zero(self):
        # A debt reserve repaying itself: the magnitude falls through
        # every binade below the start, then the level turns positive.
        for start, addend in ((-3.7, 0.006), (-1e-3, 1e-7),
                              (-(2.0 ** 10), 0.25 + 2 ** -30)):
            ticks = int(-start / addend) * 2 + 17
            assert (repeat_add(start, [addend], ticks)
                    == literal(start, [addend], ticks))

    def test_zero_ticks_and_no_addends(self):
        assert repeat_add(1.25, [0.5], 0) == 1.25
        assert repeat_add(1.25, [], 100) == 1.25
        assert repeat_add(-0.0, [0.0], 5) == literal(-0.0, [0.0], 5)


# -- the replays against per-tick engine steps ---------------------------------


def pooled_poller() -> CinderSystem:
    """One 0.1 W poller pooling toward the ~11.9 J radio power-up.

    Decay off: the pooled addend is then the whole feed deposit and
    ticking is the bit-exact reference.  Built ticking; the replay is
    applied by hand.
    """
    system = CinderSystem(battery_joules=15_000.0, tick_s=0.01, seed=3,
                          record_interval_s=1.0, decay_enabled=False,
                          fast_forward=False)
    reserve = system.powered_reserve(0.1, name="poller")

    def program(ctx):
        yield NetRequest(bytes_out=64, bytes_in=0, destination="echo")

    system.spawn(program, "poller", reserve=reserve)
    return system


def active_sender() -> CinderSystem:
    """A sender whose later requests wait with the radio active.

    The first request pools toward the power-up; each follow-up (800
    datagrams, 1 s after the last) costs ~0.8 J plus the growing
    marginal active cost, so from the fifth on the 0.6 W reserve
    cannot pay at once and gates on its own balance while the radio
    is still up (§5.5.1).
    """
    system = CinderSystem(battery_joules=15_000.0, tick_s=0.01, seed=9,
                          record_interval_s=1.0, decay_enabled=False,
                          fast_forward=False)
    reserve = system.powered_reserve(0.6, name="sender")

    def program(ctx):
        for _ in range(6):
            yield NetRequest(bytes_out=64, bytes_in=0, packets=800,
                             destination="echo")
            yield Sleep(1.0)

    system.spawn(program, "sender", reserve=reserve)
    return system


def tick_until_plan(system: CinderSystem, mode: str):
    """Step until netd holds a closed-form wait plan of ``mode``."""
    for _ in range(100_000):
        system.step()
        plan = system.netd._span_plan(system.clock.now)
        if plan is not None and plan.mode == mode:
            return plan
    raise AssertionError(f"no {mode} wait reached")


def tick_while_waiting(system: CinderSystem, level_of):
    """Step while an op still waits; the levels seen after each tick.

    The last entry is the tick the op stopped waiting: the crossing.
    """
    levels = []
    while any(op.state is OpState.WAITING_ENERGY
              for op in system.netd._queue):
        system.step()
        levels.append(level_of(system))
    return levels


def assert_fast_forward_crosses_at(system: CinderSystem, mode: str,
                                   crossing: int, level: float,
                                   level_of) -> None:
    """Fast-forward the same wait: it must end on the ticked crossing
    tick with the ticked level."""
    tick_until_plan(system, mode)
    start = system.clock.ticks
    system.fast_forward = True
    system.run_until(lambda: not any(
        op.state is OpState.WAITING_ENERGY for op in system.netd._queue))
    assert system.fast_forwarded_ticks > 0
    assert system.clock.ticks - start == crossing
    assert level_of(system) == level


class TestReplaysMatchTicking:
    def test_pooled_wait(self):
        replayed, ticked = pooled_poller(), pooled_poller()
        plan = tick_until_plan(replayed, "pooled")
        tick_until_plan(ticked, "pooled")
        assert replayed.clock.ticks == ticked.clock.ticks
        levels = tick_while_waiting(ticked,
                                    lambda s: s.netd.pool.level)
        crossing = len(levels)
        assert crossing > 5_000   # a real pooled wait, not a blip
        assert_fast_forward_crosses_at(pooled_poller(), "pooled", crossing,
                                       levels[-1],
                                       lambda s: s.netd.pool.level)
        # Every pool level before the crossing, from one replay each.
        pool = replayed.netd.pool
        level0 = pool._level
        for ticks in (1, 2, 17, 1000, crossing // 2, crossing - 1):
            pool._level = level0
            replay_pooled_accrual(replayed.graph, pool, plan.accrual,
                                  ticks, lambda op, amount: None)
            assert pool._level == levels[ticks - 1], ticks

    def test_active_mode_wait(self):
        replayed, ticked = active_sender(), active_sender()
        plan = tick_until_plan(replayed, "active")
        tick_until_plan(ticked, "active")
        assert replayed.clock.ticks == ticked.clock.ticks
        assert replayed.radio.activation_count == 1
        reserve = plan.accrual.entries[0].reserve
        name = reserve.name

        def level_of(system):
            return next(r.level for r in system.graph.reserves
                        if r.name == name)

        levels = tick_while_waiting(ticked, level_of)
        crossing = len(levels)
        assert crossing > 100
        assert_fast_forward_crosses_at(active_sender(), "active", crossing,
                                       levels[-1], level_of)
        level0 = reserve._level
        for ticks in (1, 3, crossing // 2, crossing - 1):
            reserve._level = level0
            replay_reserve_accrual(replayed.graph, plan.accrual, ticks)
            assert reserve._level == levels[ticks - 1], ticks
