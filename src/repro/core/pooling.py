"""Shared closed-form pooled-accrual machinery (netd and gpsd).

Both cooperative daemons repeat the same per-tick arithmetic while a
batch of callers waits for a pooled expense (the §5.5.2 radio
power-up, a GPS cold fix): each waiter's feed tap deposits
``rate * tick`` into its reserve, the global decay takes its fraction
of the deposit, and the daemon's pump drains the remainder into the
pool.  When every waiter reserve has the canonical ``powered_reserve``
shape that per-tick sequence is a fixed list of float addends, so the
pool's whole trajectory — and the exact tick the batch becomes
affordable — can be replayed without running the engine.

This module owns the two daemon-independent halves of that story:

* :func:`analyze_pooled_accrual` — validate the regime and compute the
  per-reserve per-tick arithmetic (:class:`PooledAccrual`).  The
  canonical shape is: reserve drained to exactly zero, uncapped, no
  outbound taps, fed by exactly one constant tap whose source is the
  graph root **or a const-only junction reserve** (uncapped,
  decay-exempt, constant taps only) — the chained-feed topologies the
  span solver now integrates.  Anything else returns None and the
  daemon falls back to per-tick execution, which is always correct.
* :func:`replay_pooled_accrual` / :func:`replay_reserve_accrual` —
  advance the pool (or each waiter reserve) through the exact per-tick
  float chain with :func:`repeat_add` and move every cumulative
  counter in bulk.
* :func:`repeat_add` — the closed form of ``ticks`` rounds of
  ``level = level + a`` over a fixed addend list, exact to the bit in
  O(binades crossed) integer steps instead of one float addition per
  tick.

Each daemon keeps its own *crossing scan* — netd's pump has a
two-gate affordability check, gpsd's clamps contributions at the
shortfall — because that is where their pump arithmetic differs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from .reserve import Reserve
from .tap import Tap, TapType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .graph import ResourceGraph


@dataclass
class PooledEntry:
    """Per-tick arithmetic for one distinct waiter reserve."""

    reserve: Reserve
    #: The reserve's single constant feed tap (frozen over spans).
    tap: Tap
    #: Per-tick feed deposit (``rate * tick_s``).
    inflow: float
    #: Per-tick decay loss on the deposit.
    lost: float
    #: Per-tick transfer into the pool (``inflow - lost``).
    contribution: float
    #: The first queued operation drawing from this reserve.
    op: Any


@dataclass
class PooledAccrual:
    """One pooled-wait regime's closed-form description."""

    #: One entry per distinct waiter reserve, in queue order.
    entries: List[PooledEntry]
    #: Non-zero pool increments per tick, in contribution order.
    addends: List[float]
    #: ``sum(level per op)`` exactly as a pump computes it (an
    #: op-indexed sum: a shared reserve is counted once per op).
    avail_sum: float
    #: Per-tick decay fraction (0.0 when decay is off).
    fraction: float
    #: (feed-source reserve, its total constant drain rate, its total
    #: constant *inflow* rate), one per distinct source — the
    #: clamp-budget inputs.
    drains: List[Tuple[Reserve, float, float]]

    def frozen_taps(self) -> List[Tap]:
        """The feed taps a daemon integrates itself over a span."""
        return [entry.tap for entry in self.entries]

    def budget_ticks(self, tick_s: float) -> float:
        """Ticks every feed source can fund its constant drains.

        The budget is an exact *net-rate* bound, not the old
        gross-drain haircut: a source drains at its constant outflow
        minus its **root-sourced** constant inflow (inflow from any
        other reserve is ignored — its upstream could clamp; so is
        proportional inflow — both omissions only err safe), after one
        tick of slack covering intra-tick firing order (a drain
        created before its source's feed sees the level a whole
        deposit short).  A root-fed pass-through junction — constant
        inflow covering its constant drains, the canonical chained
        shape — therefore has an *infinite* budget: such feeds keep
        their bit-identical replay contracts with no conservative
        clamp gating at all.  Genuinely depleting sources still bound
        the skip: tick-by-tick execution cannot clamp a frozen feed
        tap earlier than this.
        """
        budget = math.inf
        for source, out_rate, in_rate in self.drains:
            if out_rate <= 0.0:
                continue
            slack = source.level - out_rate * tick_s
            if slack < 0.0:
                return 0.0  # could clamp within the very next tick
            net = out_rate - in_rate
            if net > 0.0:
                budget = min(budget, slack / (net * tick_s))
        return budget

    def analytic_skip_ticks(self, gain: float, pool_level: float,
                            required: float, tick_s: float,
                            window: int) -> Optional[int]:
        """Safe skip distance when the crossing is still far away.

        ``gain`` is the caller's per-tick pool-gain estimate (it may
        over-estimate — landing early is harmless, skipping past the
        crossing is not).  Returns None when the crossing is within
        ``window`` accrual rounds — the caller must run its own exact
        scalar replay of its pump's arithmetic — otherwise a tick
        count a few rounds short of the crossing, clamped so no feed
        source can clamp inside the skip (0 = land on the pending
        tick: a source budget is nearly exhausted).
        """
        estimate = (required - 1e-12 - pool_level) / gain
        if estimate <= window:
            return None
        safe = int(estimate) - 5
        budget = self.budget_ticks(tick_s)
        if budget != math.inf:
            if budget <= 4.0:
                return 0
            safe = min(safe, int(budget - 4.0))
        return max(safe, 1)


def analyze_pooled_accrual(
    graph: "ResourceGraph",
    pool: Reserve,
    ops: List[Any],
    reserve_of: Callable[[Any], Optional[Reserve]],
    tick_s: float,
    drain_to_pool: bool = True,
) -> Optional[PooledAccrual]:
    """Validate a pooled-wait regime; None means tick instead.

    ``ops`` are the queued operations in queue order; ``reserve_of``
    maps one to its caller's active reserve.

    ``drain_to_pool=False`` describes the *individual-gating* regime
    (netd with the radio already active, §5.5.1 semantics): waiters
    accrue in their **own** reserves — nothing moves to the pool until
    an op becomes affordable — so the reserve's starting level is
    arbitrary (no drained-to-zero requirement) and its trajectory is
    the exact per-tick ``+= rate * tick`` chain.  Because the level is
    non-zero, a per-tick decay would make the increments
    level-dependent; the closed form therefore additionally requires
    decay off (or the reserve exempt).  ``entry.contribution`` is 0
    and :attr:`PooledAccrual.addends`/``avail_sum`` stay empty in this
    mode: replay goes through :func:`replay_reserve_accrual`.
    """
    root = graph.root
    if (not pool.alive or pool.capacity is not None
            or not pool.decay_exempt or pool.level < 0.0):
        return None
    if root.capacity is not None:
        return None  # decay reclaim and junction funding assume headroom
    fraction = graph.decay_policy.fraction_for(tick_s)
    # One pass over the live taps: per-reserve wiring and pool isolation.
    inbound: Dict[int, List[Tap]] = {}
    outbound: Dict[int, List[Tap]] = {}
    pool_id = id(pool)
    for tap in graph.taps:
        if not tap.enabled:
            continue
        if id(tap.source) == pool_id or id(tap.sink) == pool_id:
            return None  # something else feeds or drains the pool
        inbound.setdefault(id(tap.sink), []).append(tap)
        outbound.setdefault(id(tap.source), []).append(tap)
    reserves: List[Optional[Reserve]] = []
    waiter_ids = set()
    for op in ops:
        reserve = reserve_of(op)
        if reserve is None:
            return None
        reserves.append(reserve)
        waiter_ids.add(id(reserve))
    entries: List[PooledEntry] = []
    addends: List[float] = []
    seen: Dict[int, float] = {}   # reserve id -> per-tick level
    sources: Dict[int, Tuple[Reserve, float]] = {}
    avail_sum = 0.0
    for op, reserve in zip(ops, reserves):
        key = id(reserve)
        if key in seen:
            # A shared reserve: the pump counts its level once per op
            # in the availability sum, but only the first op drains it.
            avail_sum = avail_sum + max(0.0, seen[key])
            continue
        if (not reserve.alive or reserve is root or reserve is pool
                or reserve.capacity is not None
                or (drain_to_pool and reserve._level != 0.0)):
            return None
        if (not drain_to_pool and fraction > 0.0
                and not reserve.decay_exempt):
            # A non-zero accruing level makes per-tick decay
            # level-dependent; no fixed-addend replay exists.
            return None
        if outbound.get(key):
            return None
        feeds = inbound.get(key, [])
        if len(feeds) != 1:
            return None
        tap = feeds[0]
        if tap.tap_type is not TapType.CONST or not tap.alive:
            return None
        source = tap.source
        skey = id(source)
        if skey not in sources:
            if source is not root:
                # Chained feed: exact to replay only when the junction
                # is a pure constant-flow pass-through — uncapped, not
                # decaying, no proportional drains reading its level —
                # so holding the feed tap out of the graph span and
                # debiting its total afterwards commutes.
                if (not source.alive or source is pool
                        or skey in waiter_ids
                        or source.capacity is not None
                        or (fraction > 0.0 and not source.decay_exempt)):
                    return None
                if any(t.tap_type is not TapType.CONST
                       for t in outbound.get(skey, ())):
                    return None
            drain_rate = sum(t.rate for t in outbound.get(skey, ())
                             if t.tap_type is TapType.CONST)
            # Budget credit: only *root-sourced* constant inflow.  A
            # constant tap from any other reserve clamps to what its
            # source holds (its upstream may itself drain dry), so
            # crediting it would overstate the budget; the root is the
            # one reserve the whole replay machinery already assumes
            # never runs dry (feed debits are taken from it
            # unconditionally).
            inflow_rate = sum(t.rate for t in inbound.get(skey, ())
                              if t.tap_type is TapType.CONST
                              and t.source is root)
            sources[skey] = (source, drain_rate, inflow_rate)
        # One tick of the reference arithmetic, from level zero:
        # deposit the tap's amount, then decay the deposit.
        inflow = tap.rate * tick_s
        if not drain_to_pool:
            # Individual gating: the deposit stays in the reserve and
            # the per-tick increment is exactly the tap amount.
            seen[key] = 0.0
            entries.append(PooledEntry(reserve, tap, inflow, 0.0, 0.0, op))
            continue
        level = 0.0 + inflow
        lost = 0.0
        if fraction > 0.0 and not reserve.decay_exempt and level > 0.0:
            lost = level * fraction
            level = level - lost
        seen[key] = level
        entries.append(PooledEntry(reserve, tap, inflow, lost, level, op))
        if level > 0.0:
            addends.append(level)
        avail_sum = avail_sum + max(0.0, level)
    return PooledAccrual(entries=entries, addends=addends,
                         avail_sum=avail_sum, fraction=fraction,
                         drains=list(sources.values()))


def replay_pooled_accrual(
    graph: "ResourceGraph",
    pool: Reserve,
    accrual: PooledAccrual,
    ticks: int,
    credit: Callable[[Any, float], None],
) -> float:
    """Replay ``ticks`` rounds of pooled accrual in closed form.

    The pool level is :func:`repeat_add` over the per-tick addends —
    bit-for-bit the level repeated ``+=`` reaches, in O(binades)
    steps.  Cumulative counters move in bulk, which only costs
    last-ulp rounding relative to tick-by-tick accumulation.
    ``credit(op, amount)`` books each reserve's total contribution on
    its first queued op.  Returns the total amount contributed to the
    pool.
    """
    if ticks <= 0:
        return 0.0
    pool._level = repeat_add(pool._level, accrual.addends, ticks)
    contributed_total = 0.0
    root = graph.root
    for entry in accrual.entries:
        if entry.inflow > 0.0:
            flow_total = entry.inflow * ticks
            entry.tap.total_flowed += flow_total
            entry.reserve.total_transferred_in += flow_total
            source = entry.tap.source
            source._level -= flow_total
            source.total_transferred_out += flow_total
        if entry.lost > 0.0:
            decay_total = entry.lost * ticks
            entry.reserve.total_decayed += decay_total
            root._level += decay_total
            root.total_deposited += decay_total
            graph.decay_policy.total_reclaimed += decay_total
        if entry.contribution > 0.0:
            contrib_total = entry.contribution * ticks
            entry.reserve.total_transferred_out += contrib_total
            pool.total_transferred_in += contrib_total
            credit(entry.op, contrib_total)
            contributed_total += contrib_total
    return contributed_total


def replay_reserve_accrual(
    graph: "ResourceGraph",
    accrual: PooledAccrual,
    ticks: int,
) -> float:
    """Replay ``ticks`` rounds of *individual* accrual in closed form.

    The ``drain_to_pool=False`` counterpart of
    :func:`replay_pooled_accrual`: each waiter reserve's level is
    :func:`repeat_add` over its one per-tick deposit ``rate * tick``
    (bit-identical to the reference tick loop, debt levels included),
    the deposits *stay in the reserve* — the §5.5.1 regime where every
    caller gates on its own balance — and the feed-source debits and
    cumulative counters move in bulk.  Returns the total amount
    deposited across all waiter reserves.
    """
    if ticks <= 0:
        return 0.0
    deposited_total = 0.0
    for entry in accrual.entries:
        if entry.inflow <= 0.0:
            continue
        entry.reserve._level = repeat_add(entry.reserve._level,
                                          (entry.inflow,), ticks)
        flow_total = entry.inflow * ticks
        entry.tap.total_flowed += flow_total
        entry.reserve.total_transferred_in += flow_total
        source = entry.tap.source
        source._level -= flow_total
        source.total_transferred_out += flow_total
        deposited_total += flow_total
    return deposited_total


#: Grid points per binade: a float in ``[2**(e-1), 2**e)`` is a whole
#: number of its ulps in ``[2**52, 2**53)``.
_BINADE_UNITS = 1 << 53
_MIN_NORMAL = sys.float_info.min


def _tick_units(units: int, steps: List[Tuple[int, float]],
                sign: int) -> int:
    """One tick of additions in ulp units of the current binade.

    ``steps`` holds each addend as ``(whole, frac)`` ulps; ``units``
    is the level's magnitude in ulps and ``sign`` its sign (a debt
    level moves its magnitude down).  Round-to-nearest-even: a
    fraction above one half rounds away from the level's start, an
    exact half rounds to the even count — which depends on the
    running count's parity, so callers pass the true parity.
    """
    for whole, frac in steps:
        units += sign * whole
        if frac > 0.5 or (frac == 0.5 and units & 1):
            units += sign
    return units


def repeat_add(level: float, addends: Sequence[float],
               ticks: int) -> float:
    """``ticks`` rounds of ``for a in addends: level = level + a``.

    Exact to the bit, for non-negative ``addends``, at a cost that
    grows with the binades the level crosses rather than with
    ``ticks``.  The argument, one binade at a time:

    * While every partial sum stays inside the level's binade
      ``[2**(e-1), 2**e)`` (in magnitude), every addition rounds on
      the one grid ``u = ulp(level)``.  In units of ``u`` the level is
      an integer and an addend ``a`` is ``a / u`` exactly (a power-of-
      two scaling), so one tick moves the level by a whole number of
      ulps computed in integers (:func:`_tick_units`).  With no exact
      tie that count ``D`` is the same every tick; a tie (``a / u`` has
      fractional part one half) rounds to even, so ``D`` depends on
      the level's parity — the parity pattern settles within one tick
      and then repeats with period one or two.
    * The level jumps by as many whole periods as keep the count below
      the top of the binade (above its bottom for a negative level,
      whose magnitude shrinks), leaving at least half an ulp of room
      for the last exact partial sum, so no addition inside the jump
      rounds on another grid.
    * The tick that would cross the binade edge, a tick whose parity
      has not yet settled, zero and subnormal levels, a debt level on
      its binade's floor (the next sum lands on a finer grid) and an
      addend too large for the binade are taken literally in floats.
    * ``D == 0`` means every addend rounds away: the level can never
      change again, so it is returned at once.

    ``tests/core/test_repeat_add.py`` checks it bit-for-bit against
    the literal chain.
    """
    addends = tuple(addends)
    while ticks > 0:
        jump = _binade_jump(level, addends, ticks)
        if jump is None:
            return level  # every addend rounds away
        level, ticks = jump
        if ticks:
            for addend in addends:
                level = level + addend
            ticks -= 1
    return level


def _binade_jump(level: float, addends: Tuple[float, ...],
                 ticks: int) -> Optional[Tuple[float, int]]:
    """Jump whole ticks inside ``level``'s binade (see
    :func:`repeat_add`): returns ``(level, ticks left)``, unchanged
    when the next tick must be taken literally, or None when no tick
    can ever change the level."""
    magnitude = abs(level)
    if magnitude < _MIN_NORMAL:
        return level, ticks
    exp = math.frexp(magnitude)[1] - 53
    units = int(math.ldexp(magnitude, -exp))
    sign = 1 if level > 0.0 else -1
    # Whole ulps the count may move while every exact partial sum
    # stays half an ulp inside the binade.
    room = (_BINADE_UNITS - 1 - units if sign > 0
            else units - (_BINADE_UNITS >> 1) - 1)
    if room < 0:
        return level, ticks  # a debt on its binade's floor
    steps: List[Tuple[int, float]] = []
    for addend in addends:
        scaled = math.ldexp(addend, -exp)
        if scaled >= _BINADE_UNITS:
            return level, ticks  # leaves the binade in one addition
        whole = math.floor(scaled)
        steps.append((whole, scaled - whole))
    parity = units & 1
    step = _tick_units(parity, steps, sign) - parity
    if step == 0:
        return None
    period = 1
    if step & 1:
        # A tie flipped the parity, so the next tick rounds from the
        # other one.  Two odd moves return to this parity: period two.
        # Otherwise the parity settles after one literal tick.
        flipped = parity ^ 1
        after = _tick_units(flipped, steps, sign) - flipped
        if not after & 1:
            return level, ticks
        period, step = 2, step + after
    jumps = min(ticks // period, room // abs(step))
    if jumps <= 0:
        return level, ticks
    units += jumps * step
    return math.ldexp(float(sign * units), exp), ticks - jumps * period
