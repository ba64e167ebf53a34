"""Worlds: many Cinder devices on one shared clock.

The production question the ROADMAP asks — millions of users, fleets
of simulated handsets — needs more than one :class:`DeviceRuntime`
per experiment.  A :class:`World` runs N devices on a shared time
grid:

* every device is constructed on the world's ``tick_s`` and (by
  default) the world's shared :class:`~repro.net.remote.RemoteHosts`,
  so all devices talk to the same synthetic server universe;
* per iteration the world asks every device for its fast-forward
  horizon and advances all of them by the **global minimum** — the
  same min-over-sources discipline each device already applies to its
  own event sources, lifted one level up.  A device whose closed form
  refuses a span (a state-dependent refusal: mid-span clamp, capacity
  pressure, debt) ticks through it instead, so the fleet never skips
  an event and never desynchronizes;
* devices stay tick-aligned by construction: every iteration moves
  every device by the same whole number of ticks.

At fleet scale the naive loop pays full per-device Python overhead
every iteration, so the default scheduler is **cohort-batched**
(``batched=True``):

* the **horizon tier** keeps a struct-of-arrays cache of each
  device's absolute next-event tick.  Firm horizons (timer deadlines,
  sleeper wakes, radio timeouts, exact pooled-crossing ticks — see
  :attr:`~repro.sim.events.EventSource.horizon_firm`) are reused
  across iterations and the global minimum is one numpy reduction;
  soft horizons (conservative checkpoints) are re-polled.  Cached
  firm targets are exactly what a fresh poll would return, so the
  batched world takes the *same* macro/tick decisions as the
  reference loop;
* the **cohort tier** groups devices whose compiled
  :class:`~repro.core.flowplan.FlowPlan` signatures match (same live
  topology, same frozen-tap set, same decay constant) and stacks
  their graph work: one ``(n_devices, n_reserves)`` kernel call per
  tick round (:func:`repro.core.flowplan.execute_tick_batch`) and one
  stacked span solve per macro-step
  (:func:`repro.core.spansolver.execute_span_batch`), which reuses a
  single eigendecomposition across the cohort on coupled topologies.
  A device whose topology diverges — or whose span the solver refuses
  — falls out of the cohort to the per-device path for that
  iteration, counted in :attr:`cohort_fallbacks`;
* devices may run on **different tick grids**: the world aligns them
  on the least common multiple of their tick periods and advances
  mixed-grid fleets barrier-to-barrier (each device runs its own
  macro-step loop up to the shared barrier instant, which lies on
  every device's grid by construction).

``batched=False`` keeps the plain PR-2 loop as the reference
scheduler; ``fast_forward=False`` disables macro-stepping entirely
(the tick-slicing baseline).  Process-level sharding — partitions of
a fleet macro-stepping in parallel worker processes between clock
barriers — lives in :mod:`repro.sim.shards` on top of this class.

A one-device world is *sample-for-sample identical* to running the
bare :class:`~repro.sim.engine.CinderSystem` — the world loop is the
same decomposition ``run`` uses internally (the differential tests
pin this).
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..core import flowplan as _flowplan
from ..core import spansolver as _spansolver
from ..errors import SimulationError
from ..net.remote import RemoteHosts
from .engine import CinderSystem, DeviceRuntime


class World:
    """A fleet of devices advancing on one shared time grid."""

    def __init__(self, tick_s: float = 0.01,
                 hosts: Optional[RemoteHosts] = None,
                 fast_forward: bool = True,
                 batched: bool = True,
                 independent_cohorts: bool = True,
                 seed: int = 0) -> None:
        if tick_s <= 0:
            raise SimulationError("tick must be positive")
        self.tick_s = tick_s
        #: The shared remote-server universe every device talks to.
        self.hosts = hosts if hosts is not None else RemoteHosts.default()
        self.fast_forward = fast_forward
        #: Cohort-batched scheduling (horizon cache + stacked graph
        #: work).  The reference per-device loop survives at
        #: ``batched=False`` as the differential oracle.
        self.batched = batched and fast_forward
        #: Event-time-bucketed cohort scheduling on the *independent*
        #: path (see :meth:`_run_independent`).  The plain per-device
        #: ``device.run(chunk)`` loop survives at
        #: ``independent_cohorts=False`` as the differential oracle,
        #: and is also selected whenever the batched tier is off.
        self.independent_cohorts = independent_cohorts and self.batched
        self.seed = seed
        self.devices: List[DeviceRuntime] = []
        self._by_name: Dict[str, DeviceRuntime] = {}
        #: Telemetry: world iterations that macro-stepped vs ticked.
        self.macro_steps = 0
        self.tick_steps = 0
        #: Telemetry: rounds taken by the independent scheduler.  With
        #: the bucketed scheduler this counts *actual frontier
        #: iterations* — each pop-the-frontier-bucket-and-advance
        #: round is one — so refusals and staggered horizons show up
        #: as extra rounds.  The legacy per-device loop
        #: (``independent_cohorts=False``) cannot observe its devices'
        #: internal iterations and still counts one round per barrier
        #: chunk (the historical approximation this counter had
        #: fleet-wide before the frontier scheduler).
        self.barrier_rounds = 0
        #: Telemetry, independent path only: device-spans solved
        #: through a stacked cohort call vs scalar (a singleton
        #: bucket/cohort, or a stacked drop-out whose scalar retry
        #: still macro-stepped).
        self.independent_cohort_spans = 0
        self.independent_scalar_spans = 0
        #: Telemetry: device-spans solved through a stacked cohort
        #: call (switch-bound spans included — the batched segment
        #: chain carries them in-batch), and devices that fell out of
        #: a cohort to the per-device path (topology divergence, span
        #: refusal, a genuinely unsupported shape, or a group too
        #: small to batch).  A fallback whose scalar solve still
        #: macro-stepped is additionally counted in
        #: :attr:`cohort_demotions`: the device left the stacked call
        #: but did not degrade to ticking.  Demotions now count only
        #: shapes the stacked chain cannot carry (residual-refusal
        #: regimes the scalar path also refuses land in ticking, and
        #: Padé-only propagators or failed batch certificates land
        #: here), never plain switch-bound cohorts.
        self.cohort_spans = 0
        self.cohort_ticks = 0
        self.cohort_fallbacks = 0
        self.cohort_demotions = 0
        #: Telemetry: horizon polls skipped thanks to a cached firm
        #: target vs polls actually executed.
        self.horizon_cache_hits = 0
        self.horizon_polls = 0
        # -- horizon cache (struct-of-arrays, rebuilt per run) --
        self._targets: Optional[np.ndarray] = None  # absolute tick; -1 stale
        self._firm: Optional[np.ndarray] = None
        self._executes: Optional[np.ndarray] = None
        # -- cohort signature interning --
        self._sig_tokens: Dict[tuple, int] = {}
        #: id(graph) -> (generation last seen, consecutive churn count);
        #: graphs that keep mutating topology are excluded from tick
        #: batching so they do not pay a plan recompile every tick.
        self._churn: Dict[int, Tuple[int, int]] = {}

    # -- fleet assembly ---------------------------------------------------------

    def add_device(self, name: Optional[str] = None,
                   **kwargs) -> CinderSystem:
        """Construct and enroll a :class:`CinderSystem`.

        Keyword arguments are forwarded to the ``CinderSystem``
        constructor; ``tick_s``, ``hosts`` and ``fast_forward``
        default to the world's, and ``seed`` defaults to a
        deterministic per-device derivation of the world seed.  A
        device may run on a *different* tick grid than the world's
        (``tick_s=...``): the fleet then advances barrier-to-barrier
        on the least common multiple of all tick periods.
        """
        kwargs.setdefault("tick_s", self.tick_s)
        kwargs.setdefault("hosts", self.hosts)
        kwargs.setdefault("fast_forward", self.fast_forward)
        kwargs.setdefault("seed", self.seed + 101 * len(self.devices))
        system = CinderSystem(**kwargs)
        return self.adopt(system, name=name)

    def adopt(self, runtime: DeviceRuntime,
              name: Optional[str] = None) -> DeviceRuntime:
        """Enroll an externally-assembled runtime (pluggable components).

        The runtime must not have ticked past the fleet — devices
        advance in lockstep (or barrier-aligned, on mixed tick grids)
        from the moment they join.
        """
        if abs(runtime.clock.now - self.now) > 1e-12:
            raise SimulationError(
                "a device must join the world at the fleet's current time "
                f"({runtime.clock.now} != {self.now})")
        name = name if name is not None else f"device{len(self.devices)}"
        if name in self._by_name:
            raise SimulationError(f"duplicate device name {name!r}")
        self.devices.append(runtime)
        self._by_name[name] = runtime
        self._targets = None  # horizon cache shape is stale
        return runtime

    def device(self, name: str) -> DeviceRuntime:
        """Look up an enrolled device by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SimulationError(f"no device named {name!r}")

    # -- shared time -------------------------------------------------------------

    @property
    def now(self) -> float:
        """The shared simulation time (0.0 for an empty world)."""
        return self.devices[0].clock.now if self.devices else 0.0

    @property
    def ticks(self) -> int:
        """Ticks taken so far on the shared grid (uniform fleets)."""
        return self.devices[0].clock.ticks if self.devices else 0

    @property
    def fast_forwarded_ticks(self) -> int:
        """Total ticks skipped across the fleet."""
        return sum(d.fast_forwarded_ticks for d in self.devices)

    @property
    def degraded_spans(self) -> int:
        """Degraded windows across the fleet: maximal tick runs whose
        spans a device's closed form refused (it ticked instead).

        Chained topologies used to land here wholesale (until the
        coupled span solver) and piecewise-linear switching states —
        mid-span clamps, binding capacities, debt repayment — after
        them (until the segmented engine, whose work shows up in
        :attr:`span_segments` instead); only residual unsupported
        regimes still degrade to ticking.
        """
        return sum(d.span_refusals for d in self.devices)

    @property
    def span_segments(self) -> int:
        """Switching-engine segments executed across the fleet."""
        return sum(d.span_segments for d in self.devices)

    @property
    def span_ends(self) -> Dict[str, int]:
        """Committed spans per ending source, summed over the fleet
        (see :attr:`~repro.sim.engine.DeviceRuntime.span_ends`)."""
        totals: Dict[str, int] = {}
        for device in self.devices:
            for name, count in device.span_ends.items():
                totals[name] = totals.get(name, 0) + count
        return totals

    def uniform_grid(self) -> bool:
        """True iff every device shares the world's tick size."""
        return all(d.clock.tick_s == self.tick_s for d in self.devices)

    def barrier_period(self) -> float:
        """The least common multiple of all device tick periods.

        Barrier instants for mixed-grid fleets must lie on every
        device's grid; the LCM of the (rationalized) tick periods is
        the finest such spacing.
        """
        fractions = [Fraction(d.clock.tick_s).limit_denominator(10 ** 9)
                     for d in self.devices]
        num = 1
        den = 0  # gcd identity
        for fr in fractions:
            num = num * fr.numerator // math.gcd(num, fr.numerator)
            den = math.gcd(den, fr.denominator)
        return float(Fraction(num, den))

    # -- the world loop -----------------------------------------------------------

    def _advance_once(self, deadline: float) -> None:
        """One reference iteration: global min-horizon or one tick each.

        The PR-2 loop, kept verbatim as the differential oracle for
        the batched scheduler (``batched=False`` selects it).
        """
        devices = self.devices
        ticks = min(d._ff_horizon_ticks(deadline) for d in devices)
        if ticks >= 2:
            for device in devices:
                if not device._ff_advance(ticks):
                    # The device's closed form refused this span (e.g.
                    # a clamping tap): tick it through the same ticks
                    # so the fleet stays aligned.
                    for _ in range(ticks):
                        device.step()
            self.macro_steps += 1
        else:
            for device in devices:
                device.step()
            self.tick_steps += 1

    # -- the batched scheduler ------------------------------------------------------

    def _reset_horizons(self) -> None:
        n = len(self.devices)
        if self._targets is None or len(self._targets) != n:
            self._targets = np.empty(n, dtype=np.int64)
            self._firm = np.zeros(n, dtype=bool)
            self._executes = np.zeros(n, dtype=bool)
        self._targets[:] = -1

    def _advance_once_batched(self, deadline: float) -> None:
        """One batched iteration: cached-horizon min, stacked advance."""
        devices = self.devices
        if self._targets is None or len(self._targets) != len(devices):
            # A device adopted mid-run (e.g. from a run_until
            # predicate) stales the cache shape; rebuild it.
            self._reset_horizons()
        targets = self._targets
        firm = self._firm
        executes = self._executes
        base = devices[0].clock.ticks
        for i, device in enumerate(devices):
            t = targets[i]
            if t >= 0 and firm[i] and (t - base >= 2 or executes[i]):
                # A firm target is exactly what a fresh poll would
                # report: beyond the amortization threshold it stays
                # cached, and a *due* step-requiring event means a
                # fresh poll would answer "tick now" — both resolved
                # without touching the device's sources.  A due power
                # boundary (e.g. the radio's ramp end) is the one case
                # that must re-poll: the next span opens right there.
                self.horizon_cache_hits += 1
                if t - base < 2:
                    targets[i] = base
                continue
            self.horizon_polls += 1
            ticks_i, firm_i, executes_i = device._ff_poll(deadline)
            if ticks_i == 0:
                targets[i] = base  # must tick now
                firm[i] = True
            else:
                targets[i] = base + ticks_i
                firm[i] = firm_i
                executes[i] = executes_i
        k = int(targets.min()) - base
        if k >= 2:
            self._fleet_macro(k)
            self.macro_steps += 1
            # Soft targets at or before the landing tick must be
            # re-derived; firm ones stay — the due-target shortcut
            # above answers "tick now" for them without a poll.
            landed = base + k
            stale = (targets <= landed) & ~firm
            targets[stale] = -1
        else:
            self._fleet_tick()
            self.tick_steps += 1
            targets[:] = -1

    def _cohort_token(self, plan) -> int:
        # The memo is world-qualified: tokens are interned per world,
        # so a plan cached by another World (a device adopted across
        # worlds) must not leak its foreign token here.
        cached = getattr(plan, "_cohort_token", None)
        if cached is not None and cached[0] is self:
            return cached[1]
        sig = plan.signature
        token = self._sig_tokens.setdefault(sig, len(self._sig_tokens))
        plan._cohort_token = (self, token)
        return token

    def _fleet_macro(self, ticks: int) -> None:
        """Advance every device ``ticks`` ticks, cohorts stacked.

        Mirrors the reference iteration exactly: each device's
        frozen-tap arbitration and span solve run with the same
        semantics, only grouped — the graph span of a cohort executes
        as one stacked call, then each member commits its non-graph
        effects (source replays, meter feed, clock) per device.  Any
        refusal ticks that device through the same span.
        """
        devices = self.devices
        span = ticks * devices[0].clock.tick_s
        groups: Dict[Tuple[int, float], List[Tuple[int, object]]] = {}
        refused: List[int] = []
        singles: List[Tuple[int, object]] = []
        for i, device in enumerate(devices):
            frozen = device._ff_begin()
            if frozen is None:
                refused.append(i)
                continue
            graph = device.graph
            plan = graph.span_plan_handle(frozen)
            policy = graph.decay_policy
            lam = policy.lam if policy.enabled else 0.0
            groups.setdefault((self._cohort_token(plan), lam),
                              []).append((i, plan))
        for members in groups.values():
            if len(members) < 2:
                singles.extend(members)
                continue
            tiers = [plan.span_tier for _, plan in members]
            results = _spansolver.execute_span_batch(tiers, span)
            for (i, plan), moved in zip(members, results):
                device = devices[i]
                if moved is None:
                    # Switch-bound devices solve inside the stacked
                    # call now (the batched segment chain), so a None
                    # here is a genuine drop-out: a shape the chain
                    # cannot carry (residual-refusal regime, Padé-only
                    # propagator, failed certificate).  Demote it to
                    # the scalar path, which may still macro-step it;
                    # ticking remains the fallback for residual
                    # refusals only.
                    self.cohort_fallbacks += 1
                    moved = plan.execute_span(span)
                    if moved is None:
                        device._ff_refuse()
                        refused.append(i)
                    else:
                        self.cohort_demotions += 1
                        plan.graph.note_span(span)
                        device._ff_commit(ticks)
                else:
                    plan.graph.note_span(span)
                    device._ff_commit(ticks)
                    self.cohort_spans += 1
        for i, plan in singles:
            device = devices[i]
            moved = plan.execute_span(span)
            if moved is None:
                device._ff_refuse()
                refused.append(i)
            else:
                plan.graph.note_span(span)
                device._ff_commit(ticks)
        for i in refused:
            device = devices[i]
            for _ in range(ticks):
                device.step()
            self._targets[i] = -1

    def _tick_plan_for(self, device: DeviceRuntime):
        """The device's compiled tick plan, or None if not batchable.

        Graphs whose topology keeps mutating would pay a full plan
        recompile every tick just to join a cohort; after a few
        consecutive stale generations the device is left on its plain
        per-device step.
        """
        graph = device.graph
        key = id(graph)
        plan = graph._plan
        generation = graph.generation
        if plan is not None and plan.generation == generation:
            self._churn[key] = (generation, 0)
            return plan
        seen, strikes = self._churn.get(key, (-1, 0))
        if seen != generation:
            strikes = strikes + 1 if seen >= 0 else 0
        elif strikes:
            # Stable since the last look: decay the penalty so a
            # device that stopped churning rejoins tick batching (for
            # small graphs nothing else ever compiles a plan, so the
            # exclusion would otherwise be permanent).
            strikes -= 1
        self._churn[key] = (generation, strikes)
        if strikes > 8:
            return None
        return graph._current_plan()

    def _fleet_tick(self, indices: Optional[List[int]] = None) -> None:
        """One tick for the given devices (default: all), cohorts stacked.

        The tick grid enters the cohort key (mixed-grid fleets reach
        here through the independent scheduler's stepper buckets;
        :func:`~repro.core.flowplan.execute_tick_batch` takes one
        shared ``dt``); on the lockstep path the grid is uniform, so
        the extra key component is inert.
        """
        devices = self.devices
        idxs = range(len(devices)) if indices is None else indices
        if len(idxs) < 2:
            for i in idxs:
                devices[i].step()
            return
        groups: Dict[Tuple[int, float, float],
                     List[Tuple[int, object]]] = {}
        for i in idxs:
            device = devices[i]
            plan = self._tick_plan_for(device)
            if plan is None:
                continue
            dt = device.clock.tick_s
            fraction = device.graph.decay_policy.fraction_for(dt)
            groups.setdefault((self._cohort_token(plan), fraction, dt),
                              []).append((i, plan))
        done: Dict[int, bool] = {}
        for members in groups.values():
            if len(members) < 2:
                continue
            plans = [plan for _, plan in members]
            dt = devices[members[0][0]].clock.tick_s
            results = _flowplan.execute_tick_batch(plans, dt)
            for (i, _), moved in zip(members, results):
                if moved is None:
                    self.cohort_fallbacks += 1
                else:
                    done[i] = True
                    self.cohort_ticks += 1
        for i in idxs:
            devices[i].step(graph_done=done.get(i, False))

    # -- the independent (frontier) scheduler -----------------------------------------

    def _commit_cohort(self, commits: List[int],
                       pending: List[int]) -> None:
        """Commit stacked macro-spans, meter feeds batched per cohort.

        Runs each member's :meth:`~repro.sim.engine.CinderSystem.
        _ff_commit` in its three phases — source replay + span power,
        meter feed, battery/scheduler/clock — with the middle phase
        grouped: members sharing the same ``(power, span)`` and a
        phase-aligned noiseless meter feed through one
        :meth:`~repro.energy.meter.PowerMeter.feed_cohort` call (the
        sample block is computed once; each follower replays only its
        own totalizer chain).  Per-device operation order is exactly
        the fused commit's, and devices share no state, so the
        reordering across devices is invisible — bit-identical to
        committing one device at a time.
        """
        devices = self.devices
        if len(commits) < 2:
            for i in commits:
                devices[i]._ff_commit(pending[i])
            return
        entries: List[Tuple[int, float]] = []
        feed_groups: Dict[Tuple[float, ...], List[int]] = {}
        for i in commits:
            device = devices[i]
            power = device._ff_commit_begin(pending[i])
            entries.append((i, power))
            meter = device.meter
            key = (power, pending[i] * device.clock.tick_s,
                   meter.sample_interval_s, meter.noise_fraction,
                   meter._window_time, meter._window_energy, meter._now)
            feed_groups.setdefault(key, []).append(i)
        for key, group in feed_groups.items():
            power, span, _, noise = key[:4]
            meters = [devices[i].meter for i in group]
            if len(meters) >= 2 and noise == 0.0:
                meters[0].feed_cohort(meters[1:], power, span)
            else:
                for meter in meters:
                    meter.feed(power, span)
        for i, power in entries:
            devices[i]._ff_commit_finish(pending[i], power)

    def _run_independent(self, chunk: float) -> None:
        """Advance every device to the next barrier, cohorts stacked.

        The event-time-bucketed frontier scheduler.  Each device's
        next action is decided by its *own* horizon poll — exactly the
        poll ``device.run(chunk)`` would make — and the fleet keeps a
        min-heap of the resulting landing instants:

        * **poll** — one :meth:`~repro.sim.engine.CinderSystem._ff_poll`
          per device per action, against that device's own deadline
          (``its clock.now + chunk``, bit-identical to ``device.run``).
          A macro answer (``ticks >= 2``) lands the device at
          ``(clock.ticks + ticks) * tick_s``; a must-tick answer lands
          it one tick ahead.  The pending tick count is cached with
          the heap entry — the device is untouched between push and
          pop (devices share no mutable state between barriers), so
          the cached answer is exactly what a fresh poll would return;
        * **bucket** — each round pops every entry sharing the minimum
          landing key.  Keys are quantized to integer nanoseconds
          (``round(landing * 1e9)``) so mixed tick grids whose landing
          instants agree physically but differ in float representation
          still share a bucket.  Quantization only affects *grouping*:
          the spans advanced come from each device's own tick count
          and tick size, never from the key;
        * **advance** — macro members are grouped by
          ``(cohort_token, lam)`` exactly as :meth:`_fleet_macro` and
          solved in one stacked
          :func:`~repro.core.spansolver.execute_span_batch` call with
          a **per-device span vector** (devices at different clocks
          share one eigendecomposition and one switch-location scan).
          Singleton groups solve scalar.  A stacked drop-out retries
          scalar (:attr:`cohort_fallbacks` / :attr:`cohort_demotions`,
          same as lockstep).  A refusal — frozen-tap arbitration or a
          genuinely unsupported regime — takes **one** normal step and
          re-polls, mirroring ``device.run``'s refusal fallthrough
          (the lockstep scheduler instead ticks a refused device
          through the whole fleet span; the independent path never
          did, and the frontier keeps that contract).  Must-tick
          members batch through :meth:`_fleet_tick` when two or more
          share a bucket;
        * **re-poll** — after its action each device re-enters the
          heap unless it has landed on the barrier
          (``now >= deadline - 1e-12``).

        Every device therefore executes the *same sequence* of polls,
        macro-commits and steps as the per-device loop — the frontier
        is a pure reordering across devices — which the parity suite
        pins bit-identically.  :attr:`barrier_rounds` counts each
        frontier round; :attr:`independent_cohort_spans` /
        :attr:`independent_scalar_spans` split the macro-solve counts.
        """
        devices = self.devices
        n = len(devices)
        deadlines = [d.clock.now + chunk for d in devices]
        pending = [0] * n
        #: Device's last macro poll was firm *and* executing: landing
        #: on it, a fresh poll provably answers "tick now" (the same
        #: shortcut the lockstep horizon cache takes), so the re-poll
        #: after the commit is skipped — the poll is read-only, so
        #: skipping a determined answer is invisible to the device.
        must_step = [False] * n
        skip_poll = [False] * n
        heap: List[Tuple[int, int]] = []

        def push(i: int) -> None:
            device = devices[i]
            clock = device.clock
            if clock.now >= deadlines[i] - 1e-12:
                return
            if skip_poll[i]:
                skip_poll[i] = False
                ticks = 0
                self.horizon_cache_hits += 1
            else:
                self.horizon_polls += 1
                ticks, firm, executes = device._ff_poll(deadlines[i])
                must_step[i] = ticks >= 2 and firm and executes
            pending[i] = ticks
            land = (clock.ticks + (ticks if ticks >= 2 else 1)) \
                * clock.tick_s
            heapq.heappush(heap, (round(land * 1e9), i))

        for i in range(n):
            push(i)
        while heap:
            key = heap[0][0]
            bucket: List[int] = []
            while heap and heap[0][0] == key:
                bucket.append(heapq.heappop(heap)[1])
            self.barrier_rounds += 1
            refused: List[int] = []
            steppers: List[int] = []
            groups: Dict[Tuple[int, float],
                         List[Tuple[int, object]]] = {}
            singles: List[Tuple[int, object]] = []
            for i in bucket:
                if pending[i] < 2:
                    steppers.append(i)
                    continue
                device = devices[i]
                frozen = device._ff_begin()
                if frozen is None:
                    refused.append(i)
                    continue
                graph = device.graph
                plan = graph.span_plan_handle(frozen)
                policy = graph.decay_policy
                lam = policy.lam if policy.enabled else 0.0
                groups.setdefault((self._cohort_token(plan), lam),
                                  []).append((i, plan))
            for members in groups.values():
                if len(members) < 2:
                    singles.extend(members)
                    continue
                tiers = [plan.span_tier for _, plan in members]
                spans = np.array([pending[i] * devices[i].clock.tick_s
                                  for i, _ in members])
                results = _spansolver.execute_span_batch(tiers, spans)
                commits: List[int] = []
                for (i, plan), moved in zip(members, results):
                    device = devices[i]
                    span_i = pending[i] * device.clock.tick_s
                    if moved is None:
                        self.cohort_fallbacks += 1
                        moved = plan.execute_span(span_i)
                        if moved is None:
                            device._ff_refuse()
                            refused.append(i)
                        else:
                            self.cohort_demotions += 1
                            self.independent_scalar_spans += 1
                            plan.graph.note_span(span_i)
                            commits.append(i)
                    else:
                        plan.graph.note_span(span_i)
                        commits.append(i)
                        self.cohort_spans += 1
                        self.independent_cohort_spans += 1
                        device.independent_cohort_spans += 1
                self._commit_cohort(commits, pending)
                for i in commits:
                    skip_poll[i] = must_step[i]
            for i, plan in singles:
                device = devices[i]
                span_i = pending[i] * device.clock.tick_s
                moved = plan.execute_span(span_i)
                if moved is None:
                    device._ff_refuse()
                    refused.append(i)
                else:
                    self.independent_scalar_spans += 1
                    plan.graph.note_span(span_i)
                    device._ff_commit(pending[i])
                    skip_poll[i] = must_step[i]
            if len(steppers) >= 2:
                self._fleet_tick(steppers)
            else:
                for i in steppers:
                    devices[i].step()
            for i in refused:
                devices[i].step()
            for i in bucket:
                push(i)

    # -- running -------------------------------------------------------------------

    def run(self, duration_s: float, barrier_s: Optional[float] = None,
            independent: Optional[bool] = None) -> None:
        """Advance the whole fleet by ``duration_s`` of simulated time.

        Two schedulers:

        * **lockstep** (``independent=False``; the default on a
          uniform tick grid) — the global min-horizon iteration,
          cohort-batched when :attr:`batched`.  Best when the fleet's
          events align (synchronized workloads, shared record
          cadences on probed devices): one iteration serves everyone.
        * **independent** (``independent=True``; the default — and
          only option — on mixed tick grids) — each device
          macro-steps *on its own horizon* to the next shared clock
          barrier (every ``barrier_s``, default the whole duration),
          where the fleet re-synchronizes.  Devices are mutually
          independent between barriers (they share no state but the
          stateless remote-host universe), so per-device trajectories
          are sample-identical to lockstep — but one device's events
          no longer force a fleet-wide iteration, which is the
          difference between O(N · fleet-events) and O(N + own-events)
          at 1000 devices of staggered pollers.  With
          :attr:`independent_cohorts` (the default) the independent
          path runs the event-time-bucketed frontier scheduler
          (:meth:`_run_independent`): devices whose landing instants
          coincide solve their spans in one stacked cohort call, so
          staggered fleets keep the batch tier.
          ``independent_cohorts=False`` keeps the plain
          ``device.run(chunk)`` loop as the differential oracle.

        Barrier instants must land on every device's tick grid; the
        fleet's LCM tick period (:meth:`barrier_period`) is the
        finest admissible spacing.
        """
        if duration_s < 0:
            raise SimulationError("duration must be non-negative")
        if not self.devices:
            raise SimulationError("world has no devices")
        if independent is None:
            independent = not self.uniform_grid()
        if not independent and not self.uniform_grid():
            raise SimulationError(
                "lockstep needs a uniform tick grid; mixed-grid fleets "
                "advance independently between barriers")
        period = duration_s if barrier_s is None else barrier_s
        if barrier_s is not None and barrier_s <= 0:
            raise SimulationError("barrier must be positive")
        if independent:
            # Independent devices must *land* exactly on each barrier
            # or they desynchronize; lockstep fleets keep the
            # single-device semantics (an off-grid deadline simply
            # rounds up to the next whole tick for everyone at once).
            grid = self.barrier_period()
            if barrier_s is not None:
                ratio = barrier_s / grid
                if abs(ratio - round(ratio)) > 1e-9:
                    raise SimulationError(
                        f"barrier {barrier_s} s is not a multiple of the "
                        f"fleet's grid ({grid} s)")
            ratio = duration_s / grid
            if abs(ratio - round(ratio)) > 1e-9:
                raise SimulationError(
                    f"duration {duration_s} s does not land on the "
                    f"fleet's grid ({grid} s)")
        end = self.now + duration_s
        while self.now < end - 1e-12:
            chunk = min(period, end - self.now)
            if independent:
                if self.independent_cohorts:
                    self._run_independent(chunk)
                else:
                    for device in self.devices:
                        device.run(chunk)
                    # The legacy loop cannot observe its devices'
                    # internal iterations: one round per chunk (see
                    # the counter's docstring for the frontier
                    # scheduler's exact accounting).
                    self.barrier_rounds += 1
            else:
                deadline = self.now + chunk
                if self.batched:
                    self._reset_horizons()
                    while self.now < deadline - 1e-12:
                        self._advance_once_batched(deadline)
                else:
                    while self.now < deadline - 1e-12:
                        self._advance_once(deadline)

    def run_until(self, predicate: Callable[[], bool],
                  max_s: float = 36_000.0) -> float:
        """Run until ``predicate()`` or ``max_s``; returns elapsed time.

        The predicate is checked after every world iteration — every
        normal tick and every global event horizon — and each
        iteration is capped at the fleet's next trace-record instant,
        as :meth:`~repro.sim.engine.DeviceRuntime.run_until` caps a
        single device.  Requires a uniform tick grid (mixed-grid
        fleets only synchronize at barriers, which would starve the
        predicate).
        """
        if not self.devices:
            raise SimulationError("world has no devices")
        if not self.uniform_grid():
            raise SimulationError(
                "run_until needs a uniform tick grid (mixed-grid fleets "
                "only observe shared state at barriers)")
        start = self.now
        deadline = start + max_s
        if self.batched:
            self._reset_horizons()
        while not predicate():
            if self.now - start >= max_s:
                raise SimulationError(
                    f"run_until exceeded {max_s} simulated seconds")
            cap = min(deadline,
                      min(d._next_record() for d in self.devices))
            if self.batched:
                self._advance_once_batched(cap)
            else:
                self._advance_once(cap)
        return self.now - start

    # -- checkpointing -----------------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialize this world to a digest-validated snapshot blob.

        Delegates to :func:`repro.sim.checkpoint.snapshot_world`: the
        returned bytes embed the fleet's bit-exact state digest and
        :meth:`restore` refuses to load a blob that fails it.  Worlds
        running live simulated programs (generators) cannot snapshot
        and raise :class:`~repro.errors.CheckpointError` — recover
        those by rebuild-and-replay instead (see
        :mod:`repro.sim.checkpoint`).
        """
        from .checkpoint import snapshot_world
        return snapshot_world(self)

    @staticmethod
    def restore(payload: bytes) -> "World":
        """Load a :meth:`snapshot` blob, re-validating its digest."""
        from .checkpoint import restore_snapshot
        return restore_snapshot(payload)

    # -- fleet reporting -----------------------------------------------------------

    def total_metered_energy(self) -> float:
        """Sum of every device meter's integrated energy (joules)."""
        return sum(d.meter.total_energy_joules for d in self.devices)

    def total_radio_activations(self) -> int:
        """Radio power-ups across the fleet."""
        return sum(d.radio.activation_count for d in self.devices)

    def conservation_error(self) -> float:
        """Worst absolute per-device graph conservation error."""
        if not self.devices:
            return 0.0
        return max(abs(d.graph.conservation_error()) for d in self.devices)
