"""Worlds: many Cinder devices on one shared clock.

A :class:`World` runs N devices on a shared time grid:

* every device is constructed on the world's ``tick_s`` and (by
  default) the world's shared :class:`~repro.net.remote.RemoteHosts`,
  so all devices talk to the same synthetic server universe;
* devices share no mutable state between events — each has its own
  battery-rooted graph of reserves and taps — so the fleet needs no
  global clock between **barriers**: every device macro-steps on its
  *own* horizon (the min over its own event sources) up to the next
  barrier instant, where the fleet re-synchronizes.  A device whose
  closed form refuses a span (a state-dependent refusal: frozen-tap
  arbitration, a genuinely unsupported regime) takes one normal step
  and re-polls, exactly as :meth:`~repro.sim.engine.DeviceRuntime.run`
  does;
* devices may run on **different tick grids**: barrier instants must
  lie on every device's grid, so durations and barrier spacings are
  multiples of the least common multiple of the tick periods (on a
  uniform fleet, of ``tick_s``).

One scheduler runs the fleet: the event-time-bucketed **frontier**
(:meth:`World._run_independent`).  It keeps a min-heap of each
device's next landing instant and, per round, advances every device
landing on the minimum instant together:

* **cohorts** — devices whose compiled
  :class:`~repro.core.flowplan.FlowPlan` signatures match (same live
  topology, same frozen-tap set, same decay constant) solve their
  spans in one stacked call
  (:func:`repro.core.spansolver.execute_span_batch`, one
  eigendecomposition per cohort on coupled topologies), commit their
  meter feeds through one batched feed, and tick together through
  :func:`repro.core.flowplan.execute_tick_batch`.  A device whose
  topology diverges — or whose span the stacked solve refuses — falls
  out of the cohort to the per-device path, counted in
  :attr:`World.cohort_fallbacks`;
* **poll skipping** — landing on a firm, executing horizon (a timer
  deadline, a sleeper wake) provably answers "tick now", so that
  re-poll is skipped (:attr:`World.horizon_cache_hits`).

``batched=False`` keeps one differential oracle: the plain
per-device ``device.run(chunk)`` loop, of which the frontier is a
pure reordering across devices (the parity suite pins the two
bit-identical on diagonal topologies).  ``fast_forward=False``
disables macro-stepping entirely (the tick-slicing baseline) and
also runs the oracle loop.  Process-level sharding — partitions of a
fleet advancing in parallel worker processes between clock barriers
— lives in :mod:`repro.sim.shards` on top of this class.

A one-device world is *sample-for-sample identical* to running the
bare :class:`~repro.sim.engine.CinderSystem` — the frontier makes the
same polls, spans and steps as ``run`` (the differential tests pin
this).
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
                 seed: int = 0) -> None:
        if tick_s <= 0:
            raise SimulationError("tick must be positive")
        self.tick_s = tick_s
        #: The shared remote-server universe every device talks to.
        self.hosts = hosts if hosts is not None else RemoteHosts.default()
        self.fast_forward = fast_forward
        #: The frontier scheduler (:meth:`_run_independent`).  The
        #: plain per-device ``device.run(chunk)`` loop survives at
        #: ``batched=False`` as the differential oracle.
        self.batched = batched and fast_forward
        self.seed = seed
        self.devices: List[DeviceRuntime] = []
        self._by_name: Dict[str, DeviceRuntime] = {}
        #: Telemetry of the deleted lockstep schedulers, kept (always
        #: 0) because fleet reports and benchmarks read them by name.
        self.macro_steps = 0
        self.tick_steps = 0
        #: Telemetry: frontier rounds — each pop-the-frontier-bucket-
        #: and-advance round is one, so refusals and staggered
        #: horizons show up as extra rounds.  The oracle loop
        #: (``batched=False``) cannot observe its devices' internal
        #: iterations and counts one round per barrier chunk.
        self.barrier_rounds = 0
        #: Telemetry: device-spans solved through a stacked cohort
        #: call vs scalar (a singleton bucket/cohort, or a stacked
        #: drop-out whose scalar retry still macro-stepped).
        self.independent_cohort_spans = 0
        self.independent_scalar_spans = 0
        #: Telemetry: device-spans solved through a stacked cohort
        #: call (switch-bound spans included — the batched segment
        #: chain carries them in-batch; equal to
        #: :attr:`independent_cohort_spans`), device-ticks stepped
        #: through a stacked tick kernel, and devices that fell out of
        #: a cohort to the per-device path (a stacked span or tick the
        #: batch kernel refused).  A fallback whose scalar solve still
        #: macro-stepped is additionally counted in
        #: :attr:`cohort_demotions`: the device left the stacked call
        #: but did not degrade to ticking.  Demotions count only
        #: shapes the stacked chain cannot carry (Padé-only
        #: propagators or failed batch certificates), never plain
        #: switch-bound cohorts.
        self.cohort_spans = 0
        self.cohort_ticks = 0
        self.cohort_fallbacks = 0
        self.cohort_demotions = 0
        #: Telemetry: horizon polls skipped because the answer was
        #: determined (see :meth:`_run_independent`) vs polls made.
        self.horizon_cache_hits = 0
        self.horizon_polls = 0
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
        stay barrier-aligned from the moment they join.
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
        # One rationalization per distinct period: ``run`` validates
        # against this on every call, and most fleets share one grid.
        fractions = [Fraction(tick_s).limit_denominator(10 ** 9)
                     for tick_s in {d.clock.tick_s for d in self.devices}]
        num = 1
        den = 0  # gcd identity
        for fr in fractions:
            num = num * fr.numerator // math.gcd(num, fr.numerator)
            den = math.gcd(den, fr.denominator)
        return float(Fraction(num, den))

    # -- the frontier scheduler -------------------------------------------------------

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

    def _fleet_tick(self, indices: List[int]) -> None:
        """One tick for the given devices, cohorts stacked.

        The tick grid enters the cohort key: a mixed-grid fleet's
        stepper bucket may hold devices on different grids, and
        :func:`~repro.core.flowplan.execute_tick_batch` takes one
        shared ``dt``.
        """
        devices = self.devices
        if len(indices) < 2:
            for i in indices:
                devices[i].step()
            return
        groups: Dict[Tuple[int, float, float],
                     List[Tuple[int, object]]] = {}
        for i in indices:
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
        for i in indices:
            devices[i].step(graph_done=done.get(i, False))

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
          ``(cohort_token, lam)`` and solved in one stacked
          :func:`~repro.core.spansolver.execute_span_batch` call with
          a **per-device span vector** (devices at different clocks
          share one eigendecomposition and one switch-location scan).
          Singleton groups solve scalar.  A stacked drop-out retries
          scalar (:attr:`cohort_fallbacks` / :attr:`cohort_demotions`).
          A refusal — frozen-tap arbitration or a genuinely
          unsupported regime — takes **one** normal step and re-polls,
          mirroring ``device.run``'s refusal fallthrough.  Must-tick
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
        #: on it, a fresh poll provably answers "tick now", so the
        #: re-poll after the commit is skipped — the poll is
        #: read-only, so skipping a determined answer is invisible to
        #: the device.
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
            self._fleet_tick(steppers)
            for i in refused:
                devices[i].step()
            for i in bucket:
                push(i)

    # -- running -------------------------------------------------------------------

    def _advance(self, chunk: float) -> None:
        """Land every device ``chunk`` seconds ahead."""
        if self.batched:
            self._run_independent(chunk)
            return
        for device in self.devices:
            device.run(chunk)
        # The oracle cannot observe its devices' internal iterations:
        # one round per chunk.
        self.barrier_rounds += 1

    def run(self, duration_s: float, barrier_s: Optional[float] = None,
            independent: Optional[bool] = None) -> None:
        """Advance the whole fleet by ``duration_s`` of simulated time.

        Each device macro-steps *on its own horizon* to the next
        shared clock barrier (every ``barrier_s``, default the whole
        duration), where the fleet re-synchronizes.  Devices are
        mutually independent between barriers (they share no state
        but the stateless remote-host universe), so one device's
        events never force a fleet-wide iteration: the cost is
        O(N + own-events), not O(N · fleet-events).  With
        :attr:`batched` (the default) the frontier scheduler
        (:meth:`_run_independent`) advances the fleet, stacking the
        spans and ticks of devices whose landing instants coincide;
        ``batched=False`` runs the plain ``device.run(chunk)`` loop,
        the differential oracle.

        ``independent`` is accepted for callers that name the
        scheduler; ``independent=False`` (the deleted lockstep
        scheduler) raises.  Durations and barriers must land on every
        device's tick grid; the fleet's LCM tick period
        (:meth:`barrier_period`) is the finest admissible spacing.
        """
        if duration_s < 0:
            raise SimulationError("duration must be non-negative")
        if not self.devices:
            raise SimulationError("world has no devices")
        if independent is False:
            raise SimulationError(
                "the lockstep scheduler is gone; every fleet advances "
                "independently between barriers")
        if barrier_s is not None and barrier_s <= 0:
            raise SimulationError("barrier must be positive")
        # Devices must *land* exactly on each barrier or they
        # desynchronize.
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
        period = duration_s if barrier_s is None else barrier_s
        end = self.now + duration_s
        while self.now < end - 1e-12:
            self._advance(min(period, end - self.now))

    def run_until(self, predicate: Callable[[], bool],
                  max_s: float = 36_000.0) -> float:
        """Run until ``predicate()`` or ``max_s``; returns elapsed time.

        Each iteration lands the whole fleet on its minimum horizon
        (at least one tick), capped at the fleet's next trace-record
        instant as :meth:`~repro.sim.engine.DeviceRuntime.run_until`
        caps a single device, and then checks the predicate — after
        every normal tick and every global event horizon.  Requires a
        uniform tick grid (mixed-grid fleets only synchronize at
        barriers, which would starve the predicate).
        """
        if not self.devices:
            raise SimulationError("world has no devices")
        if not self.uniform_grid():
            raise SimulationError(
                "run_until needs a uniform tick grid (mixed-grid fleets "
                "only observe shared state at barriers)")
        start = self.now
        deadline = start + max_s
        while not predicate():
            if self.now - start >= max_s:
                raise SimulationError(
                    f"run_until exceeded {max_s} simulated seconds")
            cap = min(deadline,
                      min(d._next_record() for d in self.devices))
            ticks = min(d._ff_poll(cap)[0] for d in self.devices)
            self._advance(max(ticks, 1) * self.tick_s)
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
