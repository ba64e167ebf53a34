"""The simulation engine: one tick of Cinder, repeated.

Each tick (default 10 ms) the engine performs, in order:

1. **batch tap flow and decay** — ``graph.step`` (paper §3.3:
   "transfers are executed in batch periodically");
2. **device state machines** — the radio's timeout, netd's admission
   pump (unblocking pooled waiters, §5.5.2), attached device steppers;
3. **timers and process resumption** — sleeps expire, completed
   network operations resume their generators;
4. **the energy-aware scheduler** — one quantum, billed to the running
   thread's active reserve (§3.2);
5. **physical power integration** — the true system draw (baseline +
   CPU + backlight + radio + devices) feeds the simulated Agilent
   meter and drains the physical battery.

The *logical* energy graph and the *physical* meter are deliberately
separate books: the graph holds Cinder's budget abstraction; the meter
reports what an instrumented power supply would see.  Experiments
compare the two, exactly as the paper's figures do.

Architecturally the runtime is split in two:

* :class:`DeviceRuntime` — the component-built engine.  It owns the
  clock, kernel, scheduler, radio, netd, meter, battery and trace it
  is handed, and drives them through the tick loop and the
  event-source fast-forward (every skippable component registers an
  :class:`~repro.sim.events.EventSource` on the runtime's
  :class:`~repro.sim.events.Horizon`; the engine itself only computes
  min-over-sources).
* :class:`CinderSystem` — the thin facade almost all callers use: the
  paper-default assembly of those components (HTC Dream power model,
  §5.5 netd, Agilent meter), same constructor signature as ever.

:class:`~repro.sim.world.World` reuses the same two primitives to run
many ``DeviceRuntime`` instances on one shared tick grid.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.accounting import ConsumptionLedger
from ..core.decay import DecayPolicy
from ..core.graph import ResourceGraph
from ..core.reserve import Reserve
from ..core.scheduler import EnergyAwareScheduler
from ..energy.battery import Battery
from ..energy.meter import PowerMeter
from ..energy.model import DreamPowerModel
from ..errors import SimulationError
from ..kernel.kernel import Kernel
from ..net.netd import NetworkDaemon, PendingOp
from ..net.radio import RadioDevice
from ..net.remote import RemoteHosts
from .clock import Clock, ClockNow, ClockTicks
from .events import (DevicePort, EventSource, Horizon, ProcessTableSource,
                     RadioSource, SchedulerSource, SleeperHeapSource,
                     TimerHeapSource, TraceCadenceSource)
from .process import (CpuBurn, Fork, NetRequest, Process, ProcessContext,
                      Request, ServiceCall, Sleep, SleepUntil, WaitFor)
from .trace import TraceRecorder


class DeviceRuntime:
    """One simulated device, assembled from pluggable components.

    The runtime does not construct its components — it is handed them
    (see :class:`CinderSystem` for the paper-default wiring) and owns
    only the glue: the tick loop, the process table, the timer and
    sleeper indexes, and the event-source horizon that makes idle
    spans skippable.
    """

    def __init__(
        self,
        *,
        model: DreamPowerModel,
        clock: Clock,
        kernel: Kernel,
        scheduler: EnergyAwareScheduler,
        ledger: ConsumptionLedger,
        radio: RadioDevice,
        netd: NetworkDaemon,
        meter: PowerMeter,
        battery: Battery,
        trace: Optional[TraceRecorder] = None,
        rng: Optional[np.random.Generator] = None,
        record_interval_s: float = 0.2,
        backlight_on: bool = False,
        fast_forward: bool = True,
    ) -> None:
        self.model = model
        self.clock = clock
        self.kernel = kernel
        self.graph: ResourceGraph = self.kernel.energy_graph
        self.ledger = ledger
        self.scheduler = scheduler
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.radio = radio
        self.netd = netd
        self.netd_gate = self.netd.make_gate(self.kernel)
        self.meter = meter
        self.battery = battery
        self.trace = trace if trace is not None else TraceRecorder()
        self.record_interval_s = record_interval_s
        self.backlight_on = backlight_on
        self.processes: List[Process] = []
        self._net_ops: Dict[Process, PendingOp] = {}
        #: In-flight ServiceCall waits: process -> (request, op handle).
        self._service_ops: Dict[Process, tuple] = {}
        self._timers: List = []
        self._timer_seq = itertools.count()
        self._last_record = -float("inf")
        #: Extra devices: per-tick steppers and power contributions.
        self._device_steppers: List[Callable[[float], None]] = []
        self._power_sources: List[Callable[[float], float]] = []
        self._device_ports: List[DevicePort] = []
        # -- event-driven process indexes (replace per-tick O(processes)
        #    scans; see _pump_processes) --
        #: thread -> its process, for O(1) quantum accounting.
        self._by_thread: Dict[Any, Process] = {}
        #: Min-heap of (wake_at, seq, process, request) for sleepers.
        self._sleepers: List = []
        self._sleep_seq = itertools.count()
        #: Processes blocked on a WaitFor predicate (polled per tick).
        self._waiting: List[Process] = []
        #: Spawned but not yet started (first advanced next pump).
        self._new_processes: List[Process] = []
        #: Skip event-free idle spans in one macro-step.
        self.fast_forward = fast_forward
        #: Telemetry: ticks skipped by fast-forward macro-steps.
        self.fast_forwarded_ticks = 0
        #: Telemetry: degraded windows — maximal runs of consecutive
        #: ticks whose spans the graph's closed form refused (the
        #: engine ticked through them instead).  A refusal usually
        #: repeats on every retry until the state changes, so windows,
        #: not retries, are the meaningful count.  Chained topologies
        #: used to land here wholesale (until the coupled span solver)
        #: and piecewise-linear switches — mid-span clamps, binding
        #: capacities, debt repayment — after them (until the
        #: segmented engine, which counts its work in
        #: :attr:`span_segments` instead); only the residual
        #: unsupported regimes remain.
        self.span_refusals = 0
        self._span_refusing = False
        #: Telemetry: spans this device solved inside a stacked cohort
        #: call on a world's *independent* (frontier) scheduler.
        #: Incremented by :meth:`repro.sim.world.World._run_independent`
        #: — the engine itself never batches; the counter lives here so
        #: sharded digests can carry it per device.
        self.independent_cohort_spans = 0
        #: Telemetry: committed spans per the name of the event source
        #: whose instant ended them (``"deadline"`` when the run's
        #: deadline did; ``"fleet"`` when a scheduler committed the
        #: span short of this device's own polled horizon, which
        #: neither the frontier nor ``run`` does).  Kept out of state
        #: digests: it describes how a run was cut, not its outcome.
        self.span_ends: Dict[str, int] = {}
        self._span_target = -1
        self._span_bound = "deadline"
        # -- the event-source horizon: everything that can end (or
        #    forbid) an idle span registers here; the engine itself is
        #    a generic min-over-sources loop --
        self.horizon = Horizon()
        self.horizon.add(TimerHeapSource(self._timers))
        self.horizon.add(SleeperHeapSource(self))
        self.horizon.add(TraceCadenceSource(self))
        self.horizon.add(SchedulerSource(self.scheduler))
        self.horizon.add(ProcessTableSource(self))
        self.horizon.add(RadioSource(self.radio))
        # netd implements the EventSource protocol itself (closed-form
        # pooled-wait accrual); wire it onto the engine's tick grid.
        self.netd.tick_s = self.clock.tick_s
        self.netd._ticks = ClockTicks(self.clock)
        self.horizon.add(self.netd)

    def add_device(self,
                   stepper: Optional[Callable[[float], None]] = None,
                   power: Optional[Callable[[float], float]] = None,
                   source: Optional[EventSource] = None) -> DevicePort:
        """Attach an extra device to the tick loop.

        ``stepper(now)`` runs with the other device state machines;
        ``power(now)`` returns the device's draw above baseline and is
        added to the metered system power.  The GPS subsystem uses
        this; any future peripheral model can too.

        Fast-forward semantics follow :class:`~repro.sim.events.DevicePort`:
        a ``source`` makes the device a first-class event source (its
        ``advance_span`` must replay whatever its stepper would have
        done); a stepper without a source vetoes macro-steps; a
        power-only device is treated as constant-draw between events
        and no longer blocks fast-forward.  A power callable whose
        draw varies on its own schedule must therefore declare those
        change instants via ``source`` (or register a stepper) —
        otherwise fast-forwarded spans integrate the span-start value.
        """
        port = DevicePort(stepper=stepper, power=power, source=source)
        if stepper is not None:
            self._device_steppers.append(stepper)
        if power is not None:
            self._power_sources.append(power)
        self._device_ports.append(port)
        self.horizon.add(port)
        return port

    def attach_gps(self, device=None, params=None,
                   margin: float = 1.1) -> "GpsDaemon":
        """Attach a pooled GPS daemon as a first-class event source.

        Builds (or adopts) a :class:`~repro.sensors.gps.GpsDevice`,
        wires a :class:`~repro.sensors.gps.GpsDaemon` onto this
        runtime's clock and tick grid, and registers it through
        :meth:`add_device` with the daemon itself as the port's
        ``source`` — so pooled-acquisition waits macro-step through
        the daemon's closed-form accrual exactly like netd's, and
        receiver state changes (fix ready, linger expiry) bound spans
        as declared events.  Programs block on a fix with
        :func:`repro.sensors.gps.fix_request`.
        """
        from ..sensors.gps import GpsDaemon, GpsDevice
        if device is not None and params is not None:
            raise SimulationError(
                "pass either a constructed GpsDevice or GpsPowerParams, "
                "not both (the device already carries its params)")
        if device is None:
            device = GpsDevice(params)
        daemon = GpsDaemon(self.graph, device,
                           clock=ClockNow(self.clock), margin=margin,
                           tick_s=self.clock.tick_s,
                           ticks=ClockTicks(self.clock))
        self.add_device(stepper=daemon.step,
                        power=device.power_above_baseline, source=daemon)
        return daemon

    def attach_accel(self, device=None, params=None) -> "AccelDaemon":
        """Attach a warm-up-amortized accelerometer as an event source.

        Builds (or adopts) an :class:`~repro.sensors.accel.AccelDevice`,
        wires an :class:`~repro.sensors.accel.AccelDaemon` onto this
        runtime's clock, and registers it through :meth:`add_device`
        with the daemon itself as the port's ``source`` — warm-up
        waits declare their ready instant as an event and the sensor's
        draw is constant between events, so blocked reads macro-step
        to their exact delivery tick.  Programs block on a reading
        with :func:`repro.sensors.accel.sample_request`.
        """
        from ..sensors.accel import AccelDaemon, AccelDevice
        if device is not None and params is not None:
            raise SimulationError(
                "pass either a constructed AccelDevice or "
                "AccelPowerParams, not both (the device already carries "
                "its params)")
        if device is None:
            device = AccelDevice(params)
        daemon = AccelDaemon(device, clock=ClockNow(self.clock))
        self.add_device(stepper=daemon.step,
                        power=device.power_above_baseline, source=daemon)
        return daemon

    # -- wiring helpers ---------------------------------------------------------------

    @property
    def battery_reserve(self) -> Reserve:
        """The root of the resource graph (the logical battery, §3.4)."""
        return self.graph.root

    def new_reserve(self, name: str = "", decay_exempt: bool = False
                    ) -> Reserve:
        """An empty reserve, registered with both graph and kernel."""
        return self.kernel.create_reserve(name=name,
                                          decay_exempt=decay_exempt)

    def powered_reserve(self, watts: float, name: str = "",
                        source: Optional[Reserve] = None) -> Reserve:
        """A reserve fed by a constant tap (from the battery by default).

        This is the Figure 1 pattern and the workhorse of every
        experiment setup.
        """
        reserve = self.new_reserve(name=name)
        self.kernel.create_tap(source if source is not None
                               else self.battery_reserve,
                               reserve, watts, name=f"{name}.in")
        return reserve

    # -- processes ------------------------------------------------------------------------

    def spawn(self, program: Callable[[ProcessContext], Generator],
              name: str, reserve: Optional[Reserve] = None) -> Process:
        """Create a process (kernel thread + generator) ready to run."""
        thread = self.kernel.create_thread(name=name)
        if reserve is not None:
            thread.set_active_reserve(reserve)
        self.scheduler.add_thread(thread)
        context = ProcessContext(self, None)  # type: ignore[arg-type]
        process = Process(name, thread, program, context)
        context.process = process
        process.spawn_order = len(self.processes)
        self.processes.append(process)
        self._by_thread[thread] = process
        self._new_processes.append(process)
        return process

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at simulation time ``when`` (engine-side
        scripting: the task manager schedules, figures use it too)."""
        if when < self.clock.now:
            raise SimulationError(f"cannot schedule in the past ({when})")
        heapq.heappush(self._timers, (when, next(self._timer_seq), callback))

    # -- the tick ---------------------------------------------------------------------------

    def step(self, graph_done: bool = False) -> None:
        """Advance the system by one tick.

        ``graph_done`` is the fleet scheduler's hook: when the world
        has already executed this tick's batch flow for a whole cohort
        in one stacked kernel call, the per-device step skips phase 1
        and runs the rest of the tick unchanged.
        """
        dt = self.clock.tick_s
        now = self.clock.now

        # 1. batch tap flow + global decay (§3.3, §5.2.2)
        if not graph_done:
            self.graph.step(dt)

        # 2. device state machines
        self.radio.tick(now)
        self.netd.step(now)
        for stepper in self._device_steppers:
            stepper(now)

        # 3. timers, then process resumption
        while self._timers and self._timers[0][0] <= now + 1e-12:
            _, _, callback = heapq.heappop(self._timers)
            callback()
        self._pump_processes(now)

        # 4. one scheduler quantum
        ran = self.scheduler.step(dt)
        if ran is not None:
            self._account_burn(ran, dt)

        # 5. physical power integration
        radio_watts = self.radio.power_above_baseline(now)
        if self._power_sources:
            radio_watts += sum(source(now)
                               for source in self._power_sources)
        power = self.model.system_power(cpu_busy=ran is not None,
                                        backlight_on=self.backlight_on,
                                        radio_watts=radio_watts)
        self.meter.feed(power, dt)
        self.battery.drain(power * dt)
        if self._record_due(now):
            self.trace.record("power.system", now, power)
            self.trace.record("power.radio", now, radio_watts)
            self.trace.sample_probes(now)
            self._last_record = now

        self.clock.advance()

    def _record_due(self, now: float) -> bool:
        """The record cadence: due once ``record_interval_s`` has
        passed since the last record (with a 1e-12 s slack)."""
        return now - self._last_record >= self.record_interval_s - 1e-12

    def _next_record(self) -> float:
        """The earliest instant the next trace record can fall due."""
        return self._last_record + self.record_interval_s

    def _record_span(self, ticks: int, power: float,
                     radio_watts: float) -> None:
        """Write the power records falling due inside a committed span.

        A probe-free device's span is not ended by the record cadence
        (see :class:`~repro.sim.events.TraceCadenceSource`), so every
        tick ``k`` in ``[k0, k0 + ticks)`` whose :meth:`step` would
        have recorded is found here in closed form, with
        :meth:`_record_due` at ``now = k * tick_s`` — the exact instant
        and test the tick loop uses.  Power is constant across the
        span, so the values are the ones :meth:`step` would write.
        """
        tick_s = self.clock.tick_s
        k = self.clock.ticks
        end = k + ticks
        times: List[float] = []
        while k < end:
            due = self._next_record()
            if math.isfinite(due):
                # The 1e-12 s slack moves the due tick at most one
                # tick before the nominal ceil; the scan below decides.
                k = max(k, math.ceil(due / tick_s) - 1)
            elif due > 0.0:
                break  # an infinite interval never records again
            while k < end and not self._record_due(k * tick_s):
                k += 1
            if k >= end:
                break
            now = k * tick_s
            times.append(now)
            self._last_record = now
            k += 1
        if times:
            self.trace.record_run("power.system", times, power)
            self.trace.record_run("power.radio", times, radio_watts)

    def run(self, duration_s: float) -> None:
        """Step until ``duration_s`` of simulated time has elapsed.

        When :attr:`fast_forward` is on and every event source is
        quiescent, whole event-free spans are advanced in one
        macro-step — closed-form flow/decay, one meter feed — instead
        of millions of no-op ticks.  Every event still lands on the
        exact tick it would land on tick-by-tick.
        """
        if duration_s < 0:
            raise SimulationError("duration must be non-negative")
        deadline = self.clock.now + duration_s
        while self.clock.now < deadline - 1e-12:
            ticks = self._ff_horizon_ticks(deadline)
            if ticks and self._ff_advance(ticks):
                continue
            self.step()

    def run_until(self, predicate: Callable[[], bool],
                  max_s: float = 36_000.0) -> float:
        """Step until ``predicate()`` or ``max_s``; returns elapsed time.

        Shares :meth:`run`'s macro-step loop: the predicate is checked
        after every normal step and at every event horizon.  Each
        span is also capped at the next trace-record instant, so a
        predicate is never starved longer than one record interval and
        returns at the same instant whether or not the record cadence
        ends spans (it does only on devices with trace probes).
        """
        start = self.clock.now
        deadline = start + max_s
        while not predicate():
            if self.clock.now - start >= max_s:
                raise SimulationError(
                    f"run_until exceeded {max_s} simulated seconds")
            ticks = self._ff_horizon_ticks(min(deadline,
                                               self._next_record()))
            if ticks and self._ff_advance(ticks):
                continue
            self.step()
        return self.clock.now - start

    # -- idle fast-forward ------------------------------------------------------------

    def _ff_horizon_ticks(self, deadline: float) -> int:
        """Skippable ticks before the next event (0 = must tick).

        Generic over the registered event sources: the span is
        possible iff every source is quiescent, and extends to the
        min-over-sources next event (capped at ``deadline``).  At
        least two ticks are required to amortize a macro-step.
        """
        return self._ff_poll(deadline)[0]

    def _ff_poll(self, deadline: float) -> Tuple[int, bool, bool]:
        """``(skippable ticks, firm, executes)`` in one source pass.

        ``firm`` reports whether the bounding event instant is exact
        and time-invariant (see :attr:`~repro.sim.events.EventSource.
        horizon_firm`).  ``executes`` reports whether landing on that
        instant requires a normal step or merely closes a
        constant-power span (:attr:`~repro.sim.events.EventSource.
        horizon_executes`).  When both hold, a poll on landing there
        would answer "tick now", so the frontier scheduler skips that
        re-poll.  A 0 answer (must tick) is always firm —
        it has to be re-examined after the very next step anyway.

        The poll itself never mutates device state, so a scheduler
        that polls once and acts later (the frontier scheduler parks
        the answer in a heap) sees exactly what an act-immediately
        loop like :meth:`run` would — provided the device is untouched
        in between.
        """
        if not self.fast_forward:
            return 0, True, True
        clock = self.clock
        now = clock.now
        quiet, horizon, firm, executes = self.horizon.poll(now, deadline)
        if not quiet:
            # No macro-step attempted.  The refusal window deliberately
            # stays open: a busy poll mid-stretch (a trace record, a
            # task waking) does not end the degradation, and closing it
            # here double-counted one contiguous degraded window as
            # many.  Only a committed span (:meth:`_ff_commit`) ends
            # the window.
            return 0, True, True
        if not math.isfinite(horizon) or horizon <= now:
            return 0, True, True  # e.g. the very first record is due
        # The event fires inside the step at the first tick instant
        # >= horizon (step() compares with a 1e-12 slack); fast-forward
        # lands exactly on that tick and lets a normal step handle it.
        # (A near horizon does not close a refusal window: the trace
        # cadence lands every interval and would fragment one degraded
        # stretch into many.)
        target_tick = math.ceil((horizon - 1e-12) / clock.tick_s)
        ticks = target_tick - clock.ticks
        if ticks < 2:
            return 0, True, True  # nothing to amortize
        bound = self.horizon.bound
        self._span_target = target_tick
        self._span_bound = ("deadline" if bound is None
                            else getattr(bound, "name", type(bound).__name__))
        return ticks, firm, executes

    def _ff_advance(self, ticks: int) -> bool:
        """Advance exactly ``ticks`` ticks in one macro-step.

        Returns False — nothing mutated — when the graph's closed form
        refuses the span (e.g. a constant tap would clamp mid-span):
        the caller must take normal steps instead.  On success the
        skipped span is replayed in bulk: closed-form flows/decay on
        the graph, each event source's own closed form (netd pooled
        accrual), one constant-power meter feed (identical 200 ms
        samples), and the idle time booked to the scheduler.

        The three phases are factored so a fleet scheduler can run
        the graph solve for a whole cohort in one stacked call:
        :meth:`_ff_begin` (frozen-tap gathering and arbitration),
        the graph span itself, then :meth:`_ff_commit` /
        :meth:`_ff_refuse`.
        """
        frozen = self._ff_begin()
        if frozen is None:
            return False
        span = ticks * self.clock.tick_s
        if self.graph.advance_span(span, frozen_taps=frozen) is None:
            self._ff_refuse()
            return False  # e.g. a constant tap would clamp mid-span
        self._ff_commit(ticks)
        return True

    def _ff_begin(self) -> Optional[List]:
        """Gather the span's frozen taps, or None to refuse the span.

        Sources that integrate their own taps (netd pooled accrual)
        hold them out of the graph's span so nothing double-counts.
        Two sources claiming the same tap's accrual — e.g. netd and
        gpsd waiters sharing one reserve — are each sound in
        isolation, but replaying both would double-count the feed
        (root debited twice, both pools credited), so arbitrate here:
        tick through, which is always correct.
        """
        frozen = self.horizon.frozen_taps(self.clock.now)
        if len(frozen) > 1 and len({id(t) for t in frozen}) != len(frozen):
            self._ff_refuse()
            return None
        return frozen

    @property
    def span_segments(self) -> int:
        """Segments the switching span engine executed for this device.

        The other half of the old ``span_refusals`` telemetry: spans
        whose single-regime closed form would have refused (mid-span
        clamp, binding capacity, debt repayment) now macro-step as
        located segment chains, counted here (see
        :attr:`~repro.core.graph.ResourceGraph.span_segments`), and
        only residual refusals still land in :attr:`span_refusals`.
        """
        return self.graph.span_segments

    def _ff_refuse(self) -> None:
        """Book a refused span (window-counted, not retry-counted)."""
        if not self._span_refusing:
            self.span_refusals += 1
            self._span_refusing = True

    def _ff_commit(self, ticks: int) -> None:
        """Apply everything *but* the graph span for a macro-step.

        The caller has already advanced the resource graph (directly
        or through a cohort-stacked solve); this replays each event
        source's own closed form, feeds the meter/battery at constant
        idle power, books scheduler idle time, and moves the clock.

        Split into :meth:`_ff_commit_begin` (source replay + span
        power) and :meth:`_ff_commit_finish` (battery, scheduler,
        clock) so a fleet scheduler can interpose a cohort-batched
        meter feed between them — the per-device operation order is
        exactly this method's.
        """
        power = self._ff_commit_begin(ticks)
        self.meter.feed(power, ticks * self.clock.tick_s)
        self._ff_commit_finish(ticks, power)

    def _ff_commit_begin(self, ticks: int) -> float:
        """First half of :meth:`_ff_commit`: replay the event sources
        across the span and return the span's constant system power
        (computed after the replay, exactly where the fused commit
        computed it)."""
        clock = self.clock
        now = clock.now
        span = ticks * clock.tick_s
        self._span_refusing = False
        end = clock.ticks + ticks
        bound = self._span_bound if end == self._span_target else "fleet"
        self.span_ends[bound] = self.span_ends.get(bound, 0) + 1
        self.horizon.advance_span(now, span)
        radio_watts = self.radio.power_above_baseline(now)
        if self._power_sources:
            radio_watts += sum(source(now)
                               for source in self._power_sources)
        power = self.model.system_power(cpu_busy=False,
                                        backlight_on=self.backlight_on,
                                        radio_watts=radio_watts)
        if not self.trace.has_probes:
            self._record_span(ticks, power, radio_watts)
        return power

    def _ff_commit_finish(self, ticks: int, power: float) -> None:
        """Second half of :meth:`_ff_commit`: the caller has fed the
        meter (individually or through a cohort-batched feed)."""
        span = ticks * self.clock.tick_s
        self.battery.drain(power * span)
        self.scheduler.advance_idle(span)
        self.clock.advance_many(ticks)
        self.fast_forwarded_ticks += ticks

    # -- process internals ----------------------------------------------------------------------

    def _pump_processes(self, now: float) -> None:
        """Resume everything whose wait ended (event-indexed).

        Replaces the seed's per-tick scan over every process with a
        sleeping-process heap, a WaitFor list, and the in-flight net-op
        map — idle processes cost nothing per tick.

        All indexes are snapshotted *before* anything advances, then
        the candidates are resumed in spawn order — exactly the seed's
        single pass over ``processes``, minus the visits to processes
        with nothing to do.  A wait registered while this pump runs
        (e.g. a WaitFor yielded right after a sleep completed) is
        first considered on the next tick, and cross-process same-tick
        cascades resolve in spawn order, as before.
        """
        candidates: List[Process] = []
        if self._new_processes:
            fresh, self._new_processes = self._new_processes, []
            candidates.extend(fresh)
        sleepers = self._sleepers
        while sleepers and sleepers[0][0] <= now + 1e-12:
            _, _, process, request = heapq.heappop(sleepers)
            if process.finished or process.current is not request:
                continue  # stale entry
            candidates.append(process)
        if self._waiting:
            waiters, self._waiting = self._waiting, []
            candidates.extend(waiters)
        if self._net_ops:
            candidates.extend(self._net_ops.keys())
        if self._service_ops:
            candidates.extend(self._service_ops.keys())
        if not candidates:
            return
        candidates.sort(key=lambda p: p.spawn_order)
        for process in candidates:
            if process.finished:
                continue
            if not process.started:
                self._advance(process)
                continue
            request = process.current
            if isinstance(request, (Sleep, SleepUntil)):
                # Only due sleepers were collected above.
                process.complete_current(None)
                self._advance(process)
            elif isinstance(request, WaitFor):
                if request.predicate():
                    process.complete_current(None)
                    self._advance(process)
                else:
                    self._waiting.append(process)
            elif isinstance(request, NetRequest):
                op = self._net_ops.get(process)
                if op is not None:
                    reply = self.netd.reply_for(op)
                    if reply is not None:
                        del self._net_ops[process]
                        process.complete_current(reply)
                        self._advance(process)
            elif isinstance(request, ServiceCall):
                entry = self._service_ops.get(process)
                if entry is not None:
                    reply = entry[0].poll(entry[1])
                    if reply is not None:
                        del self._service_ops[process]
                        process.complete_current(reply)
                        self._advance(process)

    def _advance(self, process: Process) -> None:
        """Drive a process to its next *blocking* request."""
        while True:
            request = process.advance()
            if request is None:
                self.scheduler.remove_thread(process.thread)
                self._by_thread.pop(process.thread, None)
                return
            if isinstance(request, Fork):
                child = self.spawn(request.program,
                                   request.name or f"{process.name}.child")
                if request.setup is not None:
                    request.setup(child)
                process.complete_current(child)
                continue
            if isinstance(request, NetRequest):
                op = self.netd_gate.call(process.thread, request)
                reply = self.netd.reply_for(op)
                if reply is not None:
                    # Completed synchronously (instant affordable op).
                    process.complete_current(reply)
                    continue
                self._net_ops[process] = op
                return
            if isinstance(request, ServiceCall):
                op = request.submit(process.thread)
                reply = request.poll(op)
                if reply is not None:
                    # Completed synchronously (e.g. a fresh GPS fix).
                    process.complete_current(reply)
                    continue
                self._service_ops[process] = (request, op)
                return
            # CpuBurn / Sleep / SleepUntil / WaitFor block until a later
            # tick; Process.advance already set the thread state.  Index
            # the wait so _pump_processes finds it without scanning.
            if isinstance(request, (Sleep, SleepUntil)):
                heapq.heappush(self._sleepers,
                               (process.thread.wake_at,
                                next(self._sleep_seq), process, request))
            elif isinstance(request, WaitFor):
                self._waiting.append(process)
            return

    def _account_burn(self, thread, dt: float) -> None:
        process = self._by_thread.get(thread)
        if process is not None and isinstance(process.current, CpuBurn):
            process.burn_remaining -= dt
            if process.burn_remaining <= 1e-12:
                process.complete_current(None)
                self._advance(process)

    # -- reporting -------------------------------------------------------------------------------

    def watch_reserve(self, reserve: Reserve, name: str = "") -> None:
        """Record ``reserve``'s level on every trace interval."""
        label = name or f"reserve.{reserve.name}"
        self.trace.add_probe(label, lambda: reserve.level)

    def process_named(self, name: str) -> Process:
        """Find a process by name."""
        for process in self.processes:
            if process.name == name:
                return process
        raise SimulationError(f"no process named {name!r}")


class CinderSystem(DeviceRuntime):
    """A complete simulated Cinder device (the paper-default assembly).

    Thin facade: the constructor builds the HTC Dream component set —
    kernel + energy graph with the §5.2.2 decay, energy-aware
    scheduler, §4.3 radio, §5.5 netd, Agilent meter, physical battery
    — and hands it to :class:`DeviceRuntime`, which does all the work.
    """

    def __init__(
        self,
        battery_joules: float = 15_000.0,
        tick_s: float = 0.01,
        model: Optional[DreamPowerModel] = None,
        seed: int = 0,
        decay_half_life_s: float = 600.0,
        decay_enabled: bool = True,
        meter_noise: float = 0.0,
        record_interval_s: float = 0.2,
        backlight_on: bool = False,
        cooperative_netd: bool = True,
        unrestricted_netd: bool = False,
        hosts: Optional[RemoteHosts] = None,
        fast_forward: bool = True,
    ) -> None:
        model = model if model is not None else DreamPowerModel()
        clock = Clock(tick_s)
        kernel = Kernel(battery_joules)
        kernel.energy_graph.decay_policy = DecayPolicy(decay_half_life_s,
                                                       decay_enabled)
        ledger = ConsumptionLedger(clock=ClockNow(clock))
        scheduler = EnergyAwareScheduler(model.cpu_active_watts, ledger)
        radio = RadioDevice(model.radio,
                            rng=np.random.default_rng(seed + 1))
        netd = NetworkDaemon(
            kernel.energy_graph, radio, clock=ClockNow(clock),
            hosts=hosts, cooperative=cooperative_netd,
            unrestricted=unrestricted_netd, ledger=ledger)
        meter = PowerMeter(supply_voltage=model.supply_voltage,
                           noise_fraction=meter_noise,
                           rng=np.random.default_rng(seed + 2))
        battery = Battery(capacity_joules=max(battery_joules, 1.0),
                          charge_joules=battery_joules)
        super().__init__(
            model=model, clock=clock, kernel=kernel, scheduler=scheduler,
            ledger=ledger, radio=radio, netd=netd, meter=meter,
            battery=battery, rng=np.random.default_rng(seed),
            record_interval_s=record_interval_s, backlight_on=backlight_on,
            fast_forward=fast_forward)
