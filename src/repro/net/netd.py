"""netd: Cinder's cooperative network stack (paper §5.5).

netd owns the radio.  Applications reach it through a gate, so the
calling thread itself executes netd's admission logic and is billed
for it (§5.5.1).  The daemon adds two things over a plain stack:

* **Gating** — a network operation proceeds only when it is paid for.
  If the radio is idle, the bill is the activation cost; netd demands
  **125 %** of it ("essentially mandating that applications have extra
  energy to transmit and receive subsequent packets" — Figure 14).
* **Pooling** — threads that cannot afford the bill alone block and
  contribute "the energy acquired by their taps to the netd reserve"
  until the pool covers it; then the radio turns on once and *all*
  waiting threads proceed together (Figure 13b's synchronization).

The netd pool reserve is decay-exempt: "the process is trusted not to
hoard energy and, by construction, only stores enough energy to
activate the radio before being expended".

Billing detail: outbound data cost is prepaid at grant time; inbound
bytes declared in the request are prepaid too, but a server may
deliver *undeclared* extra bytes, which are debited to the caller's
reserve after the fact — "threads can debit their own reserves up to
or into debt even if the cost can only be determined after-the-fact"
(§5.5.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, List, Optional, Tuple

from ..core.accounting import ConsumptionLedger
from ..core.graph import ResourceGraph
from ..core.pooling import (PooledAccrual, analyze_pooled_accrual,
                            replay_pooled_accrual, replay_reserve_accrual)
from ..core.reserve import Reserve
from ..core.tap import Tap
from ..errors import NetworkError
from ..kernel.gate import Gate
from ..kernel.kernel import Kernel
from ..kernel.thread_obj import Thread, ThreadState
from ..sim.process import NetReply, NetRequest
from .radio import RadioDevice, Transfer
from .remote import RemoteHosts

#: netd demands this multiple of the activation cost before powering
#: the radio from idle (Figure 14: "netd requires 125% of this level").
DEFAULT_ACTIVATION_MARGIN = 1.25


class OpState(Enum):
    """Lifecycle of one submitted network operation."""

    WAITING_ENERGY = "waiting-energy"
    TRANSFERRING = "transferring"
    DONE = "done"


@dataclass
class PendingOp:
    """One network operation moving through netd."""

    thread: Thread
    request: NetRequest
    owner: str
    submitted_at: float
    state: OpState = OpState.WAITING_ENERGY
    transfer: Optional[Transfer] = None
    reply: Optional[NetReply] = None
    billed_joules: float = 0.0
    contributed_joules: float = 0.0
    response_bytes: int = 0
    response_payload: Any = None


@dataclass
class _SpanPlan:
    """Closed-form description of one blocked-wait accrual regime.

    Two regimes have a closed form.  ``mode="pooled"`` is the §5.5.2
    radio power-up pool: every queued operation is blocked on
    ``required_energy`` and each tick drains every waiter's accrual
    into the pool.  ``mode="active"`` is the §5.5.1 individual gating
    path — the radio is already active, so each caller gates on its
    *own* reserve against the marginal active cost (which grows at
    plateau power as the radio idles down).  In both, every waiter's
    reserve follows the canonical ``powered_reserve`` shape — the
    per-tick arithmetic and the validity analysis are the shared
    :mod:`repro.core.pooling` machinery (which also admits chained
    feeds through const-only junction reserves).  Under either regime
    each engine tick repeats the same float arithmetic, so the
    trajectory — and the exact tick an operation becomes affordable —
    can be replayed without running the engine.

    The plan is *persistent*: it stays valid across ticks and spans
    until its revalidation key (topology generation, decay policy,
    queue membership) or its cheap state invariants (ops still
    blocked, pooled waiters still drained to zero, radio still in the
    analyzed power state, feed budgets still healthy) stop holding —
    re-running the full graph-walking analysis every tick was a
    measurable cost at fleet scale.
    """

    #: Ops blocked waiting for energy, in queue order.
    waiting: List[PendingOp]
    #: The pool level the batch must reach (pooled mode; 0.0 active).
    required: float
    #: The shared per-tick arithmetic (entries, addends, budgets).
    accrual: PooledAccrual
    #: "pooled" (§5.5.2 power-up pool) or "active" (§5.5.1 gating).
    mode: str = "pooled"
    #: Revalidation key: (generation, decay enabled, lam, queue ids).
    key: tuple = ()
    #: Active mode: (op, reserve, declared data cost) in queue order.
    gates: Optional[List[tuple]] = None


@dataclass
class NetdStats:
    """Counters the Table 1 harness reads."""

    operations: int = 0
    radio_activations_requested: int = 0
    total_billed_joules: float = 0.0
    total_pool_contributions: float = 0.0
    total_wait_seconds: float = 0.0
    debt_debits: int = 0


class _GateService:
    """The ``netd.send`` gate body, as a picklable callable.

    A local function would pin the whole device graph as unpicklable
    (gates live on the kernel), which the barrier checkpoints in
    :mod:`repro.sim.checkpoint` cannot afford.
    """

    __slots__ = ("netd",)

    def __init__(self, netd: "NetworkDaemon") -> None:
        self.netd = netd

    def __call__(self, thread: Thread, request: Any) -> PendingOp:
        if not isinstance(request, NetRequest):
            raise NetworkError("netd.send expects a NetRequest")
        return self.netd.submit(thread, request, owner=thread.name)


class NetworkDaemon:
    """The netd daemon: admission control plus the radio data path."""

    #: EventSource protocol: display name for horizon diagnostics.
    name = "netd"

    def __init__(
        self,
        graph: ResourceGraph,
        radio: RadioDevice,
        clock: Callable[[], float],
        hosts: Optional[RemoteHosts] = None,
        activation_margin: float = DEFAULT_ACTIVATION_MARGIN,
        cooperative: bool = True,
        unrestricted: bool = False,
        ledger: Optional[ConsumptionLedger] = None,
        tick_s: Optional[float] = None,
        ticks: Optional[Callable[[], int]] = None,
    ) -> None:
        if activation_margin < 1.0:
            raise NetworkError("activation margin must be >= 1")
        self.graph = graph
        self.radio = radio
        self._clock = clock
        #: Engine tick size and tick counter, wired by the runtime so
        #: the daemon can act as an event source (closed-form pooled
        #: accrual happens on the engine's exact tick grid).
        self.tick_s = tick_s
        self._ticks = ticks
        self.hosts = hosts if hosts is not None else RemoteHosts.default()
        self.activation_margin = activation_margin
        #: Pooling enabled (Figure 13b) vs. strictly per-caller budgets.
        self.cooperative = cooperative
        #: The Figure 13a baseline: no gating, no billing.
        self.unrestricted = unrestricted
        self.ledger = ledger
        #: The shared radio power-up pool (decay-exempt; §5.5.2).
        self.pool: Reserve = graph.create_reserve(
            name="netd.pool", decay_exempt=True)
        self._queue: List[PendingOp] = []
        self.stats = NetdStats()
        #: (now, plan-or-None) — one closed-form analysis per tick.
        self._span_cache: Optional[Tuple[float, Optional[_SpanPlan]]] = None
        #: The persistent regime analysis (revalidated, not recomputed,
        #: while its key and invariants hold — see :class:`_SpanPlan`).
        self._regime: Optional[_SpanPlan] = None
        #: EventSource protocol: whether the last ``next_event`` answer
        #: was an exact instant (crossing tick) or a conservative
        #: checkpoint a fleet scheduler must not cache.
        self.horizon_firm = True

    # -- gate plumbing -----------------------------------------------------------

    def make_gate(self, kernel: Kernel, name: str = "netd.send") -> Gate:
        """Expose :meth:`submit` as a HiStar gate.

        The caller's thread runs this service, so the submission cost
        (and everything netd debits) lands on the caller's active
        reserve — §5.5.1's accounting property.
        """
        return kernel.create_gate(_GateService(self), name=name)

    # -- submission ---------------------------------------------------------------

    def submit(self, thread: Thread, request: NetRequest,
               owner: str = "") -> PendingOp:
        """Enqueue an operation; the thread blocks until it completes."""
        now = self._clock()
        op = PendingOp(thread=thread, request=request,
                       owner=owner or thread.name, submitted_at=now)
        # Resolve the remote end once, so costs are known where possible.
        server = self.hosts.lookup(request.destination)
        op.response_bytes, op.response_payload = server.respond(request)
        self._queue.append(op)
        self.stats.operations += 1
        thread.state = ThreadState.BLOCKED
        self._span_cache = None  # the closed-form analysis is stale
        self._pump(now)
        return op

    # -- cost model ------------------------------------------------------------------

    def _declared_data_cost(self, request: NetRequest) -> float:
        """Prepaid portion: outbound plus declared inbound bytes."""
        params = self.radio.params
        declared = max(0, request.bytes_out) + max(0, request.bytes_in)
        return (params.per_byte_joules * declared
                + params.per_packet_joules * request.total_packets())

    def _undeclared_recv_cost(self, op: PendingOp) -> float:
        """Post-paid portion: inbound bytes beyond what was declared."""
        extra = max(0, op.response_bytes - max(0, op.request.bytes_in))
        return self.radio.params.per_byte_joules * extra

    def required_energy(self, waiting: List[PendingOp], now: float) -> float:
        """Total the pool must hold before the batch may proceed."""
        total = sum(self._declared_data_cost(op.request) for op in waiting)
        if self.radio.would_be_idle(now):
            total += (self.activation_margin
                      * self.radio.params.activation_cost)
        else:
            total += self.radio.params.marginal_active_cost(
                self.radio.seconds_since_activity(now))
        return total

    # -- the admission pump --------------------------------------------------------------

    def step(self, now: float) -> None:
        """Advance blocked and in-flight operations (engine calls this)."""
        self._span_cache = None  # per-tick execution mutates the regime
        if not self._queue:
            return  # idle daemon: nothing to complete or pump
        self._complete_transfers(now)
        self._pump(now)

    def _complete_transfers(self, now: float) -> None:
        for op in self._queue:
            if op.state is not OpState.TRANSFERRING:
                continue
            break
        else:
            return  # the common blocked-wait tick: nothing in flight
        for op in [o for o in self._queue
                   if o.state is OpState.TRANSFERRING]:
            assert op.transfer is not None
            if op.transfer.end <= now:
                self._finish(op, now)

    def _pump(self, now: float) -> None:
        waiting = [o for o in self._queue
                   if o.state is OpState.WAITING_ENERGY]
        if not waiting:
            return
        if self.unrestricted:
            for op in waiting:
                self._start_transfer(op, now)
            return
        if not self.cooperative:
            # Per-caller budgets: each op must afford its own bill.
            for op in waiting:
                self._try_start_alone(op, now)
            return
        activation_needed = (self.radio.would_be_idle(now)
                             and self.radio.params.activation_cost > 0.0)
        if activation_needed:
            self._pump_pooled(waiting, now)
        else:
            # Radio already up (or this platform has no activation
            # spike): no power-up to amortize, so each caller simply
            # gates on its own reserve — blocked callers keep their
            # level, which is the §5.3 adaptation signal.
            for op in waiting:
                self._try_start_individually(op, now)

    def _pump_pooled(self, waiting: List[PendingOp], now: float) -> None:
        """The §5.5.2 radio power-up pooling path."""
        required = self.required_energy(waiting, now)
        available = self.pool.level + sum(
            max(0.0, op.thread.active_reserve.level) for op in waiting)
        if available + 1e-12 >= required:
            # Affordable now: draw only the shortfall from the callers,
            # leaving their surplus in their own reserves.
            shortfall = max(0.0, required - self.pool.level)
            for op in waiting:
                if shortfall <= 0.0:
                    break
                take = min(shortfall,
                           max(0.0, op.thread.active_reserve.level))
                moved = op.thread.active_reserve.transfer_to(self.pool,
                                                             take)
                op.contributed_joules += moved
                self.stats.total_pool_contributions += moved
                shortfall -= moved
        else:
            # Not yet affordable: blocked callers contribute everything
            # their taps have acquired and keep sleeping (§5.5.2).
            for op in waiting:
                self._contribute(op)
        if self.pool.level + 1e-12 >= required:
            bill = self._state_cost(now) + sum(
                self._declared_data_cost(op.request) for op in waiting)
            self.pool.consume(min(bill, self.pool.level))
            self._record(waiting, bill)
            self.stats.radio_activations_requested += 1
            for op in waiting:
                op.billed_joules += bill / len(waiting)
                self._start_transfer(op, now)

    def _try_start_individually(self, op: PendingOp, now: float) -> None:
        """Gate one op on its own reserve (plus any pool surplus)."""
        reserve = op.thread.active_reserve
        bill = self._state_cost(now) + self._declared_data_cost(op.request)
        if self.pool.level + max(0.0, reserve.level) + 1e-12 < bill:
            return
        shortfall = max(0.0, bill - self.pool.level)
        if shortfall > 0.0:
            moved = reserve.transfer_to(self.pool, shortfall)
            op.contributed_joules += moved
            self.stats.total_pool_contributions += moved
        self.pool.consume(min(bill, self.pool.level))
        op.billed_joules += bill
        self._record([op], bill)
        self._start_transfer(op, now)

    def _state_cost(self, now: float) -> float:
        """The actual (margin-free) radio state cost to debit."""
        if self.radio.would_be_idle(now):
            return self.radio.params.activation_cost
        return self.radio.params.marginal_active_cost(
            self.radio.seconds_since_activity(now))

    def _contribute(self, op: PendingOp) -> None:
        """Drain a blocked caller's reserve into the pool (§5.5.2)."""
        reserve = op.thread.active_reserve
        level = reserve.level
        if level > 0.0:
            moved = reserve.transfer_to(self.pool, level)
            op.contributed_joules += moved
            self.stats.total_pool_contributions += moved

    def _try_start_alone(self, op: PendingOp, now: float) -> None:
        reserve = op.thread.active_reserve
        bill = self._state_cost(now) + self._declared_data_cost(op.request)
        required = bill
        if self.radio.would_be_idle(now):
            required = (self.activation_margin
                        * self.radio.params.activation_cost
                        + self._declared_data_cost(op.request))
        if reserve.level + 1e-12 >= required:
            reserve.consume(min(bill, reserve.level))
            op.billed_joules += bill
            self._record([op], bill)
            if self.radio.would_be_idle(now):
                self.stats.radio_activations_requested += 1
            self._start_transfer(op, now)

    # -- transfer lifecycle -----------------------------------------------------------------

    def _start_transfer(self, op: PendingOp, now: float) -> None:
        nbytes = (max(0, op.request.bytes_out)
                  + max(op.response_bytes, max(0, op.request.bytes_in)))
        op.transfer = self.radio.begin_transfer(
            now, nbytes, op.request.total_packets(), owner=op.owner)
        op.state = OpState.TRANSFERRING
        self.stats.total_wait_seconds += now - op.submitted_at

    def _finish(self, op: PendingOp, now: float) -> None:
        wait = (op.transfer.start - op.submitted_at
                if op.transfer is not None else 0.0)
        if not self.unrestricted:
            extra = self._undeclared_recv_cost(op)
            if extra > 0.0:
                # After-the-fact debit, possibly into debt (§5.5.2).
                op.thread.active_reserve.consume(extra, allow_debt=True)
                op.billed_joules += extra
                self.stats.debt_debits += 1
                self._record([op], extra)
        op.reply = NetReply(
            bytes_out=op.request.bytes_out,
            bytes_in=max(op.response_bytes, max(0, op.request.bytes_in)),
            billed_joules=op.billed_joules,
            wait_seconds=max(0.0, wait),
            response=op.response_payload,
        )
        op.state = OpState.DONE
        self._queue.remove(op)

    def _record(self, ops: List[PendingOp], joules: float) -> None:
        self.stats.total_billed_joules += joules
        if self.ledger is not None and ops:
            share = joules / len(ops)
            for op in ops:
                self.ledger.record(op.owner, "radio", share)

    # -- event-source interface (engine idle fast-forward) ---------------------------------
    #
    # netd participates in the engine's next-event architecture.  The
    # interesting regime is a §5.5.2 pooled wait: every queued op is
    # blocked on ``required_energy`` and every engine tick repeats the
    # identical arithmetic — flow each waiter's feed tap, decay the
    # deposit, drain it into the pool.  Instead of forcing the engine
    # to tick through the whole wait, the daemon computes the *exact*
    # tick the pool will satisfy the batch (same float operations in
    # the same order, so the event lands on the bit-identical tick)
    # and replays the skipped accrual in closed form.

    #: Within this many ticks of the predicted crossing the daemon
    #: switches from the analytic bound to an exact scalar replay.
    SPAN_SCAN_WINDOW = 64

    def quiescent(self, now: float) -> bool:
        """True iff skipping ticks cannot change netd's behavior.

        An empty queue is trivially quiescent; a queue of blocked
        waiters is quiescent when the accrual regime has a closed form
        (see :meth:`_compute_span_plan`) — the §5.5.2 pool while the
        radio is idle, or §5.5.1 individual gating while it is
        active.  Anything else — transfers in flight, per-caller
        budget mode, non-canonical reserve wiring — needs per-tick
        execution.
        """
        if not self._queue:
            return True
        return self._span_plan(now) is not None

    def next_event(self, now: float) -> Optional[float]:
        """The earliest tick netd's state can change (a crossing).

        Returns the exact affordability tick when it is near, or a
        conservative checkpoint strictly before it when it is far
        (landing early is harmless — the engine takes a normal step
        and asks again).  ``None`` when the queue is empty or nothing
        accrues (starved waiters: other sources bound the span).
        Sets :attr:`horizon_firm` False on checkpoint answers so fleet
        schedulers re-poll instead of caching them.
        """
        self.horizon_firm = True
        plan = self._span_plan(now)
        if plan is None:
            return None
        if plan.mode == "active":
            return self._active_crossing(plan)
        accrual = plan.accrual
        if not accrual.addends or accrual.avail_sum <= 0.0:
            return None
        tick_s = self.tick_s
        # clock.ticks has not executed yet: the pump's next check runs
        # at this very tick index, with one fresh round of accrual.
        # The j-th future check therefore lands on tick base + j - 1.
        base_tick = self._ticks()
        pool_level = self.pool.level
        required = plan.required
        if pool_level + accrual.avail_sum + 1e-12 >= required:
            return base_tick * tick_s  # affordable at the pending tick
        # Far from the crossing, take the shared analytic bound (the
        # per-tick gain is estimated by avail_sum, which can only land
        # the engine early, never past the crossing).
        window = self.SPAN_SCAN_WINDOW
        skip = accrual.analytic_skip_ticks(accrual.avail_sum, pool_level,
                                           required, tick_s, window)
        if skip is not None:
            self.horizon_firm = False  # re-derived later lands farther
            return (base_tick + skip) * tick_s
        # Exact scalar replay of the pump's own float arithmetic: at
        # each tick the pump sees pool + avail_sum; failing that, the
        # contributions land one reserve at a time and the pump
        # re-checks the pool alone (the two sums can differ in the
        # last ulp, so both gates are modeled).
        pool_sim = pool_level
        for round_no in range(1, 2 * window + 1):
            available = pool_sim + accrual.avail_sum
            if available + 1e-12 >= required:
                return (base_tick + round_no - 1) * tick_s
            for addend in accrual.addends:
                pool_sim = pool_sim + addend
            if pool_sim + 1e-12 >= required:
                return (base_tick + round_no - 1) * tick_s
        self.horizon_firm = False
        return (base_tick + 2 * window - 1) * tick_s  # checkpoint

    def _active_crossing(self, plan: _SpanPlan) -> Optional[float]:
        """The exact tick an individually-gated op becomes affordable.

        The §5.5.1 regime: the radio is active, so each waiting op is
        gated on ``pool + its own reserve >= marginal_active_cost +
        data``, where the marginal cost *grows* at plateau power as
        the radio idles down while the reserve accrues at its tap
        rate.  The scan replays the pump's own float arithmetic tick
        by tick — one fresh accrual round, then each op's gate in
        queue order — from live levels, so the returned instant is the
        bit-exact tick ``_try_start_individually`` will fire on.
        Returns ``None`` when the radio's idle transition (an event
        the radio source already declares) arrives first.
        """
        radio = self.radio
        params = radio.params
        tick_s = self.tick_s
        base_tick = self._ticks()
        last = radio.last_activity
        plateau = params.plateau_watts
        timeout = params.idle_timeout_s
        pool_level = self.pool.level
        levels: dict = {}
        inflows: dict = {}
        for entry in plan.accrual.entries:
            key = id(entry.reserve)
            levels[key] = entry.reserve.level
            inflows[key] = entry.inflow
        # The scan is bounded by the radio's idle flip and by the feed
        # budget (beyond it a source could clamp and the per-tick
        # arithmetic would change); past the cap a checkpoint is
        # conservative and the engine simply asks again from there.
        max_rounds = int((last + timeout - base_tick * tick_s) / tick_s) + 2
        budget = plan.accrual.budget_ticks(tick_s)
        if budget != math.inf:
            max_rounds = min(max_rounds, max(1, int(budget) - 4))
        max_rounds = min(max_rounds, 4096)
        for round_no in range(1, max_rounds + 1):
            now_j = (base_tick + round_no - 1) * tick_s
            since = now_j - last
            if since >= timeout:
                return None  # the radio idles first; its source bounds
            for key, inflow in inflows.items():
                levels[key] = levels[key] + inflow
            state_cost = plateau * min(since, timeout)
            for op, reserve, data_cost in plan.gates:
                bill = state_cost + data_cost
                if (pool_level + max(0.0, levels[id(reserve)]) + 1e-12
                        >= bill):
                    return (base_tick + round_no - 1) * tick_s
        self.horizon_firm = False
        return (base_tick + max_rounds - 1) * tick_s  # checkpoint

    def span_frozen_taps(self, now: float) -> List[Tap]:
        """Feed taps the daemon integrates itself over the next span."""
        plan = self._span_plan(now)
        if plan is None:
            return []
        return plan.accrual.frozen_taps()

    def advance_span(self, now: float, span: float) -> None:
        """Replay ``span`` seconds of blocked-wait accrual in closed form.

        Pooled mode delegates to
        :func:`repro.core.pooling.replay_pooled_accrual`: the pool
        level is :func:`repro.core.pooling.repeat_add` over the
        per-tick contributions, bit-identical to repeated ``+=``
        because inside one binade every addition rounds on the same
        ulp grid, so whole runs of ticks move the level by a fixed
        whole number of ulps (integer arithmetic), and only the ticks
        that cross a binade edge are added literally.  Cumulative
        counters and the feed-source debits — the root, or a junction
        reserve on a chained feed — move in bulk.  Active mode replays
        through :func:`repro.core.pooling.replay_reserve_accrual`: the
        same exact closed form, but the deposits stay in each caller's
        own reserve (§5.5.1 — nothing pools until an op can pay).
        """
        plan = self._span_plan(now)
        if plan is None or self.tick_s is None:
            return
        ticks = int(round(span / self.tick_s))
        if ticks <= 0:
            return
        if plan.mode == "active":
            replay_reserve_accrual(self.graph, plan.accrual, ticks)
            self._span_cache = None
            return

        def credit(op: PendingOp, amount: float) -> None:
            op.contributed_joules += amount

        contributed = replay_pooled_accrual(self.graph, self.pool,
                                            plan.accrual, ticks, credit)
        if contributed > 0.0:
            self.stats.total_pool_contributions += contributed
        self._span_cache = None

    def _span_plan(self, now: float) -> Optional[_SpanPlan]:
        """The cached closed-form analysis for this tick (or None).

        Two cache layers: a per-``now`` memo (several protocol calls
        per tick share one answer) over the persistent regime, which
        is *revalidated* — key match plus cheap state invariants —
        rather than recomputed from a full graph walk each tick.
        """
        cache = self._span_cache
        if cache is not None and cache[0] == now:
            return cache[1]
        plan = self._revalidate_regime(now)
        if plan is None:
            plan = self._compute_span_plan(now)
            self._regime = plan
        self._span_cache = (now, plan)
        return plan

    def _regime_key(self) -> tuple:
        policy = self.graph.decay_policy
        return (self.graph.generation, policy.enabled, policy.lam,
                tuple(id(op) for op in self._queue))

    def _revalidate_regime(self, now: float) -> Optional[_SpanPlan]:
        """The persistent regime, iff its invariants still hold."""
        plan = self._regime
        if plan is None or plan.key != self._regime_key():
            return None
        for op in plan.waiting:
            if op.state is not OpState.WAITING_ENERGY:
                return None
        radio = self.radio
        if plan.mode == "pooled":
            if not radio.would_be_idle(now):
                return None
            if self.pool._level < 0.0:
                return None
            for entry in plan.accrual.entries:
                if entry.reserve._level != 0.0:
                    return None  # an external deposit broke the regime
        else:
            if radio.would_be_idle(now) or radio.transfers_in_flight:
                return None
        if plan.accrual.budget_ticks(self.tick_s) < 4 * self.SPAN_SCAN_WINDOW:
            return None
        return plan

    def _compute_span_plan(self, now: float) -> Optional[_SpanPlan]:
        """Analyze the queue for a closed-form blocked-wait regime.

        Returns None — per-tick execution — unless *all* of: the
        engine wired a tick grid; every queued op is WAITING_ENERGY in
        cooperative (non-unrestricted) mode; and the pool/waiter
        wiring passes the shared canonical-shape analysis
        (:func:`repro.core.pooling.analyze_pooled_accrual`) — every
        waiter reserve uncapped, fed by exactly one constant tap from
        the root or from a const-only junction reserve (a chained
        feed), with no other taps touching it, and an untapped
        uncapped decay-exempt pool.  The radio's power state picks the
        regime: idle with a real activation cost is the §5.5.2 pooled
        path (waiter reserves additionally drained to exactly zero);
        active with no transfers in flight is the §5.5.1 individual
        gating path (reserves keep their balance, so decay must be off
        or the reserve exempt — the pooling module enforces it).
        """
        if self.tick_s is None or self._ticks is None:
            return None
        if self.unrestricted or not self.cooperative:
            return None
        waiting = [op for op in self._queue
                   if op.state is OpState.WAITING_ENERGY]
        if not waiting or len(waiting) != len(self._queue):
            return None
        radio = self.radio
        key = self._regime_key()
        window_gate = 4 * self.SPAN_SCAN_WINDOW
        if radio.would_be_idle(now):
            if radio.params.activation_cost <= 0.0:
                return None
            accrual = analyze_pooled_accrual(
                self.graph, self.pool, waiting,
                reserve_of=lambda op: getattr(op.thread, "_active_reserve",
                                              None),
                tick_s=self.tick_s)
            if accrual is None:
                return None
            # Every feed source must be able to fund its frozen taps
            # through any near-horizon span (long spans are bounded in
            # next_event).  The budget is the exact net-rate bound: a
            # pass-through junction (constant inflow covering its
            # drains) is infinite and never gates the regime — the old
            # conservative gross-drain haircut degraded exactly the
            # chained feeds the span solver handles.
            if accrual.budget_ticks(self.tick_s) < window_gate:
                return None
            required = self.required_energy(waiting, now)
            return _SpanPlan(waiting=waiting, required=required,
                             accrual=accrual, mode="pooled", key=key)
        # Radio active: the individual gating path (no pooled power-up
        # to amortize).  A transfer in flight needs per-tick completion
        # checks, so only a transfer-free active radio qualifies.
        if radio.transfers_in_flight:
            return None
        accrual = analyze_pooled_accrual(
            self.graph, self.pool, waiting,
            reserve_of=lambda op: getattr(op.thread, "_active_reserve",
                                          None),
            tick_s=self.tick_s, drain_to_pool=False)
        if accrual is None:
            return None
        if accrual.budget_ticks(self.tick_s) < window_gate:
            return None
        gates = [(op, op.thread.active_reserve,
                  self._declared_data_cost(op.request)) for op in waiting]
        return _SpanPlan(waiting=waiting, required=0.0, accrual=accrual,
                         mode="active", key=key, gates=gates)

    # -- engine integration --------------------------------------------------------------------

    def reply_for(self, op: PendingOp) -> Optional[NetReply]:
        """The reply if ``op`` completed, else None (engine polls this)."""
        return op.reply

    @property
    def waiting_count(self) -> int:
        """Blocked operations (the Figure 13b queue)."""
        return sum(1 for o in self._queue
                   if o.state is OpState.WAITING_ENERGY)

    @property
    def pending_count(self) -> int:
        """All queued operations, blocked or in flight.

        The engine's idle fast-forward refuses to skip ticks while
        this is non-zero: blocked operations accrue pool energy from
        the per-tick flow pump, and in-flight transfers complete on a
        tick boundary.
        """
        return len(self._queue)
