"""Trace records written as runs inside committed spans.

A probe-free device's spans are not ended by the record cadence;
``DeviceRuntime._record_span`` finds the records due inside each span
and writes them as one array per series.  Each record tick must be
the one the tick loop's due test (``now - last >= interval - 1e-12``
at ``now = k * tick_s``) picks, so times and values are compared
bit-for-bit with ticking, or — where ticking would take minutes —
with the one-record-at-a-time scan the engine used before, kept here
as the oracle.

Past ~8192 s at a 0.01 s tick, ``k * tick_s`` rounds to an ulp larger
than the 1e-12 s slack, and the 0.2 s stride flips between 20 and 21
ticks from record to record; those spans exercise the verify-and-
rescan path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.sim.engine import CinderSystem

DAY_TICKS = 8_640_000   # 86,400 s at the default 0.01 s tick


def scalar_record_ticks(k: int, end: int, tick_s: float, interval: float,
                        last: float):
    """The record ticks in ``[k, end)`` found one record at a time."""
    ticks = []
    while k < end:
        due = last + interval
        if math.isfinite(due):
            k = max(k, math.ceil(due / tick_s) - 1)
        elif due > 0.0:
            break
        while k < end and not k * tick_s - last >= interval - 1e-12:
            k += 1
        if k >= end:
            break
        ticks.append(k)
        last = k * tick_s
        k += 1
    return ticks


def device(fast_forward: bool, interval: float = 0.2,
           clock_ticks: int = 0) -> CinderSystem:
    """An idle, probe-free device, its clock started ``clock_ticks`` in."""
    system = CinderSystem(record_interval_s=interval,
                          fast_forward=fast_forward)
    system.clock.advance_many(clock_ticks)
    return system


def assert_same_records(fast: CinderSystem, slow: CinderSystem) -> None:
    for name in ("power.system", "power.radio"):
        fast_series = fast.trace.series(name)
        slow_series = slow.trace.series(name)
        assert np.array_equal(fast_series.times, slow_series.times), name
        assert np.array_equal(fast_series.values, slow_series.values), name
    assert fast._last_record == slow._last_record
    assert fast.fast_forwarded_ticks > 0
    assert slow.fast_forwarded_ticks == 0
    assert fast.span_ends.get("trace", 0) == 0


class TestRecordRuns:
    def test_flipping_stride_past_a_day_matches_ticking(self):
        fast = device(True, clock_ticks=DAY_TICKS)
        slow = device(False, clock_ticks=DAY_TICKS)
        fast.run(60.0)
        slow.run(60.0)
        assert_same_records(fast, slow)
        ticks = np.rint(fast.trace.series("power.system").times
                        / fast.clock.tick_s).astype(np.int64)
        assert set(np.diff(ticks).tolist()) == {20, 21}

    def test_stride_below_nominal_past_a_day(self):
        # 19 ticks fall 1e-13 s short of this interval in exact
        # arithmetic, so the nominal stride is 20; rounded clock times
        # make 19 ticks due now and then, and a 20-tick candidate must
        # then be refused because the tick before it was already due.
        interval = 0.19 + 1.1e-12
        fast = device(True, interval, clock_ticks=DAY_TICKS)
        slow = device(False, interval, clock_ticks=DAY_TICKS)
        fast.run(60.0)
        slow.run(60.0)
        assert_same_records(fast, slow)
        ticks = np.rint(fast.trace.series("power.system").times
                        / fast.clock.tick_s).astype(np.int64)
        assert 19 in set(np.diff(ticks).tolist())

    def test_day_long_span_matches_scalar_scan(self):
        # One span from 0 s into the flipping regime: whole verified
        # runs early on, short ones and rescans later.
        system = device(True)
        system.run(20_000.0)
        tick_s = system.clock.tick_s
        expected = np.array(scalar_record_ticks(
            0, system.clock.ticks, tick_s, 0.2, -math.inf)) * tick_s
        series = system.trace.series("power.system")
        assert np.array_equal(series.times, expected)
        assert np.all(series.values == series.values[0])
        assert system._last_record == expected[-1]
        strides = np.diff(np.rint(expected / tick_s).astype(np.int64))
        assert set(strides.tolist()) == {20, 21}

    @pytest.mark.parametrize("interval", [0.2, 0.37, 1.0])
    def test_span_starting_mid_interval(self, interval):
        fast = device(True, interval)
        slow = device(False, interval)
        for chunk in (0.07, 5.0, 0.13, 7.77):
            fast.run(chunk)
            slow.run(chunk)
        assert_same_records(fast, slow)

    def test_spans_shorter_than_one_interval(self):
        fast = device(True, clock_ticks=DAY_TICKS)
        slow = device(False, clock_ticks=DAY_TICKS)
        for chunk in [0.05, 0.03, 0.11, 0.01] * 20:
            fast.run(chunk)
            slow.run(chunk)
        assert_same_records(fast, slow)

    def test_infinite_interval_records_once(self):
        fast = device(True, math.inf)
        slow = device(False, math.inf)
        fast.run(30.0)
        slow.run(30.0)
        assert_same_records(fast, slow)
        assert len(fast.trace.series("power.system")) == 1

    def test_span_without_a_due_record_writes_nothing(self):
        system = device(True)
        system.run(0.01)          # the first record, at t = 0
        system._record_span(19, 1.0, 0.0)
        assert len(system.trace.series("power.system")) == 1
        system._record_span(20, 1.0, 0.0)
        assert len(system.trace.series("power.system")) == 2
