"""A simulated Agilent E3644A DC power supply.

The paper's ground truth: "All measurements were taken using an
Agilent Technologies E3644A, a DC power supply with a current sense
resistor that can be sampled remotely via an RS-232 interface.  We
sampled both voltage and current approximately every 200 ms, and
aggregated our results from this data" (§4.2).

The simulator feeds this meter the *true* instantaneous system power
each tick; the meter quantizes it into 200 ms samples of voltage and
current (with optional sense-resistor noise), from which experiments
recover energy by aggregation — so figures compare Cinder's model
*estimates* against "measured" power exactly the way the paper does.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import SimulationError

#: The paper's sampling cadence.
DEFAULT_SAMPLE_INTERVAL_S = 0.2

#: Window-clock tolerance (seconds).  A window within this of full
#: closes, and :meth:`PowerMeter.flush` discards a partial window
#: holding less than this.  It absorbs the float rounding of the span
#: lengths callers feed (``ticks * tick_s`` carries ~1e-11 s of error
#: after a simulated day), so *where* a run is cut into feeds never
#: moves a window close.
WINDOW_EPS_S = 1e-9

#: Whole-window runs this long take numpy's sequential ``cumsum`` for
#: their running chains instead of a Python loop (same bits either way).
_CUMSUM_MIN = 64


def _running(start: float, step: float, count: int) -> np.ndarray:
    """The ``count`` running values of ``start + step + step + ...``
    (``numpy.cumsum`` is sequential: the bits of repeated ``+=``)."""
    chain = np.empty(count + 1)
    chain[0] = start
    chain[1:] = step
    return np.cumsum(chain)[1:]


def _chain(start: float, step: float, count: int) -> float:
    """``start`` plus ``step`` added ``count`` times, sequentially."""
    if count < _CUMSUM_MIN:
        for _ in range(count):
            start += step
        return start
    return float(_running(start, step, count)[-1])


class PowerMeter:
    """Accumulates true power and emits sampled V/I readings.

    Samples closed one window at a time (a partial window drained by
    a feed, a tick-by-tick run) are stored as three parallel lists.
    A noiseless run of whole windows at constant power is stored as
    one *block* ``[position, seed, interval, count, mean, end]``: its
    samples sit before list index ``position``, their times are the
    sequential chain ``seed + interval + interval + ...`` (ending at
    ``end``), and every window has length ``interval`` and mean
    ``mean``.  :meth:`samples` materializes blocks through the same
    chain, so the arrays are bit-identical to emitting each window
    on its own, while an idle hour costs one block instead of 18000
    Python floats.
    """

    def __init__(self, sample_interval_s: float = DEFAULT_SAMPLE_INTERVAL_S,
                 supply_voltage: float = 3.7,
                 noise_fraction: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if sample_interval_s <= 0:
            raise SimulationError("sample interval must be positive")
        self.sample_interval_s = sample_interval_s
        self.supply_voltage = supply_voltage
        self.noise_fraction = noise_fraction
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # accumulation within the current sample window
        self._window_energy = 0.0
        self._window_time = 0.0
        self._now = 0.0
        # emitted samples (each covers its own window duration; the
        # final flushed sample may cover a partial window)
        self._sample_times: List[float] = []
        self._sample_watts: List[float] = []
        self._sample_windows: List[float] = []
        self._blocks: List[list] = []
        self._block_samples = 0
        #: Exact integrated energy (the meter's internal totalizer).
        self.total_energy_joules = 0.0

    # -- feeding -------------------------------------------------------------------

    def _plan(self, dt: float) -> Tuple[float, int, float]:
        """``(drain, whole, tail)``: how a ``dt`` feed cuts into windows.

        ``drain`` tops up the open window (0 if none is open), then
        ``whole`` complete windows follow and ``tail`` opens the next
        one.  The whole-window count comes from one division, not from
        repeated ``remaining -= interval`` (whose rounding drifts by
        ~1e-9 s over an hour of windows), so a long span closes the
        same windows as the same time fed tick by tick.
        """
        if dt < 0:
            raise SimulationError("dt must be non-negative")
        interval = self.sample_interval_s
        remaining = dt
        drain = 0.0
        if remaining > 0.0 and self._window_time > 0.0:
            drain = min(remaining, interval - self._window_time)
            remaining -= drain
        if remaining <= 0.0:
            return drain, 0, 0.0
        whole = int(remaining / interval)
        tail = remaining - whole * interval
        if tail >= interval - WINDOW_EPS_S:
            whole += 1
            tail = 0.0
        return drain, whole, max(tail, 0.0)

    def feed(self, watts: float, dt: float) -> None:
        """Integrate true power over ``dt`` seconds; emit due samples.

        A fast-forwarded span may cover hours at constant power; its
        whole windows are emitted as one block (or, with noise, in one
        numpy draw) while reproducing :meth:`_feed_reference`, the
        window-at-a-time oracle, bit-for-bit: running times and the
        energy totalizer advance through the same sequential chains,
        window means repeat one scalar-computed value, and noise draws
        come from one array call, which consumes the generator stream
        exactly like per-window scalar draws.
        """
        if watts < 0:
            raise SimulationError("negative system power")
        self._apply(watts, self._plan(dt))

    def _apply(self, watts: float, plan: Tuple[float, int, float],
               block_end: Optional[float] = None) -> Optional[float]:
        """Feed one :meth:`_plan`; returns the whole-window run's end time."""
        drain, whole, tail = plan
        if drain > 0.0:
            self._feed_one(watts, drain)
        if whole:
            block_end = self._emit_whole_windows(watts, whole, block_end)
        if tail > 0.0:
            self._feed_one(watts, tail)
        return block_end

    def feed_cohort(self, followers: List["PowerMeter"], watts: float,
                    dt: float) -> None:
        """Feed one constant-power span to this meter and ``followers``.

        Fleet schedulers call this when a whole commit cohort shares
        the same ``(watts, dt)`` and every meter is *phase-aligned*:
        identical ``sample_interval_s``, ``noise_fraction == 0`` and
        identical ``(_window_time, _window_energy, _now)``.  Under
        those guards every meter cuts the span into the same windows
        at the same times, so the window plan and the whole-window
        run's time chain are computed once; each follower then appends
        the shared block to its own storage and advances its own
        totalizer chain.  Bit-identical to feeding each meter
        individually; callers must fall back to that when any guard
        fails (noise draws consume per-meter rng streams).
        """
        if watts < 0:
            raise SimulationError("negative system power")
        plan = self._plan(dt)
        end = self._apply(watts, plan)
        for meter in followers:
            meter._apply(watts, plan, end)

    def _feed_one(self, watts: float, remaining: float) -> float:
        """One reference iteration; returns the remaining time."""
        room = self.sample_interval_s - self._window_time
        step = min(remaining, room)
        self._window_energy += watts * step
        self._window_time += step
        self.total_energy_joules += watts * step
        self._now += step
        remaining -= step
        if self._window_time >= self.sample_interval_s - WINDOW_EPS_S:
            self._emit()
        return remaining

    def _feed_reference(self, watts: float, dt: float) -> None:
        """The window-at-a-time oracle: :meth:`feed` without blocks."""
        if watts < 0:
            raise SimulationError("negative system power")
        drain, whole, tail = self._plan(dt)
        if drain > 0.0:
            self._feed_one(watts, drain)
        for _ in range(whole):
            self._feed_one(watts, self.sample_interval_s)
        if tail > 0.0:
            self._feed_one(watts, tail)

    def _emit_whole_windows(self, watts: float, count: int,
                            end: Optional[float] = None) -> float:
        """Emit ``count`` whole windows at constant ``watts``.

        Entered only with an empty accumulation window, so every
        window repeats the same scalar arithmetic the reference loop
        would perform: energy ``watts * interval``, duration exactly
        one interval, mean ``(watts * interval) / interval``.  ``end``
        is the run's last sample time when a phase-aligned cohort
        lead already computed it; returns that time.
        """
        interval = self.sample_interval_s
        window_energy = watts * interval
        mean = window_energy / interval
        seed = self._now
        self.total_energy_joules = _chain(self.total_energy_joules,
                                          window_energy, count)
        if self.noise_fraction > 0.0:
            times = _running(seed, interval, count)
            draws = self._rng.normal(0.0, self.noise_fraction, count)
            means = np.maximum(0.0, mean * (1.0 + draws))
            self._sample_times.extend(times.tolist())
            self._sample_watts.extend(means.tolist())
            self._sample_windows.extend([interval] * count)
            self._now = float(times[-1])
            return self._now
        if end is None:
            end = _chain(seed, interval, count)
        self._now = end
        position = len(self._sample_times)
        self._block_samples += count
        if self._blocks:
            last = self._blocks[-1]
            if (last[0] == position and last[5] == seed
                    and last[2] == interval and last[4] == mean):
                # The run continues the previous block's time chain
                # with no sample in between: one longer block has the
                # same materialization.
                last[3] += count
                last[5] = end
                return end
        self._blocks.append([position, seed, interval, count, mean, end])
        return end

    def _emit(self) -> None:
        mean_watts = self._window_energy / self._window_time
        if self.noise_fraction > 0.0:
            mean_watts *= 1.0 + self._rng.normal(0.0, self.noise_fraction)
            mean_watts = max(0.0, mean_watts)
        self._sample_times.append(self._now)
        self._sample_watts.append(mean_watts)
        self._sample_windows.append(self._window_time)
        self._window_energy = 0.0
        self._window_time = 0.0

    def flush(self) -> None:
        """Emit a final partial sample (end of experiment).

        Sub-nanosecond residue from float accumulation is discarded
        rather than emitted as a bogus duplicate sample.
        """
        if self._window_time > WINDOW_EPS_S:
            self._emit()
        else:
            self._window_energy = 0.0
            self._window_time = 0.0

    # -- readings --------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Meter-local time (seconds of power fed so far)."""
        return self._now

    @property
    def sample_count(self) -> int:
        """Emitted samples so far, without materializing the arrays
        (:meth:`samples` copies the whole history — too heavy for the
        per-barrier checkpoint digests that only need the count)."""
        return len(self._sample_times) + self._block_samples

    def _materialize(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, watts, windows) arrays, blocks expanded in place."""
        times = np.asarray(self._sample_times, dtype=float)
        watts = np.asarray(self._sample_watts, dtype=float)
        windows = np.asarray(self._sample_windows, dtype=float)
        if not self._blocks:
            return times, watts, windows
        parts: Tuple[list, list, list] = ([], [], [])
        cursor = 0
        for position, seed, interval, count, mean, _ in self._blocks:
            for part, column in zip(parts, (times, watts, windows)):
                part.append(column[cursor:position])
            parts[0].append(_running(seed, interval, count))
            parts[1].append(np.full(count, mean))
            parts[2].append(np.full(count, interval))
            cursor = position
        for part, column in zip(parts, (times, watts, windows)):
            part.append(column[cursor:])
        return tuple(np.concatenate(part) for part in parts)

    def samples(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, watts) arrays of emitted samples."""
        times, watts, _ = self._materialize()
        return times, watts

    def sample_windows(self) -> np.ndarray:
        """Each emitted sample's window length, aligned with
        :meth:`samples` (a flushed final sample may be partial)."""
        return self._materialize()[2]

    def voltage_current_samples(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(times, volts, amps) — the raw channels the Agilent reports."""
        times, watts = self.samples()
        volts = np.full_like(watts, self.supply_voltage)
        amps = np.divide(watts, volts, out=np.zeros_like(watts),
                         where=volts > 0)
        return times, volts, amps

    # -- aggregation (how the paper reduces its data) ------------------------------------

    def energy_between(self, start: float, end: float) -> float:
        """Trapezoid-free energy estimate from samples in [start, end).

        Each 200 ms sample is a window mean, so summing
        ``watts * interval`` is exact up to window boundaries.
        """
        if end < start:
            raise SimulationError("end before start")
        total = 0.0
        for time, power, window in zip(
                *(column.tolist() for column in self._materialize())):
            window_start = time - window
            overlap = min(end, time) - max(start, window_start)
            if overlap > 0:
                total += power * overlap
        return total

    def mean_power_between(self, start: float, end: float) -> float:
        """Average measured power over [start, end)."""
        if end <= start:
            return 0.0
        return self.energy_between(start, end) / (end - start)

    def time_above(self, threshold_watts: float) -> float:
        """Seconds of samples whose mean exceeded ``threshold_watts``.

        Used to compute Table 1's "Active Time" from the measured
        trace (active = baseline + radio plateau present).
        """
        _, watts, windows = self._materialize()
        return float(windows[watts > threshold_watts].sum())

    def energy_above(self, threshold_watts: float) -> float:
        """Energy within samples above the threshold (Table 1's
        "Active Energy")."""
        _, watts, windows = self._materialize()
        mask = watts > threshold_watts
        return float((watts[mask] * windows[mask]).sum())
