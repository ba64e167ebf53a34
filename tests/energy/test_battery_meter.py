"""Tests for the battery gauge (§4.1) and the simulated meter (§4.2)."""

import numpy as np
import pytest

from repro.energy.battery import Battery
from repro.energy.calibrate import (UsageInterval, intervals_from_gauge,
                                    refit_from_gauge)
from repro.energy.meter import PowerMeter
from repro.errors import EnergyError, HardwareError, SimulationError


class TestBattery:
    def test_gauge_is_coarse_integer(self):
        battery = Battery(capacity_joules=1000.0, charge_joules=567.8)
        assert battery.gauge() == 57
        assert isinstance(battery.gauge(), int)

    def test_drain_clamps_at_empty(self):
        battery = Battery(capacity_joules=100.0, charge_joules=10.0)
        assert battery.drain(25.0) == pytest.approx(10.0)
        assert battery.empty

    def test_charge_clamps_at_capacity(self):
        battery = Battery(capacity_joules=100.0, charge_joules=90.0)
        assert battery.charge(25.0) == pytest.approx(10.0)

    def test_gauge_history_must_be_ordered(self):
        battery = Battery()
        battery.record_gauge(1.0)
        with pytest.raises(HardwareError):
            battery.record_gauge(0.5)

    def test_invalid_construction(self):
        with pytest.raises(EnergyError):
            Battery(capacity_joules=0.0)
        with pytest.raises(EnergyError):
            Battery(capacity_joules=10.0, charge_joules=20.0)


class TestMeter:
    def test_samples_at_200ms(self):
        meter = PowerMeter()
        meter.feed(1.0, 1.0)
        times, watts = meter.samples()
        assert len(times) == 5
        assert np.allclose(watts, 1.0)

    def test_window_mean_of_varying_power(self):
        meter = PowerMeter()
        meter.feed(1.0, 0.1)
        meter.feed(3.0, 0.1)  # one 0.2 s window: mean 2.0
        _, watts = meter.samples()
        assert watts[0] == pytest.approx(2.0)

    def test_total_energy_exact(self):
        meter = PowerMeter()
        meter.feed(0.699, 10.0)
        assert meter.total_energy_joules == pytest.approx(6.99)

    def test_energy_between(self):
        meter = PowerMeter()
        meter.feed(2.0, 4.0)
        assert meter.energy_between(1.0, 3.0) == pytest.approx(4.0)

    def test_mean_power_between(self):
        meter = PowerMeter()
        meter.feed(0.5, 2.0)
        meter.feed(1.5, 2.0)
        assert meter.mean_power_between(0.0, 4.0) == pytest.approx(1.0)

    def test_time_and_energy_above_threshold(self):
        meter = PowerMeter()
        meter.feed(0.7, 1.0)
        meter.feed(1.2, 1.0)
        assert meter.time_above(1.0) == pytest.approx(1.0)
        assert meter.energy_above(1.0) == pytest.approx(1.2)

    def test_voltage_current_channels(self):
        meter = PowerMeter(supply_voltage=3.7)
        meter.feed(3.7, 0.4)
        _, volts, amps = meter.voltage_current_samples()
        assert np.allclose(volts, 3.7)
        assert np.allclose(amps, 1.0)

    def test_noise_is_seeded_and_bounded(self):
        rng = np.random.default_rng(7)
        meter = PowerMeter(noise_fraction=0.01, rng=rng)
        meter.feed(1.0, 10.0)
        _, watts = meter.samples()
        assert watts.std() > 0.0
        assert abs(watts.mean() - 1.0) < 0.01

    def test_flush_emits_partial_window(self):
        meter = PowerMeter()
        meter.feed(1.0, 0.1)
        assert len(meter.samples()[0]) == 0
        meter.flush()
        assert len(meter.samples()[0]) == 1

    def test_negative_power_rejected(self):
        with pytest.raises(SimulationError):
            PowerMeter().feed(-1.0, 1.0)


def assert_same_samples(a: PowerMeter, b: PowerMeter) -> None:
    """Bit-for-bit equal sample streams: times, means, window lengths."""
    assert a.sample_count == b.sample_count
    for x, y in zip(a.samples(), b.samples()):
        assert np.array_equal(x, y)
    assert np.array_equal(a.sample_windows(), b.sample_windows())


class TestFeedDecomposition:
    """Where a run is cut into feeds must not move a window close."""

    @pytest.mark.parametrize("seconds", [60.0, 600.0])
    def test_one_span_n_spans_and_ticks_agree(self, seconds):
        tick = 0.01
        ticks = round(seconds / tick)
        rng = np.random.default_rng(5)
        cuts = np.unique(np.concatenate(
            ([0, ticks], rng.integers(1, ticks, 40))))
        one, many, ticked = PowerMeter(), PowerMeter(), PowerMeter()
        one.feed(0.73, ticks * tick)
        for a, b in zip(cuts[:-1], cuts[1:]):
            many.feed(0.73, int(b - a) * tick)
        for _ in range(ticks):
            ticked.feed(0.73, tick)
        expected = round(seconds / one.sample_interval_s)
        reference = one.samples()[0]
        assert len(reference) == expected
        for meter in (many, ticked):
            times, watts = meter.samples()
            assert len(times) == expected
            assert np.abs(times - reference).max() <= 1e-9
            assert watts == pytest.approx(0.73, rel=1e-12)
            assert meter.total_energy_joules == pytest.approx(
                one.total_energy_joules, rel=1e-9)

    def test_long_span_closes_every_window(self):
        # A day fed as one span: the window count comes from one
        # division, so float drift in a running remainder cannot leave
        # the last window open.
        meter = PowerMeter()
        meter.feed(0.7, 8_640_000 * 0.01)
        assert meter.sample_count == 432_000
        assert meter.now == meter.samples()[0][-1]

    def test_constant_runs_are_stored_as_blocks(self):
        meter, reference = PowerMeter(), PowerMeter()
        for watts, dt in ((0.5, 600.0), (0.5, 600.0), (1.0, 0.13),
                          (1.0, 60.0)):
            meter.feed(watts, dt)
            reference._feed_reference(watts, dt)
        assert_same_samples(meter, reference)
        # The two 600 s spans continue one time chain: one block.  The
        # 0.13 s feed opens a window the next span drains (one scalar
        # sample) before its own block.
        assert [block[3] for block in meter._blocks] == [6000, 299]
        assert len(meter._sample_times) == 1


class TestFeedCohort:
    """The cohort-batched feed must be float-identical to feeding
    each meter alone — the independent scheduler's commit relies on
    it for bit-exact fleet parity."""

    @staticmethod
    def _meters(count, prehistory=()):
        meters = [PowerMeter() for _ in range(count)]
        for meter in meters:
            for watts, dt in prehistory:
                meter.feed(watts, dt)
        return meters

    def _check(self, prehistory, watts, dt):
        cohort = self._meters(3, prehistory)
        solo = self._meters(3, prehistory)
        cohort[0].feed_cohort(cohort[1:], watts, dt)
        for meter in solo:
            meter.feed(watts, dt)
        for a, b in zip(cohort, solo):
            assert_same_samples(a, b)
            assert a.total_energy_joules == b.total_energy_joules
            assert a._window_time == b._window_time
            assert a._window_energy == b._window_energy
            assert a._now == b._now

    def test_whole_windows_from_clean_state(self):
        self._check((), 0.699, 1.0)

    def test_partial_window_carry_in_and_out(self):
        # 0.13 s of prehistory leaves a partial window; the cohort
        # feed must replay the drain step and the new tail exactly.
        self._check(((1.0, 0.13),), 0.3, 0.27)

    def test_sub_window_feed(self):
        self._check(((2.0, 0.05),), 0.7, 0.1)

    def test_long_span_cumsum_path(self):
        # >512 whole windows: feed() takes its vectorized branch;
        # the replayed increment chain must still match exactly.
        self._check(((1.0, 0.13),), 0.02, 200.0)

    def test_lead_state_is_unaffected_by_followers(self):
        lead_solo = self._meters(1, ((1.0, 0.13),))[0]
        cohort = self._meters(2, ((1.0, 0.13),))
        cohort[0].feed_cohort(cohort[1:], 0.5, 3.0)
        lead_solo.feed(0.5, 3.0)
        assert cohort[0].total_energy_joules == lead_solo.total_energy_joules
        assert_same_samples(cohort[0], lead_solo)


class TestCalibration:
    """§9: re-fitting the model from the coarse gauge."""

    def test_refit_recovers_planted_model(self):
        rng = np.random.default_rng(3)
        true_baseline, true_cpu, true_radio = 0.7, 0.14, 0.48
        intervals = []
        for _ in range(40):
            duration = float(rng.uniform(50, 200))
            cpu_busy = float(rng.uniform(0, duration))
            radio_busy = float(rng.uniform(0, duration))
            drained = (true_baseline * duration + true_cpu * cpu_busy
                       + true_radio * radio_busy)
            intervals.append(UsageInterval(
                duration, {"cpu": cpu_busy, "radio": radio_busy}, drained))
        baseline, watts = refit_from_gauge(intervals, ["cpu", "radio"])
        assert baseline == pytest.approx(true_baseline, rel=0.02)
        assert watts["cpu"] == pytest.approx(true_cpu, rel=0.05)
        assert watts["radio"] == pytest.approx(true_radio, rel=0.05)

    def test_intervals_from_gauge_pairs_steps(self):
        gauge = [(0.0, 100), (100.0, 99), (200.0, 97)]
        busy = [(0.0, {"cpu": 0.0}), (100.0, {"cpu": 50.0}),
                (200.0, {"cpu": 120.0})]
        intervals = intervals_from_gauge(gauge, 1000.0, busy)
        assert len(intervals) == 2
        assert intervals[0].drained_joules == pytest.approx(10.0)
        assert intervals[1].busy_seconds["cpu"] == pytest.approx(70.0)

    def test_refit_requires_data(self):
        with pytest.raises(EnergyError):
            refit_from_gauge([], ["cpu"])

    def test_misaligned_logs_rejected(self):
        with pytest.raises(EnergyError):
            intervals_from_gauge([(0.0, 100)], 1000.0, [])
